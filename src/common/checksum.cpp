#include "common/checksum.h"

namespace vdbg {

void InternetChecksum::add(std::span<const u8> data) {
  const u8* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  u64 sum = sum_;
  if (odd_) {
    sum += *p++;  // low byte of the pending 16-bit word
    --n;
  }
  for (; n >= 2; p += 2, n -= 2) sum += (u32{p[0]} << 8) | p[1];
  odd_ = n != 0;
  if (odd_) sum += u32{*p} << 8;  // high byte; its low byte comes next
  sum_ = sum;
}

void InternetChecksum::add_u16(u16 value) {
  const u8 bytes[2] = {static_cast<u8>(value >> 8),
                       static_cast<u8>(value & 0xff)};
  add(bytes);
}

u16 InternetChecksum::fold() const {
  u64 s = sum_;
  while (s >> 16) s = (s & 0xffff) + (s >> 16);
  return static_cast<u16>(~s & 0xffff);
}

u16 internet_checksum(std::span<const u8> data) {
  InternetChecksum c;
  c.add(data);
  return c.fold();
}

}  // namespace vdbg
