#include "common/snapshot.h"

#include <algorithm>
#include <array>

namespace vdbg {
namespace {

// Slice-by-8 tables: kCrc[0] is the classic byte table; kCrc[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups advance the
// CRC over eight input bytes at once.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

// One slice-by-8 step: advances CRC register `c` over data[0, 8).
inline u32 crc_step8(const CrcTables& t, u32 c, const u8* data) {
  u32 lo, hi;
  std::memcpy(&lo, data, 4);
  std::memcpy(&hi, data + 4, 4);
  lo ^= c;
  return t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
         t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
         t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
}

// Product a * b modulo the CRC polynomial, both polynomials in the
// reflected bit order the CRC register uses (bit 31 is x^0).
u32 crc_mulmod(u32 a, u32 b) {
  u32 p = 0;
  for (u32 m = 0x80000000u; a != 0; m >>= 1) {
    if (a & m) {
      p ^= b;
      a ^= m;
    }
    b = (b & 1) ? (b >> 1) ^ 0xedb88320u : b >> 1;
  }
  return p;
}

// x^(8n) modulo the polynomial: multiplying a CRC register by it is the
// same as running the register over n zero bytes.
u32 crc_shift_constant(const CrcTables& t, std::size_t n) {
  u32 c = 0x80000000u;  // x^0
  for (std::size_t i = 0; i < n; ++i) c = t[0][c & 0xffu] ^ (c >> 8);
  return c;
}

struct CrcLaneShifts {
  u32 one_lane;   // x^(8 * kCrc32LaneBytes)
  u32 two_lanes;  // x^(16 * kCrc32LaneBytes)
};

}  // namespace

u32 crc32(const u8* data, std::size_t len, u32 seed) {
  static const CrcTables t = make_crc_tables();
  constexpr std::size_t kLane = kCrc32LaneBytes;
  u32 c = seed ^ 0xffffffffu;
  if (len >= 3 * kLane) {
    static const CrcLaneShifts k{crc_shift_constant(t, kLane),
                                 crc_shift_constant(t, 2 * kLane)};
    // Three independent chains hide the table-lookup latency of one. The
    // CRC register is linear: running it over L0 L1 L2 from c equals
    // shift(crc(c, L0), 2 lanes) ^ shift(crc(0, L1), 1 lane) ^ crc(0, L2).
    for (; len >= 3 * kLane; data += 3 * kLane, len -= 3 * kLane) {
      u32 c0 = c, c1 = 0, c2 = 0;
      for (std::size_t i = 0; i < kLane; i += 8) {
        c0 = crc_step8(t, c0, data + i);
        c1 = crc_step8(t, c1, data + kLane + i);
        c2 = crc_step8(t, c2, data + 2 * kLane + i);
      }
      c = crc_mulmod(k.two_lanes, c0) ^ crc_mulmod(k.one_lane, c1) ^ c2;
    }
  }
  for (; len >= 8; data += 8, len -= 8) c = crc_step8(t, c, data);
  for (; len > 0; ++data, --len) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

SnapshotWriter::SnapshotWriter() {
  put_bytes(reinterpret_cast<const u8*>(kMagic), sizeof(kMagic));
  put_u32(kVersion);
}

void SnapshotWriter::grow(std::size_t len) {
  buf_.resize(std::max({buf_.size() * 2, end_ + len, std::size_t{256}}));
}

void SnapshotWriter::put_blob(const u8* data, std::size_t len) {
  put_u64(len);
  put_bytes(data, len);
}

void SnapshotWriter::put_string(const std::string& s) {
  put_blob(reinterpret_cast<const u8*>(s.data()), s.size());
}

void SnapshotWriter::begin_section(SnapTag tag) {
  put_u32(static_cast<u32>(tag));
  section_len_at_ = end_;
  put_u64(0);  // length placeholder, patched in end_section
  in_section_ = true;
}

void SnapshotWriter::end_section() {
  const u64 len = end_ - (section_len_at_ + 8);
  std::memcpy(buf_.data() + section_len_at_, &len, 8);
  in_section_ = false;
}

std::vector<u8> SnapshotWriter::finish() {
  const u32 crc = crc32(buf_.data(), end_);
  put_u32(static_cast<u32>(SnapTag::kEnd));
  put_u64(8);
  put_u64(crc);
  finished_ = true;
  buf_.resize(end_);
  return std::move(buf_);
}

SnapshotReader::SnapshotReader(const u8* data, std::size_t len)
    : data_(data), len_(len) {
  if (len < sizeof(SnapshotWriter::kMagic) + 4) {
    fail("snapshot truncated: shorter than header");
    return;
  }
  if (std::memcmp(data, SnapshotWriter::kMagic,
                  sizeof(SnapshotWriter::kMagic)) != 0) {
    fail("snapshot rejected: bad magic");
    return;
  }
  std::size_t pos = sizeof(SnapshotWriter::kMagic);
  auto rd_u32 = [&](u32& out) {
    if (pos + 4 > len_) return false;
    std::memcpy(&out, data_ + pos, 4);
    pos += 4;
    return true;
  };
  auto rd_u64 = [&](u64& out) {
    if (pos + 8 > len_) return false;
    std::memcpy(&out, data_ + pos, 8);
    pos += 8;
    return true;
  };

  u32 version = 0;
  rd_u32(version);
  if (version != SnapshotWriter::kVersion) {
    fail("snapshot rejected: unsupported version " + std::to_string(version));
    return;
  }

  // Walk the section table; the kEnd trailer must be present and must carry
  // a CRC matching everything that precedes it.
  bool saw_end = false;
  while (pos < len_) {
    const std::size_t section_start = pos;
    u32 tag = 0;
    u64 slen = 0;
    if (!rd_u32(tag) || !rd_u64(slen)) {
      fail("snapshot truncated: partial section header");
      return;
    }
    if (slen > len_ - pos) {
      fail("snapshot truncated: section payload runs past end");
      return;
    }
    if (static_cast<SnapTag>(tag) == SnapTag::kEnd) {
      if (slen != 8) {
        fail("snapshot rejected: malformed trailer");
        return;
      }
      u64 stored = 0;
      rd_u64(stored);
      const u32 actual = crc32(data_, section_start);
      if (static_cast<u32>(stored) != actual) {
        fail("snapshot rejected: checksum mismatch");
        return;
      }
      saw_end = true;
      break;
    }
    sections_.push_back(Section{static_cast<SnapTag>(tag), pos,
                                static_cast<std::size_t>(slen)});
    pos += slen;
  }
  if (!saw_end) {
    fail("snapshot truncated: missing checksum trailer");
    return;
  }
  ok_ = true;
}

void SnapshotReader::fail(std::string msg) {
  if (ok_ || error_.empty()) error_ = std::move(msg);
  ok_ = false;
  sections_.clear();
  pos_ = section_end_ = 0;
}

bool SnapshotReader::open_section(SnapTag tag) {
  if (!ok_) return false;
  for (const Section& s : sections_) {
    if (s.tag == tag) {
      pos_ = s.begin;
      section_end_ = s.begin + s.len;
      return true;
    }
  }
  fail("snapshot rejected: missing section " +
       std::to_string(static_cast<u32>(tag)));
  return false;
}

bool SnapshotReader::has_section(SnapTag tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return true;
  }
  return false;
}

void SnapshotReader::overrun(u8* out, std::size_t len) {
  fail("snapshot rejected: read past section end");
  std::memset(out, 0, len);
}

std::vector<u8> SnapshotReader::get_blob() {
  const u64 len = get_u64();
  if (!ok_ || len > section_end_ - pos_) {
    fail("snapshot rejected: blob runs past section end");
    return {};
  }
  std::vector<u8> out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

std::string SnapshotReader::get_string() {
  std::vector<u8> b = get_blob();
  return std::string(b.begin(), b.end());
}

}  // namespace vdbg
