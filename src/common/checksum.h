// RFC 1071 Internet checksum, used by the IPv4/UDP codec and by the NIC
// model's checksum-offload path.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"

namespace vdbg {

/// Incremental ones'-complement sum; fold() yields the final checksum.
class InternetChecksum {
 public:
  void add(std::span<const u8> data);
  void add_u16(u16 value);  // value in host order, summed as big-endian
  u16 fold() const;

 private:
  // Sum of big-endian 16-bit words. A u64 cannot wrap before 2^48 words,
  // so fold() sees every carry.
  u64 sum_ = 0;
  bool odd_ = false;  // true when a dangling high byte is pending
};

/// One-shot convenience: checksum of a single buffer.
u16 internet_checksum(std::span<const u8> data);

}  // namespace vdbg
