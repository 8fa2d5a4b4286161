// Versioned, checksummed byte-stream serialization for machine snapshots.
//
// A snapshot is a flat byte vector:
//
//   magic "VDBGSNAP" (8 bytes)
//   version u32 (little-endian)
//   N tagged sections:  tag u32 | length u64 | payload bytes
//   trailer: tag kEndTag | length 8 | crc32 of everything before the trailer
//
// All primitives are little-endian. The reader validates magic, version,
// section framing (no section may run past the end of the buffer) and the
// CRC32 trailer before any payload is handed out, so truncated or corrupted
// snapshots are rejected up front rather than mid-restore.
#pragma once

#include <bit>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace vdbg {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range,
/// eight bytes per step (slice-by-8). `seed` allows incremental computation:
/// pass a previous return value.
u32 crc32(const u8* data, std::size_t len, u32 seed = 0);
/// crc32 runs each round of three lanes of this many bytes side by side and
/// joins them by a GF(2) shift; inputs shorter than a round, and the tail
/// after the last round, take one lane.
inline constexpr std::size_t kCrc32LaneBytes = 2048;

// Primitives move between host integers and the stream's little-endian bytes
// with one memcpy each.
static_assert(std::endian::native == std::endian::little,
              "snapshot primitives are copied as host-order bytes");

/// Section tags. Each serializable component owns one tag; the writer emits
/// sections in save order and the reader locates them by tag.
enum class SnapTag : u32 {
  kEnd = 0,  // trailer sentinel, payload is the stream CRC32
  kCpu = 1,
  kMmu = 2,
  kPhysMem = 3,
  kPic = 4,
  kPit = 5,
  kUart = 6,
  kNic = 7,
  kScsi = 8,
  kDiag = 9,
  kMachine = 10,
  kShadowMmu = 11,
  kGuestMem = 12,
  kLvmm = 13,
  kVpic = 14,
  kTimeTravel = 15,
  kIrqPerturb = 16,
};

/// Appends primitives to a growing byte buffer, little-endian. The writer
/// tracks its own end inside the buffer and doubles the buffer only when a
/// put does not fit, so each primitive costs one compare and one memcpy.
class SnapshotWriter {
 public:
  static constexpr char kMagic[8] = {'V', 'D', 'B', 'G', 'S', 'N', 'A', 'P'};
  // v2: PIC ack counters, UART byte counters, Lvmm interrupt-delivery spans.
  // v3: IRQ-perturbation section (kIrqPerturb), external-contents PhysMem
  //     framing for COW delta checkpoints.
  // v5: kLvmm and kShadowMmu drop the debugger's write watchpoints (watch
  //     ranges, last hit, watched pages); they are the CPU's host-side
  //     debug state now, which no snapshot carries.
  // v6: kPhysMem drops the per-page write versions; they are host decode
  //     history now (PhysMem retires decoded pages on restore instead).
  static constexpr u32 kVersion = 6;

  SnapshotWriter();

  void put_u8(u8 v) { put_bytes(&v, 1); }
  void put_u32(u32 v) { put_bytes(reinterpret_cast<const u8*>(&v), 4); }
  void put_u64(u64 v) { put_bytes(reinterpret_cast<const u8*>(&v), 8); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Appends `len` bytes with one capacity check and one copy.
  void put_bytes(const u8* data, std::size_t len) {
    if (len == 0) return;  // `data` may be null
    if (len > buf_.size() - end_) [[unlikely]] grow(len);
    std::memcpy(buf_.data() + end_, data, len);
    end_ += len;
  }
  /// Length-prefixed (u64) byte blob.
  void put_blob(const u8* data, std::size_t len);
  void put_string(const std::string& s);

  /// Opens a tagged section. Sections may not nest.
  void begin_section(SnapTag tag);
  /// Closes the open section, back-patching its length field.
  void end_section();

  /// Appends the CRC32 trailer and returns the finished stream, trimmed to
  /// its end.
  std::vector<u8> finish();

 private:
  /// Doubles the buffer (or more) until `len` more bytes fit past end_.
  void grow(std::size_t len);

  std::vector<u8> buf_;  // bytes [0, end_) are written; the rest is capacity
  std::size_t end_ = 0;
  std::size_t section_len_at_ = 0;  // offset of open section's length field
  bool in_section_ = false;
  bool finished_ = false;
};

/// Validating cursor over a snapshot stream produced by SnapshotWriter.
class SnapshotReader {
 public:
  /// Validates magic, version, section framing and the CRC32 trailer.
  /// On failure `ok()` is false and `error()` describes the rejection;
  /// no section is readable.
  SnapshotReader(const u8* data, std::size_t len);
  explicit SnapshotReader(const std::vector<u8>& buf)
      : SnapshotReader(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// Positions the cursor at the start of the section with `tag`.
  /// Returns false (and sets error) if the section is absent.
  bool open_section(SnapTag tag);
  /// True when the stream holds a section with `tag`; moves nothing.
  bool has_section(SnapTag tag) const;

  // Primitive reads, one bounds check each. Out-of-bounds reads (past the
  // open section) set an error, return 0 and leave the cursor clamped;
  // callers check ok() once after a batch of reads rather than after each
  // one.
  u8 get_u8() {
    u8 v = 0;
    get_bytes(&v, 1);
    return v;
  }
  u32 get_u32() {
    u32 v = 0;
    get_bytes(reinterpret_cast<u8*>(&v), 4);
    return v;
  }
  u64 get_u64() {
    u64 v = 0;
    get_bytes(reinterpret_cast<u8*>(&v), 8);
    return v;
  }
  bool get_bool() { return get_u8() != 0; }
  /// Copies `len` bytes out; past the section end, fails and zero-fills.
  void get_bytes(u8* out, std::size_t len) {
    if (len > section_end_ - pos_) [[unlikely]] {
      overrun(out, len);
      return;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  std::vector<u8> get_blob();
  std::string get_string();

 private:
  struct Section {
    SnapTag tag;
    std::size_t begin;  // payload offset
    std::size_t len;
  };
  void fail(std::string msg);
  void overrun(u8* out, std::size_t len);

  const u8* data_ = nullptr;
  std::size_t len_ = 0;
  std::vector<Section> sections_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool ok_ = false;
  std::string error_;
};

}  // namespace vdbg
