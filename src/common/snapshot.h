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

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace vdbg {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
/// `seed` allows incremental computation: pass a previous return value.
u32 crc32(const u8* data, std::size_t len, u32 seed = 0);

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

/// Appends primitives to a growing byte buffer, little-endian.
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

  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v);
  void put_u32(u32 v);
  void put_u64(u64 v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_bytes(const u8* data, std::size_t len);
  /// Length-prefixed (u64) byte blob.
  void put_blob(const u8* data, std::size_t len);
  void put_string(const std::string& s);

  /// Opens a tagged section. Sections may not nest.
  void begin_section(SnapTag tag);
  /// Closes the open section, back-patching its length field.
  void end_section();

  /// Appends the CRC32 trailer and returns the finished stream.
  std::vector<u8> finish();

 private:
  std::vector<u8> buf_;
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
  /// Bytes remaining in the open section.
  std::size_t section_remaining() const { return section_end_ - pos_; }

  // Primitive reads. Out-of-bounds reads (past the open section) set an
  // error, return 0 and leave the cursor clamped; callers check ok() once
  // after a batch of reads rather than after each one.
  u8 get_u8();
  u16 get_u16();
  u32 get_u32();
  u64 get_u64();
  bool get_bool() { return get_u8() != 0; }
  void get_bytes(u8* out, std::size_t len);
  std::vector<u8> get_blob();
  std::string get_string();

 private:
  struct Section {
    SnapTag tag;
    std::size_t begin;  // payload offset
    std::size_t len;
  };
  void fail(std::string msg);

  const u8* data_ = nullptr;
  std::size_t len_ = 0;
  std::vector<Section> sections_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool ok_ = false;
  std::string error_;
};

}  // namespace vdbg
