#include "common/snapshot.h"

#include <array>

namespace vdbg {
namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

u32 crc32(const u8* data, std::size_t len, u32 seed) {
  static const std::array<u32, 256> table = make_crc_table();
  u32 c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

SnapshotWriter::SnapshotWriter() {
  // Byte-wise rather than a range insert: GCC 12's -Wstringop-overflow
  // misfires on vector::insert from a char array into an empty vector.
  for (char c : kMagic) put_u8(static_cast<u8>(c));
  put_u32(kVersion);
}

void SnapshotWriter::put_u32(u32 v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
}

void SnapshotWriter::put_u64(u64 v) {
  for (int i = 0; i < 8; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
}

void SnapshotWriter::put_bytes(const u8* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
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
  section_len_at_ = buf_.size();
  put_u64(0);  // length placeholder, patched in end_section
  in_section_ = true;
}

void SnapshotWriter::end_section() {
  const u64 len = buf_.size() - (section_len_at_ + 8);
  for (int i = 0; i < 8; ++i) {
    buf_[section_len_at_ + i] = static_cast<u8>(len >> (8 * i));
  }
  in_section_ = false;
}

std::vector<u8> SnapshotWriter::finish() {
  const u32 crc = crc32(buf_.data(), buf_.size());
  put_u32(static_cast<u32>(SnapTag::kEnd));
  put_u64(8);
  put_u64(crc);
  finished_ = true;
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
    out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<u32>(data_[pos + i]) << (8 * i);
    pos += 4;
    return true;
  };
  auto rd_u64 = [&](u64& out) {
    if (pos + 8 > len_) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<u64>(data_[pos + i]) << (8 * i);
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

u8 SnapshotReader::get_u8() {
  if (pos_ + 1 > section_end_) {
    fail("snapshot rejected: read past section end");
    return 0;
  }
  return data_[pos_++];
}

u32 SnapshotReader::get_u32() {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(get_u8()) << (8 * i);
  return v;
}

u64 SnapshotReader::get_u64() {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(get_u8()) << (8 * i);
  return v;
}

void SnapshotReader::get_bytes(u8* out, std::size_t len) {
  if (pos_ + len > section_end_) {
    fail("snapshot rejected: read past section end");
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

std::vector<u8> SnapshotReader::get_blob() {
  const u64 len = get_u64();
  if (!ok_ || pos_ + len > section_end_) {
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
