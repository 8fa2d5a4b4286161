#include "hw/scsi_disk.h"

#include <algorithm>

#include "common/units.h"

namespace vdbg::hw {

ScsiDisk::ScsiDisk(unsigned id, EventQueue& eq, const Clock& clock,
                   IrqSink& irq, unsigned irq_line, cpu::PhysMem& mem,
                   Config cfg)
    : id_(id),
      eq_(eq),
      clock_(clock),
      irq_(irq),
      irq_line_(irq_line),
      mem_(mem),
      cfg_(cfg) {}

namespace {

// Cheap deterministic mix; distinct across disks, sectors and offsets. The
// pattern byte at offset j of a sector is mix(sector_base + j * 40503).
u32 sector_base(unsigned disk_id, u32 lba) {
  return lba * 2654435761u + disk_id * 97u + 0x9e37u;
}
constexpr u32 kOffsetStep = 40503u;
u8 mix(u32 x) {
  x ^= x >> 15;
  x *= 2246822519u;
  x ^= x >> 13;
  return static_cast<u8>(x);
}

using Overlay = std::map<u32, std::array<u8, kSectorBytes>>;

/// Calls f(byte offset from lba, sector data) for each overlay sector that
/// overlaps the `bytes` bytes starting at sector `lba`, in order.
template <typename F>
void for_each_written(const Overlay& written, u32 lba, u64 bytes, F&& f) {
  const u64 end = lba + (bytes + kSectorBytes - 1) / kSectorBytes;
  for (auto it = written.lower_bound(lba);
       it != written.end() && it->first < end; ++it) {
    f(u64{it->first - lba} * kSectorBytes, it->second);
  }
}

}  // namespace

u8 ScsiDisk::pattern_byte(unsigned disk_id, u32 lba, u32 off) {
  return mix(sector_base(disk_id, lba) + off * kOffsetStep);
}

void ScsiDisk::fill_pattern(unsigned disk_id, u32 lba, u32 first_off,
                            std::span<u8> out) {
  lba += first_off / kSectorBytes;
  u32 off = first_off % kSectorBytes;
  u8* p = out.data();
  std::size_t left = out.size();
  while (left != 0) {
    u32 x = sector_base(disk_id, lba) + off * kOffsetStep;
    const std::size_t n = std::min<std::size_t>(left, kSectorBytes - off);
    if (n == kSectorBytes) {
      // A whole sector: the fixed trip count lets the compiler vectorise
      // this loop, and stepping x, rather than recomputing it from
      // j * kOffsetStep, spares the vector loop a second multiply.
      for (u32 j = 0; j < kSectorBytes; ++j, x += kOffsetStep) p[j] = mix(x);
    } else {
      for (std::size_t j = 0; j < n; ++j, x += kOffsetStep) p[j] = mix(x);
    }
    p += n;
    left -= n;
    off = 0;
    ++lba;
  }
}

u32 ScsiDisk::io_read(u16 offset) {
  switch (offset) {
    case 0x08:
      return intr_pending_ ? 1u : 0u;
    case 0x0c:
      return last_status_;
    default:
      return 0;
  }
}

void ScsiDisk::io_write(u16 offset, u32 value) {
  switch (offset) {
    case 0x00:
      req_addr_ = value;
      break;
    case 0x04:
      submit(/*is_write=*/false);
      break;
    case 0x10:
      submit(/*is_write=*/true);
      break;
    case 0x08:
      (void)value;
      intr_pending_ = false;
      irq_.set_irq_level(irq_line_, false);
      break;
    default:
      break;
  }
}

void ScsiDisk::finish_with(u32 status, PAddr req_addr) {
  last_status_ = status;
  if (mem_.contains(req_addr + 12, 4) &&
      !mem_.overlaps_protected(req_addr + 12, 4)) {
    mem_.write32(req_addr + 12, status);
  }
  intr_pending_ = true;
  irq_.set_irq_level(irq_line_, true);
}

void ScsiDisk::read_medium(u32 lba, std::span<u8> out) const {
  fill_pattern(id_, lba, 0, out);
  // Overlay any sectors the guest wrote.
  for_each_written(written_, lba, out.size(),
                   [out](u64 off, const auto& sector) {
                     const std::size_t n = std::min<std::size_t>(
                         kSectorBytes, out.size() - off);
                     std::copy_n(sector.begin(), n, out.begin() + off);
                   });
}

void ScsiDisk::submit(bool is_write) {
  if (busy_) {
    // Doorbell while in flight: reject without touching the active request.
    last_status_ = kBusy;
    return;
  }
  const PAddr req = req_addr_;
  if (!mem_.contains(req, kScsiRequestBytes)) {
    finish_with(kBadRequest, req);
    return;
  }
  const u32 lba = mem_.read32(req);
  const u32 sectors = mem_.read32(req + 4);
  const u32 dest = mem_.read32(req + 8);

  if (sectors == 0 || sectors > cfg_.max_sectors_per_request ||
      lba >= cfg_.capacity_sectors ||
      sectors > cfg_.capacity_sectors - lba || (dest & 3)) {
    finish_with(kBadRequest, req);
    return;
  }
  const u32 bytes = sectors * kSectorBytes;
  if (!mem_.contains(dest, bytes)) {
    finish_with(kDmaError, req);
    return;
  }
  if (!is_write && mem_.overlaps_protected(dest, bytes)) {
    // DMA guard: the monitor's frames are not reachable by bus masters.
    finish_with(kDmaError, req);
    return;
  }

  busy_ = true;
  cur_lba_ = lba;
  cur_sectors_ = sectors;
  cur_buf_ = dest;
  cur_req_ = req;
  cur_is_write_ = is_write;
  const Cycles delay =
      cfg_.command_overhead + command_overhead_extra_ +
      transfer_cycles(bytes, cfg_.sustained_bytes_per_sec);
  event_ = eq_.schedule_in(
      clock_.now(), delay, [this](Cycles now) { complete(now); },
      "scsi.complete");
}

void ScsiDisk::complete(Cycles) {
  event_ = 0;
  const u32 bytes = cur_sectors_ * kSectorBytes;
  if (cur_is_write_) {
    // Memory -> disk: capture each sector into the overlay.
    for (u32 i = 0; i < cur_sectors_; ++i) {
      auto& sector = written_[cur_lba_ + i];
      mem_.read_block(cur_buf_ + i * kSectorBytes, sector);
    }
  } else {
    // Disk -> memory: the pattern goes straight into the guest's frames,
    // then the written sectors land over it.
    mem_.fill_block(cur_buf_, bytes, [this](u32 done, std::span<u8> dst) {
      fill_pattern(id_, cur_lba_, done, dst);
    });
    for_each_written(written_, cur_lba_, bytes,
                     [this](u64 off, const auto& sector) {
                       mem_.write_block(cur_buf_ + static_cast<u32>(off),
                                        sector);
                     });
  }
  busy_ = false;
  ++completed_;
  bytes_ += bytes;
  finish_with(kOk, cur_req_);
}

void ScsiDisk::save(SnapshotWriter& w) const {
  w.put_u32(req_addr_);
  w.put_bool(busy_);
  w.put_bool(intr_pending_);
  w.put_u32(last_status_);
  w.put_u64(completed_);
  w.put_u64(bytes_);
  w.put_u64(command_overhead_extra_);
  w.put_u64(written_.size());
  for (const auto& [sector, data] : written_) {
    w.put_u32(sector);
    w.put_bytes(data.data(), data.size());
  }
  const auto ev = event_ != 0 ? eq_.info(event_) : std::nullopt;
  w.put_bool(ev.has_value());
  if (ev) {
    w.put_u64(ev->deadline);
    w.put_u64(ev->seq);
    w.put_u32(cur_lba_);
    w.put_u32(cur_sectors_);
    w.put_u32(cur_buf_);
    w.put_u32(cur_req_);
    w.put_bool(cur_is_write_);
  }
}

void ScsiDisk::restore(SnapshotReader& r) {
  if (event_ != 0) {
    eq_.cancel(event_);
    event_ = 0;
  }
  req_addr_ = r.get_u32();
  busy_ = r.get_bool();
  intr_pending_ = r.get_bool();
  last_status_ = r.get_u32();
  completed_ = r.get_u64();
  bytes_ = r.get_u64();
  command_overhead_extra_ = r.get_u64();
  written_.clear();
  const u64 n = r.get_u64();
  for (u64 i = 0; i < n && r.ok(); ++i) {
    const u32 sector = r.get_u32();
    auto& data = written_[sector];
    r.get_bytes(data.data(), data.size());
  }
  if (r.get_bool()) {
    const Cycles deadline = r.get_u64();
    const u64 seq = r.get_u64();
    cur_lba_ = r.get_u32();
    cur_sectors_ = r.get_u32();
    cur_buf_ = r.get_u32();
    cur_req_ = r.get_u32();
    cur_is_write_ = r.get_bool();
    event_ = eq_.schedule_restored(
        deadline, seq, [this](Cycles now) { complete(now); },
        "scsi.complete");
  }
}

}  // namespace vdbg::hw
