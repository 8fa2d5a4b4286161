// Ultra160-class SCSI disk controller model with DMA.
//
// In the paper's evaluation the guest reads 2 MB blocks from three of these
// at a constant rate. Under the lightweight VMM the guest drives the
// controller DIRECTLY (its ports are open in the I/O permission bitmap);
// under the hosted full VMM every register access traps and the transfer is
// re-issued through the host-OS path.
//
// Register block (32-bit ports, offsets from the controller base):
//   +0x00 REQ_ADDR  (w)  physical address of a 16-byte request block
//   +0x04 DOORBELL  (w)  any write submits a READ of the request at REQ_ADDR
//   +0x08 ISR       (r)  bit0: completion pending; (w) any write: ack/clear
//   +0x0c STATUS    (r)  status of the most recent completion (StatusCode)
//   +0x10 WDOORBELL (w)  any write submits a WRITE (memory -> disk)
//
// Request block layout in guest memory:
//   +0  u32 lba           starting logical block (512-byte sectors)
//   +4  u32 sector_count
//   +8  u32 buf_paddr     DMA target (read) / source (write)
//   +12 u32 status        written by the controller on completion
//
// Disk content is synthetic and deterministic: byte j of sector `lba` on
// disk `id` is pattern_byte(id, lba, j), so integrity of the full
// disk -> memory -> UDP -> sink pipeline is checkable without storing
// gigabytes.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/snapshot.h"
#include "cpu/phys_mem.h"
#include "hw/device.h"

namespace vdbg::hw {

inline constexpr u32 kSectorBytes = 512;
inline constexpr u32 kScsiRequestBytes = 16;

/// Port bases for the three controllers the experiment uses.
inline constexpr u16 kScsiBase0 = 0x1c00;
inline constexpr u16 kScsiPortStride = 0x20;
inline constexpr unsigned kScsiIrq0 = 10;  // IRQs 10, 11, 12 (slave PIC)

class ScsiDisk final : public IoDevice {
 public:
  enum Status : u32 {
    kOk = 0,
    kBadRequest = 1,   // zero length, out-of-range LBA, unaligned address
    kDmaError = 2,     // DMA would leave RAM or touch protected frames
    kBusy = 3,         // doorbell while a request is in flight
  };

  struct Config {
    u32 capacity_sectors = 8 * 1024 * 1024;  // 4 GiB
    double sustained_bytes_per_sec = 160e6;  // Ultra160 channel rate
    Cycles command_overhead = 60000;         // ~48 us: command + seek amortised
    u32 max_sectors_per_request = 16384;     // 8 MiB
  };

  ScsiDisk(unsigned id, EventQueue& eq, const Clock& clock, IrqSink& irq,
           unsigned irq_line, cpu::PhysMem& mem, Config cfg);

  u32 io_read(u16 offset) override;
  void io_write(u16 offset, u32 value) override;

  /// Reads `out.size()` bytes starting at sector `lba`, honouring sectors
  /// previously written to this disk (host-side view of the medium).
  void read_medium(u32 lba, std::span<u8> out) const;

  /// Deterministic content generator for sector data.
  static u8 pattern_byte(unsigned disk_id, u32 lba, u32 offset_in_sector);
  /// Fills `out` with the pattern from byte `first_off` of sector `lba`
  /// onwards, running on across sector boundaries; every byte equals
  /// pattern_byte at its sector and offset. Used by the disk's DMA, by the
  /// stream validator and by integrity tests.
  static void fill_pattern(unsigned disk_id, u32 lba, u32 first_off,
                           std::span<u8> out);

  // --- perturbation knob (multiverse fork time; deterministic) ---
  /// Constant extra cycles added to every request's completion latency on
  /// top of Config::command_overhead — a guest-visible disk-latency
  /// perturbation. Serialized, so checkpoints taken inside a perturbed
  /// timeline replay under the same latency.
  void set_command_overhead_extra(Cycles extra) {
    command_overhead_extra_ = extra;
  }

  bool busy() const { return busy_; }
  u64 requests_completed() const { return completed_; }
  u64 bytes_transferred() const { return bytes_; }
  u64 sectors_written() const { return written_.size(); }
  unsigned id() const { return id_; }
  const Config& config() const { return cfg_; }

  /// Registers <prefix>.* counters (prefix e.g. "hw.scsi0", per controller).
  void register_metrics(MetricsRegistry& reg, const std::string& prefix) {
    reg.add_counter(prefix + ".requests_completed", &completed_);
    reg.add_counter(prefix + ".bytes_transferred", &bytes_);
    reg.add_gauge(prefix + ".busy", [this] { return busy_ ? 1.0 : 0.0; });
  }

  /// Snapshot support: registers, the written-sector overlay and the
  /// in-flight request's parameters plus its completion deadline/sequence.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  void submit(bool is_write);
  /// Completes the in-flight request held in cur_* (members, not lambda
  /// captures, so snapshots can serialise an active transfer).
  void complete(Cycles now);
  void finish_with(u32 status, PAddr req_addr);

  unsigned id_;  // snap:skip(construction-time identity)
  EventQueue& eq_;
  const Clock& clock_;
  IrqSink& irq_;
  unsigned irq_line_;  // snap:skip(construction-time wiring)
  cpu::PhysMem& mem_;
  Config cfg_;  // snap:skip(construction-time config)

  u32 req_addr_ = 0;
  bool busy_ = false;
  bool intr_pending_ = false;
  u32 last_status_ = kOk;
  u64 completed_ = 0;
  u64 bytes_ = 0;
  // In-flight request (valid while busy_).
  u32 cur_lba_ = 0;
  u32 cur_sectors_ = 0;
  u32 cur_buf_ = 0;
  PAddr cur_req_ = 0;
  bool cur_is_write_ = false;
  // Cancelled up front in restore, then re-armed from the saved deadline
  // once the serialized fields are back. snap:reorder(reset-before-read)
  EventId event_ = 0;
  /// Sparse overlay of written sectors over the synthetic pattern.
  std::map<u32, std::array<u8, kSectorBytes>> written_;
  /// Multiverse latency perturbation; see set_command_overhead_extra().
  Cycles command_overhead_extra_ = 0;
};

}  // namespace vdbg::hw
