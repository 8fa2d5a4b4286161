// Gigabit Ethernet NIC model: descriptor-ring transmit DMA with doorbell,
// line-rate serialisation, optional UDP checksum offload, and a completion
// interrupt.
//
// Register block (32-bit ports, offsets from base):
//   +0x00 RING_BASE (rw) physical address of the descriptor ring
//   +0x04 RING_SIZE (rw) number of 16-byte descriptors
//   +0x08 TAIL      (rw) producer index (free-running); writing is the
//                        doorbell that starts/continues the DMA engine
//   +0x0c HEAD      (r)  consumer index (free-running, completed)
//   +0x10 ISR       (r)  bit0 tx-complete, bit1 ring/DMA error
//                   (w)  any write acknowledges and deasserts the IRQ
//   +0x14 IMR       (rw) bit0 enables the tx-complete interrupt,
//                        bit1 enables the rx interrupt
//   +0x18 MAC_LO    (r)
//   +0x1c MAC_HI    (r)
//   +0x20 RX_BASE   (rw) physical address of the receive descriptor ring
//   +0x24 RX_SIZE   (rw) number of receive descriptors
//   +0x28 RX_HEAD   (r)  producer index (frames the NIC has delivered)
//   +0x2c RX_TAIL   (rw) consumer index (descriptors the guest recycled)
//
// TX descriptor layout (16 bytes):
//   +0  u32 buf_paddr     frame bytes (Ethernet headers + payload)
//   +4  u32 len           frame length in bytes
//   +8  u32 flags         bit0: raise ISR bit0 when this frame completes
//                         bit1: offload UDP checksum computation
//   +12 u32 status        written by the NIC: 1 = sent, 2 = error
//
// RX descriptor layout (16 bytes):
//   +0  u32 buf_paddr     receive buffer
//   +4  u32 capacity      buffer size in bytes
//   +8  u32 status        written by the NIC: 1 = filled, 2 = truncated
//   +12 u32 len           written by the NIC: received frame length
//
// ISR bits: 0 = tx complete, 1 = tx/ring error, 2 = rx frame delivered.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/snapshot.h"
#include "cpu/phys_mem.h"
#include "hw/device.h"

namespace vdbg::hw {

inline constexpr u16 kNicBase = 0x2000;
inline constexpr unsigned kNicIrq = 5;
inline constexpr u32 kNicDescBytes = 16;
inline constexpr u32 kNicMaxFrame = 9018;  // jumbo ceiling

struct NicDescFlags {
  static constexpr u32 kIrqOnComplete = 1u << 0;
  static constexpr u32 kChecksumOffload = 1u << 1;
};

class Nic final : public IoDevice {
 public:
  struct Config {
    double line_bits_per_sec = 1e9;
    /// Preamble + SFD + FCS + inter-frame gap, charged per frame on the wire.
    u32 framing_overhead_bytes = 24;
  };

  using WireSink = std::function<void(std::span<const u8>, Cycles)>;

  Nic(EventQueue& eq, const Clock& clock, IrqSink& irq, cpu::PhysMem& mem,
      Config cfg);

  u32 io_read(u16 offset) override;
  void io_write(u16 offset, u32 value) override;

  void set_wire_sink(WireSink sink) { wire_ = std::move(sink); }

  /// A frame arriving from the wire. DMAs it into the next receive
  /// descriptor and raises the RX interrupt (when enabled). Returns false
  /// when the frame was dropped (no ring, ring full, bad buffer).
  bool host_rx_frame(std::span<const u8> frame, Cycles now);

  u32 head() const { return head_; }
  u32 tail() const { return tail_; }
  u64 frames_sent() const { return frames_; }
  u64 bytes_sent() const { return bytes_; }
  u64 errors() const { return errors_; }
  u64 frames_received() const { return rx_frames_; }
  u64 rx_dropped() const { return rx_dropped_; }

  /// Registers hw.nic.* counters and queue-depth gauges.
  void register_metrics(MetricsRegistry& reg) {
    reg.add_counter("hw.nic.frames_sent", &frames_);
    reg.add_counter("hw.nic.bytes_sent", &bytes_);
    reg.add_counter("hw.nic.errors", &errors_);
    reg.add_counter("hw.nic.frames_received", &rx_frames_);
    reg.add_counter("hw.nic.rx_dropped", &rx_dropped_);
    reg.add_gauge("hw.nic.tx_queue_depth",
                  [this] { return double(tail_ - head_); });
    reg.add_gauge("hw.nic.rx_queue_depth",
                  [this] { return double(rx_head_ - rx_tail_); });
  }

  /// Replay mute: while set, completed frames are not handed to the wire
  /// sink (the host already saw them on the first pass). Timing, DMA and
  /// interrupts are unchanged.
  void set_wire_muted(bool muted) { wire_muted_ = muted; }
  bool wire_muted() const { return wire_muted_; }

  // --- perturbation knobs (multiverse fork time; deterministic) ---
  /// Constant extra serialisation cycles charged to every transmitted
  /// frame: shifts each TX-complete interrupt by the same amount, i.e. a
  /// guest-visible latency perturbation.
  void set_wire_delay_extra(Cycles extra) { wire_delay_extra_ = extra; }
  /// Swaps each of the next `pairs` adjacent completed-frame pairs on the
  /// wire sink (bounded packet reordering). Guest-invisible; observers of
  /// the wire see the reordered delivery. A frame held for a swap flushes
  /// with its partner; if transmission stops for good mid-pair the held
  /// frame is never delivered (the bound is in completed pairs).
  void set_tx_swap_pairs(u64 pairs) { tx_swap_pairs_ = pairs; }

  /// Snapshot support: registers, counters and the in-flight frame (the
  /// frame bytes themselves are saved because guest memory may have been
  /// rewritten after the DMA read).
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  void kick();
  void transmit_next(Cycles from);
  /// Hands a completed frame to the wire sink, applying the swap window.
  void emit_wire(const std::vector<u8>& frame, Cycles now);
  /// Completes the in-flight frame held in tx_frame_/tx_desc_/tx_flags_/
  /// tx_bad_ (kept in members, not lambda captures, so snapshots can
  /// serialise an in-flight transmit).
  void frame_done(Cycles now);
  PAddr desc_addr(u32 index) const;

  EventQueue& eq_;
  const Clock& clock_;
  IrqSink& irq_;
  cpu::PhysMem& mem_;
  Config cfg_;     // snap:skip(construction-time config)
  WireSink wire_;  // snap:skip(host callback wiring)

  void update_irq();

  u32 ring_base_ = 0;
  u32 ring_size_ = 0;
  u32 head_ = 0;  // free-running consumer index
  u32 tail_ = 0;  // free-running producer index
  u32 isr_ = 0;
  u32 imr_ = 0;
  bool engine_active_ = false;

  u32 rx_base_ = 0;
  u32 rx_size_ = 0;
  u32 rx_head_ = 0;  // device produces
  u32 rx_tail_ = 0;  // guest consumes/recycles

  // In-flight transmit (valid while tx_event_ != 0). tx_frame_ and
  // tx_event_ are cleared up front in restore so stale in-flight state
  // never leaks, then re-armed from the saved deadline.
  std::vector<u8> tx_frame_;  // snap:reorder(reset-before-read)
  PAddr tx_desc_ = 0;
  u32 tx_flags_ = 0;
  bool tx_bad_ = false;
  EventId tx_event_ = 0;  // snap:reorder(reset-before-read)
  bool wire_muted_ = false;  // snap:skip(replay-time mute, host policy)

  // Perturbation state (set at fork time, serialized so checkpoints taken
  // inside a perturbed timeline replay under the same perturbation).
  Cycles wire_delay_extra_ = 0;
  u64 tx_swap_pairs_ = 0;
  std::vector<u8> held_wire_frame_;
  bool held_wire_valid_ = false;

  u64 frames_ = 0;
  u64 bytes_ = 0;
  u64 errors_ = 0;
  u64 rx_frames_ = 0;
  u64 rx_dropped_ = 0;
};

}  // namespace vdbg::hw
