// 16550-style UART: the debugging communication device.
//
// The target-side end is a register block at 0x3F8 (RBR/THR, IER, IIR, LCR,
// MCR, LSR); the host-side end is a pair of C++ hooks the remote debugger
// connects to. Under the lightweight VMM the monitor owns this device and
// its interrupt; in the "stub embedded in the OS" baseline the guest drives
// it through IN/OUT like any other device.
#pragma once

#include <deque>
#include <functional>
#include <string_view>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/snapshot.h"
#include "hw/device.h"

namespace vdbg::hw {

inline constexpr u16 kUartBase = 0x3f8;
inline constexpr unsigned kUartIrq = 4;

class Uart final : public IoDevice {
 public:
  struct Config {
    /// Cycles to serialise one byte. Default models a ~1 MB/s debug link
    /// (the paper leaves the communication device unspecified).
    Cycles byte_time = 1260;
    std::size_t tx_fifo_depth = 16;
  };

  Uart(EventQueue& eq, const Clock& clock, IrqSink& irq, Config cfg)
      : eq_(eq), clock_(clock), irq_(irq), cfg_(cfg) {}

  // --- target-side register block ---
  u32 io_read(u16 offset) override;
  void io_write(u16 offset, u32 value) override;

  // --- host-side (debugger) end ---
  /// Byte arriving from the host: lands in the RX FIFO and, when enabled,
  /// raises IRQ4.
  void host_inject(u8 byte);
  void host_inject(std::string_view bytes);
  /// Sink receiving each byte the target transmits (after serialisation).
  void set_tx_sink(std::function<void(u8)> sink) { tx_sink_ = std::move(sink); }

  u64 rx_bytes() const { return rx_bytes_; }
  u64 tx_bytes() const { return tx_bytes_; }

  /// Registers hw.uart.* byte counters and queue-depth gauge.
  void register_metrics(MetricsRegistry& reg);

  /// Replay mute: while set, transmitted bytes are serialised (same timing,
  /// same interrupts) but not delivered to the host sink. Used by the
  /// time-travel controller so re-executed output is not sent to the
  /// debugger twice.
  void set_tx_muted(bool muted) { tx_muted_ = muted; }
  bool tx_muted() const { return tx_muted_; }

  /// Snapshot support: FIFOs, registers and the in-flight transmit byte's
  /// deadline/sequence. The host-side sink and mute flag are wiring, not
  /// guest state, and are left alone.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  void update_irq();
  void start_tx(Cycles from);
  void tx_done(Cycles now);

  EventQueue& eq_;
  const Clock& clock_;
  IrqSink& irq_;
  Config cfg_;  // snap:skip(construction-time config)

  std::deque<u8> rx_;
  std::deque<u8> tx_;
  bool tx_busy_ = false;
  u8 tx_shift_ = 0;
  bool thre_intr_ = false;
  u8 ier_ = 0;
  u8 lcr_ = 0;
  u8 mcr_ = 0;
  u64 rx_bytes_ = 0;  // bytes the host injected
  u64 tx_bytes_ = 0;  // bytes fully serialised by the target
  // Cancelled up front in restore, then re-armed from the saved deadline
  // once the serialized fields are back. snap:reorder(reset-before-read)
  EventId tx_event_ = 0;
  bool tx_muted_ = false;  // snap:skip(replay-time mute, host policy)
  std::function<void(u8)> tx_sink_;  // snap:skip(host callback wiring)
};

}  // namespace vdbg::hw
