// 8259A-style programmable interrupt controller pair (master + slave).
//
// This is one of the two devices the paper's lightweight VMM emulates for
// the guest (the other is the timer): the monitor needs to share interrupt
// delivery with the OS under debug, so the guest talks to a virtual PIC
// while the monitor owns this physical one. The model implements the ICW
// initialisation sequence, OCW1 masking, non-specific and specific EOI,
// IRR/ISR readback via OCW3, fixed priority with cascade on IRQ2, and both
// level-triggered lines and latched edge pulses.
#pragma once

#include <array>
#include <string>

#include "common/metrics.h"
#include "common/snapshot.h"
#include "cpu/bus.h"
#include "hw/device.h"

namespace vdbg::hw {

inline constexpr u16 kPicMasterBase = 0x20;
inline constexpr u16 kPicSlaveBase = 0xa0;
inline constexpr unsigned kPicCascadeIrq = 2;

class Pic final : public cpu::IntrLine, public IrqSink {
 public:
  Pic();

  // --- device lines (IrqSink) ---
  void set_irq_level(unsigned irq, bool asserted) override;
  void pulse_irq(unsigned irq) override;

  // --- CPU INTR/INTA (cpu::IntrLine) ---
  bool intr_asserted() const override;
  u8 acknowledge() override;

  /// Port blocks: map master_ports() at 0x20 (2 ports) and slave_ports()
  /// at 0xA0 (2 ports).
  IoDevice& master_ports() { return master_io_; }
  IoDevice& slave_ports() { return slave_io_; }

  // --- test/monitor introspection ---
  u8 imr(bool slave) const { return chip(slave).imr; }
  u8 isr(bool slave) const { return chip(slave).isr; }
  u8 irr(bool slave) const {
    return static_cast<u8>(chip(slave).level | chip(slave).edge);
  }
  u8 vector_offset(bool slave) const { return chip(slave).offset; }

  /// Spurious vector delivered when INTA finds nothing (master IRQ7).
  u8 spurious_vector() const { return master_.offset + 7; }

  u64 acks() const { return acks_; }

  /// Registers <prefix>.acks / <prefix>.spurious. The prefix distinguishes
  /// the physical PIC ("hw.pic") from the monitor's virtual one
  /// ("vmm.vpic", registered by Lvmm — its acks are vIDT injections).
  void register_metrics(MetricsRegistry& reg, const std::string& prefix);

  /// Snapshot support: both chips are plain registers, no timeline state.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  struct Chip {
    u8 imr = 0xff;   // all masked until the OS programs OCW1
    u8 isr = 0;
    u8 level = 0;    // level-triggered inputs
    u8 edge = 0;     // latched pulses
    u8 offset;       // ICW2 vector base
    int icw_step = -1;   // >=0: expecting ICW{2,3,4}
    bool icw4_needed = false;
    bool read_isr = false;  // OCW3 selector for command-port reads
  };

  const Chip& chip(bool slave) const { return slave ? slave_ : master_; }
  Chip& chip(bool slave) { return slave ? slave_ : master_; }

  /// Pending unmasked requests not blocked by in-service priority; returns
  /// the IRQ number (0-7) or -1.
  static int deliverable(const Chip& c, u8 extra_pending = 0);

  u32 chip_read(Chip& c, u16 offset);
  void chip_write(Chip& c, u16 offset, u32 value);

  struct ChipIo final : IoDevice {
    Pic* pic = nullptr;
    bool slave = false;
    u32 io_read(u16 offset) override {
      return pic->chip_read(pic->chip(slave), offset);
    }
    void io_write(u16 offset, u32 value) override {
      pic->chip_write(pic->chip(slave), offset, value);
    }
  };

  Chip master_;
  Chip slave_;
  u64 acks_ = 0;      // vectors delivered through INTA
  u64 spurious_ = 0;  // INTA cycles that found nothing deliverable
  ChipIo master_io_;  // snap:skip(stateless port shim over master_)
  ChipIo slave_io_;   // snap:skip(stateless port shim over slave_)
};

}  // namespace vdbg::hw
