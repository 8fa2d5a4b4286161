// The simulated PC/AT-class target machine: CPU, physical memory, PIC pair,
// PIT, UART, three SCSI controllers, gigabit NIC, diagnostic port, and the
// discrete-event loop that advances them coherently.
//
// The machine knows nothing about monitors: a platform (native / LVMM /
// hosted VMM) configures the CPU (trap hook, I/O bitmap, protected frames)
// and then drives run_for().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "asm/program.h"
#include "common/event_queue.h"
#include "common/snapshot.h"
#include "cpu/cpu.h"
#include "hw/diag_port.h"
#include "hw/io_bus.h"
#include "hw/irq_perturb.h"
#include "hw/nic.h"
#include "hw/pic.h"
#include "hw/pit.h"
#include "hw/scsi_disk.h"
#include "hw/uart.h"

namespace vdbg::hw {

struct MachineConfig {
  u32 mem_bytes = 64u * 1024 * 1024;
  unsigned num_disks = 3;
  cpu::CostModel costs = cpu::CostModel::pentium3();
  Uart::Config uart{};
  ScsiDisk::Config scsi{};
  Nic::Config nic{};
};

class Machine final : public Clock {
 public:
  explicit Machine(MachineConfig cfg = {});

  // --- component access ---
  cpu::Cpu& cpu() { return *cpu_; }
  cpu::PhysMem& mem() { return mem_; }
  EventQueue& events() { return eq_; }
  PortRouter& router() { return router_; }
  Pic& pic() { return pic_; }
  /// The IRQ shim every device delivers through; all-zero delays by default
  /// (synchronous passthrough). Multiverse timelines set per-line arrival
  /// delays here at fork time.
  IrqPerturb& irq_perturb() { return irq_perturb_; }
  Pit& pit() { return *pit_; }
  Uart& uart() { return *uart_; }
  Nic& nic() { return *nic_; }
  ScsiDisk& disk(unsigned i) { return *disks_.at(i); }
  unsigned num_disks() const { return static_cast<unsigned>(disks_.size()); }
  DiagPort& diag() { return diag_; }
  const MachineConfig& config() const { return cfg_; }

  Cycles now() const override { return cpu_->cycles(); }

  /// Loads a program image and points the CPU at `entry` (label "entry" or
  /// the image base when absent).
  void load(const vasm::Program& image);

  enum class StopReason : u8 {
    kBudget,        // the requested span elapsed
    kShutdown,      // triple fault (native mode: machine is dead)
    kGuestExit,     // guest wrote the diag exit port
    kIdleDeadlock,  // halted/frozen with no pending events: nothing can ever happen
    kExternalStop,  // external_stop() was called (host-side tooling)
    kInstrLimit,    // run_to_instruction() reached its target boundary
  };

  /// Advances simulated time by up to `budget` cycles, interleaving CPU
  /// execution and device events.
  StopReason run_for(Cycles budget);

  /// Convenience: run until guest exit / shutdown / deadlock, in slices,
  /// up to `max` cycles total.
  StopReason run_until_stopped(Cycles max);

  /// Replay primitive: runs until exactly `target` guest instructions have
  /// retired (kInstrLimit), or until another stop fires first. The stop is
  /// exact and side-effect free: no pending interrupt is acknowledged at
  /// the stopping boundary. Returns kInstrLimit immediately (no time
  /// advance) when the target has already been reached.
  StopReason run_to_instruction(u64 target, Cycles budget);

  /// Periodic instruction-count hooks (time-travel checkpointer, flight
  /// loop). Each fires between CPU slices at the first opportunity
  /// at-or-after every multiple of `every` retired instructions, anchored
  /// at absolute multiples. When several hooks are due at one boundary,
  /// hooks that charge simulated cycles (`charges`) fire first, then the
  /// rest, each group in registration order. So a capture taken at a
  /// boundary holds every charge made there, and a run restored from it
  /// re-fires every hook at exactly the later boundaries the original run
  /// used. Returns an id for remove_instr_hook(). `every` must be nonzero.
  using InstrHook = std::function<void(u64 icount)>;
  int add_instr_hook(u64 every, InstrHook hook, bool charges);
  void remove_instr_hook(int id);

  /// Registers every component's counters with a metrics registry
  /// (cpu.core.*, cpu.sbc.*, cpu.tlb.*, hw.pic.*, hw.pit.*, hw.uart.*,
  /// hw.nic.*, hw.scsi<N>.*, hw.machine.*). Monitor metrics on top are
  /// registered separately by their owner (see vmm::Lvmm::register_metrics).
  void register_metrics(MetricsRegistry& reg);

  // --- snapshot support ---
  /// Serialises the whole machine: CPU+MMU, physical memory, and every
  /// device, each in its own tagged section. Monitor/VMM state on top is
  /// saved separately by its owner (see vmm::Lvmm::save). With
  /// `external_mem` the physical-memory section carries only a sentinel:
  /// the caller keeps the contents out-of-band as a CowPages capture and
  /// must adopt_cow() *before* restoring such a stream (delta checkpoints).
  void save(SnapshotWriter& w, bool external_mem = false) const;
  /// True when `r` was saved from a machine configured like this one
  /// (memory size, disk count) and holds every section restore() opens.
  /// Applies nothing; leaves the cursor past the kMachine configuration
  /// words.
  bool fits(SnapshotReader& r) const;
  /// Restores from a validated snapshot. Returns false when the stream is
  /// rejected or does not fit (machine unchanged), or when a section is
  /// short (machine partially restored — treat as fatal).
  bool restore(SnapshotReader& r);

  /// Host tooling: make the current/next run_for return kExternalStop.
  void external_stop() { external_stop_ = true; }

  /// Debugger support: while frozen the CPU does not execute, but simulated
  /// time and devices advance; `service` (the monitor's polling loop) runs
  /// every iteration.
  void set_cpu_frozen(bool frozen) { frozen_ = frozen; }
  bool cpu_frozen() const { return frozen_; }
  void set_frozen_service(std::function<void()> service) {
    frozen_service_ = std::move(service);
  }

  // --- accounting ---
  Cycles idle_cycles() const { return idle_cycles_; }
  /// CPU load over a window: 1 - idle/total.
  struct LoadProbe {
    Cycles start_cycles = 0;
    Cycles start_idle = 0;
  };
  LoadProbe begin_load_probe() const { return {now(), idle_cycles_}; }
  double cpu_load(const LoadProbe& probe) const;

  std::optional<u32> guest_exit_code() const { return guest_exit_; }
  void clear_guest_exit() { guest_exit_.reset(); }

 private:
  // Saved as a configuration echo that fits() checks, never restored.
  // snap:skip(construction-time configuration)
  MachineConfig cfg_;
  // Only next_seq is serialized, and it is applied after every device has
  // re-armed its events. snap:reorder(applied after schedule_restored)
  EventQueue eq_;
  cpu::PhysMem mem_;
  PortRouter router_;  // snap:skip(port wiring rebuilt by the constructor)
  Pic pic_;
  IrqPerturb irq_perturb_;
  DiagPort diag_;
  std::unique_ptr<cpu::Cpu> cpu_;
  std::unique_ptr<Pit> pit_;
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<Nic> nic_;
  std::vector<std::unique_ptr<ScsiDisk>> disks_;

  bool frozen_ = false;
  std::function<void()> frozen_service_;  // snap:skip(host callback wiring)
  bool external_stop_ = false;  // snap:skip(transient; reset by restore)
  std::optional<u32> guest_exit_;
  Cycles idle_cycles_ = 0;

  // Host run control; reset by restore(), never serialized. snap:skip(host)
  u64 instr_target_ = ~u64{0};  // run_to_instruction() stop
  struct HookSlot {
    int id = 0;
    u64 every = 0;
    u64 next = ~u64{0};  // next firing boundary (absolute icount)
    bool charges = false;
    InstrHook fn;
  };
  std::vector<HookSlot> instr_hooks_;  // snap:skip(host callback wiring)
  int next_hook_id_ = 1;               // snap:skip(host)

  /// First retired-instruction boundary any host observer needs: the
  /// minimum over hook boundaries, the CPU profiler's next sample, and
  /// `cap` (the run_to_instruction target).
  u64 next_instr_boundary(u64 cap) const;
};

}  // namespace vdbg::hw
