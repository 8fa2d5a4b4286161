// The VX32 CPU: the reference fetch/decode/execute interpreter and the
// superblock fast path (see superblock.h and DESIGN.md "Execution:
// reference interpreter and superblocks"), trap and interrupt delivery, the
// trap hook a VMM installs to intercept events, the monitor's debug state
// (breakpoints, write watchpoints and single step, all kept outside guest
// state), and the I/O permission bitmap that implements device passthrough.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/types.h"
#include "cpu/bus.h"
#include "cpu/cost_model.h"
#include "cpu/cpu_state.h"
#include "cpu/fault.h"
#include "cpu/isa.h"
#include "cpu/mmu.h"
#include "cpu/phys_mem.h"
#include "cpu/profiler.h"
#include "cpu/superblock.h"

namespace vdbg::cpu {

class Cpu;

/// Installed by a virtual machine monitor. When present, *every* exception,
/// software interrupt and external interrupt raised while guest code runs is
/// diverted here instead of being delivered through the in-memory IDT — the
/// simulation equivalent of the monitor owning the real IDT and receiving
/// all events in its own ring-0 stubs. The hook mutates CPU state directly
/// (emulate-and-skip, inject into the guest, or freeze the guest) and
/// charges monitor cycles via Cpu::add_cycles().
class TrapHook {
 public:
  virtual ~TrapHook() = default;
  virtual void on_event(Cpu& cpu, const Fault& fault) = 0;
  virtual void on_external_interrupt(Cpu& cpu, u8 vector) = 0;
};

enum class RunExit : u8 {
  kBudget,         // cycle budget exhausted
  kHalted,         // CPU executed HLT (or stays halted with IF=0)
  kShutdown,       // triple fault: the machine is dead (native mode only)
  kStopRequested,  // a TrapHook froze execution (debugger stop)
  kInstrLimit,     // retired-instruction stop reached (see set_instr_stop)
};

/// Architectural counters exposed for tests and the benchmark harness:
/// bit-identical between the reference interpreter and superblocks (the
/// superblock cache's own telemetry is SbcStats).
struct CpuStats {
  u64 instructions = 0;
  u64 mem_accesses = 0;
  u64 io_accesses = 0;
  u64 exceptions = 0;         // events delivered through the IDT
  u64 interrupts = 0;         // external interrupts taken (either path)
  u64 hook_events = 0;        // events diverted to the trap hook
};

class Cpu {
 public:
  Cpu(PhysMem& mem, IoBus& io, IntrLine* intr,
      const CostModel& costs = CostModel::pentium3());

  CpuState& state() { return st_; }
  const CpuState& state() const { return st_; }
  Mmu& mmu() { return mmu_; }
  PhysMem& mem() { return mem_; }
  const CostModel& costs() const { return costs_; }

  void set_trap_hook(TrapHook* hook) { hook_ = hook; }
  TrapHook* trap_hook() const { return hook_; }

  // --- I/O permission bitmap (TSS-equivalent). CPL 0 always passes. ---
  void io_allow(u16 port, bool allow) {
    const u64 bit = u64{1} << (port & 63);
    if (allow) {
      io_bitmap_[port >> 6] |= bit;
    } else {
      io_bitmap_[port >> 6] &= ~bit;
    }
  }
  void io_allow_range(u16 first, u16 count, bool allow);
  void io_deny_all() { io_bitmap_.fill(0); }
  bool io_allowed(u8 cpl, u16 port) const {
    return cpl == 0 || ((io_bitmap_[port >> 6] >> (port & 63)) & 1);
  }

  /// Runs until `budget` additional cycles have elapsed or a special
  /// condition stops execution earlier.
  RunExit run(Cycles budget);

  /// Preempts the current (or next) run() at the given absolute cycle if it
  /// is earlier than the slice end. Used by the machine when a device event
  /// gets scheduled mid-slice; reset at each run() entry.
  void lower_run_limit(Cycles at) {
    if (at < run_limit_) run_limit_ = at;
  }

  /// Executes exactly one instruction boundary (interrupt check + one
  /// instruction). Test/debug aid.
  RunExit step_one();

  // --- simulated time ---
  Cycles cycles() const { return cycles_; }
  /// Charges extra cycles (monitor work, device stalls).
  void add_cycles(Cycles n) { cycles_ += n; }

  bool halted() const { return halted_; }
  void set_halted(bool h) { halted_ = h; }
  bool shutdown() const { return shutdown_; }
  /// Monitor/debugger: stop run() at the next boundary.
  void request_stop() { stop_requested_ = true; }

  /// Exact retired-instruction stop: run() returns kInstrLimit as soon as
  /// stats().instructions reaches `count`, before acknowledging any pending
  /// interrupt at that boundary (so a replay resumed from the stop point
  /// sees the identical machine state). ~0 disables. The limit persists
  /// across run() calls until changed; it is host replay machinery, not
  /// guest state, and is never snapshotted.
  void set_instr_stop(u64 count) { instr_stop_ = count; }
  u64 instr_stop() const { return instr_stop_; }

  // --- superblocks (threaded dispatch, see superblock.h) ---
  /// Runtime kill switch. Enabled (default), every block is translated into
  /// a threaded superblock the first time the dispatcher reaches it, and
  /// superblocks chain directly to each other. Disabled, run() decodes and
  /// executes every instruction through the reference interpreter. Both
  /// paths produce bit-identical architectural state, cycles and stats.
  void set_superblocks_enabled(bool on) { superblocks_enabled_ = on; }
  bool superblocks_enabled() const { return superblocks_enabled_; }
  const SbcStats& sbc_stats() const { return sbc_stats_; }

  /// Drops every superblock, severing every chain (tb_phys_invalidate
  /// analog). Writes never need this — PhysMem retires a page whenever a
  /// write overlaps its decoded code; restore uses it to shed derived state.
  void invalidate_superblocks() { sbcache_.invalidate_all(sbc_stats_); }

  // --- monitor debug state ---
  /// Debugger state a monitor forces on the guest without touching guest
  /// memory, the guest PSW or its page tables: the role DR0-DR3 (resumed
  /// with EFLAGS.RF) and the monitor trap flag play for a ring-0 monitor.
  /// Reaching an armed physical address raises #BP before the instruction
  /// is fetched; a guest store that overlaps an armed guest-virtual watch
  /// range retires, then raises #DB (Fault::watch); a step request raises
  /// #DB once the next instruction completes. All arrive at the trap hook
  /// as EventKind::kMonitor, so they need one installed. This is host state
  /// like the kill switch: snapshots never carry it and restore leaves it
  /// alone. With nothing armed or requested both paths run exactly as
  /// without a debugger, and a watch that never hits costs nothing either.
  void arm_breakpoint(PAddr pa);
  void disarm_breakpoint(PAddr pa);
  /// Watches guest-virtual [va, va+len) for writes by guest store
  /// instructions (st8/16/32, push, call, callr), on both paths and with or
  /// without guest paging. Frames the CPU pushes to deliver an event are
  /// not guest stores. False for an empty range or one that wraps past
  /// 2^32.
  bool arm_watchpoint(VAddr va, u32 len);
  /// Drops one armed range equal to [va, va+len); false when none is.
  bool disarm_watchpoint(VAddr va, u32 len);
  std::size_t watchpoint_count() const { return watches_.size(); }
  /// The most recent watch hit (post-write: the value is already stored).
  struct WatchHit {
    VAddr va = 0;       // first watched byte the store touched
    u32 value = 0;      // value stored, truncated to the store's width
    unsigned size = 0;  // store width in bytes
    u32 pc = 0;         // pc after the store, where the guest resumes
  };
  const WatchHit& last_watch_hit() const { return watch_hit_; }
  void set_debug_step(bool on) { debug_step_ = on; }
  /// One-shot: the next instruction runs even if it is an armed breakpoint
  /// at the current pc, so resuming from a stop does not re-report it.
  /// Consumed by whichever instruction executes next.
  void resume_over_breakpoint() { resume_pc_ = st_.pc; }

  const CpuStats& stats() const { return stats_; }

  /// Deterministic PC sampling profiler; the machine's run loop polls its
  /// next-sample boundary (see hw::Machine::run_for).
  PcProfiler& profiler() { return profiler_; }
  const PcProfiler& profiler() const { return profiler_; }

  /// Registers cpu.core.*, cpu.sbc.* and cpu.tlb.* counters. The superblock
  /// cache is derived state rebuilt after a snapshot restore, so its
  /// counters register as not replay-exact; everything else is.
  void register_metrics(MetricsRegistry& reg) {
    reg.add_counter("cpu.core.instructions", &stats_.instructions);
    reg.add_counter("cpu.core.mem_accesses", &stats_.mem_accesses);
    reg.add_counter("cpu.core.io_accesses", &stats_.io_accesses);
    reg.add_counter("cpu.core.exceptions", &stats_.exceptions);
    reg.add_counter("cpu.core.interrupts", &stats_.interrupts);
    reg.add_counter("cpu.core.hook_events", &stats_.hook_events);
    reg.add_counter("cpu.sbc.translations", &sbc_stats_.translations,
                    /*replay_exact=*/false);
    reg.add_counter("cpu.sbc.hits", &sbc_stats_.hits,
                    /*replay_exact=*/false);
    reg.add_counter("cpu.sbc.chains_taken", &sbc_stats_.chains,
                    /*replay_exact=*/false);
    reg.add_counter("cpu.sbc.unchains", &sbc_stats_.unchains,
                    /*replay_exact=*/false);
    reg.add_counter("cpu.sbc.invalidations", &sbc_stats_.invalidations,
                    /*replay_exact=*/false);
    reg.add_counter("cpu.sbc.mem_native", &sbc_stats_.mem_native,
                    /*replay_exact=*/false);
    reg.add_counter("cpu.sbc.mem_fallbacks", &sbc_stats_.mem_fallbacks,
                    /*replay_exact=*/false);
    // 1 while superblocks run guest code, 0 on the reference interpreter.
    // Both retire bit-identical state, so this is host configuration.
    reg.add_gauge(
        "cpu.sbc.enabled", [this] { return superblocks_enabled() ? 1.0 : 0.0; },
        /*replay_exact=*/false);
    // Fraction of dispatcher entries that found their block translated
    // already (every translation is followed by one entry).
    reg.add_gauge(
        "cpu.sbc.hit_rate",
        [this] {
          const u64 hits = sbc_stats_.hits;
          return hits ? double(hits - sbc_stats_.translations) / double(hits)
                      : 0.0;
        },
        /*replay_exact=*/false);
    // Fraction of superblock entries that skipped the dispatcher via a
    // direct chain — the health number for cross-block chaining.
    reg.add_gauge(
        "cpu.sbc.chain_rate",
        [this] {
          const u64 total = sbc_stats_.hits + sbc_stats_.chains;
          return total ? double(sbc_stats_.chains) / double(total) : 0.0;
        },
        /*replay_exact=*/false);
    profiler_.register_metrics(reg);
    mmu_.register_metrics(reg);
  }

  /// Architectural event delivery through the in-memory IDT (pushes the
  /// 4-word frame, honours gate target ring and TSS stacks). Used natively
  /// for every trap; exposed so tests can exercise it directly. Returns
  /// false when delivery escalated to shutdown.
  bool deliver_event(const Fault& f, u32 resume_pc);

  // --- guest-memory accessors for monitors and debuggers ---
  /// Reads/writes guest-virtual memory using the current paging config at
  /// the given effective CPL. No A/D side effects; page-crossing handled.
  /// Returns false if any page fails to translate (nothing partial on read;
  /// writes may be partial up to the failing page).
  bool read_virt(VAddr va, std::span<u8> out, u8 cpl = kRing0);
  bool write_virt(VAddr va, std::span<const u8> in, u8 cpl = kRing0);

  // --- snapshot support ---
  /// Serialises architectural state, simulated time, the I/O bitmap and the
  /// architectural counters. The superblock cache and its counters are
  /// derived residue — the cache is rebuilt on demand after restore — and
  /// are deliberately excluded so snapshots of a replayed run compare
  /// byte-identical to snapshots of an uninterrupted one.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  void step();
  /// Fetch-decode-execute tail shared by both paths, entered after pc has
  /// been translated to `pa`. The only place monitor breakpoints and step
  /// requests fire.
  void step_at(PAddr pa, u32 pc0);
  /// Superblock dispatcher: one translate at block entry, then a lookup in
  /// the superblock cache, translating the block on a miss; runs it and
  /// keeps dispatching across pure-branch block tails without re-entering
  /// run(), installing the chain edges the executor requests.
  void run_cached(Cycles target);

  /// How a superblock execution returned control to the dispatcher.
  struct SbRun {
    enum Kind : u8 {
      kDone,        // return to run(): fault, terminator, budget, or stop
      kDispatch,    // continue dispatch at st_.pc (full entry resolution)
      kDispatchAt,  // like kDispatch but the fetch translation is already
                    // done and accounted: dispatch directly at `pa`
    };
    Kind kind = kDone;
    PAddr pa = 0;
    /// When set, the executor wants a chain edge installed: from->next[slot]
    /// should point at whatever superblock the dispatcher resolves next.
    SuperBlock* from = nullptr;
    u8 slot = 0;
  };
  /// Superblock executor: threaded dispatch over a translated superblock,
  /// following direct chains internally. Entry fetch translation + page
  /// version check are the caller's (or the chain guard's) responsibility.
  SbRun exec_superblock(SuperBlock* sb, Cycles stop);

  /// Raises an event produced by guest execution: diverts to the hook when
  /// installed, else delivers architecturally.
  void raise(const Fault& f, u32 resume_pc);

  /// Executes one decoded instruction. On fault returns it; pc already
  /// advanced for trap-style events as required.
  struct ExecResult {
    bool faulted = false;
    Fault fault{};
  };
  ExecResult execute(const Instr& in);

  // Memory helpers; each returns false and fills `fault` on failure.
  bool mem_read(VAddr va, unsigned size, u32& value, Fault& fault, u8 cpl);
  bool mem_write(VAddr va, unsigned size, u32 value, Fault& fault, u8 cpl);
  bool push32(u32 value, u32& sp, u8 cpl, Fault& fault);

  void set_flags_addsub(u32 a, u32 b, u32 r, bool is_sub);
  void set_flags_logic(u32 r);

  bool breakpoint_armed(PAddr pa) const;
  /// Records a completed store that overlaps an armed watch range. Out of
  /// line, like raise_watch_hit: the flattened superblock executor keeps
  /// only the checks that guard them.
  __attribute__((noinline, cold)) void note_watched_store(VAddr va,
                                                          unsigned size,
                                                          u32 value);
  /// Raises Fault::watch() for the hit a just-retired store left pending
  /// (watch_pending_), recording `resume_pc` as where the guest resumes.
  __attribute__((noinline, cold)) void raise_watch_hit(u32 resume_pc);
  /// Retires the decoded code on `pa`'s page, so its blocks are decoded
  /// again around a changed breakpoint set.
  void invalidate_code_page(PAddr pa);

  PhysMem& mem_;
  IoBus& io_;
  IntrLine* intr_;  // snap:skip(wiring; the machine's interrupt line)
  const CostModel& costs_;
  CpuState st_{};
  Mmu mmu_;         // snap:skip(serialized by Machine in its own kMmu section)
  SuperblockCache sbcache_;  // snap:skip(derived cache; dropped on restore)
  SbcStats sbc_stats_{};  // snap:skip(telemetry of the derived cache)
  bool superblocks_enabled_ = true;  // snap:skip(host tuning knob)
  /// Handler table for exec_superblock's computed-goto dispatch, captured
  /// once at construction (null without the GNU labels-as-values extension).
  const void* const* sb_labels_ = nullptr;  // snap:skip(host dispatch table)
  TrapHook* hook_ = nullptr;  // snap:skip(wiring; reinstalled by the monitor)
  /// One bit per port, 64 ports per word (0 = denied).
  std::array<u64, 1024> io_bitmap_{};

  Cycles cycles_ = 0;
  Cycles run_limit_ = ~Cycles{0};  // snap:skip(per-run() budget; reset by restore)
  u64 instr_stop_ = ~u64{0};  // snap:skip(per-run() stop point, host run control)
  bool halted_ = false;
  bool shutdown_ = false;
  bool stop_requested_ = false;  // snap:skip(transient; reset by restore)
  /// Monitor debug state (see arm_breakpoint); a handful of entries at most.
  std::vector<PAddr> breakpoints_;  // snap:skip(host debug state, DR0-DR3)
  bool debug_step_ = false;  // snap:skip(host debug state, monitor trap flag)
  struct WatchRange {
    VAddr va;
    u32 len;
  };
  std::vector<WatchRange> watches_;  // snap:skip(host debug state, DR0-DR3)
  WatchHit watch_hit_{};  // snap:skip(host debug state, DR6 analog)
  bool watch_pending_ = false;  // snap:skip(transient; raised at retire)
  /// Never a fetchable pc (misaligned), so it matches nothing.
  static constexpr u32 kNoResume = ~u32{0};
  u32 resume_pc_ = kNoResume;  // snap:skip(host one-shot, EFLAGS.RF analog)
  CpuStats stats_{};
  PcProfiler profiler_;
};

}  // namespace vdbg::cpu
