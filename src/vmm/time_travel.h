// Time-travel debugging: periodic checkpoints plus replay.
//
// The controller checkpoints the whole deterministic machine and monitor
// (vmm/checkpoint.h) every `interval` retired guest instructions, keeping a
// ring of the most recent checkpoints. Reverse execution is checkpoint +
// re-execution: because the simulator is fully deterministic, restoring a
// checkpoint and running forward reproduces the original timeline bit for
// bit, so "backwards" is just "forwards from an earlier save, stopping
// sooner".
//
//   reverse_stepi     restore the newest checkpoint at-or-below N-1, replay
//                     to instruction boundary N-1 — exactly one retired
//                     guest instruction before the current stop.
//   reverse_continue  scan pass: restore the nearest earlier checkpoint and
//                     replay to the current position, recording every
//                     breakpoint/watchpoint stop in the window; landing
//                     pass: restore again and replay to the LAST recorded
//                     hit. Windows walk to older checkpoints when empty; if
//                     no hit exists anywhere in recorded history the guest
//                     lands frozen on the oldest checkpoint.
//
// During replay the controller swaps itself in as the monitor's
// DebugDelegate (resuming through intermediate stops exactly as the stub's
// `c` does); each pass runs through vmm::replay_to, which mutes the
// UART/NIC host sinks so replayed output is not delivered twice.
// Breakpoints and write watchpoints are the CPU's host-side debug state,
// which no restore touches, so a replay stops at the breakpoints and
// watches armed now; checkpoints never hold debugger bytes, and arming a
// watch that never hits leaves the replayed timeline cycle-identical to the
// original. Device timing, interrupts, and every cycle charge are
// unchanged — the checkpoint charge itself (checkpoint_base +
// checkpoint_per_page x resident pages, see costs.h) is a pure function of
// guest state at the boundary and re-applied at the same boundaries during
// replay, so a replayed timeline stays cycle-identical to the original.
//
// Replay fidelity: replay cannot reproduce debugger wire traffic, so only
// debugger-quiet windows replay bit-identically. The stub therefore anchors
// a checkpoint at the stop of every interactive resume ('c'/'s'), and a
// replay resumes such a frozen checkpoint exactly as the stub did (passing
// once over a breakpoint at the stop pc). The window from the last resume
// to the next stop is thus quiet by construction — reverse operations from
// a stop land exactly, down to the faulting pc. A stop at a checkpoint's
// icount precedes that checkpoint, so it belongs to the older window.
// Windows reaching further back, across earlier interactive stops, replay
// without the original stub traffic's cycle charges and can diverge in
// device timing (landings are then exact only in the replayed timeline's
// own terms).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "vmm/checkpoint.h"
#include "vmm/lvmm.h"

namespace vdbg::vmm {

class TimeTravel final : public DebugDelegate {
 public:
  struct Config {
    /// Retired guest instructions between periodic checkpoints.
    u64 interval = 50'000;
    /// Checkpoints kept (oldest evicted). Bounds reverse reach to roughly
    /// ring x interval instructions.
    std::size_t ring = 8;
    /// Simulated-cycle budget for one replay pass.
    Cycles replay_budget = 4'000'000'000ULL;
  };

  struct Stats {
    u64 checkpoints = 0;           // snapshots stored (first save per boundary)
    u64 restores = 0;              // successful snapshot restores
    u64 replay_passes = 0;         // forward re-execution passes
    u64 replayed_instructions = 0; // instructions re-executed across passes
    u64 checkpoint_bytes = 0;      // marginal stored bytes across checkpoints
    u64 cow_fresh_pages = 0;       // freshly-dirtied frames across checkpoints
    Cycles checkpoint_charged_cycles = 0;  // simulated cost billed for them
  };

  enum class ReverseOutcome : u8 {
    kStopped,       // landed on a breakpoint/watchpoint/step boundary
    kAtCheckpoint,  // no hit in recorded history: frozen on oldest checkpoint
    kNoHistory,     // no checkpoint earlier than the current position
    kError,         // restore/replay failed (guest left frozen, best effort)
  };
  struct ReverseStop {
    ReverseOutcome outcome = ReverseOutcome::kError;
    StopReason reason = StopReason::kStep;
    u64 icount = 0;  // retired-instruction position after the operation
  };

  explicit TimeTravel(Lvmm& mon) : TimeTravel(mon, Config()) {}
  TimeTravel(Lvmm& mon, Config cfg);
  ~TimeTravel() override;

  /// Installs the periodic checkpoint hook on the machine (and takes no
  /// checkpoint itself — the first fires at the next interval boundary).
  /// The hook charges simulated cycles, so it fires ahead of observer hooks
  /// due at the same boundary (see Machine::add_instr_hook).
  void enable();
  void disable();
  bool enabled() const { return enabled_; }
  const Config& config() const { return cfg_; }

  /// Takes a checkpoint at the current position (charged like a periodic
  /// one). Returns false if serialisation failed.
  bool checkpoint_now();
  std::size_t checkpoint_count() const { return ring_.size(); }
  const std::deque<Checkpoint>& checkpoints() const { return ring_; }
  const Stats& stats() const { return stats_; }

  /// Registers vmm.tt.* counters. The controller is host-side (its stats
  /// are not serialized into snapshots), so nothing here is replay-exact.
  void register_metrics(MetricsRegistry& reg) {
    reg.add_counter("vmm.tt.checkpoints", &stats_.checkpoints,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.restores", &stats_.restores,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.replay_passes", &stats_.replay_passes,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.replayed_instructions",
                    &stats_.replayed_instructions, /*replay_exact=*/false);
    reg.add_counter("vmm.tt.checkpoint_bytes", &stats_.checkpoint_bytes,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.cow_fresh_pages", &stats_.cow_fresh_pages,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.checkpoint_charged_cycles",
                    &stats_.checkpoint_charged_cycles,
                    /*replay_exact=*/false);
    reg.add_gauge(
        "vmm.tt.ring_depth", [this] { return double(ring_.size()); },
        /*replay_exact=*/false);
  }

  /// Full machine+monitor state as one checksummed stream (the
  /// qVdbg.Snapshot payload). load_state() restores it and, when the guest
  /// was frozen at the call, re-freezes it quietly (no delegate report).
  std::vector<u8> save_state() const;
  bool load_state(const std::vector<u8>& bytes);

  /// Reverse execution. Call only while the guest is frozen. On success the
  /// guest is left frozen at the landing position; on kNoHistory the state
  /// is untouched.
  ReverseStop reverse_stepi();
  ReverseStop reverse_continue();

  // --- DebugDelegate (installed only while replaying) ---
  void on_guest_stop(StopReason reason) override;
  void on_uart_activity() override;

 private:
  struct Hit {
    u64 icount = 0;
    StopReason reason = StopReason::kStep;
  };
  enum class Mode : u8 { kIdle, kScan, kLand };

  hw::Machine& machine() const { return mon_.machine(); }
  u64 icount() const;
  void charge_checkpoint();
  void store_checkpoint(Checkpoint cp);
  const Checkpoint* newest_at_or_below(u64 ic) const;
  /// restore_checkpoint into this machine and monitor, counted in
  /// stats().restores.
  bool restore(const Checkpoint& cp);
  void begin_replay();
  void end_replay();
  /// One replay pass: vmm::replay_to `target`, counted in stats().
  hw::Machine::StopReason replay_pass(u64 target);
  /// Records a held stop and breaks the machine out of its run loop before
  /// the frozen-service (the stub) can run mid-replay.
  void hold(StopReason reason);
  /// Freezes the guest without a delegate report (boundary landings,
  /// load_state, error containment).
  void freeze_quietly(StopReason reason);

  Lvmm& mon_;
  Config cfg_;
  std::deque<Checkpoint> ring_;  // sorted by icount, oldest first
  Stats stats_;
  bool enabled_ = false;
  int hook_id_ = 0;  // add_instr_hook registration while enabled

  // Replay-session state (valid between begin_replay/end_replay).
  bool replaying_ = false;
  Mode mode_ = Mode::kIdle;
  DebugDelegate* prev_delegate_ = nullptr;
  u64 scan_end_ = 0;          // scan: record hits with icount < scan_end_
  bool scan_inclusive_ = false;  // scan: also record a hit at == scan_end_
  u64 land_target_ = 0;  // land: hold the first stop at-or-after this icount
  std::vector<Hit> hits_;
  bool held_ = false;
  StopReason held_reason_ = StopReason::kStep;
  bool suppress_stop_ = false;  // freeze_quietly in flight
  bool replay_failed_ = false;
};

}  // namespace vdbg::vmm
