// Multiverse replay: fork K copy-on-write timelines from one checkpoint,
// perturb each deterministically, and trap timing-dependent bugs.
//
// A checkpoint (vmm/checkpoint.h) shares the guest's memory image
// copy-on-write, so forking K timelines costs K page-table adoptions, not K
// memory copies. Each fork restores the checkpoint into its own
// MachineUnit (zero shared mutable state — DESIGN.md §10), applies a
// bounded Perturbation drawn from a seeded Rng (interrupt-arrival delays
// through the IrqPerturb shim, SCSI completion-latency extras, NIC wire
// delay and adjacent-frame reordering), and runs forward under the fleet's
// worker threads. Every perturbed timeline is itself a fully deterministic
// machine: the same checkpoint plus the same Perturbation replays bit-exact,
// which is what makes the bug trap's verdicts trustworthy.
//
// The bug trap explores rounds of random perturbations until one flips a
// caller-supplied outcome predicate (guest crash, monitor freeze, guest
// exit, or a mailbox word), then shrinks the failing perturbation to a
// 1-minimal set of knobs (greedy ddmin: drop any knob whose removal keeps
// the failure) and verifies the verdict by replaying the minimal timeline
// twice and comparing replay-exact metrics snapshots bit for bit.
//
// Layering: this lives in src/fleet because it drives Fleet workers.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/fleet.h"
#include "vmm/time_travel.h"

namespace vdbg::vmm {
class DebugStub;
}

namespace vdbg::fleet {

/// One timeline's deterministic divergence from the checkpoint: a sparse
/// set of device-timing knobs, all guest-visible through serialized device
/// state (so a perturbed timeline checkpoints and replays like any other).
struct Perturbation {
  static constexpr unsigned kMaxDisks = 8;

  /// Extra interrupt-arrival delay per PIC line (cycles; 0 = untouched).
  std::array<Cycles, hw::IrqPerturb::kLines> irq_delay{};
  /// Extra completion latency per SCSI controller (cycles).
  std::array<Cycles, kMaxDisks> scsi_extra{};
  /// Extra serialisation delay on every NIC transmit (cycles).
  Cycles nic_delay = 0;
  /// Number of adjacent wire-frame pairs the NIC emits swapped.
  u64 nic_swap_pairs = 0;

  bool empty() const;
  /// Active knobs (nonzero entries) in a stable order.
  unsigned knob_count() const;
  /// Wire format: "irq0+120;scsi1+4000;nic+80;nicswap2", "none" when empty.
  std::string describe() const;
  static std::optional<Perturbation> parse(const std::string& s);
  bool operator==(const Perturbation&) const = default;
};

/// Bounds for randomly drawn perturbations.
struct PerturbBounds {
  Cycles max_irq_delay = 20'000;
  Cycles max_scsi_extra = 200'000;
  Cycles max_nic_delay = 50'000;
  u64 max_nic_swaps = 4;
  /// Chance each candidate knob is active in a drawn perturbation (at
  /// least one knob is always forced on).
  double knob_probability = 0.25;
};

/// What counts as the bug firing in a forked timeline, evaluated after the
/// timeline's budget elapses (or it stops early).
struct OutcomePredicate {
  enum class Kind : u8 {
    kCrash,     // guest triple-faulted under its monitor
    kFrozen,    // monitor froze the guest (watchpoint/breakpoint hit)
    kGuestExit, // guest wrote the diag exit port
    kMailbox,   // 32-bit guest word at `addr` equals `value`
  };
  Kind kind = Kind::kCrash;
  u32 addr = 0;
  u32 value = 0;

  /// "crash" | "frozen" | "exit" | "mailbox:<hexaddr>=<hexvalue>".
  std::string describe() const;
  static std::optional<OutcomePredicate> parse(const std::string& s);
};

/// Outcome of one forked timeline.
struct TimelineResult {
  Perturbation perturb;
  MachineStatus status{};
  bool hit = false;     // predicate fired
  bool frozen = false;  // monitor froze the guest
  /// Replay-exact subset of the unit's metrics snapshot; bit-identical
  /// across reruns of the same (checkpoint, perturbation) pair.
  std::vector<MetricsRegistry::Sample> replay_metrics;
};

struct MultiverseConfig {
  /// Timelines per exploration round.
  unsigned timelines = 8;
  /// Host worker threads for each round's fleet.
  unsigned threads = 4;
  u64 seed = 1;
  /// Simulated cycles each timeline runs past the checkpoint.
  Cycles budget = 20'000'000;
  Cycles slice = 2'000'000;
  /// Exploration rounds before the bug trap gives up.
  unsigned max_rounds = 4;
  PerturbBounds bounds{};
  /// Unit construction for forks; machine config MUST match the machine
  /// the checkpoint was taken on (the COW adopt checks sizes).
  UnitKind kind = UnitKind::kLvmm;
  UnitOptions unit{};
  guest::RunConfig run{};
};

class Multiverse {
 public:
  struct Stats {
    u64 forks = 0;            // timelines restored from the checkpoint
    u64 timelines_run = 0;    // timelines run to completion
    u64 predicate_hits = 0;   // timelines where the predicate fired
    u64 trap_rounds = 0;      // exploration rounds executed
    u64 shrink_steps = 0;     // ddmin candidate timelines tried
    u64 verify_passes = 0;    // successful bit-identity verifications
    void add(const Stats& o);
  };

  struct TrapResult {
    bool found = false;
    /// The unperturbed control timeline also hit the predicate: the bug is
    /// not perturbation-dependent and no delta is reported.
    bool baseline_hit = false;
    /// Minimal delta replayed twice bit-identically and the empty delta
    /// confirmed passing.
    bool verified = false;
    Perturbation minimal;
    TimelineResult failing;
    unsigned rounds = 0;
  };

  /// Copies the checkpoint (COW frames are retained, not duplicated).
  Multiverse(const vmm::Checkpoint& cp, MultiverseConfig cfg);

  const MultiverseConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }

  /// Forks cfg.timelines timelines with perturbations drawn from cfg.seed
  /// (timeline 0 is always the unperturbed control) and runs them in
  /// parallel, classifying each against `pred`.
  std::vector<TimelineResult> explore(const OutcomePredicate& pred);

  /// Runs the given perturbations as one parallel batch.
  std::vector<TimelineResult> run_batch(
      const std::vector<Perturbation>& perturbs, const OutcomePredicate& pred);

  /// Explores up to cfg.max_rounds rounds, then shrinks the first failing
  /// perturbation to a 1-minimal failure-flipping delta and verifies it.
  TrapResult bug_trap(const OutcomePredicate& pred);

  /// Registers vmm.multiverse.* counters (host-side, never replay-exact).
  void register_metrics(MetricsRegistry& reg);

  /// Draws a bounded random perturbation (at least one active knob).
  Perturbation draw(Rng& rng) const;

 private:
  vmm::Checkpoint cp_;
  MultiverseConfig cfg_;
  guest::GuestImage image_;  // built once; forks restore over it anyway
  Stats stats_;
};

/// RSP surface: installs a qVdbg.* query hook on a stub so a remote
/// debugger can fork and trap from the live session's latest state:
///   qVdbg.Fork,<k>,<seed>             run k perturbed forks, one reply
///                                     entry per timeline
///   qVdbg.Multiverse,<pred>,<k>,<seed>  same, classified against <pred>
///   qVdbg.BugTrap,<pred>[,<k>[,<seed>[,<rounds>]]]
/// Reply formats are parsed by debug::RemoteDebugger::fork_timelines() and
/// bug_trap(). Commands checkpoint the current position first, so forks
/// branch from exactly where the debugger stopped.
class MultiverseService {
 public:
  MultiverseService(vmm::DebugStub& stub, vmm::TimeTravel& tt,
                    MultiverseConfig cfg);
  ~MultiverseService();

  const Multiverse::Stats& stats() const { return stats_; }
  /// Registers aggregate vmm.multiverse.* counters for the whole session.
  void register_metrics(MetricsRegistry& reg);

 private:
  std::optional<std::string> handle(const std::string& q);

  vmm::DebugStub& stub_;
  vmm::TimeTravel& tt_;
  MultiverseConfig cfg_;
  Multiverse::Stats stats_;
};

}  // namespace vdbg::fleet
