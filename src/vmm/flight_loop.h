// The flight loop: always-on bounded continuous capture for one machine.
//
// While armed it maintains, at zero simulated cost, a rolling replay
// window behind the live position:
//
//   - a ring of copy-on-write delta checkpoints taken every `interval`
//     retired instructions (vmm/checkpoint.h, the engine TimeTravel and
//     multiverse forks use too);
//   - the trace-ring cursor at each checkpoint, so the events recorded
//     since the oldest checkpoint are exactly the window's trace tail;
//   - a bounded metrics time-series (SeriesRing) sampled at the same
//     boundaries, for qVdbg.MetricsHistory / the fleet `top` view;
//   - optionally the CPU's deterministic PC profiler, armed at a fixed
//     sample stride.
//
// Eviction keeps the checkpoint and trace windows aligned: a checkpoint
// whose trace tail has started to be overwritten is dropped, so the
// oldest ring entry always has its full event window available and
// verify_window() can prove, on demand, that restore + deterministic
// re-execution reproduces the recorded tail bit for bit.
//
// Everything here is host-side observation. Unlike TimeTravel, captures
// charge no simulated cycles — the ring must be cheap enough to leave on
// in production runs (ablation_flightloop_overhead gates < 2% per exit,
// and the only simulated cost is the tracer's own per-event charge, which
// is identical with the loop armed or not).
#pragma once

#include <cstddef>
#include <deque>
#include <string>

#include "common/series.h"
#include "vmm/checkpoint.h"
#include "vmm/lvmm.h"

namespace vdbg::vmm {

class FlightLoop {
 public:
  struct Config {
    /// Retired guest instructions between ring checkpoints.
    u64 interval = 50'000;
    /// Checkpoints kept; the replay window is roughly ring x interval
    /// instructions behind the live position.
    std::size_t ring = 8;
    /// Metrics snapshots kept in the time series.
    std::size_t series_ring = 256;
    /// PC-profiler sample stride armed alongside the ring (0 leaves the
    /// profiler untouched).
    u64 profile_interval = 10'000;
    /// Simulated-cycle budget for one verify replay pass.
    Cycles replay_budget = 4'000'000'000ULL;
  };

  struct Window {
    u64 begin_icount = 0;
    u64 end_icount = 0;
    Cycles begin_cycles = 0;
    Cycles end_cycles = 0;
    std::size_t checkpoints = 0;
    /// Trace events recorded inside the window (all still in the ring).
    std::size_t trace_events = 0;
  };

  struct Stats {
    u64 checkpoints = 0;
    u64 evictions = 0;
    u64 series_points = 0;
    u64 replays = 0;
    u64 verifies = 0;
    u64 verify_failures = 0;
  };

  FlightLoop(Lvmm& mon, Config cfg);
  explicit FlightLoop(Lvmm& mon) : FlightLoop(mon, Config()) {}
  ~FlightLoop();

  /// Installs the periodic capture hook and (when configured) arms the PC
  /// profiler. The monitor's tracer should already be attached — the
  /// window's trace tail is whatever the tracer records.
  void arm();
  void disarm();
  bool armed() const { return armed_; }

  /// Health quarantine: a frozen loop stops capturing (and evicting), so
  /// the window around the incident is preserved exactly as it was.
  void freeze() { frozen_ = true; }
  void unfreeze() { frozen_ = false; }
  bool frozen() const { return frozen_; }

  /// Snapshots the registry into the series at each capture boundary.
  void set_metrics(const MetricsRegistry* reg) { metrics_ = reg; }

  const Config& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  Window window() const;
  /// Instructions the loop can currently replay: live position minus the
  /// oldest checkpoint.
  u64 replayable_instructions() const;
  const SeriesRing& series() const { return series_; }

  /// Proves the window: restores the oldest ring checkpoint, replays
  /// forward to the position held at call time (UART/NIC host sinks muted
  /// so replayed output is not delivered twice), and compares the replayed
  /// trace tail element-wise against the recorded one (the surviving tail
  /// when the window outgrew the tracer ring; the replayed event count
  /// must still match the full window exactly). On success the
  /// machine is back at the call-time position, bit-identical by
  /// determinism. Call between run slices on a debugger-quiet machine
  /// (replay cannot reproduce interactive stub traffic).
  bool verify_window(std::string* error = nullptr);

  /// Registers vmm.flight.* counters. Host-side observation state, so
  /// nothing here is replay-exact.
  void register_metrics(MetricsRegistry& reg);

 private:
  struct Entry {
    Checkpoint cp;
    u64 trace_cursor = 0;  // tracer->recorded() at capture time
  };

  hw::Machine& machine() const { return mon_.machine(); }
  u64 icount() const;
  void on_boundary(u64 ic);
  void evict();

  Lvmm& mon_;
  Config cfg_;
  std::deque<Entry> ring_;  // oldest first
  SeriesRing series_;
  const MetricsRegistry* metrics_ = nullptr;
  Stats stats_;
  bool armed_ = false;
  bool frozen_ = false;
  int hook_id_ = 0;
};

}  // namespace vdbg::vmm
