// Checkpoint-overhead ablation: what does periodic whole-machine
// checkpointing cost the guest, as a function of the interval?
//
// The TimeTravel controller charges every checkpoint to the monitor
// (costs.checkpoint_base + checkpoint_per_page x resident pages), so a
// checkpointed run retires fewer guest instructions in the same simulated
// span. guest_instr_retained_pct is that ratio against an uncheckpointed
// baseline — the CI regression gate watches it alongside the trap-cost
// counters. Also measures the reverse-stepi round trip (restore + replay),
// the operation an interactive reverse-debugging session waits on, the
// host cost of one capture and one restore, and the host cost of the RSP
// operations a developer issues at a stop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <vector>

#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/checkpoint.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"

namespace {

using namespace vdbg;
using namespace vdbg::harness;

struct RunResult {
  u64 instructions = 0;
  u64 checkpoints = 0;
  u64 stored_bytes = 0;  // marginal bytes actually kept (delta-aware)
  double mean_snapshot_kb = 0.0;
  /// With measure_full: full self-contained streams taken at the
  /// checkpoint boundaries, and their summed size.
  u64 full_streams = 0;
  u64 full_bytes = 0;
};

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

RunResult run_with_interval(u64 interval, bool measure_full = false) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(40.0));
  RunResult r;
  std::optional<vmm::TimeTravel> tt;
  if (interval != 0) {
    vmm::TimeTravel::Config cfg;
    cfg.interval = interval;
    cfg.ring = 4;
    tt.emplace(*p.monitor(), cfg);
    tt->enable();
    if (measure_full) {
      // What a full stream would cost at each checkpoint boundary. The hook
      // charges nothing, so it fires right after the checkpoint's own and
      // leaves the timeline unchanged.
      p.machine().add_instr_hook(
          interval,
          [&](u64) {
            ++r.full_streams;
            r.full_bytes += tt->save_state().size();
          },
          /*charges=*/false);
    }
  }
  p.machine().run_for(seconds_to_cycles(0.1));

  r.instructions = p.machine().cpu().stats().instructions;
  if (tt) {
    r.checkpoints = tt->stats().checkpoints;
    r.stored_bytes = tt->stats().checkpoint_bytes;
    u64 bytes = 0;
    for (const auto& c : tt->checkpoints()) bytes += c.bytes.size();
    if (!tt->checkpoints().empty()) {
      r.mean_snapshot_kb =
          double(bytes) / double(tt->checkpoints().size()) / 1024.0;
    }
  }
  return r;
}

void BM_CheckpointOverhead(benchmark::State& state) {
  const u64 interval = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    const RunResult base = run_with_interval(0);
    const RunResult run = run_with_interval(interval);
    state.counters["checkpoints"] = double(run.checkpoints);
    state.counters["mean_snapshot_kb"] = run.mean_snapshot_kb;
    state.counters["guest_instr_retained_pct"] =
        base.instructions
            ? 100.0 * double(run.instructions) / double(base.instructions)
            : 0.0;
  }
}
BENCHMARK(BM_CheckpointOverhead)
    ->Arg(10'000)
    ->Arg(50'000)
    ->Arg(200'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Delta checkpoint bytes: marginal bytes kept per checkpoint, against the
// full self-contained stream measured at the same boundaries in the same
// run. The CI baseline requires the delta bytes to stay cheap (direction:
// lower) and the relative drop against full streams to stay >= 40 %
// (cow_bytes_drop_pct, direction: higher).
void BM_CheckpointDelta(benchmark::State& state) {
  const u64 interval = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    const RunResult run = run_with_interval(interval, /*measure_full=*/true);
    const double full_per =
        run.full_streams ? double(run.full_bytes) / double(run.full_streams)
                         : 0.0;
    const double delta_per =
        run.checkpoints ? double(run.stored_bytes) / double(run.checkpoints)
                        : 0.0;
    state.counters["checkpoints"] = double(run.checkpoints);
    state.counters["full_bytes_per_ckpt"] = full_per;
    state.counters["checkpoint_bytes_per_ckpt"] = delta_per;
    state.counters["cow_bytes_drop_pct"] =
        full_per > 0.0 ? 100.0 * (1.0 - delta_per / full_per) : 0.0;
  }
}
BENCHMARK(BM_CheckpointDelta)
    ->Arg(50'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ReverseStepi(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Platform p(PlatformKind::kLvmm);
    p.prepare(guest::RunConfig::for_rate_mbps(40.0));
    vmm::TimeTravel::Config cfg;
    cfg.interval = 20'000;
    vmm::TimeTravel tt(*p.monitor(), cfg);
    tt.enable();
    p.machine().run_for(seconds_to_cycles(0.05));
    p.monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
    state.ResumeTiming();

    const auto r = tt.reverse_stepi();

    state.PauseTiming();
    if (r.outcome == vmm::TimeTravel::ReverseOutcome::kStopped) {
      state.counters["replayed_instructions"] =
          double(tt.stats().replayed_instructions);
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ReverseStepi)->Iterations(3)->Unit(benchmark::kMillisecond);

// Host cost of one capture and one restore on a streaming guest (LVMM at
// 60 Mbps, 0.2 s in: about 3 200 resident pages). Each round runs 20 000
// instructions, captures into an 8-deep ring (releasing the oldest, as the
// time-travel ring does), runs 20 000 more, then restores the capture: one
// interval back, like a reverse step. capture_us and restore_us are the
// medians over the rounds; stream_bytes is one capture's stream. Host
// time, so no CI baseline holds capture_us or restore_us.
void BM_CaptureRestore(benchmark::State& state) {
  constexpr u64 kInterval = 20'000;
  constexpr std::size_t kRing = 8;
  constexpr int kRounds = 200;
  for (auto _ : state) {
    state.PauseTiming();
    Platform p(PlatformKind::kLvmm);
    p.prepare(guest::RunConfig::for_rate_mbps(60.0));
    hw::Machine& m = p.machine();
    vmm::Lvmm& mon = *p.monitor();
    m.run_for(seconds_to_cycles(0.2));
    const auto run = [&] {
      vmm::replay_to(mon, m.cpu().stats().instructions + kInterval,
                     seconds_to_cycles(1.0));
    };
    std::deque<vmm::Checkpoint> ring;
    std::vector<double> capture_us, restore_us;
    for (int i = 0; i < kRounds; ++i) {
      run();
      auto t0 = Clock::now();
      ring.push_back(vmm::capture_checkpoint(mon));
      if (ring.size() > kRing) ring.pop_front();
      capture_us.push_back(us_since(t0));
      run();
      t0 = Clock::now();
      const bool ok = vmm::restore_checkpoint(m, &mon, ring.back());
      restore_us.push_back(us_since(t0));
      if (!ok) state.SkipWithError("restore_checkpoint failed");
    }
    state.counters["capture_us"] = median(capture_us);
    state.counters["restore_us"] = median(restore_us);
    state.counters["resident_pages"] =
        double(ring.back().mem.resident_pages());
    state.counters["stream_bytes"] = double(ring.back().bytes.size());
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CaptureRestore)->Iterations(1)->Unit(benchmark::kMillisecond);

// Host cost of the RSP operations a developer issues at a stop: an LVMM
// guest at 60 Mbps with a stub and time travel (interval 20 000, ring 16),
// broken into after 30 ms. Each round reads the registers (g), reads 64
// bytes of the mailbox (m) and single-steps (s, whose stub anchors a
// checkpoint first). g_us, m64_us and stepi_us are the medians over the
// rounds; events_per_g is the events one g schedules, one per byte the
// UART carries. Host time, so no CI baseline holds the times.
void BM_StopRoundTrip(benchmark::State& state) {
  using StopKind = debug::RemoteDebugger::StopKind;
  constexpr int kRounds = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    Platform p(PlatformKind::kLvmm);
    p.prepare(guest::RunConfig::for_rate_mbps(60.0));
    vmm::DebugStub* stub = p.unit().attach_stub();
    vmm::TimeTravel::Config cfg;
    cfg.interval = 20'000;
    cfg.ring = 16;
    vmm::TimeTravel tt(*p.monitor(), cfg);
    stub->set_time_travel(&tt);
    debug::RemoteDebugger dbg(p.machine());
    const EventQueue& events = p.machine().events();
    bool ok = dbg.connect();
    tt.enable();
    p.machine().run_for(seconds_to_cycles(0.03));
    ok = ok && dbg.interrupt() == StopKind::kBreak;
    std::vector<double> g_us, m64_us, stepi_us;
    u64 g_events = 0;
    for (int i = 0; i < kRounds && ok; ++i) {
      const u64 seq0 = events.next_seq();
      auto t0 = Clock::now();
      ok = dbg.read_registers().has_value();
      g_us.push_back(us_since(t0));
      g_events += events.next_seq() - seq0;
      t0 = Clock::now();
      const auto mem = dbg.read_memory(guest::kMailboxBase, 64);
      m64_us.push_back(us_since(t0));
      ok = ok && mem && mem->size() == 64;
      t0 = Clock::now();
      ok = ok && dbg.step() == StopKind::kBreak;
      stepi_us.push_back(us_since(t0));
    }
    if (!ok) {
      state.SkipWithError("debugger operation failed at a stop");
      break;
    }
    state.counters["g_us"] = median(g_us);
    state.counters["m64_us"] = median(m64_us);
    state.counters["stepi_us"] = median(stepi_us);
    state.counters["events_per_g"] = double(g_events) / kRounds;
    state.ResumeTiming();
  }
}
BENCHMARK(BM_StopRoundTrip)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
