// Multiverse fanout throughput: fork K COW timelines from one delta
// checkpoint and run them to budget, sweeping host worker threads
// (EXPERIMENTS.md "Multiverse replay" table).
//
// Two claims are measured:
//   throughput  forked timelines/sec for the 4-thread leg — the CI gate in
//               tools/bench_baseline.json holds a floor on
//               multiverse_timelines_per_sec (forks are page-table
//               adoptions, not memory copies, so fanout must stay cheap)
//   determinism the same (checkpoint, seed) must reproduce every timeline's
//               replay-exact metrics bit for bit across repeat explores;
//               this binary exits non-zero when it does not
//
// `--json` emits a google-benchmark-shaped document for check_bench.py.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "fleet/multiverse.h"
#include "guest/minitactix.h"
#include "vmm/time_travel.h"

using namespace vdbg;

namespace {

constexpr unsigned kTimelines = 8;
constexpr unsigned kThreadLegs[] = {1, 4};
constexpr unsigned kExploresPerLeg = 3;

struct Leg {
  unsigned threads = 0;
  double wall_sec = 0.0;
  double timelines_per_sec = 0.0;
  u64 forks = 0;
  bool deterministic = true;
};

bool samples_identical(const std::vector<MetricsRegistry::Sample>& a,
                       const std::vector<MetricsRegistry::Sample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value ||
        a[i].number != b[i].number || a[i].buckets != b[i].buckets) {
      return false;
    }
  }
  return true;
}

Leg run_leg(const vmm::Checkpoint& cp, unsigned threads) {
  fleet::MultiverseConfig cfg;
  cfg.timelines = kTimelines;
  cfg.threads = threads;
  cfg.seed = 11;
  cfg.budget = 2'000'000;
  cfg.slice = 500'000;
  cfg.run = guest::RunConfig::for_rate_mbps(40.0);

  fleet::Multiverse mv(cp, cfg);
  const fleet::OutcomePredicate pred{};  // kCrash: never fires here

  // Warm-up explore doubles as the determinism reference.
  const auto reference = mv.explore(pred);

  const auto t0 = std::chrono::steady_clock::now();
  Leg leg;
  leg.threads = threads;
  for (unsigned r = 0; r < kExploresPerLeg; ++r) {
    const auto results = mv.explore(pred);
    leg.deterministic =
        leg.deterministic && results.size() == reference.size();
    for (std::size_t i = 0; i < results.size() && leg.deterministic; ++i) {
      leg.deterministic =
          results[i].perturb == reference[i].perturb &&
          samples_identical(results[i].replay_metrics,
                            reference[i].replay_metrics);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  leg.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  leg.timelines_per_sec = kExploresPerLeg * kTimelines / leg.wall_sec;
  leg.forks = mv.stats().forks;
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  // One checkpoint, shared by every leg: a minitactix guest run mid-flight,
  // captured as a delta checkpoint so forks adopt COW pages.
  fleet::MachineUnit unit(fleet::UnitKind::kLvmm, fleet::UnitOptions{}, 0);
  unit.prepare(guest::RunConfig::for_rate_mbps(40.0));
  unit.machine().run_for(seconds_to_cycles(0.01));
  vmm::TimeTravel tt(*unit.monitor());
  if (!tt.checkpoint_now()) {
    std::fprintf(stderr, "checkpoint_now failed\n");
    return 1;
  }
  const auto& cp = tt.checkpoints().back();

  Leg legs[2];
  for (int i = 0; i < 2; ++i) legs[i] = run_leg(cp, kThreadLegs[i]);

  const bool deterministic = legs[0].deterministic && legs[1].deterministic;

  if (json) {
    std::printf(
        "{\"benchmarks\":[{\"name\":\"BM_MultiverseFanout\","
        "\"timelines\":%u,"
        "\"timelines_per_sec_1t\":%.3f,"
        "\"multiverse_timelines_per_sec\":%.3f,"
        "\"multiverse_forks\":%llu,"
        "\"multiverse_deterministic\":%d}]}\n",
        kTimelines, legs[0].timelines_per_sec, legs[1].timelines_per_sec,
        (unsigned long long)(legs[0].forks + legs[1].forks),
        deterministic ? 1 : 0);
    return deterministic ? 0 : 1;
  }

  std::printf("=== Multiverse fanout: %u timelines per explore ===\n",
              kTimelines);
  std::printf("%-8s %12s %18s %10s\n", "threads", "wall s", "timelines/sec",
              "forks");
  for (const Leg& leg : legs) {
    std::printf("%-8u %12.3f %18.1f %10llu\n", leg.threads, leg.wall_sec,
                leg.timelines_per_sec, (unsigned long long)leg.forks);
  }
  std::printf("\nseeded fanout reproduces bit-exact: %s\n",
              deterministic ? "yes" : "NO (BUG)");
  return deterministic ? 0 : 1;
}
