// Cost of always-on observability — the paper's "monitoring the OS status
// tracing even while the OS is executing high-throughput I/O".
//
// Three legs at saturated throughput:
//   bare        no metrics registry, tracer off   (the instrument-free VMM)
//   registry    registry attached, export disabled, tracer off
//   tracing     registry attached, tracer on (ring 4096, every event)
//
// Gates: the registry must be free when idle (<2% on simulated cycles per
// exit vs bare — it is a directory of pointers to counters the monitor
// maintains anyway, so the delta is zero by construction and this bench
// keeps it that way), and full tracing must cost <3% of saturated goodput.
//
// `--json` emits a google-benchmark-shaped document whose nested "metrics"
// object is the registry snapshot of the tracing leg, for check_bench.py
// floors on e.g. vmm.vtlb.hit_rate / cpu.sbc.hit_rate.
#include <cstdio>
#include <cstring>

#include "common/units.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/trace.h"

using namespace vdbg;
using namespace vdbg::harness;

namespace {

struct Res {
  double mbps;
  u64 exits;
  u64 recorded;
  double cycles_per_exit;  // simulated monitor charge per VM exit
  std::string metrics_json;
};

Res run(bool with_registry, bool tracing) {
  PlatformOptions opts;
  opts.metrics_registration = with_registry;
  Platform p(PlatformKind::kLvmm, opts);
  p.prepare(guest::RunConfig::for_rate_mbps(2000.0));  // saturate
  p.metrics().set_enabled(false);  // attached but disabled: no export
  vmm::ExitTracer tracer(4096);
  p.monitor()->set_tracer(&tracer);
  tracer.set_enabled(tracing);
  p.machine().run_for(seconds_to_cycles(0.15));
  p.sink().begin_window(p.machine().now());
  p.machine().run_for(seconds_to_cycles(0.05));
  const auto& st = p.monitor()->exit_stats();
  p.metrics().set_enabled(true);  // export is allowed once the run is over
  return Res{p.sink().window_goodput_mbps(p.machine().now()),
             st.total,
             tracer.recorded(),
             st.total ? double(st.charged_cycles) / double(st.total) : 0.0,
             with_registry ? p.metrics().to_json() : "{}"};
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  const Res bare = run(false, false);
  const Res reg = run(true, false);
  const Res on = run(true, true);

  const double reg_overhead =
      bare.cycles_per_exit > 0
          ? (reg.cycles_per_exit / bare.cycles_per_exit - 1.0) * 100.0
          : 0.0;
  const double trace_cost = (1.0 - on.mbps / bare.mbps) * 100.0;
  const bool reg_ok = reg_overhead < 2.0 && reg_overhead > -2.0;
  const bool trace_ok = on.recorded > 0 && on.mbps > bare.mbps * 0.97;

  if (json) {
    std::printf(
        "{\"benchmarks\":[{\"name\":\"AblationTraceOverhead\","
        "\"sat_mbps_bare\":%.3f,\"sat_mbps_tracing\":%.3f,"
        "\"cycles_per_exit_bare\":%.3f,\"cycles_per_exit_registry\":%.3f,"
        "\"registry_overhead_pct\":%.4f,\"tracing_cost_pct\":%.4f,"
        "\"metrics\":%s}]}\n",
        bare.mbps, on.mbps, bare.cycles_per_exit, reg.cycles_per_exit,
        reg_overhead, trace_cost, on.metrics_json.c_str());
    return reg_ok && trace_ok ? 0 : 1;
  }

  std::printf("=== Always-on observability at LVMM saturation ===\n");
  std::printf("%-22s %12s %10s %12s %14s\n", "config", "sat Mbps", "exits",
              "recorded", "cyc/exit");
  auto row = [](const char* name, const Res& r) {
    std::printf("%-22s %12.1f %10llu %12llu %14.1f\n", name, r.mbps,
                (unsigned long long)r.exits, (unsigned long long)r.recorded,
                r.cycles_per_exit);
  };
  row("bare", bare);
  row("registry (disabled)", reg);
  row("registry + tracing", on);
  std::printf("\nregistry overhead on cycles/exit: %.2f%%\n", reg_overhead);
  std::printf("throughput cost of full tracing:  %.2f%%\n", trace_cost);
  std::printf("registry stays under 2%%: %s\n", reg_ok ? "yes" : "NO");
  std::printf("tracing stays under 3%%:  %s\n", trace_ok ? "yes" : "NO");
  return reg_ok && trace_ok ? 0 : 1;
}
