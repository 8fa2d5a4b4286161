// The paper's Section 1 comparison, made executable: what happens to each
// debugging environment when the OS under development goes wild?
//
//   * debugger embedded in the OS / classic remote stub in the OS: the stub
//     shares fate with the kernel — a triple fault takes the machine (and
//     any in-kernel stub) down;
//   * the LVMM's stub: survives the same fault, and post-mortem inspection
//     of the dead kernel still works.
//
// Exercises both paths with the same fault (guest IDT destroyed, next
// interrupt escalates to a triple fault) and reports the outcomes.
//
// Also sweeps the time-travel checkpoint interval: every checkpoint charges
// the monitor (costs.checkpoint_base + checkpoint_per_page x resident
// pages), so shorter intervals buy finer reverse-debugging granularity at
// the price of guest throughput. The sweep reports the trade-off curve.
#include <cstdio>
#include <optional>

#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "harness/platform.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"

using namespace vdbg;
using namespace vdbg::harness;

namespace {

void destroy_idt(Platform& p) {
  const auto idt = p.image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    p.machine().mem().write32(idt + i, 0);
  }
}

struct CheckpointRun {
  u64 instructions = 0;
  u64 checkpoints = 0;
  double mean_kb = 0.0;
};

/// tier 0 = reference interpreter, 1 = superblocks (default).
CheckpointRun run_checkpointed(u64 interval, int tier) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(40.0));
  p.machine().cpu().set_superblocks_enabled(tier >= 1);
  std::optional<vmm::TimeTravel> tt;
  if (interval != 0) {
    vmm::TimeTravel::Config cfg;
    cfg.interval = interval;
    cfg.ring = 4;
    tt.emplace(*p.monitor(), cfg);
    tt->enable();
  }
  p.machine().run_for(seconds_to_cycles(0.1));
  CheckpointRun r;
  r.instructions = p.machine().cpu().stats().instructions;
  if (tt) {
    r.checkpoints = tt->stats().checkpoints;
    u64 bytes = 0;
    for (const auto& c : tt->checkpoints()) bytes += c.bytes.size();
    if (!tt->checkpoints().empty()) {
      r.mean_kb = double(bytes) / double(tt->checkpoints().size()) / 1024.0;
    }
  }
  return r;
}

void checkpoint_overhead_sweep() {
  // The interval sweep runs once per execution tier: checkpoint charges are
  // simulated-cycle costs, so retained-throughput percentages should be
  // (and are asserted by the lockstep tests to be) tier-invariant — any
  // divergence here means a tier broke the bit-identical cycle contract.
  static const char* const kTierNames[] = {"interp", "superblock"};
  for (int tier = 0; tier <= 1; ++tier) {
    std::printf("\n=== Checkpoint overhead vs interval "
                "(0.1 s simulated, tier: %s) ===\n",
                kTierNames[tier]);
    std::printf("%-12s %-12s %-14s %-14s %-10s\n", "interval", "checkpoints",
                "mean snap KiB", "guest instrs", "retained");
    const CheckpointRun base = run_checkpointed(0, tier);
    std::printf("%-12s %-12llu %-14s %-14llu %-10s\n", "off",
                (unsigned long long)base.checkpoints, "-",
                (unsigned long long)base.instructions, "100.0%");
    for (u64 interval : {u64{10'000}, u64{50'000}, u64{200'000}}) {
      const CheckpointRun r = run_checkpointed(interval, tier);
      const double retained =
          base.instructions
              ? 100.0 * double(r.instructions) / double(base.instructions)
              : 0.0;
      std::printf("%-12llu %-12llu %-14.1f %-14llu %.1f%%\n",
                  (unsigned long long)interval,
                  (unsigned long long)r.checkpoints, r.mean_kb,
                  (unsigned long long)r.instructions, retained);
    }
  }
}

}  // namespace

int main() {
  std::printf("=== Debug-environment stability under a guest triple fault ===\n");
  std::printf("%-34s %-16s %-14s %-12s\n", "environment", "machine state",
              "stub alive", "post-mortem");

  bool native_died = false;
  {
    Platform p(PlatformKind::kNative);
    p.prepare(guest::RunConfig());
    p.machine().run_for(seconds_to_cycles(0.01));
    destroy_idt(p);
    p.machine().run_for(seconds_to_cycles(0.01));
    native_died = p.machine().cpu().shutdown();
    std::printf("%-34s %-16s %-14s %-12s\n", "stub inside the OS (native)",
                native_died ? "SHUT DOWN" : "running", "no", "no");
  }

  bool lvmm_ok = false;
  {
    Platform p(PlatformKind::kLvmm);
    p.prepare(guest::RunConfig());
    vmm::DebugStub stub(*p.monitor(), p.machine().uart());
    stub.attach();
    debug::RemoteDebugger dbg(p.machine());
    dbg.connect();
    p.machine().run_for(seconds_to_cycles(0.01));
    destroy_idt(p);
    p.machine().run_for(seconds_to_cycles(0.01));

    const bool machine_alive = !p.machine().cpu().shutdown();
    const bool crashed = dbg.target_crashed();
    const bool intact = dbg.monitor_intact();
    const auto regs = dbg.read_registers();
    const auto mem = dbg.read_memory(guest::kMailboxBase, 16);
    const bool post_mortem = regs.has_value() && mem.has_value();
    lvmm_ok = machine_alive && crashed && intact && post_mortem;
    std::printf("%-34s %-16s %-14s %-12s\n", "lightweight VMM stub",
                machine_alive ? "running" : "SHUT DOWN",
                crashed && intact ? "yes" : "NO",
                post_mortem ? "yes" : "NO");
  }

  std::printf("\nlvmm environment survives what kills an in-OS stub: %s\n",
              (native_died && lvmm_ok) ? "yes" : "NO");

  checkpoint_overhead_sweep();
  return (native_died && lvmm_ok) ? 0 : 1;
}
