// Microbenchmarks of the VX32 interpreter itself (google-benchmark): how
// fast the simulation substrate executes guest code on the host, plus the
// simulated cycles-per-instruction the cost model charges. These calibrate
// how much wall-clock the Fig. 3.1 sweep costs and sanity-check the CPI
// assumptions documented in cpu/cost_model.h.
//
// Each benchmark runs once per execution path: Arg(0) is the reference
// interpreter (superblocks killed), Arg(1) threaded superblocks (the
// default configuration). Compare guest_instr_per_s across the /0 and /1
// rows to read the speedup; BM_TierSpeedup reports the
// superblock-vs-interpreter ratios of the ALU and memory-copy loops
// directly as counters so CI can gate them (tools/bench_baseline.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "asm/assembler.h"
#include "cpu/cpu.h"

namespace {

using namespace vdbg;
using namespace vdbg::vasm;
using cpu::kR0;
using cpu::kR1;
using cpu::kR2;

class NullBus final : public cpu::IoBus {
 public:
  u32 io_read(u16) override { return 0; }
  void io_write(u16, u32) override {}
};

struct Rig {
  Rig() : mem(4 * 1024 * 1024), cpu_(mem, bus, nullptr) {}
  /// tier 0 = reference interpreter, 1 = superblocks.
  void set_tier(int tier) { cpu_.set_superblocks_enabled(tier >= 1); }
  cpu::PhysMem mem;
  NullBus bus;
  cpu::Cpu cpu_;
};

void load(Rig& rig, const std::function<void(Assembler&)>& emit) {
  Assembler a(0x1000);
  emit(a);
  auto p = a.finalize();
  p.load(rig.mem);
  rig.cpu_.state().pc = 0x1000;
}

void report_tier_counters(benchmark::State& state, const Rig& rig) {
  state.counters["guest_instr_per_s"] = benchmark::Counter(
      double(rig.cpu_.stats().instructions), benchmark::Counter::kIsRate);
  state.counters["sim_cpi"] =
      double(rig.cpu_.cycles()) / double(rig.cpu_.stats().instructions);
  if (rig.cpu_.superblocks_enabled()) {
    const auto& sbc = rig.cpu_.sbc_stats();
    const double entries = double(sbc.hits + sbc.chains);
    state.counters["sb_chain_rate"] =
        entries > 0 ? double(sbc.chains) / entries : 0.0;
  }
}

void emit_alu_loop(Assembler& a) {
  a.movi(kR0, u32{0});
  a.label("loop");
  a.addi(kR0, kR0, u32{1});
  a.xori(kR1, kR0, u32{0x55});
  a.shli(kR2, kR1, 3);
  a.cmpi(kR0, u32{0xffffffff});
  a.jnz(l("loop"));
}

void BM_AluLoop(benchmark::State& state) {
  Rig rig;
  rig.set_tier(int(state.range(0)));
  load(rig, emit_alu_loop);
  for (auto _ : state) {
    rig.cpu_.run(10000);
  }
  report_tier_counters(state, rig);
}
BENCHMARK(BM_AluLoop)->Arg(0)->Arg(1);

void emit_memcopy_loop(Assembler& a) {
  a.movi(kR0, u32{0x10000});  // src
  a.movi(kR1, u32{0x20000});  // dst
  a.label("loop");
  a.ld32(kR2, kR0, 0);
  a.st32(kR1, 0, kR2);
  a.addi(kR0, kR0, u32{4});
  a.addi(kR1, kR1, u32{4});
  a.cmpi(kR0, u32{0x18000});
  a.jnz(l("loop"));
  a.movi(kR0, u32{0x10000});
  a.movi(kR1, u32{0x20000});
  a.jmp(l("loop"));
}

void BM_MemoryCopyLoop(benchmark::State& state) {
  Rig rig;
  rig.set_tier(int(state.range(0)));
  load(rig, emit_memcopy_loop);
  for (auto _ : state) {
    rig.cpu_.run(10000);
  }
  report_tier_counters(state, rig);
}
BENCHMARK(BM_MemoryCopyLoop)->Arg(0)->Arg(1);

void BM_CallRetLoop(benchmark::State& state) {
  Rig rig;
  rig.set_tier(int(state.range(0)));
  load(rig, [](Assembler& a) {
    a.movi(cpu::kSp, u32{0x8000});
    a.label("loop");
    a.call(l("fn"));
    a.jmp(l("loop"));
    a.label("fn");
    a.addi(kR0, kR0, u32{1});
    a.ret();
  });
  for (auto _ : state) {
    rig.cpu_.run(10000);
  }
  report_tier_counters(state, rig);
}
BENCHMARK(BM_CallRetLoop)->Arg(0)->Arg(1);

// Direct superblock-over-interpreter ratios on the ALU and memory-copy
// loops, exported as counters so tools/check_bench.py can gate them (a
// cross-row comparison is outside that gate's model). All four rigs run
// identical simulated-cycle slices, interleaved in one process, so each
// host-time ratio is a guest-throughput ratio robust to absolute host
// speed.
// sb_chain_rate is a deterministic simulated counter: the ALU loop block
// should chain to itself on essentially every dispatch.
void BM_TierSpeedup(benchmark::State& state) {
  struct Pair {
    explicit Pair(void (*emit)(Assembler&)) {
      interp.set_tier(0);
      load(interp, emit);
      sb.set_tier(1);
      load(sb, emit);
      // Warm both rigs past decode and translation.
      interp.cpu_.run(100000);
      sb.cpu_.run(100000);
    }
    /// One slice on each path, accumulating host seconds.
    void step() {
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();
      interp.cpu_.run(1000000);
      const auto t1 = clock::now();
      sb.cpu_.run(1000000);
      const auto t2 = clock::now();
      t_interp += std::chrono::duration<double>(t1 - t0).count();
      t_sb += std::chrono::duration<double>(t2 - t1).count();
    }
    double speedup() const { return t_sb > 0.0 ? t_interp / t_sb : 0.0; }
    Rig interp;
    Rig sb;
    double t_interp = 0.0;
    double t_sb = 0.0;
  };
  Pair alu(emit_alu_loop);
  Pair memcopy(emit_memcopy_loop);
  for (auto _ : state) {
    alu.step();
    memcopy.step();
  }
  state.counters["superblock_speedup_x"] = alu.speedup();
  state.counters["superblock_speedup_memcopy_x"] = memcopy.speedup();
  const auto& sbc = alu.sb.cpu_.sbc_stats();
  const double entries = double(sbc.hits + sbc.chains);
  state.counters["sb_chain_rate"] =
      entries > 0 ? double(sbc.chains) / entries : 0.0;
}
BENCHMARK(BM_TierSpeedup);

}  // namespace

BENCHMARK_MAIN();
