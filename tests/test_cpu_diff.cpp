// Differential testing of the CPU.
//
// Layers:
//  * RandomAluMemProgramsMatchReference — random straight-line ALU/memory
//    programs executed both by the VX32 interpreter and by a tiny
//    independent reference model of the ISA semantics; final register files
//    and memory effects must agree exactly.
//  * The lockstep fuzz — superblocks versus the kill-switched reference
//    interpreter, run in lockstep over random programs with branches,
//    calls, software interrupts, self-modifying stores and
//    deterministically injected external interrupts. Every slice, the
//    architectural state, cycle count and stats of both CPUs must be
//    bit-identical; that is the fast path's correctness contract.
//  * The same lockstep loop with guest paging on, partly at ring 3, over a
//    load/store-heavy mix that reaches every fallback of the superblocks'
//    native loads and stores.
//  * Directed superblock cases: cold blocks translated on first dispatch,
//    chain requests across a recycled cache slot, chain unchaining under
//    self-modifying code and breakpoint patching, data stores beside hot
//    code that must not retire it, a hot block's store into its own later
//    instruction, a generic fall-through tail, chaining across a
//    page-boundary block cut, the generic-tail self-chain guard, and the
//    monitor's armed breakpoints, step requests and write watchpoints on
//    both paths.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "common/rng.h"
#include "testutil.h"

namespace vdbg::test {
namespace {

using namespace vasm;
using cpu::Instr;
using cpu::Opcode;

/// Full byte image of a machine's physical memory (COW pages are not
/// contiguous, so whole-memory compares go through read_block).
std::vector<u8> dump_mem(const cpu::PhysMem& m) {
  std::vector<u8> out(m.size());
  m.read_block(0, out);
  return out;
}

/// Minimal independent model of the ALU/memory subset (written from the ISA
/// spec in isa.h, deliberately NOT sharing code with the interpreter).
struct RefModel {
  std::array<u32, 8> r{};
  std::map<u32, u32> mem;  // word-addressed sparse memory

  u32 load(u32 addr) const {
    auto it = mem.find(addr & ~3u);
    return it == mem.end() ? 0 : it->second;
  }
  void store(u32 addr, u32 v) { mem[addr & ~3u] = v; }

  void exec(const Instr& in) {
    const u32 a = r[in.rs1 & 7];
    const u32 b = r[in.rs2 & 7];
    auto& d = r[in.rd & 7];
    switch (in.op) {
      case Opcode::kMovI: d = in.imm; break;
      case Opcode::kMov: d = a; break;
      case Opcode::kAdd: d = a + b; break;
      case Opcode::kSub: d = a - b; break;
      case Opcode::kAnd: d = a & b; break;
      case Opcode::kOr: d = a | b; break;
      case Opcode::kXor: d = a ^ b; break;
      case Opcode::kShl: d = a << (b & 31); break;
      case Opcode::kShr: d = a >> (b & 31); break;
      case Opcode::kSar: d = u32(i32(a) >> (b & 31)); break;
      case Opcode::kMul: d = a * b; break;
      case Opcode::kAddI: d = a + in.imm; break;
      case Opcode::kSubI: d = a - in.imm; break;
      case Opcode::kAndI: d = a & in.imm; break;
      case Opcode::kOrI: d = a | in.imm; break;
      case Opcode::kXorI: d = a ^ in.imm; break;
      case Opcode::kShlI: d = a << (in.imm & 31); break;
      case Opcode::kShrI: d = a >> (in.imm & 31); break;
      case Opcode::kSarI: d = u32(i32(a) >> (in.imm & 31)); break;
      case Opcode::kMulI: d = a * in.imm; break;
      case Opcode::kLd32: d = load(a + in.imm); break;
      case Opcode::kSt32: store(a + in.imm, b); break;
      default: break;
    }
  }
};

// Scratch RAM the random programs may address: one aligned 4 KiB window.
constexpr u32 kScratch = 0x40000;

Instr random_instr(Rng& rng) {
  static const Opcode kOps[] = {
      Opcode::kMovI, Opcode::kMov,  Opcode::kAdd,  Opcode::kSub,
      Opcode::kAnd,  Opcode::kOr,   Opcode::kXor,  Opcode::kShl,
      Opcode::kShr,  Opcode::kSar,  Opcode::kMul,  Opcode::kAddI,
      Opcode::kSubI, Opcode::kAndI, Opcode::kOrI,  Opcode::kXorI,
      Opcode::kShlI, Opcode::kShrI, Opcode::kSarI, Opcode::kMulI,
      Opcode::kLd32, Opcode::kSt32};
  Instr in;
  in.op = kOps[rng.below(std::size(kOps))];
  // r7 (sp) excluded so the harness stack stays usable; r6 reserved as the
  // scratch-window base register.
  in.rd = static_cast<u8>(rng.below(6));
  in.rs1 = static_cast<u8>(rng.below(6));
  in.rs2 = static_cast<u8>(rng.below(6));
  in.imm = rng.next_u32();
  if (in.op == Opcode::kLd32 || in.op == Opcode::kSt32) {
    // Constrain the effective address: base = r6 (always kScratch),
    // displacement inside the window, word aligned.
    in.rs1 = 6;
    in.imm = static_cast<u32>(rng.below(1024)) * 4;
    if (in.op == Opcode::kSt32) in.rs2 = static_cast<u8>(rng.below(6));
  }
  return in;
}

TEST(CpuDifferential, RandomAluMemProgramsMatchReference) {
  Rng rng(20260705);
  for (int trial = 0; trial < 40; ++trial) {
    // Generate a straight-line program.
    std::vector<Instr> prog;
    const unsigned len = static_cast<unsigned>(rng.between(10, 120));
    for (unsigned i = 0; i < len; ++i) prog.push_back(random_instr(rng));

    // Run on the interpreter.
    CpuHarness h;
    h.load([&](Assembler& a) {
      a.movi(cpu::kR6, u32{kScratch});
      for (const auto& in : prog) {
        const auto bytes = in.encode();
        for (u8 byte : bytes) a.data8(byte);
      }
      a.hlt();
    });
    ASSERT_EQ(h.run(2000), cpu::RunExit::kHalted) << "trial " << trial;

    // Run on the reference model.
    RefModel ref;
    ref.r[6] = kScratch;
    for (const auto& in : prog) ref.exec(in);

    for (unsigned i = 0; i < 6; ++i) {
      EXPECT_EQ(h.cpu.state().regs[i], ref.r[i])
          << "trial " << trial << " r" << i;
    }
    EXPECT_EQ(h.cpu.state().regs[6], kScratch);
    for (const auto& [addr, val] : ref.mem) {
      EXPECT_EQ(h.mem.read32(addr), val)
          << "trial " << trial << " mem @" << std::hex << addr;
    }
  }
}

TEST(CpuDifferential, FlagSemanticsMatchTwoComplementIdentities) {
  // For random a,b: SUB sets C iff a<b (unsigned), Z iff a==b, and the
  // signed comparison (N!=V) iff (i32)a < (i32)b — checked through the
  // conditional-branch outcomes.
  Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    const u32 a = rng.next_u32();
    const u32 b = rng.chance(0.3) ? a : rng.next_u32();
    CpuHarness h;
    h.load([&](Assembler& asmr) {
      asmr.movi(cpu::kR1, u32{a});
      asmr.movi(cpu::kR2, u32{b});
      asmr.movi(cpu::kR0, u32{0});
      asmr.cmp(cpu::kR1, cpu::kR2);
      asmr.jb(l("below"));
      asmr.jmp(l("check_eq"));
      asmr.label("below");
      asmr.ori(cpu::kR0, cpu::kR0, u32{1});
      asmr.label("check_eq");
      asmr.cmp(cpu::kR1, cpu::kR2);
      asmr.jz(l("eq"));
      asmr.jmp(l("check_lt"));
      asmr.label("eq");
      asmr.ori(cpu::kR0, cpu::kR0, u32{2});
      asmr.label("check_lt");
      asmr.cmp(cpu::kR1, cpu::kR2);
      asmr.jl(l("lt"));
      asmr.hlt();
      asmr.label("lt");
      asmr.ori(cpu::kR0, cpu::kR0, u32{4});
      asmr.hlt();
    });
    ASSERT_EQ(h.run(100), cpu::RunExit::kHalted);
    const u32 expect = (a < b ? 1u : 0u) | (a == b ? 2u : 0u) |
                       (i32(a) < i32(b) ? 4u : 0u);
    EXPECT_EQ(h.reg(cpu::kR0), expect)
        << "trial " << trial << " a=" << a << " b=" << b;
  }
}

// ---------------------------------------------------------------------------
// Superblocks vs reference interpreter lockstep fuzz
// ---------------------------------------------------------------------------

/// Interrupt line the test asserts by hand (deterministically, between run
/// slices) so both rigs see the same external-interrupt timing.
class ScriptedIntr final : public cpu::IntrLine {
 public:
  bool intr_asserted() const override { return pending_; }
  u8 acknowledge() override {
    pending_ = false;
    return vector_;
  }
  void assert_vector(u8 v) {
    vector_ = v;
    pending_ = true;
  }
  bool pending() const { return pending_; }

 private:
  bool pending_ = false;
  u8 vector_ = 0;
};

/// One CPU with its own memory, scripted I/O and interrupt line.
struct DiffRig {
  DiffRig() : mem(1024 * 1024), cpu(mem, io, &intr) {}
  cpu::PhysMem mem;
  ScriptedIoBus io;
  ScriptedIntr intr;
  cpu::Cpu cpu;
};

constexpr u8 kExtVector = 48;  // external interrupts in the fuzz

/// Emits a 64-gate IDT whose handlers keep the program running: fault
/// vectors (< 32) skip the faulting instruction (saved pc += 8) and IRET;
/// trap-style vectors (software INT, external) IRET, after reading and
/// rewriting the word at `ring0_word` when it is nonzero (so a ring-3
/// program resumes with a ring-0 TLB entry for it). Every gate has
/// privilege `dpl` and enters ring 0. Label names: "skip_stub",
/// "iret_stub", "idt".
void emit_fuzz_idt(Assembler& a, u8 dpl = 0, u32 ring0_word = 0) {
  using cpu::kR0;
  using cpu::kSp;
  a.label("skip_stub");
  a.push(kR0);
  // Frame after push: [r0, err, pc, psw, sp]; saved pc at sp+8.
  a.ld32(kR0, kSp, 8);
  a.addi(kR0, kR0, u32{8});
  a.st32(kSp, 8, kR0);
  a.pop(kR0);
  a.iret();
  a.label("iret_stub");
  if (ring0_word != 0) {
    a.push(kR0);
    a.push(cpu::kR1);
    a.movi(cpu::kR1, ring0_word);
    a.ld32(kR0, cpu::kR1, 0);
    a.st32(cpu::kR1, 0, kR0);
    a.pop(cpu::kR1);
    a.pop(kR0);
  }
  a.iret();
  a.align(8);
  a.label("idt");
  for (u32 v = 0; v < 64; ++v) {
    a.data_ref(l(v < 32 ? "skip_stub" : "iret_stub"));
    a.data32(cpu::Gate{0, true, dpl, 0}.pack_flags());
  }
}

cpu::Reg fuzz_reg(Rng& rng) { return static_cast<cpu::Reg>(rng.below(5)); }

/// Instruction mix of a random fuzz program: cumulative percentage upper
/// bounds per kind (stack traffic takes the rest), plus the emitters of the
/// two store-heavy kinds.
struct FuzzMix {
  unsigned alu, mem, control, call, trap, smc;
  void (*mem_op)(Assembler&, Rng&);                // one data access
  void (*smc_op)(Assembler&, Rng&, unsigned len);  // a store into the code
  bool loop;  // after the closing hlt, jump back to L0 (ring 3 skips hlt)
};

/// Scratch-window access, word aligned; r6 = scratch base.
void emit_scratch_access(Assembler& a, Rng& rng) {
  const i32 disp = static_cast<i32>(rng.below(1024)) * 4;
  if (rng.chance(0.5)) {
    a.ld32(fuzz_reg(rng), cpu::kR6, disp);
  } else {
    a.st32(cpu::kR6, disp, fuzz_reg(rng));
  }
}

/// Self-modifying store into the program image: r5 holds the program base;
/// clobber a random instruction word. Superblocks must detect the new page
/// version; the reference interpreter refetches anyway.
void emit_smc_word(Assembler& a, Rng& rng, unsigned len) {
  const i32 disp = static_cast<i32>(rng.below(len)) * 8 +
                   (rng.chance(0.5) ? 4 : 0);
  a.st32(cpu::kR5, disp, fuzz_reg(rng));
}

/// The unpaged ring-0 mix: control-flow heavy, aligned scratch ld32/st32.
constexpr FuzzMix kUnpagedMix{45, 60, 78, 86, 92, 96, emit_scratch_access,
                              emit_smc_word, false};

/// A random control-flow-heavy program over labels "L0".."L<n-1>" placed
/// every 8 instructions. r6 = data base, r5 = program base (self-mod store
/// target), r0-r4 general. Returns nothing; emits into `a`.
void emit_fuzz_program(Assembler& a, Rng& rng, unsigned len,
                       const FuzzMix& mix = kUnpagedMix) {
  using namespace cpu;
  const unsigned num_labels = len / 8 + 1;
  auto rnd_label = [&] { return l("L" + std::to_string(rng.below(num_labels))); };
  auto rnd_reg = [&] { return fuzz_reg(rng); };  // r0-r4
  unsigned next_label = 0;
  for (unsigned i = 0; i < len; ++i) {
    if (i % 8 == 0 && next_label < num_labels) {
      a.label("L" + std::to_string(next_label++));
    }
    const unsigned kind = static_cast<unsigned>(rng.below(100));
    if (kind < mix.alu) {
      // Plain ALU op (register or immediate form); memory is handled below.
      Instr in = random_instr(rng);
      while (in.op == Opcode::kLd32 || in.op == Opcode::kSt32) {
        in = random_instr(rng);
      }
      const auto bytes = in.encode();
      for (u8 byte : bytes) a.data8(byte);
    } else if (kind < mix.mem) {
      mix.mem_op(a, rng);
    } else if (kind < mix.control) {
      // Control flow to a random label (forward or backward).
      switch (rng.below(6)) {
        case 0: a.jmp(rnd_label()); break;
        case 1: a.jz(rnd_label()); break;
        case 2: a.jnz(rnd_label()); break;
        case 3: a.jl(rnd_label()); break;
        case 4: a.jae(rnd_label()); break;
        default: a.cmpi(rnd_reg(), rng.next_u32()); break;
      }
    } else if (kind < mix.call) {
      // Call/ret pairs are intentionally unbalanced; a RET into garbage
      // faults and the skip handler moves on. Both rigs see it identically.
      if (rng.chance(0.7)) {
        a.call(rnd_label());
      } else {
        a.ret();
      }
    } else if (kind < mix.trap) {
      // Trapping instructions: software INT (trap-style resume), BRK
      // (#BP skip), divide by a possibly-zero register (#DE skip).
      switch (rng.below(3)) {
        case 0: a.int_(static_cast<u8>(32 + rng.below(16))); break;
        case 1: a.brk(); break;
        default: a.divu(rnd_reg(), rnd_reg(), rnd_reg()); break;
      }
    } else if (kind < mix.smc) {
      mix.smc_op(a, rng, len);
    } else {
      // Stack traffic.
      if (rng.chance(0.5)) {
        a.push(rnd_reg());
      } else {
        a.pop(rnd_reg());
      }
    }
  }
  while (next_label < num_labels) a.label("L" + std::to_string(next_label++));
  a.hlt();
  if (mix.loop) a.jmp(l("L0"));
}

/// Asserts rig `b` (superblocks) is architecturally bit-identical to the
/// reference rig `a` (the interpreter) at a run-slice boundary.
void expect_rigs_identical(DiffRig& a, DiffRig& b, int trial, int slice) {
  const auto& sa = a.cpu.state();
  const auto& sb = b.cpu.state();
  ASSERT_EQ(a.cpu.cycles(), b.cpu.cycles())
      << "trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.pc, sb.pc) << "trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.psw, sb.psw) << "trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.regs, sb.regs) << "trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.cr, sb.cr) << "trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.idt_base, sb.idt_base);
  ASSERT_EQ(sa.idt_count, sb.idt_count);
  ASSERT_EQ(a.cpu.halted(), b.cpu.halted());
  ASSERT_EQ(a.intr.pending(), b.intr.pending());

  // Architectural stats must match exactly; the sbc stats are fast-path
  // telemetry and excluded by contract.
  const auto& ta = a.cpu.stats();
  const auto& tb = b.cpu.stats();
  ASSERT_EQ(ta.instructions, tb.instructions)
      << "trial " << trial << " slice " << slice;
  ASSERT_EQ(ta.mem_accesses, tb.mem_accesses)
      << "trial " << trial << " slice " << slice;
  ASSERT_EQ(ta.io_accesses, tb.io_accesses);
  ASSERT_EQ(ta.exceptions, tb.exceptions);
  ASSERT_EQ(ta.interrupts, tb.interrupts)
      << "trial " << trial << " slice " << slice;
  ASSERT_EQ(ta.hook_events, tb.hook_events);
  ASSERT_EQ(a.cpu.mmu().tlb_hits(), b.cpu.mmu().tlb_hits())
      << "trial " << trial << " slice " << slice;
  ASSERT_EQ(a.cpu.mmu().tlb_misses(), b.cpu.mmu().tlb_misses());
}

/// Environment override for the nightly extended fuzz (VDBG_FUZZ_TRIALS /
/// VDBG_FUZZ_SEED); the checked-in defaults keep the tier-1 run fast and
/// fully deterministic.
u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

/// The two rigs of one lockstep trial: the reference interpreter and
/// superblocks.
struct LockstepRigs {
  LockstepRigs() { interp.cpu.set_superblocks_enabled(false); }
  std::array<DiffRig*, 2> all() { return {&interp, &super}; }
  DiffRig interp, super;
};

/// Runs the rigs in lockstep for 60 slices, injecting an external interrupt
/// every fifth slice. After every slice superblocks must be bit-identical
/// to the interpreter, and every seventh slice their whole memory too;
/// `after_slice` then runs (with the memory just compared on those slices).
/// Stops early at a fatal mismatch or when the interpreter shut down.
void run_lockstep(LockstepRigs& t, int trial,
                  const std::function<void(int slice)>& after_slice = {}) {
  for (int slice = 0; slice < 60; ++slice) {
    // Deterministic external interrupt injection between slices.
    if (slice % 5 == 2) {
      for (DiffRig* r : t.all()) r->intr.assert_vector(kExtVector);
    }
    const auto ra = t.interp.cpu.run(997);
    const auto rb = t.super.cpu.run(997);
    ASSERT_EQ(ra, rb) << "trial " << trial << " slice " << slice;
    expect_rigs_identical(t.interp, t.super, trial, slice);
    if (::testing::Test::HasFatalFailure()) return;

    // Periodic full-memory compare (self-modifying stores and stack
    // traffic must land identically).
    if (slice % 7 == 0) {
      ASSERT_EQ(dump_mem(t.interp.mem), dump_mem(t.super.mem))
          << "trial " << trial << " slice " << slice;
    }
    if (after_slice) after_slice(slice);
    if (::testing::Test::HasFatalFailure()) return;
    if (t.interp.cpu.shutdown()) break;  // triple fault: both dead (checked)
  }
  ASSERT_EQ(dump_mem(t.interp.mem), dump_mem(t.super.mem)) << "trial " << trial;
}

TEST(CpuDifferential, LockstepFuzz) {
  const int trials = static_cast<int>(env_u64("VDBG_FUZZ_TRIALS", 30));
  Rng rng(env_u64("VDBG_FUZZ_SEED", 20260806));
  cpu::SbcStats sb_totals;
  for (int trial = 0; trial < trials; ++trial) {
    // One program image, loaded into both rigs.
    Assembler a(0x1000);
    a.movi(cpu::kR0, l("idt"));
    a.lidt(cpu::kR0, 64);
    a.movi(cpu::kSp, u32{0x9000});
    a.movi(cpu::kR6, u32{kScratch});
    a.movi(cpu::kR5, l("L0"));
    a.sti();
    const unsigned len = static_cast<unsigned>(rng.between(24, 160));
    emit_fuzz_program(a, rng, len);
    emit_fuzz_idt(a);
    auto prog = a.finalize();

    LockstepRigs t;
    for (DiffRig* r : t.all()) {
      prog.load(r->mem);
      r->cpu.state().pc = 0x1000;
    }
    run_lockstep(t, trial);
    if (::testing::Test::HasFatalFailure()) return;
    const auto& sbc = t.super.cpu.sbc_stats();
    sb_totals.translations += sbc.translations;
    sb_totals.hits += sbc.hits;
    sb_totals.chains += sbc.chains;
    sb_totals.unchains += sbc.unchains;
    sb_totals.invalidations += sbc.invalidations;
    // The interpreter rig's kill switch is off: its sbc stats stay zero.
    EXPECT_EQ(0u, t.interp.cpu.sbc_stats().translations);
    EXPECT_EQ(0u, t.interp.cpu.sbc_stats().hits);
  }
  // The fuzz must actually have exercised the fast path, its chaining and
  // its invalidation, or the whole comparison is vacuous. The rare events
  // (self-modifying stores, superblock drops) need a full-size run to be
  // guaranteed; a shrunk VDBG_FUZZ_TRIALS repro run skips the coverage
  // audit.
  if (trials < 30) return;
  EXPECT_GT(sb_totals.translations, 0u) << "no block was ever translated";
  EXPECT_GT(sb_totals.hits, 0u) << "no superblock was ever dispatched";
  EXPECT_GT(sb_totals.chains, 0u) << "no direct chain was ever followed";
  EXPECT_GT(sb_totals.invalidations, 0u)
      << "no self-modifying store dropped a superblock across all trials";
}

// ---------------------------------------------------------------------------
// Paged, memory-heavy lockstep fuzz
// ---------------------------------------------------------------------------

// Layout of the paged fuzz. One page table maps the low 4 MiB; the program
// and its IDT sit on code vpn 1 (user RW, so ring 3 runs it and may store
// into it), and every data page below is chosen to reach one of the native
// load/store path's fallbacks. PTEs start with A and D clear.
constexpr u32 kPdPhys = 0xf0000;
constexpr u32 kPtPhys = 0xf1000;
constexpr u32 kKernelStackTop = 0x9000;  // vpn 8: event entries into ring 0
constexpr u32 kUserStackTop = 0xa000;    // vpn 9
constexpr u32 kCodeDataVa = 0x1e00;      // tail of the code page, never code
constexpr u32 kCodeAliasVa = 0x50000;    // the code frame again, at vpn 0x50
struct FuzzPage {
  u32 vpn;
  u32 frame;
  bool w;
  bool u;
};
constexpr FuzzPage kFuzzPages[] = {
    {0x01, 0x01, true, true},    // program + IDT (+ kCodeDataVa)
    {0x02, 0x02, true, true},    // the longest programs spill over
    {0x08, 0x08, true, false},   // kernel stack
    {0x09, 0x09, true, true},    // user stack
    {0x10, 0x10, true, true},    // user data
    {0x11, 0x11, false, true},   // user read-only
    {0x12, 0x12, true, false},   // supervisor-only
    {0x13, 0x13, false, false},  // supervisor read-only
    {0x15, 0x400, true, true},   // a frame past the end of physical memory
    {0x41, 0x20, true, true},    // shares the TLB slot of code vpn 1
    {0x42, 0x21, true, true},    // shares the TLB slot of code vpn 2
    {0x50, 0x01, true, true},    // user alias of the code frame
};
/// A supervisor word the trap-style handler touches at ring 0, so ring-3
/// accesses to its page meet a TLB entry they may not use.
constexpr u32 kRing0Word = 0x12000;
/// Data pages a random access picks from; vpn 0x14 is not present.
constexpr u32 kFuzzDataVpns[] = {0x10, 0x10, 0x10, 0x11, 0x12, 0x13,
                                 0x14, 0x15, 0x41, 0x41, 0x42};

void map_fuzz_pages(cpu::PhysMem& m) {
  m.write32(kPdPhys, cpu::Pte::make(kPtPhys, true, true));
  for (const FuzzPage& p : kFuzzPages) {
    m.write32(kPtPhys + p.vpn * 4,
              cpu::Pte::make(p.frame << cpu::kPageBits, p.w, p.u));
  }
}

/// One ld8/16/32 or st8/16/32 at an absolute address (r6 = 0): mostly the
/// data pages, some the code page's data tail (directly or through the
/// alias), a few misaligned or off a random register.
void emit_paged_access(Assembler& a, Rng& rng) {
  static const Opcode kLoads[] = {Opcode::kLd8, Opcode::kLd16, Opcode::kLd32};
  static const Opcode kStores[] = {Opcode::kSt8, Opcode::kSt16, Opcode::kSt32};
  const bool store = rng.chance(0.5);
  const unsigned width = static_cast<unsigned>(rng.below(3));
  Instr in;
  in.op = store ? kStores[width] : kLoads[width];
  in.rd = static_cast<u8>(fuzz_reg(rng));
  in.rs2 = static_cast<u8>(fuzz_reg(rng));
  in.rs1 = cpu::kR6;
  const unsigned where = static_cast<unsigned>(rng.below(100));
  if (where < 20) {
    const u32 base = where < 15 ? kCodeDataVa : kCodeAliasVa + 0xe00;
    in.imm = base + static_cast<u32>(rng.below(0x200));
  } else if (where < 97) {
    const u32 vpn = kFuzzDataVpns[rng.below(std::size(kFuzzDataVpns))];
    in.imm = (vpn << cpu::kPageBits) | static_cast<u32>(rng.below(cpu::kPageSize));
  } else {
    in.rs1 = static_cast<u8>(fuzz_reg(rng));
    in.imm = static_cast<u32>(rng.below(64));
  }
  if (!rng.chance(0.05)) in.imm &= ~((1u << width) - 1);  // else misaligned
  const auto bytes = in.encode();
  for (u8 byte : bytes) a.data8(byte);
}

/// A store of any width into a random decoded instruction (r5 = L0).
void emit_smc_any(Assembler& a, Rng& rng, unsigned len) {
  const i32 disp = static_cast<i32>(rng.below(len * cpu::kInstrBytes));
  switch (rng.below(3)) {
    case 0: a.st8(cpu::kR5, disp, fuzz_reg(rng)); break;
    case 1: a.st16(cpu::kR5, disp & ~1, fuzz_reg(rng)); break;
    default: a.st32(cpu::kR5, disp & ~3, fuzz_reg(rng)); break;
  }
}

/// Memory ops are 55 % of the body, plus 3 % stores into its own code.
constexpr FuzzMix kPagedMix{15, 70, 84, 88, 91, 94, emit_paged_access,
                            emit_smc_any, true};

TEST(CpuDifferential, PagedMemoryLockstepFuzz) {
  // The lockstep fuzz again, with guest paging on, most trials at ring 3
  // and a load/store-heavy body: every fallback of the superblock tier's
  // native loads and stores (misaligned, TLB miss, supervisor page from
  // ring 3, read-only page, D bit still clear, not present, a data vpn
  // evicting the code vpn's TLB slot) must retire exactly what the
  // interpreter does. Stores land on code-page data and on decoded
  // instructions, and the rigs run on memory adopted from a capture_cow()
  // that they later roll back to.
  const int trials = static_cast<int>(env_u64("VDBG_FUZZ_TRIALS", 30));
  Rng rng(env_u64("VDBG_FUZZ_SEED", 20261017));
  u64 total_invals = 0, mem_native = 0, mem_fallbacks = 0, ring3_trials = 0;
  for (int trial = 0; trial < trials; ++trial) {
    Assembler a(0x1000);
    const unsigned len = static_cast<unsigned>(rng.between(24, 160));
    emit_fuzz_program(a, rng, len, kPagedMix);
    emit_fuzz_idt(a, /*dpl=*/3, kRing0Word);
    auto prog = a.finalize();
    const bool ring3 = rng.chance(0.7);
    ring3_trials += ring3;

    LockstepRigs t;
    prog.load(t.interp.mem);
    map_fuzz_pages(t.interp.mem);
    const cpu::CowPages boot = t.interp.mem.capture_cow();
    for (DiffRig* r : t.all()) {
      ASSERT_TRUE(r->mem.adopt_cow(boot));
      auto& st = r->cpu.state();
      st.pc = prog.symbol("L0").value();
      st.psw = cpu::Psw::kIf | (ring3 ? cpu::kRing3 : cpu::kRing0);
      st.regs[cpu::kSp] = kUserStackTop;
      st.regs[cpu::kR5] = st.pc;
      st.cr[cpu::kCr0] = cpu::kCr0PgBit;
      st.cr[cpu::kCr3] = kPdPhys;
      st.cr[cpu::kCrMonitorSp] = kKernelStackTop;
      st.idt_base = prog.symbol("idt").value();
      st.idt_count = 64;
    }
    // The page table is compared every slice: a store through a read-filled
    // TLB entry must set its PTE's D bit exactly when the interpreter does,
    // and later walks would hide a miss. Every tenth slice the harness
    // cleans every D bit and flushes the TLB, as an OS writing back dirty
    // pages would, so hot blocks meet read-filled entries again. The memory
    // of slice 14 is captured;
    // both roll back to it at slice 28 and to the boot image at slice 42
    // (each just compared): blocks decoded from the newer contents must
    // not survive an adoption.
    cpu::CowPages saved;
    run_lockstep(t, trial, [&](int slice) {
      std::array<u8, cpu::kPageSize> pt;
      t.interp.mem.read_block(kPtPhys, pt);
      std::array<u8, cpu::kPageSize> other;
      t.super.mem.read_block(kPtPhys, other);
      ASSERT_EQ(pt, other) << "trial " << trial << " slice " << slice;
      if (slice % 10 == 5) {
        for (DiffRig* r : t.all()) {
          for (const FuzzPage& p : kFuzzPages) {
            const PAddr pte = kPtPhys + p.vpn * 4;
            r->mem.write32(pte, r->mem.read32(pte) & ~cpu::Pte::kD);
          }
          r->cpu.mmu().flush_tlb();
        }
      }
      if (slice == 14) saved = t.interp.mem.capture_cow();
      if (slice == 28 || slice == 42) {
        for (DiffRig* r : t.all()) {
          ASSERT_TRUE(r->mem.adopt_cow(slice == 28 ? saved : boot));
        }
      }
    });
    if (::testing::Test::HasFatalFailure()) return;
    total_invals += t.super.cpu.sbc_stats().invalidations;
    mem_native += t.super.cpu.sbc_stats().mem_native;
    mem_fallbacks += t.super.cpu.sbc_stats().mem_fallbacks;
  }
  if (trials < 30) return;
  EXPECT_GT(ring3_trials, 0u);
  EXPECT_LT(ring3_trials, u64(trials));
  EXPECT_GT(mem_native, 0u) << "no load or store ran natively";
  EXPECT_GT(mem_fallbacks, 0u) << "no load or store fell back";
  EXPECT_GT(total_invals, 0u) << "no store retired a decoded block";
}

TEST(CpuDifferential, ColdBlocksRunAsSuperblocks) {
  // Straight-line code that never loops, so every block is dispatched
  // exactly once: each must be translated on that first dispatch and run as
  // a superblock — through a load outside physical memory (#GP, skipped by
  // the handler) and a software interrupt — bit-identical to the reference
  // interpreter.
  constexpr unsigned kLinks = 40;
  Assembler a(0x1000);
  for (unsigned i = 0; i < kLinks; ++i) {
    a.label("b" + std::to_string(i));
    a.addi(cpu::kR0, cpu::kR0, u32{i + 1});
    a.xori(cpu::kR1, cpu::kR0, u32{0x55});
    a.jmp(l("b" + std::to_string(i + 1)));
  }
  a.label("b" + std::to_string(kLinks));
  a.ld32(cpu::kR3, cpu::kR2, 0);       // r2 = first byte past memory: #GP
  a.addi(cpu::kR0, cpu::kR0, u32{1});  // resumes here
  a.int_(40);
  a.addi(cpu::kR0, cpu::kR0, u32{1});  // resumes here after the iret
  a.hlt();
  emit_fuzz_idt(a);
  auto prog = a.finalize();
  // The chain links, the load's block and its two resume points, and the
  // skip and iret stubs.
  constexpr u64 kBlocks = kLinks + 5;

  LockstepRigs t;
  for (DiffRig* r : t.all()) {
    prog.load(r->mem);
    auto& st = r->cpu.state();
    st.pc = 0x1000;
    st.regs[cpu::kSp] = 0x9000;
    st.regs[cpu::kR2] = r->mem.size();
    st.idt_base = prog.symbol("idt").value();
    st.idt_count = 64;
  }
  for (DiffRig* r : t.all()) {
    ASSERT_EQ(r->cpu.run(1'000'000), cpu::RunExit::kHalted);
  }
  expect_rigs_identical(t.interp, t.super, 0, 0);
  EXPECT_EQ(dump_mem(t.interp.mem), dump_mem(t.super.mem));
  EXPECT_EQ(t.super.cpu.stats().exceptions, 2u) << "#GP and the int";

  const auto& sbc = t.super.cpu.sbc_stats();
  EXPECT_EQ(sbc.translations, kBlocks);
  EXPECT_EQ(sbc.hits, kBlocks) << "a block was dispatched twice";
  EXPECT_EQ(sbc.mem_fallbacks, 1u) << "the load did not fall back";
}

TEST(CpuDifferential, ChainRequestNeverLandsOnARecycledSlot) {
  // Block heads 8 KiB apart share a superblock cache slot. The block at
  // 0x1000 jumps to 0x3000, and translating the target evicts the jumping
  // block from that very slot. Its pending chain request must die with it
  // instead of giving the new block a self-edge it never asked for (the
  // chain guard would catch that edge on its physical-target check, but
  // only as a failed guard and a spurious unchain).
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.jmp(l("far"));
      while (a.here() < 0x3000) a.nop();
      a.label("far");
      a.movi(cpu::kR1, u32{0});
      a.label("loop");  // the far block's taken edge, not its own head
      a.addi(cpu::kR1, cpu::kR1, u32{1});
      a.cmpi(cpu::kR1, u32{100});
      a.jnz(l("loop"));
      a.hlt();
    });
  };

  CpuHarness super, interp;
  build(super);
  build(interp);
  interp.cpu.set_superblocks_enabled(false);
  ASSERT_EQ(super.prog.symbol("far").value(), 0x3000u);
  ASSERT_EQ(super.cpu.run(100000), cpu::RunExit::kHalted);
  ASSERT_EQ(interp.cpu.run(100000), cpu::RunExit::kHalted);

  EXPECT_EQ(100u, super.reg(cpu::kR1));
  EXPECT_EQ(super.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(super.cpu.state().pc, interp.cpu.state().pc);
  EXPECT_EQ(super.cpu.state().psw, interp.cpu.state().psw);
  EXPECT_EQ(super.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(super.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(super.cpu.stats().mem_accesses, interp.cpu.stats().mem_accesses);
  EXPECT_EQ(dump_mem(super.mem), dump_mem(interp.mem));

  const auto& sbc = super.cpu.sbc_stats();
  EXPECT_GT(sbc.chains, 0u) << "the loop never chained";
  EXPECT_EQ(sbc.unchains, 0u) << "an edge nobody requested was installed";
}

TEST(CpuDifferential, SelfModifyingCodePatchesTakeEffectBothPaths) {
  // Pass 1 executes a placeholder NOP that is part of a translated block,
  // then patches it to `movi r2, 7` in place; pass 2 must execute the
  // patched instruction. Superblocks must detect the stale block (page
  // version bump) and retranslate; both CPUs end bit-identical.
  Instr patch;
  patch.op = Opcode::kMovI;
  patch.rd = 2;
  patch.rs1 = 0;
  patch.rs2 = 0;
  patch.imm = 7;
  const auto enc = patch.encode();
  const u32 lo = u32(enc[0]) | (u32(enc[1]) << 8) | (u32(enc[2]) << 16) |
                 (u32(enc[3]) << 24);
  const u32 hi = u32(enc[4]) | (u32(enc[5]) << 8) | (u32(enc[6]) << 16) |
                 (u32(enc[7]) << 24);

  auto build = [&](CpuHarness& h) {
    h.load([&](Assembler& a) {
      a.movi(cpu::kR5, u32{0});          // pass counter
      a.movi(cpu::kR3, l("placeholder"));
      a.movi(cpu::kR1, u32{lo});
      a.movi(cpu::kR4, u32{hi});
      a.jmp(l("loop"));  // block boundary: the loop head starts its own block
      a.label("loop");
      a.label("placeholder");
      a.nop();                           // becomes `movi r2, 7` after pass 1
      a.cmpi(cpu::kR5, u32{1});
      a.jz(l("done"));
      a.st32(cpu::kR3, 0, cpu::kR1);     // patch the placeholder word
      a.st32(cpu::kR3, 4, cpu::kR4);
      a.addi(cpu::kR5, cpu::kR5, u32{1});
      a.jmp(l("loop"));
      a.label("done");
      a.hlt();
    });
  };

  CpuHarness cached, uncached;
  build(cached);
  build(uncached);
  uncached.cpu.set_superblocks_enabled(false);
  ASSERT_EQ(cached.cpu.run(10000), cpu::RunExit::kHalted);
  ASSERT_EQ(uncached.cpu.run(10000), cpu::RunExit::kHalted);

  EXPECT_EQ(7u, cached.cpu.state().regs[2]) << "patched instr did not run";
  EXPECT_EQ(cached.cpu.state().regs, uncached.cpu.state().regs);
  EXPECT_EQ(cached.cpu.state().pc, uncached.cpu.state().pc);
  EXPECT_EQ(cached.cpu.cycles(), uncached.cpu.cycles());
  EXPECT_EQ(cached.cpu.stats().instructions,
            uncached.cpu.stats().instructions);
  EXPECT_GE(cached.cpu.sbc_stats().invalidations, 1u)
      << "stale block was not detected";
}

TEST(CpuDifferential, BreakpointPatchViaWriteVirtInvalidates) {
  // Debugger-style breakpoint patching: run a hot loop as a self-chaining
  // superblock, then rewrite the opcode of one loop instruction to kBrk
  // through Cpu::write_virt (a debugger's code path for poking memory).
  // Both CPUs must take #BP at the same pc with identical state, and the
  // superblock CPU must invalidate the stale block rather than execute it.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, l("idt"));
      a.lidt(cpu::kR0, 64);
      a.movi(cpu::kSp, u32{0x9000});
      a.movi(cpu::kR0, u32{0});
      a.label("loop");
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.cmpi(cpu::kR0, u32{0x7fffffff});
      a.jnz(l("loop"));
      a.hlt();
      emit_test_idt(a);
    });
  };
  // The addi sits 4 instructions past the image base.
  const u32 patch_va = 0x1000 + 4 * cpu::kInstrBytes;

  CpuHarness cached, uncached;
  build(cached);
  build(uncached);
  uncached.cpu.set_superblocks_enabled(false);

  // Let the loop run: its superblock must be live (and self-chaining)
  // before the patch lands.
  ASSERT_EQ(cached.cpu.run(5000), cpu::RunExit::kBudget);
  ASSERT_EQ(uncached.cpu.run(5000), cpu::RunExit::kBudget);
  ASSERT_EQ(cached.cpu.cycles(), uncached.cpu.cycles());
  ASSERT_EQ(cached.cpu.state().regs, uncached.cpu.state().regs);
  ASSERT_GT(cached.cpu.sbc_stats().translations, 0u);
  ASSERT_GT(cached.cpu.sbc_stats().chains, 0u);
  const u64 sb_invals_before = cached.cpu.sbc_stats().invalidations;

  // Patch the loop body's opcode to BRK on both rigs.
  const u8 brk_op = static_cast<u8>(Opcode::kBrk);
  ASSERT_TRUE(cached.cpu.write_virt(patch_va, {&brk_op, 1}));
  ASSERT_TRUE(uncached.cpu.write_virt(patch_va, {&brk_op, 1}));

  // Both must now take #BP: the test IDT records the event and halts.
  ASSERT_EQ(cached.cpu.run(5000), cpu::RunExit::kHalted);
  ASSERT_EQ(uncached.cpu.run(5000), cpu::RunExit::kHalted);

  const auto ra = read_trap_record(cached.mem);
  const auto rb = read_trap_record(uncached.mem);
  EXPECT_EQ(3u, ra.vector);  // #BP
  EXPECT_EQ(patch_va, ra.pc);
  EXPECT_EQ(ra.vector, rb.vector);
  EXPECT_EQ(ra.pc, rb.pc);
  EXPECT_EQ(ra.psw, rb.psw);
  EXPECT_EQ(ra.sp, rb.sp);
  EXPECT_EQ(cached.cpu.cycles(), uncached.cpu.cycles());
  EXPECT_EQ(cached.cpu.state().regs, uncached.cpu.state().regs);
  // The breakpoint patch must have severed the stale superblock (and its
  // self-chain) rather than let the chained loop keep running the old
  // translation: the write retired the page's decoded code.
  EXPECT_GT(cached.cpu.sbc_stats().invalidations, sb_invals_before);
  EXPECT_GT(cached.cpu.sbc_stats().unchains, 0u);

  // The explicit API drops every live superblock too.
  const u64 before = cached.cpu.sbc_stats().invalidations;
  cached.cpu.invalidate_superblocks();
  EXPECT_GT(cached.cpu.sbc_stats().invalidations, before);
}

TEST(CpuDifferential, SuperblockSmcGuestStoreSeversChainAndRetranslates) {
  // A hot self-chained loop whose body is patched by a guest store after it
  // has been translated: the placeholder NOP becomes `movi r2, 7` for the
  // second hundred iterations. Superblocks must detect the page version
  // bump, sever the loop's self-chain, retranslate, and end bit-identical
  // to the reference interpreter.
  Instr patch;
  patch.op = Opcode::kMovI;
  patch.rd = 2;
  patch.rs1 = 0;
  patch.rs2 = 0;
  patch.imm = 7;
  const auto enc = patch.encode();
  const u32 lo = u32(enc[0]) | (u32(enc[1]) << 8) | (u32(enc[2]) << 16) |
                 (u32(enc[3]) << 24);
  const u32 hi = u32(enc[4]) | (u32(enc[5]) << 8) | (u32(enc[6]) << 16) |
                 (u32(enc[7]) << 24);

  auto build = [&](CpuHarness& h) {
    h.load([&](Assembler& a) {
      a.movi(cpu::kR3, l("placeholder"));
      a.movi(cpu::kR1, u32{lo});
      a.movi(cpu::kR4, u32{hi});
      a.movi(cpu::kR0, u32{0});
      a.movi(cpu::kR5, u32{0});          // pass counter
      a.jmp(l("loop"));
      a.label("loop");
      a.label("placeholder");
      a.nop();                           // becomes `movi r2, 7` in pass 2
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.cmpi(cpu::kR0, u32{100});
      a.jnz(l("loop"));                  // 100 hot iterations per pass
      a.cmpi(cpu::kR5, u32{1});
      a.jz(l("done"));
      a.st32(cpu::kR3, 0, cpu::kR1);     // guest store patches the loop body
      a.st32(cpu::kR3, 4, cpu::kR4);
      a.movi(cpu::kR0, u32{0});
      a.addi(cpu::kR5, cpu::kR5, u32{1});
      a.jmp(l("loop"));
      a.label("done");
      a.hlt();
    });
  };

  CpuHarness super, interp;
  build(super);
  build(interp);
  interp.cpu.set_superblocks_enabled(false);
  ASSERT_EQ(super.cpu.run(20000), cpu::RunExit::kHalted);
  ASSERT_EQ(interp.cpu.run(20000), cpu::RunExit::kHalted);

  EXPECT_EQ(7u, super.cpu.state().regs[2]) << "patched instr did not run";
  EXPECT_EQ(super.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(super.cpu.state().pc, interp.cpu.state().pc);
  EXPECT_EQ(super.cpu.state().psw, interp.cpu.state().psw);
  EXPECT_EQ(super.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(super.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(super.cpu.stats().mem_accesses, interp.cpu.stats().mem_accesses);
  EXPECT_EQ(super.cpu.mmu().tlb_hits(), interp.cpu.mmu().tlb_hits());

  const auto& sbc = super.cpu.sbc_stats();
  EXPECT_GE(sbc.translations, 2u) << "stale loop was not retranslated";
  EXPECT_GT(sbc.chains, 0u) << "hot loop never chained to itself";
  EXPECT_GE(sbc.invalidations, 1u) << "stale superblock was not dropped";
  EXPECT_GE(sbc.unchains, 1u) << "the self-chain edge was never severed";
}

TEST(CpuDifferential, DataStoreOnCodePageKeepsDecodedBlocks) {
  // A hot loop keeps its counter on its own code page, 128 bytes past its
  // last instruction, the way small RTOS images keep driver variables next
  // to their code. Only writes that overlap decoded bytes retire a page, so
  // once warm the loop never retranslates a superblock — and it stays
  // bit-identical to the reference interpreter.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.movi(cpu::kR2, l("counter"));
      a.label("loop");
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.st32(cpu::kR2, 0, cpu::kR0);
      a.ld32(cpu::kR1, cpu::kR2, 0);
      a.cmpi(cpu::kR0, u32{50000});
      a.jnz(l("loop"));
      a.hlt();
      const u32 code_end = a.here();
      while (a.here() < code_end + 128) a.data32(0);
      a.label("counter");
      a.data32(0);
    });
  };

  std::array<CpuHarness, 2> rigs;  // superblock, interpreter
  for (auto& r : rigs) build(r);
  rigs[1].cpu.set_superblocks_enabled(false);
  const u32 counter = rigs[0].prog.symbol("counter").value();
  ASSERT_EQ(counter >> cpu::kPageBits, 0x1000u >> cpu::kPageBits);

  // Warm up for 1000 iterations, stopping at the loop head (two prologue
  // instructions, five per iteration).
  for (auto& r : rigs) {
    r.cpu.set_instr_stop(2 + 5 * 1000);
    ASSERT_EQ(r.cpu.run(10'000'000), cpu::RunExit::kInstrLimit);
    ASSERT_EQ(r.cpu.state().pc, r.prog.symbol("loop").value());
    r.cpu.set_instr_stop(~u64{0});
  }
  const u64 translations = rigs[0].cpu.sbc_stats().translations;
  ASSERT_GT(translations, 0u) << "the loop never ran as a superblock";
  ASSERT_GT(rigs[0].cpu.sbc_stats().mem_native, 0u);

  // The other 49 000 iterations decode nothing new but the closing hlt.
  for (auto& r : rigs) {
    ASSERT_EQ(r.cpu.run(10'000'000), cpu::RunExit::kHalted);
  }
  EXPECT_EQ(rigs[0].mem.read32(counter), 50000u);
  EXPECT_EQ(rigs[0].cpu.sbc_stats().translations, translations + 1);
  EXPECT_EQ(rigs[0].cpu.sbc_stats().invalidations, 0u);
  const auto& fast = rigs[0].cpu;
  const auto& ref = rigs[1].cpu;
  EXPECT_EQ(fast.state().regs, ref.state().regs);
  EXPECT_EQ(fast.state().pc, ref.state().pc);
  EXPECT_EQ(fast.state().psw, ref.state().psw);
  EXPECT_EQ(fast.cycles(), ref.cycles());
  EXPECT_EQ(fast.stats().instructions, ref.stats().instructions);
  EXPECT_EQ(fast.stats().mem_accesses, ref.stats().mem_accesses);
  EXPECT_EQ(dump_mem(rigs[0].mem), dump_mem(rigs[1].mem));
}

TEST(CpuDifferential, StoreIntoItsOwnHotBlockTakesEffectAtOnce) {
  // A hot, pure loop block of 24 instructions spans three 64-byte chunks.
  // In its second pass its own first store rewrites a later instruction of
  // the same block, in the middle chunk (where no other block starts), from
  // `nop` to `addi r2, r2, 1`. The rewritten instruction must run in that
  // very iteration: the store retires the page although it lands past the
  // block's first chunk, and the running superblock resyncs before its next
  // instruction. Both paths count 100 increments.
  Instr patch;
  patch.op = Opcode::kAddI;
  patch.rd = 2;
  patch.rs1 = 2;
  patch.imm = 1;
  const auto enc = patch.encode();
  const u32 lo = u32(enc[0]) | (u32(enc[1]) << 8) | (u32(enc[2]) << 16) |
                 (u32(enc[3]) << 24);
  const u32 hi = u32(enc[4]) | (u32(enc[5]) << 8) | (u32(enc[6]) << 16) |
                 (u32(enc[7]) << 24);
  auto build = [&](CpuHarness& h) {
    h.load([&](Assembler& a) {
      a.movi(cpu::kR0, u32{0});  // iteration
      a.movi(cpu::kR2, u32{0});  // executions of the rewritten slot
      a.movi(cpu::kR5, u32{0});  // pass
      a.movi(cpu::kR3, l("data"));
      a.movi(cpu::kR1, u32{lo});
      a.movi(cpu::kR4, u32{hi});
      a.jmp(l("loop"));
      while (a.here() % 64 != 0) a.nop();
      a.label("loop");
      a.st32(cpu::kR3, 0, cpu::kR1);
      a.st32(cpu::kR3, 4, cpu::kR4);
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      for (int i = 0; i < 6; ++i) a.nop();
      a.label("patch");  // 72 bytes in: the block's second chunk
      a.nop();
      for (int i = 0; i < 12; ++i) a.nop();
      a.cmpi(cpu::kR0, u32{100});
      a.jnz(l("loop"));
      a.cmpi(cpu::kR5, u32{1});
      a.jz(l("done"));
      a.movi(cpu::kR3, l("patch"));
      a.movi(cpu::kR0, u32{0});
      a.addi(cpu::kR5, cpu::kR5, u32{1});
      a.jmp(l("loop"));
      a.label("done");
      a.hlt();
      const u32 code_end = a.here();
      while (a.here() < code_end + 128) a.data32(0);
      a.label("data");
      a.data32(0);
      a.data32(0);
    });
  };

  std::array<CpuHarness, 2> rigs;  // superblock, interpreter
  for (auto& r : rigs) build(r);
  rigs[1].cpu.set_superblocks_enabled(false);
  for (auto& r : rigs) {
    ASSERT_EQ(r.cpu.run(10'000'000), cpu::RunExit::kHalted);
    EXPECT_EQ(r.reg(cpu::kR2), 100u);
  }
  EXPECT_GT(rigs[0].cpu.sbc_stats().translations, 0u);
  EXPECT_EQ(rigs[0].cpu.state().regs, rigs[1].cpu.state().regs);
  EXPECT_EQ(rigs[0].cpu.cycles(), rigs[1].cpu.cycles());
  EXPECT_EQ(rigs[0].cpu.stats().instructions,
            rigs[1].cpu.stats().instructions);
  EXPECT_EQ(rigs[0].cpu.stats().mem_accesses,
            rigs[1].cpu.stats().mem_accesses);
}

TEST(CpuDifferential, FallThroughGenericTailRetiresOnce) {
  // A pure block cut by the 32-instruction decode cap right after a `push`:
  // its tail is a generic op that falls through to the next block. Fast
  // mode batches the body's retires at entry; the tail retires once, in the
  // generic handler, so both paths count the same instructions.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.movi(cpu::kSp, u32{0x8000});
      a.jmp(l("loop"));
      a.label("loop");
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      for (u32 i = 1; i + 1 < cpu::kMaxBlockInstrs; ++i) a.nop();
      a.push(cpu::kR0);  // the block's last instruction
      a.pop(cpu::kR1);
      a.cmpi(cpu::kR0, u32{1000});
      a.jnz(l("loop"));
      a.hlt();
    });
  };

  std::array<CpuHarness, 2> rigs;  // superblock, interpreter
  for (auto& r : rigs) build(r);
  rigs[1].cpu.set_superblocks_enabled(false);
  for (auto& r : rigs) {
    ASSERT_EQ(r.cpu.run(10'000'000), cpu::RunExit::kHalted);
  }
  EXPECT_GT(rigs[0].cpu.sbc_stats().translations, 0u);
  EXPECT_EQ(rigs[0].cpu.stats().instructions,
            rigs[1].cpu.stats().instructions);
  EXPECT_EQ(rigs[0].cpu.cycles(), rigs[1].cpu.cycles());
  EXPECT_EQ(rigs[0].cpu.state().regs, rigs[1].cpu.state().regs);
}

TEST(CpuDifferential, PageBoundaryBlockChainsAcrossTheGuard) {
  // A loop whose body straddles a page boundary: the decoder cuts the first
  // block at the 4 KiB edge (a non-terminator tail, SbTail::kFallthrough)
  // and a second block continues on the next page. Both must be translated
  // and chained — fall-through edge across the boundary, taken edge back —
  // so the loop runs chain-to-chain, and the whole thing must stay
  // bit-identical to the reference interpreter.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.jmp(l("head"));
      // Pad so "head" sits two instructions before the 0x2000 page edge.
      while (a.here() < 0x2000 - 2 * cpu::kInstrBytes) a.nop();
      a.label("head");
      a.addi(cpu::kR0, cpu::kR0, u32{1});   // 0x1ff0
      a.xori(cpu::kR1, cpu::kR0, u32{0x55});  // 0x1ff8: last instr on page 1
      a.cmpi(cpu::kR0, u32{3000});          // 0x2000: first instr on page 2
      a.jnz(l("head"));
      a.hlt();
    });
  };

  CpuHarness super, interp;
  build(super);
  build(interp);
  interp.cpu.set_superblocks_enabled(false);
  ASSERT_EQ(super.cpu.run(100000), cpu::RunExit::kHalted);
  ASSERT_EQ(interp.cpu.run(100000), cpu::RunExit::kHalted);

  EXPECT_EQ(3000u, super.cpu.state().regs[0]);
  EXPECT_EQ(super.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(super.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(super.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(super.cpu.mmu().tlb_hits(), interp.cpu.mmu().tlb_hits());

  const auto& sbc = super.cpu.sbc_stats();
  EXPECT_GE(sbc.translations, 2u) << "both halves must be translated";
  // Once both halves are chained, every iteration follows two chain edges
  // (across the boundary and back); dispatcher entries should be rare.
  EXPECT_GT(sbc.chains, sbc.hits)
      << "the boundary-cut block did not chain (kFallthrough not honoured?)";
}

TEST(CpuDifferential, GenericTailSelfCallNeverSkipsTheChainGuard) {
  // Adversarial case for the fast-mode self-chain shortcut: a single-`call`
  // block whose taken edge points at itself. The block is "pure" (it has no
  // non-tail instructions at all) but its tail is generic and WRITES MEMORY
  // — each iteration pushes the return address and sp walks down, through a
  // neutral page and eventually into the code page itself, finally
  // overwriting the call's own immediate. The executor must not apply the
  // pure-body self-chain shortcut here (generic tails clear `fast`): every
  // re-entry must pass the full version guard, or the executor keeps running
  // the stale translation after the pushes start landing on the code page
  // and diverges from the interpreter.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kSp, u32{0x3000});
      a.label("self");
      a.call(l("self"));
    });
  };

  CpuHarness super, interp;
  build(super);
  build(interp);
  interp.cpu.set_superblocks_enabled(false);

  // One uninterrupted run: the whole descent — translate, self-chain, pushes
  // crossing into the code page, the immediate overwritten — happens without
  // a single return to the dispatcher, so only the executor's own chain
  // guard stands between a stale translation and divergence. (A sliced run
  // would mask the bug: every slice boundary re-enters through the
  // dispatcher, whose lookup drops stale translations eagerly.)
  const auto ra = super.cpu.run(60000);
  const auto rb = interp.cpu.run(60000);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(super.cpu.state().pc, interp.cpu.state().pc);
  EXPECT_EQ(super.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(super.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(super.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(super.cpu.stats().mem_accesses, interp.cpu.stats().mem_accesses);
  EXPECT_EQ(super.cpu.mmu().tlb_hits(), interp.cpu.mmu().tlb_hits());
  EXPECT_EQ(super.cpu.shutdown(), interp.cpu.shutdown());
  EXPECT_EQ(dump_mem(super.mem), dump_mem(interp.mem));

  EXPECT_GT(super.cpu.sbc_stats().chains, 0u)
      << "the call-to-self edge was never followed; the guarded path was "
         "not exercised";
  EXPECT_GT(super.cpu.sbc_stats().invalidations, 0u)
      << "pushes reaching the code page never dropped the translation";
}

// Records the monitor's own debug events and freezes the CPU on each, the
// way a debugging monitor's trap hook would.
struct DebugEventHook final : cpu::TrapHook {
  struct Event {
    u8 vector;
    cpu::EventKind kind;
    u32 pc;
    u32 errcode;
  };
  void on_event(cpu::Cpu& c, const cpu::Fault& f) override {
    events.push_back({f.vector, f.kind, c.state().pc, f.errcode});
    c.request_stop();
  }
  void on_external_interrupt(cpu::Cpu&, u8) override {}
  std::vector<Event> events;
};

TEST(CpuDifferential, ArmedBreakpointAndStepRequestMatchAcrossTiers) {
  // The monitor's debug state lives outside guest memory and the PSW: an
  // armed physical address stops both paths before the instruction there
  // is fetched, a resume passes it once, a step request stops after one
  // instruction, and none of it costs guest cycles or changes guest state.
  // Both paths must agree at every stop, and a hot, self-chained
  // superblock must be split at the armed address.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.movi(cpu::kR1, u32{0});
      a.label("loop");
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.addi(cpu::kR1, cpu::kR1, u32{3});
      a.cmpi(cpu::kR0, u32{100000});
      a.jnz(l("loop"));
      a.hlt();
    });
  };
  const u32 armed_va = 0x1000 + 3 * cpu::kInstrBytes;  // the second addi

  std::array<CpuHarness, 2> rigs;  // superblock, interpreter
  std::array<DebugEventHook, 2> hooks;
  for (unsigned i = 0; i < 2; ++i) {
    build(rigs[i]);
    rigs[i].cpu.set_trap_hook(&hooks[i]);
  }
  rigs[1].cpu.set_superblocks_enabled(false);
  auto expect_same = [&](const char* where) {
    EXPECT_EQ(rigs[1].cpu.state().pc, rigs[0].cpu.state().pc) << where;
    EXPECT_EQ(rigs[1].cpu.state().psw, rigs[0].cpu.state().psw) << where;
    EXPECT_EQ(rigs[1].cpu.state().regs, rigs[0].cpu.state().regs) << where;
    EXPECT_EQ(rigs[1].cpu.cycles(), rigs[0].cpu.cycles()) << where;
    EXPECT_EQ(rigs[1].cpu.stats().instructions,
              rigs[0].cpu.stats().instructions)
        << where;
    EXPECT_EQ(rigs[1].cpu.stats().mem_accesses,
              rigs[0].cpu.stats().mem_accesses)
        << where;
    EXPECT_EQ(hooks[1].events.size(), hooks[0].events.size()) << where;
  };

  // Get the loop hot and self-chained before arming.
  for (auto& r : rigs) ASSERT_EQ(r.cpu.run(3000), cpu::RunExit::kBudget);
  ASSERT_GT(rigs[0].cpu.sbc_stats().chains, 0u);
  expect_same("warm");

  for (auto& r : rigs) r.cpu.arm_breakpoint(armed_va);  // identity: pa == va
  for (auto& r : rigs) {
    ASSERT_EQ(r.cpu.run(100000), cpu::RunExit::kStopRequested);
  }
  expect_same("first hit");
  for (unsigned i = 0; i < 2; ++i) {
    ASSERT_EQ(hooks[i].events.size(), 1u);
    EXPECT_EQ(hooks[i].events[0].vector, cpu::kVecBreakpoint);
    EXPECT_EQ(hooks[i].events[0].kind, cpu::EventKind::kMonitor);
    EXPECT_EQ(hooks[i].events[0].pc, armed_va);
  }
  const u32 r1_at_hit = rigs[0].reg(cpu::kR1);

  // Resuming passes the breakpoint once; the next iteration hits again.
  for (auto& r : rigs) {
    r.cpu.resume_over_breakpoint();
    ASSERT_EQ(r.cpu.run(100000), cpu::RunExit::kStopRequested);
  }
  expect_same("second hit");
  EXPECT_EQ(rigs[0].cpu.state().pc, armed_va);
  EXPECT_EQ(rigs[0].reg(cpu::kR1), r1_at_hit + 3);

  // A step request from the stop executes exactly the armed instruction.
  const u64 icount = rigs[0].cpu.stats().instructions;
  for (auto& r : rigs) {
    r.cpu.resume_over_breakpoint();
    r.cpu.set_debug_step(true);
    ASSERT_EQ(r.cpu.run(100000), cpu::RunExit::kStopRequested);
  }
  expect_same("step");
  EXPECT_EQ(hooks[0].events.back().vector, cpu::kVecDebug);
  EXPECT_EQ(hooks[0].events.back().kind, cpu::EventKind::kMonitor);
  EXPECT_EQ(rigs[0].cpu.stats().instructions, icount + 1);
  EXPECT_EQ(rigs[0].cpu.state().pc, armed_va + cpu::kInstrBytes);

  // Disarmed, the loop runs out; the debug state left no trace behind.
  for (auto& r : rigs) {
    r.cpu.disarm_breakpoint(armed_va);
    ASSERT_EQ(r.cpu.run(10'000'000), cpu::RunExit::kHalted);
  }
  expect_same("halt");
  EXPECT_EQ(rigs[0].reg(cpu::kR0), 100000u);
  EXPECT_EQ(rigs[0].reg(cpu::kR1), 300000u);
  EXPECT_EQ(dump_mem(rigs[0].mem), dump_mem(rigs[1].mem));
}

TEST(CpuDifferential, ArmedWatchpointMatchesAcrossTiers) {
  // A write watch is monitor debug state as well: a store (st32, push or
  // call) that overlaps the armed range retires, then each path raises one
  // monitor #DB that resumes at the next instruction, with identical state,
  // counters and hit record. A watch on unwritten bytes of the same page
  // raises nothing and costs no cycle, and superblocks keep running while
  // it is armed.
  constexpr u32 kData = 0x8000;      // the st32 target
  constexpr u32 kStackTop = 0x9000;  // push lands at -4, call's return at -8
  constexpr u32 kIters = 20000;
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.movi(cpu::kR2, u32{kData});
      a.movi(cpu::kSp, u32{kStackTop});
      a.label("loop");
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.st32(cpu::kR2, 0, cpu::kR0);
      a.push(cpu::kR0);
      a.call(l("sub"));
      a.pop(cpu::kR1);
      a.cmpi(cpu::kR0, u32{kIters});
      a.jnz(l("loop"));
      a.hlt();
      a.label("sub");
      a.addi(cpu::kR3, cpu::kR3, u32{1});
      a.ret();
    });
  };

  std::array<CpuHarness, 2> rigs;  // superblock, interpreter
  std::array<DebugEventHook, 2> hooks;
  for (unsigned i = 0; i < 2; ++i) {
    build(rigs[i]);
    rigs[i].cpu.set_trap_hook(&hooks[i]);
  }
  rigs[1].cpu.set_superblocks_enabled(false);
  auto expect_same = [&](const char* where) {
    EXPECT_EQ(rigs[1].cpu.state().pc, rigs[0].cpu.state().pc) << where;
    EXPECT_EQ(rigs[1].cpu.state().psw, rigs[0].cpu.state().psw) << where;
    EXPECT_EQ(rigs[1].cpu.state().regs, rigs[0].cpu.state().regs) << where;
    EXPECT_EQ(rigs[1].cpu.cycles(), rigs[0].cpu.cycles()) << where;
    EXPECT_EQ(rigs[1].cpu.stats().instructions,
              rigs[0].cpu.stats().instructions)
        << where;
    EXPECT_EQ(rigs[1].cpu.stats().mem_accesses,
              rigs[0].cpu.stats().mem_accesses)
        << where;
    EXPECT_EQ(hooks[1].events.size(), hooks[0].events.size()) << where;
    const auto& hit0 = rigs[0].cpu.last_watch_hit();
    const auto& hit = rigs[1].cpu.last_watch_hit();
    EXPECT_EQ(hit.va, hit0.va) << where;
    EXPECT_EQ(hit.value, hit0.value) << where;
    EXPECT_EQ(hit.size, hit0.size) << where;
    EXPECT_EQ(hit.pc, hit0.pc) << where;
  };

  // Get the loop hot and chained before arming.
  for (auto& r : rigs) ASSERT_EQ(r.cpu.run(3000), cpu::RunExit::kBudget);
  ASSERT_GT(rigs[0].cpu.sbc_stats().chains, 0u);
  expect_same("warm");

  const u32 loop = rigs[0].prog.symbol("loop").value();
  const u32 sub = rigs[0].prog.symbol("sub").value();
  const u32 after_call = loop + 4 * cpu::kInstrBytes;  // the pop
  struct Case {
    const char* store;
    VAddr va;       // the word it writes
    u32 resume_pc;  // where its hit stops
  };
  // In this order each hit is reached by running on from the previous one.
  const Case cases[] = {
      {"st32", kData, loop + 2 * cpu::kInstrBytes},  // stops at the push
      {"call", kStackTop - 8, sub},                  // stops at the target
      {"push", kStackTop - 4, loop + 3 * cpu::kInstrBytes},  // at the call
  };
  for (const Case& c : cases) {
    for (auto& r : rigs) {
      ASSERT_TRUE(r.cpu.arm_watchpoint(c.va, 4));
      ASSERT_EQ(r.cpu.run(100000), cpu::RunExit::kStopRequested) << c.store;
    }
    expect_same(c.store);
    for (const DebugEventHook& h : hooks) {
      ASSERT_EQ(h.events.size(), 1u) << c.store;
      EXPECT_EQ(h.events[0].vector, cpu::kVecDebug) << c.store;
      EXPECT_EQ(h.events[0].kind, cpu::EventKind::kMonitor) << c.store;
      EXPECT_EQ(h.events[0].errcode, cpu::kDbWatchHit) << c.store;
      EXPECT_EQ(h.events[0].pc, c.resume_pc) << c.store;
    }
    const auto& hit = rigs[0].cpu.last_watch_hit();
    EXPECT_EQ(hit.va, c.va) << c.store;
    EXPECT_EQ(hit.size, 4u) << c.store;
    EXPECT_EQ(hit.pc, c.resume_pc) << c.store;
    // Post-write: the stored value is already in memory.
    EXPECT_EQ(rigs[0].mem.read32(c.va), hit.value) << c.store;
    for (unsigned i = 0; i < 2; ++i) {
      ASSERT_TRUE(rigs[i].cpu.disarm_watchpoint(c.va, 4));
      hooks[i].events.clear();
    }
  }
  EXPECT_EQ(rigs[0].mem.read32(kStackTop - 8), after_call);

  // Unwritten bytes of the same page: the loop runs out with no event, in
  // superblocks, and the earlier stops left no trace in simulated time.
  const auto sbc_entries = [&] {
    return rigs[0].cpu.sbc_stats().hits + rigs[0].cpu.sbc_stats().chains;
  };
  const u64 sbc_before = sbc_entries();
  for (auto& r : rigs) {
    ASSERT_TRUE(r.cpu.arm_watchpoint(kData + 0x800, 4));
    ASSERT_EQ(r.cpu.run(100'000'000), cpu::RunExit::kHalted);
  }
  expect_same("halt");
  for (const DebugEventHook& h : hooks) EXPECT_TRUE(h.events.empty());
  EXPECT_GT(sbc_entries(), sbc_before);
  EXPECT_EQ(rigs[0].reg(cpu::kR3), kIters);

  CpuHarness plain;  // the same program, never watched
  build(plain);
  ASSERT_EQ(plain.cpu.run(100'000'000), cpu::RunExit::kHalted);
  EXPECT_EQ(rigs[0].cpu.cycles(), plain.cpu.cycles());
  EXPECT_EQ(rigs[0].cpu.stats().instructions, plain.cpu.stats().instructions);
  EXPECT_EQ(rigs[0].cpu.stats().mem_accesses, plain.cpu.stats().mem_accesses);
  EXPECT_EQ(rigs[0].cpu.state().regs, plain.cpu.state().regs);
  EXPECT_EQ(dump_mem(rigs[0].mem), dump_mem(plain.mem));
}

}  // namespace
}  // namespace vdbg::test
