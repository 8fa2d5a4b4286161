// Edge-case CPU semantics: immediate/register ALU equivalence properties,
// shift-count masking, alignment matrix, IRET validation, IDT boundary
// conditions and I/O bitmap range handling.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "testutil.h"

namespace vdbg::test {
namespace {

using namespace vasm;
using cpu::Opcode;
using cpu::RunExit;
using cpu::kR0;
using cpu::kR1;
using cpu::kR2;
using cpu::kR3;
using cpu::kSp;

TEST(CpuEdge, ImmediateFormsEquivalentToRegisterForms) {
  // Property: for random (a, imm), op-immediate == op-register with the
  // immediate preloaded, including flag state.
  Rng rng(5150);
  struct OpPair {
    void (Assembler::*imm_form)(cpu::Reg, cpu::Reg, Imm);
    void (Assembler::*reg_form)(cpu::Reg, cpu::Reg, cpu::Reg);
  };
  const OpPair pairs[] = {
      {&Assembler::addi, &Assembler::add},
      {&Assembler::subi, &Assembler::sub},
      {&Assembler::andi, &Assembler::and_},
      {&Assembler::ori, &Assembler::or_},
      {&Assembler::xori, &Assembler::xor_},
      {&Assembler::muli, &Assembler::mul},
  };
  for (const auto& p : pairs) {
    for (int trial = 0; trial < 20; ++trial) {
      const u32 a = rng.next_u32();
      const u32 imm = rng.next_u32();
      CpuHarness h1, h2;
      h1.load([&](Assembler& asmr) {
        asmr.movi(kR1, u32{a});
        (asmr.*p.imm_form)(kR0, kR1, u32{imm});
        asmr.hlt();
      });
      h2.load([&](Assembler& asmr) {
        asmr.movi(kR1, u32{a});
        asmr.movi(kR2, u32{imm});
        (asmr.*p.reg_form)(kR0, kR1, kR2);
        asmr.hlt();
      });
      ASSERT_EQ(h1.run(), RunExit::kHalted);
      ASSERT_EQ(h2.run(), RunExit::kHalted);
      EXPECT_EQ(h1.reg(kR0), h2.reg(kR0));
      EXPECT_EQ(h1.cpu.state().psw & cpu::Psw::kFlagsMask,
                h2.cpu.state().psw & cpu::Psw::kFlagsMask);
    }
  }
}

TEST(CpuEdge, ShiftCountsMaskedToFiveBits) {
  for (u32 count : {32u, 33u, 63u, 64u, 0xffffffffu}) {
    CpuHarness h;
    h.load([&](Assembler& a) {
      a.movi(kR1, u32{0x80000001});
      a.movi(kR2, u32{count});
      a.shl(kR0, kR1, kR2);
      a.shr(kR3, kR1, kR2);
      a.hlt();
    });
    ASSERT_EQ(h.run(), RunExit::kHalted);
    EXPECT_EQ(h.reg(kR0), 0x80000001u << (count & 31)) << count;
    EXPECT_EQ(h.reg(kR3), 0x80000001u >> (count & 31)) << count;
  }
}

struct AlignCase {
  unsigned size;
  u32 addr;
  bool ok;
};

class Alignment : public ::testing::TestWithParam<AlignCase> {};

TEST_P(Alignment, NaturalAlignmentEnforced) {
  const auto& tc = GetParam();
  CpuHarness h;
  h.load([&](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 64);
    a.movi(kR1, u32{tc.addr});
    switch (tc.size) {
      case 1: a.ld8(kR0, kR1, 0); break;
      case 2: a.ld16(kR0, kR1, 0); break;
      default: a.ld32(kR0, kR1, 0); break;
    }
    a.hlt();
    emit_test_idt(a);
  });
  ASSERT_EQ(h.run(), RunExit::kHalted);
  const auto rec = read_trap_record(h.mem);
  if (tc.ok) {
    EXPECT_NE(rec.marker, 0x7e57u);  // no trap fired
  } else {
    EXPECT_EQ(rec.marker, 0x7e57u);
    EXPECT_EQ(rec.vector, u32{cpu::kVecGp});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Alignment,
    ::testing::Values(AlignCase{1, 0x2001, true}, AlignCase{1, 0x2003, true},
                      AlignCase{2, 0x2000, true}, AlignCase{2, 0x2002, true},
                      AlignCase{2, 0x2001, false}, AlignCase{4, 0x2000, true},
                      AlignCase{4, 0x2002, false},
                      AlignCase{4, 0x2001, false}));

TEST(CpuEdge, IretRejectsRing2AndMisalignedPc) {
  for (const bool bad_ring : {true, false}) {
    CpuHarness h;
    h.load([&](Assembler& a) {
      a.movi(kSp, u32{0x8000});
      a.movi(kR0, l("idt"));
      a.lidt(kR0, 64);
      // Hand-built IRET frame: {err, pc, psw, old_sp}.
      a.movi(kR0, u32{0x9000});
      a.push(kR0);  // old_sp
      a.movi(kR0, bad_ring ? u32{2} : u32{0});  // psw: ring2 is invalid
      a.push(kR0);
      a.movi(kR0, bad_ring ? u32{0x3000} : u32{0x3004});  // pc (misaligned
      a.push(kR0);                                        // when ring ok)
      a.movi(kR0, u32{0});
      a.push(kR0);  // err
      a.iret();
      emit_test_idt(a);
    });
    ASSERT_EQ(h.run(), RunExit::kHalted);
    EXPECT_EQ(read_trap_record(h.mem).vector, u32{cpu::kVecGp});
  }
}

TEST(CpuEdge, WatchpointIgnoresTheFrameEventDeliveryPushes) {
  // Only guest store instructions hit a watch. The frame the CPU pushes to
  // deliver an event is not one, even when it lands on watched bytes; a hit
  // there would reach this hook-less CPU as #DB (vector 1).
  CpuHarness h;
  h.load([](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 0x40);
    a.int_(0x30);
    a.hlt();
    emit_test_idt(a);
  });
  ASSERT_TRUE(h.cpu.arm_watchpoint(0x8000 - 16, 16));  // the 4-word frame
  ASSERT_EQ(h.run(), RunExit::kHalted);
  const auto rec = read_trap_record(h.mem);
  EXPECT_EQ(rec.marker, 0x7e57u);
  EXPECT_EQ(rec.vector, 0x30u);
}

TEST(CpuEdge, IdtCountBoundaryIsExclusive) {
  // Vector == idt_count must escalate; vector == idt_count-1 must work.
  CpuHarness h;
  h.load([](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 0x22);   // gates 0..0x21 only
    a.int_(0x21);        // last valid gate
    a.hlt();
    emit_test_idt(a);
  });
  ASSERT_EQ(h.run(), RunExit::kHalted);
  EXPECT_EQ(read_trap_record(h.mem).vector, 0x21u);

  CpuHarness h2;
  h2.load([](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 0x22);
    a.int_(0x22);  // one past the end -> #DF (gate 8 present)
    a.hlt();
    emit_test_idt(a);
  });
  ASSERT_EQ(h2.run(), RunExit::kHalted);
  EXPECT_EQ(read_trap_record(h2.mem).vector, u32{cpu::kVecDoubleFault});
}

TEST(CpuEdge, MisalignedGateHandlerEscalates) {
  CpuHarness h;
  h.load([](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("bad_idt"));
    a.lidt(kR0, 1);
    a.int_(0);
    a.hlt();
    a.align(8);
    a.label("bad_idt");
    a.data32(0x2004);  // handler not 8-byte aligned
    a.data32(cpu::Gate{0, true, 3, 0}.pack_flags());
  });
  // Gate invalid -> #DF -> also invalid -> shutdown.
  EXPECT_EQ(h.run(), RunExit::kShutdown);
}

TEST(CpuEdge, IoBitmapRangeHelpers) {
  CpuHarness h;
  h.load([](Assembler& a) { a.hlt(); });
  h.cpu.io_allow_range(0x100, 0x10, true);
  EXPECT_FALSE(h.cpu.io_allowed(3, 0xff));
  EXPECT_TRUE(h.cpu.io_allowed(3, 0x100));
  EXPECT_TRUE(h.cpu.io_allowed(3, 0x10f));
  EXPECT_FALSE(h.cpu.io_allowed(3, 0x110));
  EXPECT_TRUE(h.cpu.io_allowed(0, 0xff));  // ring 0 bypasses
  h.cpu.io_allow_range(0x100, 0x10, false);
  EXPECT_FALSE(h.cpu.io_allowed(3, 0x100));
  h.cpu.io_allow(0xffff, true);  // top of the space, no overflow
  EXPECT_TRUE(h.cpu.io_allowed(3, 0xffff));
}

TEST(CpuEdge, PushFaultLeavesSpIntact) {
  // A user-mode PUSH with a trashed SP faults; the ring-0 frame (on the
  // TSS stack) must record the pre-push user SP, i.e. PUSH did not commit.
  CpuHarness h;
  h.load([](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 64);
    a.movi(kR0, u32{0x9000});
    a.mov_to_cr(cpu::kCrMonitorSp, kR0);
    // Drop to ring 3 with SP = 2 (push target wraps out of range).
    a.movi(kR0, u32{0x2});
    a.push(kR0);  // old_sp for IRET
    a.movi(kR0, u32{3});
    a.push(kR0);
    a.movi(kR0, l("user"));
    a.push(kR0);
    a.movi(kR0, u32{0});
    a.push(kR0);
    a.iret();
    a.label("user");
    a.push(kR1);  // faults: misaligned/out-of-range stack
    a.brk();
    emit_test_idt(a);
  });
  ASSERT_EQ(h.run(), RunExit::kHalted);
  const auto rec = read_trap_record(h.mem);
  EXPECT_EQ(rec.marker, 0x7e57u);
  EXPECT_EQ(rec.vector, u32{cpu::kVecGp});
  // The faulting context's SP (in the frame) is the pre-push value.
  EXPECT_EQ(rec.sp, 0x2u);
}

TEST(CpuEdge, TrashedKernelStackEscalatesToShutdown) {
  // Same-ring delivery cannot push its frame onto a broken stack: the
  // machine triple faults, exactly like IA-32.
  CpuHarness h;
  h.load([](Assembler& a) {
    a.movi(kSp, u32{0x8000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 64);
    a.movi(kSp, u32{0x2});
    a.push(kR0);
    a.hlt();
    emit_test_idt(a);
  });
  EXPECT_EQ(h.run(), RunExit::kShutdown);
}

TEST(CpuEdge, DivRemConsistency) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const u32 a = rng.next_u32();
    const u32 b = static_cast<u32>(rng.between(1, 1000));
    CpuHarness h;
    h.load([&](Assembler& asmr) {
      asmr.movi(kR1, u32{a});
      asmr.movi(kR2, u32{b});
      asmr.divu(kR0, kR1, kR2);
      asmr.remu(kR3, kR1, kR2);
      asmr.hlt();
    });
    ASSERT_EQ(h.run(), RunExit::kHalted);
    // Fundamental identity: a == q*b + r with r < b.
    EXPECT_EQ(h.reg(kR0) * b + h.reg(kR3), a);
    EXPECT_LT(h.reg(kR3), b);
  }
}

TEST(CpuEdge, FetchInLastPartialWordFaultsWithoutOverrun) {
  // An instruction fetch whose 8-byte word extends past the end of physical
  // memory must fault cleanly instead of reading out of bounds: the MMU is
  // told the access size, so a pc at size-4 fails where a 1-byte data read
  // at the same address succeeds.
  cpu::PhysMem mem(0x1004);
  cpu::Mmu mmu(mem, cpu::CostModel::pentium3());
  cpu::CpuState st;  // paging disabled
  const auto fetch =
      mmu.translate(st, 0x1000, cpu::Access::kExec, 0, cpu::kInstrBytes);
  EXPECT_FALSE(fetch.ok);
  EXPECT_EQ(cpu::kVecGp, fetch.fault.vector);
  const auto byte_read = mmu.translate(st, 0x1000, cpu::Access::kRead, 0, 1);
  EXPECT_TRUE(byte_read.ok);

  // End to end, on both dispatch paths: no IDT is installed, so the #GP
  // escalates to shutdown — the run must end there, not in an OOB read.
  for (const bool superblocks : {true, false}) {
    cpu::PhysMem m(0x1004);
    ScriptedIoBus io;
    cpu::Cpu c(m, io, nullptr);
    c.set_superblocks_enabled(superblocks);
    c.state().pc = 0x1000;
    EXPECT_EQ(RunExit::kShutdown, c.run(1000))
        << "superblocks=" << superblocks;
  }
}

}  // namespace
}  // namespace vdbg::test
