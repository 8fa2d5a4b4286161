// End-to-end remote-debugging tests: host debugger <-> serial link <->
// monitor stub <-> guest, while the guest streams I/O — the paper's core
// use case (debug an OS *without* stopping its high-throughput I/O from
// working, and survive its crashes).
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "hw/diag_port.h"
#include "vmm/stub.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using StopKind = RemoteDebugger::StopKind;

struct DebugRig {
  explicit DebugRig(RunConfig rc = RunConfig()) {
    platform = std::make_unique<Platform>(PlatformKind::kLvmm);
    platform->prepare(rc);
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart(),
                                            platform->metrics());
    stub->attach();
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
    dbg->add_symbols(platform->image().kernel);
    dbg->add_symbols(platform->image().app);
  }

  std::unique_ptr<Platform> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<RemoteDebugger> dbg;
};

TEST(DebugSession, ConnectInterruptInspectResume) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());

  // Let the guest boot and stream a little.
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  ASSERT_EQ(rig.platform->mailbox().magic, guest::Mailbox::kMagicValue);

  // Break in asynchronously.
  EXPECT_EQ(rig.dbg->interrupt(), StopKind::kBreak);
  EXPECT_TRUE(rig.stub->target_stopped());

  const auto regs = rig.dbg->read_registers();
  ASSERT_TRUE(regs.has_value());
  EXPECT_NE(regs->pc, 0u);

  // While frozen, guest counters must not advance (CPU stopped) ...
  const auto before = rig.platform->mailbox();
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  const auto after = rig.platform->mailbox();
  EXPECT_EQ(before.segments_sent, after.segments_sent);

  // ... and resuming picks the stream back up.
  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.001)),
            StopKind::kTimeout);  // no stop event: it simply runs
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  EXPECT_GT(rig.platform->mailbox().segments_sent, after.segments_sent);
}

TEST(DebugSession, BreakpointInNicDriverHitsDuringStreaming) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));

  const auto isr_nic = rig.dbg->lookup("isr_nic");
  ASSERT_TRUE(isr_nic.has_value());
  ASSERT_TRUE(rig.dbg->set_breakpoint(*isr_nic));

  // The NIC completes a frame within a few ms at 40 Mbps.
  const auto stop = rig.dbg->continue_and_wait(seconds_to_cycles(0.05));
  // 'c' while running is a no-op command, so the stop arrives as a packet.
  ASSERT_EQ(stop, StopKind::kBreak);
  const auto regs = rig.dbg->read_registers();
  ASSERT_TRUE(regs.has_value());
  EXPECT_EQ(regs->pc, *isr_nic);
  EXPECT_EQ(rig.dbg->describe(regs->pc), "isr_nic");

  // Hit it again: the resume passes the breakpoint once and leaves it armed.
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  EXPECT_EQ(rig.dbg->read_registers()->pc, *isr_nic);

  // Remove it and stream on cleanly.
  ASSERT_TRUE(rig.dbg->clear_breakpoint(*isr_nic));
  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.002)),
            StopKind::kTimeout);
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  EXPECT_EQ(rig.platform->sink().sequence_gaps(), 0u);
  EXPECT_EQ(rig.platform->sink().checksum_errors(), 0u);
  EXPECT_EQ(rig.platform->mailbox().last_error, 0u);
}

TEST(DebugSession, SingleStepAdvancesOneInstruction) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto before = rig.dbg->read_registers();
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  const auto after = rig.dbg->read_registers();
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->pc, before->pc);
}

TEST(DebugSession, MemoryReadWriteRoundTripAndDisassembly) {
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const u32 scratch = 0x00700000;  // free guest RAM
  std::vector<u8> pattern(64);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<u8>(i * 7 + 1);
  }
  ASSERT_TRUE(rig.dbg->write_memory(scratch, pattern));
  const auto back = rig.dbg->read_memory(scratch, 64);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pattern);

  // Disassemble the guest entry: first instruction sets up the stack.
  const auto entry = rig.dbg->lookup("entry");
  ASSERT_TRUE(entry.has_value());
  const auto lines = rig.dbg->disassemble(*entry, 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("movi sp"), std::string::npos);
}

TEST(DebugSession, BreakpointSitesReadBackOriginalBytes) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));

  const auto isr = rig.dbg->lookup("isr_timer").value();
  const auto orig = rig.dbg->read_memory(isr, 8).value();
  ASSERT_TRUE(rig.dbg->set_breakpoint(isr));
  // Raw guest memory still holds the original byte (the breakpoint is CPU
  // state, not a patch)...
  u8 raw = 0;
  rig.platform->monitor()->guest_read(isr, {&raw, 1});
  EXPECT_EQ(raw, orig[0]);
  // ...and the debugger's view matches it.
  EXPECT_EQ(rig.dbg->read_memory(isr, 8).value(), orig);
  ASSERT_TRUE(rig.dbg->clear_breakpoint(isr));
  rig.platform->monitor()->guest_read(isr, {&raw, 1});
  EXPECT_EQ(raw, orig[0]);
}

TEST(DebugSession, RegisterWritesTakeEffect) {
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);
  ASSERT_TRUE(rig.dbg->write_register(3, 0xfeedface));
  EXPECT_EQ(rig.dbg->read_registers()->r[3], 0xfeedfaceu);
}

TEST(DebugSession, GuestCrashIsReportedAndPostMortemWorks) {
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));

  // Destroy the guest IDT -> next injection virtually triple-faults.
  const auto idt = rig.platform->image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    rig.platform->machine().mem().write32(idt + i, 0);
  }
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_TRUE(rig.platform->monitor()->vcpu().crashed);

  // The stub (and the whole debug environment) is still operational:
  const auto health = rig.dbg->metrics("vmm.health.");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(debug::find_metric(*health, "vmm.health.guest_crashed"), 1.0);
  EXPECT_EQ(debug::find_metric(*health, "vmm.health.monitor_intact"), 1.0);
  // Post-mortem inspection of the dead guest works.
  const auto regs = rig.dbg->read_registers();
  ASSERT_TRUE(regs.has_value());
  const auto mb = rig.dbg->read_memory(guest::kMailboxBase, 16);
  ASSERT_TRUE(mb.has_value());
  EXPECT_EQ((*mb)[0], 'i');  // "Mini" magic, little-endian
}

TEST(DebugSession, LargeMemoryTransfersAreChunkedAcrossPackets) {
  // 16 KiB is far beyond both the stub's 0x1000-byte per-command cap and
  // the debugger's 0x800-byte chunk size: the round trip only works if
  // both read_memory and write_memory split into multiple transactions.
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const u32 scratch = 0x00700000;  // free guest RAM
  std::vector<u8> pattern(16 * 1024);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<u8>((i * 31 + (i >> 8)) & 0xff);
  }
  ASSERT_TRUE(rig.dbg->write_memory(scratch, pattern));
  const auto back = rig.dbg->read_memory(scratch, pattern.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pattern);

  // Spot-check a chunk boundary actually landed in guest RAM.
  u8 raw = 0;
  rig.platform->monitor()->guest_read(scratch + 0x800, {&raw, 1});
  EXPECT_EQ(raw, pattern[0x800]);
}

TEST(DebugSession, ExitStatsQueryReportsPerKindCounters) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.05));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto stats = rig.dbg->metrics("vmm.exit_");
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->size(), 3 * vmm::kNumExitKinds);  // count, cycles, max
  const auto& es = rig.platform->monitor()->exit_stats();
  for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
    const std::string base =
        "vmm.exit_" +
        std::string(vmm::exit_kind_name(static_cast<vmm::ExitKind>(k)));
    const auto count = debug::find_metric(*stats, base + ".count");
    const auto cycles = debug::find_metric(*stats, base + ".cycles");
    ASSERT_TRUE(count && cycles) << base;
    if (*count > 0) {
      EXPECT_GT(*cycles, 0.0) << base;
    }
    // The wire stats agree with the monitor's own counters.
    EXPECT_EQ(u64(*count), es.by_kind[k].count) << base;
  }
  // A streaming guest takes timer/NIC interrupts and issues syscalls.
  EXPECT_GT(debug::find_metric(*stats, "vmm.exit_irq.count").value_or(0), 0);
  EXPECT_GT(debug::find_metric(*stats, "vmm.exit_softint.count").value_or(0),
            0);
}

TEST(DebugSession, StreamSurvivesRepeatedBreakInsWithIntegrity) {
  RunConfig rc = RunConfig::for_rate_mbps(40.0);
  rc.stop_after_segments = 200;
  DebugRig rig(rc);
  rig.platform->sink().set_payload_validator(guest::make_stream_validator(rc));
  ASSERT_TRUE(rig.dbg->connect());

  for (int i = 0; i < 5; ++i) {
    rig.platform->machine().run_for(seconds_to_cycles(0.01));
    if (rig.platform->machine().guest_exit_code()) break;
    if (rig.dbg->interrupt() != StopKind::kBreak) break;
    rig.dbg->continue_and_wait(seconds_to_cycles(0.0005));
  }
  rig.platform->machine().run_until_stopped(seconds_to_cycles(2.0));
  rig.platform->machine().clear_guest_exit();
  rig.platform->machine().run_for(seconds_to_cycles(0.002));

  EXPECT_GE(rig.platform->sink().frames(), 200u);
  EXPECT_EQ(rig.platform->sink().sequence_gaps(), 0u);
  EXPECT_EQ(rig.platform->sink().content_errors(), 0u);
  EXPECT_EQ(rig.platform->sink().checksum_errors(), 0u);
}

// ------------------------------------------------ guest transparency --

constexpr u32 kGoFlagAddr = 0x2000;  // host releases the guest
constexpr u32 kTextSumAddr = 0x2004;  // guest's checksum of its own text

/// Kernel that waits for the host's go flag, then sums every byte of its
/// own text into kTextSumAddr and exits. An unmodified OS checksumming
/// itself is exactly what a patching debugger would disturb.
vasm::Program build_self_summing_guest() {
  using namespace vasm;
  using cpu::kR0;
  using cpu::kR1;
  using cpu::kR2;
  using cpu::kR3;
  using cpu::kR6;
  Assembler a(guest::kKernelBase);
  a.label("entry");
  a.movi(cpu::kSp, u32{guest::kKernelStackTop});
  a.movi(kR0, l("idt"));
  a.lidt(kR0, guest::kIdtEntries);
  a.movi(kR6, u32{kGoFlagAddr});
  a.label("wait");
  a.ld32(kR0, kR6, 0);
  a.cmpi(kR0, u32{0});
  a.jz(l("wait"));
  a.movi(kR0, u32{guest::kKernelBase});
  a.movi(kR2, l("text_end"));
  a.movi(kR1, u32{0});
  a.label("sum");
  a.ld8(kR3, kR0, 0);
  a.add(kR1, kR1, kR3);
  a.addi(kR0, kR0, u32{1});
  a.cmp(kR0, kR2);
  a.jb(l("sum"));
  a.label("store");
  a.movi(kR6, u32{kTextSumAddr});
  a.st32(kR6, 0, kR1);
  a.movi(kR0, u32{guest::kExitDone});
  a.out(hw::kDiagExitPort, kR0);
  a.hlt();
  a.label("panic");
  a.movi(kR0, u32{guest::kExitPanic});
  a.out(hw::kDiagExitPort, kR0);
  a.hlt();
  a.label("text_end");
  a.align(8);
  a.label("idt");
  for (u32 v = 0; v < guest::kIdtEntries; ++v) {
    a.data_ref(l("panic"));
    a.data32(cpu::Gate{0, true, 0, 0}.pack_flags());
  }
  return a.finalize();
}

/// An LVMM unit running the self-summing guest instead of MiniTactix.
struct SelfSumRig {
  SelfSumRig() : unit(fleet::UnitKind::kLvmm, fleet::UnitOptions{}, 0) {
    unit.prepare(RunConfig());
    prog = build_self_summing_guest();
    prog.load(unit.machine().mem());
    unit.machine().cpu().state().pc = *prog.symbol("entry");
  }
  u32 text_end() const { return *prog.symbol("text_end"); }

  fleet::MachineUnit unit;
  vasm::Program prog;
};

// The ROADMAP's transparency gate: a guest checksumming its own text with
// debugger breakpoints armed inside that text gets the unpatched sum, and
// the hit and the resume over it leave the result untouched.
TEST(DebugTransparency, GuestSumsItsOwnTextUnchangedByArmedBreakpoints) {
  // Reference: nothing armed, no debugger.
  SelfSumRig plain;
  auto& pm = plain.unit.machine();
  pm.mem().write32(kGoFlagAddr, 1);
  ASSERT_EQ(pm.run_until_stopped(seconds_to_cycles(0.01)),
            hw::Machine::StopReason::kGuestExit);
  ASSERT_EQ(pm.guest_exit_code().value_or(0), guest::kExitDone);
  const u32 plain_sum = pm.mem().read32(kTextSumAddr);
  u32 image_sum = 0;
  for (u32 a = guest::kKernelBase; a < plain.text_end(); ++a) {
    image_sum += pm.mem().read8(a);
  }
  EXPECT_EQ(plain_sum, image_sum);

  // Debugged: break into the waiting guest, arm breakpoints on the store
  // that follows the sum and on the never-run panic path, release it.
  SelfSumRig rig;
  ASSERT_NE(rig.unit.attach_stub(), nullptr);
  RemoteDebugger dbg(rig.unit.machine());
  dbg.add_symbols(rig.prog);
  ASSERT_TRUE(dbg.connect());
  ASSERT_EQ(dbg.interrupt(), StopKind::kBreak);
  const u32 store = dbg.lookup("store").value();
  const u32 panic = dbg.lookup("panic").value();
  ASSERT_TRUE(dbg.set_breakpoint(store));
  ASSERT_TRUE(dbg.set_breakpoint(panic));
  const u8 go[4] = {1, 0, 0, 0};
  ASSERT_TRUE(dbg.write_memory(kGoFlagAddr, go));

  ASSERT_EQ(dbg.continue_and_wait(seconds_to_cycles(0.05)), StopKind::kBreak);
  ASSERT_EQ(dbg.read_registers().value().pc, store);
  EXPECT_EQ(dbg.read_registers().value().r[cpu::kR1], plain_sum)
      << "the guest summed different text with breakpoints armed";
  ASSERT_EQ(dbg.continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kGuestExit);
  auto& m = rig.unit.machine();
  EXPECT_EQ(m.guest_exit_code().value_or(0), guest::kExitDone);
  EXPECT_EQ(m.mem().read32(kTextSumAddr), plain_sum);
}

}  // namespace
}  // namespace vdbg::test
