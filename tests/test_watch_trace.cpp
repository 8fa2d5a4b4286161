// Tests for two debugging extensions of the monitor: write watchpoints (the
// CPU's monitor-side debug state, armed over RSP with Z2) and the VM-exit
// tracer — both end-to-end over the RSP wire and at the unit level.
#include <gtest/gtest.h>

#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"
#include "vmm/trace.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::Mailbox;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using StopKind = RemoteDebugger::StopKind;

struct Rig {
  explicit Rig(RunConfig rc = RunConfig::for_rate_mbps(40.0)) {
    platform = std::make_unique<Platform>(PlatformKind::kLvmm);
    platform->prepare(rc);
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart(),
                                            platform->metrics());
    stub->attach();
    platform->monitor()->set_tracer(&tracer);
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
  }

  std::unique_ptr<Platform> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<RemoteDebugger> dbg;
  vmm::ExitTracer tracer;
};

// ---------------------------------------------------------------- tracer --
TEST(ExitTracer, RingSemantics) {
  vmm::ExitTracer t(4);
  t.set_enabled(true);
  for (u32 i = 0; i < 6; ++i) {
    vmm::TraceEvent e;
    e.timestamp = i;
    e.kind = vmm::TraceKind::kInjection;
    t.record(e);
  }
  EXPECT_EQ(t.recorded(), 6u);
  EXPECT_EQ(t.overwritten(), 2u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().timestamp, 2u);  // oldest surviving
  EXPECT_EQ(snap.back().timestamp, 5u);
  const auto last2 = t.tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].timestamp, 4u);
  EXPECT_EQ(last2[1].timestamp, 5u);
  t.clear();
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(ExitTracer, DisabledRecordsNothing) {
  vmm::ExitTracer t(8);
  t.record({});
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(ExitTracer, FormatNamesKinds) {
  vmm::TraceEvent e;
  e.timestamp = 42;
  e.kind = vmm::TraceKind::kShadowSync;
  e.pc = 0x1234;
  const auto s = vmm::ExitTracer::format(e);
  EXPECT_NE(s.find("shadow"), std::string::npos);
  EXPECT_NE(s.find("pc=00001234"), std::string::npos);
}

TEST(TraceLive, MonitorRecordsStreamActivity) {
  Rig rig;
  rig.tracer.set_enabled(true);
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  const auto events = rig.tracer.snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_priv = false, saw_inj = false, saw_irq = false, saw_int = false;
  for (const auto& e : events) {
    saw_priv |= e.kind == vmm::TraceKind::kPrivileged;
    saw_inj |= e.kind == vmm::TraceKind::kInjection;
    saw_irq |= e.kind == vmm::TraceKind::kInterrupt;
    saw_int |= e.kind == vmm::TraceKind::kSoftInt;
  }
  EXPECT_TRUE(saw_priv);
  EXPECT_TRUE(saw_inj);
  EXPECT_TRUE(saw_irq);
  EXPECT_TRUE(saw_int);
  // Timestamps are monotone non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].timestamp, events[i].timestamp);
  }
}

TEST(TraceLive, FetchOverTheWire) {
  Rig rig;
  ASSERT_TRUE(rig.dbg->connect());
  ASSERT_TRUE(rig.dbg->trace_enable(true));
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  const auto lines = rig.dbg->fetch_trace(8);
  ASSERT_FALSE(lines.empty());
  ASSERT_LE(lines.size(), 8u);
  for (const auto& l : lines) {
    EXPECT_NE(l.find("pc="), std::string::npos) << l;
  }
  ASSERT_TRUE(rig.dbg->trace_enable(false));
  const u64 count = rig.tracer.recorded();
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  EXPECT_EQ(rig.tracer.recorded(), count);  // off means off
}

// ------------------------------------------------------------ watchpoints --
TEST(Watchpoints, MonitorApiHitsOnWatchedWord) {
  Rig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));  // boot + stream
  auto* mon = rig.platform->monitor();
  auto& cpu = rig.platform->machine().cpu();
  ASSERT_TRUE(cpu.arm_watchpoint(
      guest::kMailboxBase + Mailbox::kSegmentsSent, 4));
  EXPECT_EQ(cpu.watchpoint_count(), 1u);

  // The next segment send writes the counter -> the guest freezes.
  rig.platform->machine().run_for(seconds_to_cycles(0.05));
  ASSERT_TRUE(mon->guest_frozen());
  const auto& hit = cpu.last_watch_hit();
  EXPECT_EQ(hit.va, guest::kMailboxBase + Mailbox::kSegmentsSent);
  EXPECT_EQ(hit.size, 4u);
  // Post-write semantics: the stored value is the new counter value.
  const auto mb = rig.platform->mailbox();
  EXPECT_EQ(hit.value, mb.segments_sent);
  EXPECT_GT(mb.segments_sent, 0u);
}

TEST(Watchpoints, UnwatchedBytesOnWatchedPageRunSilently) {
  // Watch a never-written scratch word that shares the mailbox page with
  // constantly-written counters: the stream must keep running (silent
  // store emulation), with zero stops.
  Rig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  auto* mon = rig.platform->monitor();
  auto& cpu = rig.platform->machine().cpu();
  ASSERT_TRUE(cpu.arm_watchpoint(guest::kMailboxBase + 0xff0, 4));
  const auto before = rig.platform->mailbox();
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  EXPECT_FALSE(mon->guest_frozen());
  const auto after = rig.platform->mailbox();
  EXPECT_GT(after.segments_sent, before.segments_sent);
  EXPECT_GT(after.ticks, before.ticks);
}

TEST(Watchpoints, RemoveRestoresFullSpeedMappings) {
  Rig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  auto* mon = rig.platform->monitor();
  auto& cpu = rig.platform->machine().cpu();
  ASSERT_TRUE(cpu.arm_watchpoint(guest::kMailboxBase + 0xff0, 4));
  ASSERT_TRUE(cpu.disarm_watchpoint(guest::kMailboxBase + 0xff0, 4));
  EXPECT_EQ(cpu.watchpoint_count(), 0u);
  EXPECT_FALSE(cpu.disarm_watchpoint(guest::kMailboxBase + 0xff0, 4));
  const auto pf_before = mon->exit_stats().pt_writes;
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  // With no watch (and no PT writes in steady state) nothing is emulated.
  EXPECT_EQ(mon->exit_stats().pt_writes, pf_before);
  EXPECT_FALSE(mon->guest_frozen());
}

TEST(Watchpoints, EndToEndOverRsp) {
  Rig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));

  const u32 addr = guest::kMailboxBase + Mailbox::kDiskReads;
  ASSERT_TRUE(rig.dbg->set_watchpoint(addr, 4));
  // Disk refills happen every chunk (2 MiB at 40 Mbps ~ every 400 ms)...
  // too slow; watch the tick counter instead for a prompt hit.
  ASSERT_TRUE(rig.dbg->clear_watchpoint(addr, 4));
  const u32 tick_addr = guest::kMailboxBase + Mailbox::kTicks;
  ASSERT_TRUE(rig.dbg->set_watchpoint(tick_addr, 4));

  const auto stop = rig.dbg->continue_and_wait(seconds_to_cycles(0.01));
  ASSERT_EQ(stop, StopKind::kBreak);
  EXPECT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  EXPECT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);

  // Clean up and resume: the stream continues.
  ASSERT_TRUE(rig.dbg->clear_watchpoint(tick_addr, 4));
  rig.dbg->continue_and_wait(seconds_to_cycles(0.001));
  const auto before = rig.platform->mailbox().segments_sent;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  EXPECT_GT(rig.platform->mailbox().segments_sent, before);
}

TEST(Watchpoints, HitsBeforeGuestPaging) {
  // A watch is the CPU's own debug state, not a write-protected shadow
  // page, so it needs no guest paging: armed before boot, it stops the
  // boot code's first call, which pushes its return address at the top of
  // the kernel stack while paging is still off.
  Rig rig;
  auto* mon = rig.platform->monitor();
  auto& cpu = rig.platform->machine().cpu();
  const auto& kernel = rig.platform->image().kernel;
  ASSERT_FALSE(mon->vcpu().paging_enabled());
  ASSERT_TRUE(cpu.arm_watchpoint(guest::kKernelStackTop - 4, 4));

  rig.platform->machine().run_for(seconds_to_cycles(0.001));
  ASSERT_TRUE(mon->guest_frozen());
  EXPECT_FALSE(mon->vcpu().paging_enabled());
  const auto& hit = cpu.last_watch_hit();
  EXPECT_EQ(hit.va, guest::kKernelStackTop - 4);
  EXPECT_EQ(hit.size, 4u);
  // `entry: movi sp; call pic_init` — the stored value is the return
  // address, and the guest stopped at the call target.
  EXPECT_EQ(hit.value, kernel.symbol("entry").value() + 2 * cpu::kInstrBytes);
  EXPECT_EQ(hit.pc, kernel.symbol("pic_init").value());
  EXPECT_EQ(cpu.state().pc, hit.pc);
}

TEST(Watchpoints, UnhitWatchpointLeavesGuestBitIdentical) {
  // An armed watch the guest never hits is invisible to it: no page is
  // write-protected, no exit taken, no cycle charged, and no snapshot
  // carries it. The watched word shares the busiest page, the mailbox,
  // with counters the guest stores to all the time.
  Rig watched, plain;
  for (Rig* r : {&watched, &plain}) {
    r->platform->machine().run_for(seconds_to_cycles(0.03));
  }
  ASSERT_TRUE(watched.platform->machine().cpu().arm_watchpoint(
      guest::kMailboxBase + 0xF00, 4));
  for (Rig* r : {&watched, &plain}) {
    r->platform->machine().run_for(seconds_to_cycles(0.03));
  }
  EXPECT_FALSE(watched.platform->monitor()->guest_frozen());
  const auto a = vmm::TimeTravel(*watched.platform->monitor()).save_state();
  const auto b = vmm::TimeTravel(*plain.platform->monitor()).save_state();
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "arming an unhit watch changed the guest's state";
}

TEST(Watchpoints, WatchOnStackPageKeepsGuestRunning) {
  // The interrupt handlers push registers and make calls on the
  // ring-transition stack; a watch on an unwritten word of that page must
  // leave those stores alone.
  Rig rig;
  auto& m = rig.platform->machine();
  m.run_for(seconds_to_cycles(0.03));
  ASSERT_TRUE(m.cpu().arm_watchpoint(guest::kIntrStackTop - 0x1000, 4));
  const auto before = rig.platform->mailbox();
  m.run_for(seconds_to_cycles(0.03));
  EXPECT_FALSE(rig.platform->monitor()->vcpu().crashed);
  EXPECT_FALSE(rig.platform->monitor()->guest_frozen());
  const auto after = rig.platform->mailbox();
  EXPECT_EQ(after.last_error, 0u);
  EXPECT_GT(after.segments_sent, before.segments_sent);
}

}  // namespace
}  // namespace vdbg::test
