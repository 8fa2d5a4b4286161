// Time-travel debugging tests: snapshot integrity (byte-identity,
// corruption rejection), the lockstep differential (restore + replay must
// reproduce straight-line execution bit for bit), and reverse execution both
// at the controller level and end-to-end over the RSP wire.
#include <gtest/gtest.h>

#include <functional>

#include "common/snapshot.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::Mailbox;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using vmm::TimeTravel;
using MStop = hw::Machine::StopReason;
using Outcome = TimeTravel::ReverseOutcome;
using StopKind = RemoteDebugger::StopKind;

std::unique_ptr<Platform> make_lvmm() {
  auto p = std::make_unique<Platform>(PlatformKind::kLvmm);
  p->prepare(RunConfig::for_rate_mbps(40.0));
  return p;
}

// ------------------------------------------------------------- snapshots --

TEST(TimeTravelSnapshot, SaveRestoreSaveIsByteIdentical) {
  auto p = make_lvmm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);

  TimeTravel tt(*p->monitor());
  const auto a = tt.save_state();
  ASSERT_FALSE(a.empty());
  ASSERT_TRUE(tt.load_state(a));
  EXPECT_EQ(tt.save_state(), a);
}

// Every device section individually: save -> restore -> save must reproduce
// the stream byte for byte, with live mid-run state in the devices.
TEST(TimeTravelSnapshot, PerDeviceSectionsRoundTrip) {
  auto p = make_lvmm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  auto& m = p->machine();

  struct Dev {
    const char* name;
    SnapTag tag;
    std::function<void(SnapshotWriter&)> save;
    std::function<void(SnapshotReader&)> restore;
  };
  const Dev devs[] = {
      {"cpu", SnapTag::kCpu, [&](SnapshotWriter& w) { m.cpu().save(w); },
       [&](SnapshotReader& r) { m.cpu().restore(r); }},
      {"mmu", SnapTag::kMmu, [&](SnapshotWriter& w) { m.cpu().mmu().save(w); },
       [&](SnapshotReader& r) { m.cpu().mmu().restore(r); }},
      {"physmem", SnapTag::kPhysMem, [&](SnapshotWriter& w) { m.mem().save(w); },
       [&](SnapshotReader& r) { m.mem().restore(r); }},
      {"pic", SnapTag::kPic, [&](SnapshotWriter& w) { m.pic().save(w); },
       [&](SnapshotReader& r) { m.pic().restore(r); }},
      {"pit", SnapTag::kPit, [&](SnapshotWriter& w) { m.pit().save(w); },
       [&](SnapshotReader& r) { m.pit().restore(r); }},
      {"uart", SnapTag::kUart, [&](SnapshotWriter& w) { m.uart().save(w); },
       [&](SnapshotReader& r) { m.uart().restore(r); }},
      {"nic", SnapTag::kNic, [&](SnapshotWriter& w) { m.nic().save(w); },
       [&](SnapshotReader& r) { m.nic().restore(r); }},
      {"disk", SnapTag::kScsi, [&](SnapshotWriter& w) { m.disk(0).save(w); },
       [&](SnapshotReader& r) { m.disk(0).restore(r); }},
  };

  for (const Dev& d : devs) {
    SnapshotWriter w1;
    w1.begin_section(d.tag);
    d.save(w1);
    w1.end_section();
    const auto a = w1.finish();

    SnapshotReader r(a);
    ASSERT_TRUE(r.ok()) << d.name;
    ASSERT_TRUE(r.open_section(d.tag)) << d.name;
    d.restore(r);
    ASSERT_TRUE(r.ok()) << d.name;

    SnapshotWriter w2;
    w2.begin_section(d.tag);
    d.save(w2);
    w2.end_section();
    EXPECT_EQ(w2.finish(), a) << d.name << " state not byte-identical";
  }
}

TEST(TimeTravelSnapshot, RejectsCorruptTruncatedAndEmptyStreams) {
  auto p = make_lvmm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.01)), MStop::kBudget);

  TimeTravel tt(*p->monitor());
  const auto good = tt.save_state();
  ASSERT_GT(good.size(), 64u);

  EXPECT_FALSE(tt.load_state({}));

  auto truncated = good;
  truncated.resize(truncated.size() - 7);
  EXPECT_FALSE(tt.load_state(truncated));

  auto corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x5a;  // payload bit-flip: CRC must catch it
  EXPECT_FALSE(tt.load_state(corrupt));

  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(tt.load_state(bad_magic));

  // A rejected stream must leave the machine untouched.
  EXPECT_EQ(tt.save_state(), good);
}

// ------------------------------------------ the replay correctness oracle --

// Restore-then-replay must be bit-identical to uninterrupted execution, at
// every compared boundary. This is the property everything else rests on.
TEST(TimeTravelReplay, LockstepDifferentialMatchesStraightLine) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 10'000;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 base = m.cpu().stats().instructions;
  const u64 points[] = {base + 30'000, base + 60'000, base + 90'000,
                        base + 123'456};

  std::vector<std::vector<u8>> straight;
  for (u64 pt : points) {
    ASSERT_EQ(m.run_to_instruction(pt, seconds_to_cycles(1.0)),
              MStop::kInstrLimit);
    straight.push_back(tt.save_state());
  }

  // Rewind to the first boundary and replay through the same schedule.
  ASSERT_TRUE(tt.load_state(straight[0]));
  ASSERT_EQ(m.cpu().stats().instructions, points[0]);
  for (std::size_t i = 1; i < straight.size(); ++i) {
    ASSERT_EQ(m.run_to_instruction(points[i], seconds_to_cycles(1.0)),
              MStop::kInstrLimit);
    EXPECT_EQ(tt.save_state(), straight[i])
        << "replay diverged from straight-line execution at boundary " << i;
  }
  EXPECT_GE(tt.stats().restores, 1u);
}

// The superblock cache is derived state: restoring a snapshot must drop it
// (its chain edges may reference pre-rollback code), replay must rebuild it
// on demand, and replaying the same window with the tier disabled must
// produce a byte-identical snapshot. The kill switch itself is a host
// tuning knob and must be invisible to the snapshot stream.
TEST(TimeTravelReplay, SuperblockCacheIsDerivedStateAcrossRestore) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel tt(*p->monitor());

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  const auto& sbc = m.cpu().sbc_stats();
  ASSERT_GT(sbc.hits + sbc.chains, 0u)
      << "the boot workload never exercised the superblock tier";

  const auto snap = tt.save_state();
  ASSERT_FALSE(snap.empty());

  // Kill-switch flips must not change the snapshot stream.
  m.cpu().set_superblocks_enabled(false);
  EXPECT_EQ(tt.save_state(), snap);
  m.cpu().set_superblocks_enabled(true);

  // Restore drops every live superblock (counted as invalidations).
  const u64 inv_before = sbc.invalidations;
  ASSERT_TRUE(tt.load_state(snap));
  EXPECT_GT(sbc.invalidations, inv_before)
      << "restore did not drop the superblock cache";

  // Replay a fixed instruction window with superblocks on...
  const u64 entries_at_restore = sbc.hits + sbc.chains;
  const u64 target = m.cpu().stats().instructions + 50'000;
  ASSERT_EQ(m.run_to_instruction(target, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  EXPECT_GT(sbc.hits + sbc.chains, entries_at_restore)
      << "the cache was not rebuilt on demand after restore";
  const auto on_snap = tt.save_state();

  // ...then the identical window from the identical start with the tier
  // off: the machine must land on a byte-identical snapshot.
  ASSERT_TRUE(tt.load_state(snap));
  m.cpu().set_superblocks_enabled(false);
  ASSERT_EQ(m.run_to_instruction(target, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  EXPECT_EQ(tt.save_state(), on_snap)
      << "superblock replay diverged from the reference interpreter";
  m.cpu().set_superblocks_enabled(true);
}

// reverse-stepi is restore + replay, so its landing must not depend on
// which tier executes the replay window.
TEST(TimeTravelReplay, ReverseStepiLandsIdenticallyAcrossTiers) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 5'000;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 n = m.cpu().stats().instructions;
  ASSERT_GT(tt.checkpoint_count(), 0u);

  // Reverse-step with the superblock tier live (the default)...
  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  ASSERT_EQ(tt.reverse_stepi().outcome, Outcome::kStopped);
  ASSERT_EQ(m.cpu().stats().instructions, n - 1);
  const auto landing_super = tt.save_state();

  // ...return to the boundary, then reverse again with replay pinned to
  // the reference interpreter: the landing must be byte-identical.
  p->monitor()->resume_guest();
  ASSERT_EQ(m.run_to_instruction(n, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  m.cpu().set_superblocks_enabled(false);
  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  ASSERT_EQ(tt.reverse_stepi().outcome, Outcome::kStopped);
  EXPECT_EQ(m.cpu().stats().instructions, n - 1);
  EXPECT_EQ(tt.save_state(), landing_super)
      << "reverse-stepi landed on different state across tiers";
  m.cpu().set_superblocks_enabled(true);
  p->monitor()->resume_guest();
}

// -------------------------------------------------- controller-level ops --

TEST(TimeTravelReplay, ReverseStepiLandsExactlyOneInstructionEarlier) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 5'000;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 n = m.cpu().stats().instructions;
  ASSERT_GT(tt.checkpoint_count(), 0u);

  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  const auto r = tt.reverse_stepi();
  EXPECT_EQ(r.outcome, Outcome::kStopped);
  EXPECT_EQ(r.icount, n - 1);
  EXPECT_EQ(m.cpu().stats().instructions, n - 1);
  EXPECT_TRUE(p->monitor()->guest_frozen());
  EXPECT_GE(tt.stats().replay_passes, 1u);

  // Running forward again reaches the original boundary.
  p->monitor()->resume_guest();
  ASSERT_EQ(m.run_to_instruction(n, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  EXPECT_EQ(m.cpu().stats().instructions, n);
}

TEST(TimeTravelReplay, ReverseContinueWithoutHitsLandsOnOldestCheckpoint) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 5'000;
  cfg.ring = 4;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_GT(tt.checkpoint_count(), 0u);
  const u64 oldest = tt.checkpoints().front().icount;

  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  const auto r = tt.reverse_continue();
  EXPECT_EQ(r.outcome, Outcome::kAtCheckpoint);
  EXPECT_EQ(r.icount, oldest);
  EXPECT_EQ(m.cpu().stats().instructions, oldest);
  EXPECT_TRUE(p->monitor()->guest_frozen());
}

TEST(TimeTravelReplay, ReverseWithoutCheckpointsReportsNoHistory) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel tt(*p->monitor());  // never enabled: empty ring

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.005)), MStop::kBudget);
  const u64 n = m.cpu().stats().instructions;
  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);

  EXPECT_EQ(tt.reverse_stepi().outcome, Outcome::kNoHistory);
  EXPECT_EQ(tt.reverse_continue().outcome, Outcome::kNoHistory);
  // State untouched.
  EXPECT_EQ(m.cpu().stats().instructions, n);
  EXPECT_TRUE(p->monitor()->guest_frozen());
}

// ------------------------------------------------- end-to-end over RSP --

struct TtRig {
  TtRig() {
    platform = make_lvmm();
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart());
    stub->attach();
    TimeTravel::Config cfg;
    cfg.interval = 2'000;
    cfg.ring = 32;
    tt = std::make_unique<TimeTravel>(*platform->monitor(), cfg);
    stub->set_time_travel(tt.get());
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
    dbg->add_symbols(platform->image().kernel);
    dbg->add_symbols(platform->image().app);
  }

  std::unique_ptr<Platform> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<TimeTravel> tt;
  std::unique_ptr<RemoteDebugger> dbg;
};

// The acceptance scenario: stop on a watchpoint, reverse-step, and land
// exactly one retired guest instruction earlier — then stepping forward
// re-fires the same watchpoint at the same pc and icount.
TEST(TimeTravelRsp, ReverseStepFromWatchpointHit) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  rig.tt->enable();

  // First hit: its history window contains the Z2/'c' wire traffic, which
  // replay cannot reproduce. Continuing from it anchors a checkpoint at the
  // resume, so the window up to the SECOND hit is debugger-quiet and
  // replays bit-identically — reverse from there.
  const u32 tick_addr = guest::kMailboxBase + Mailbox::kTicks;
  ASSERT_TRUE(rig.dbg->set_watchpoint(tick_addr, 4));
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  ASSERT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);
  ASSERT_GT(rig.tt->checkpoint_count(), 0u);

  const auto n0 = rig.dbg->icount();
  ASSERT_TRUE(n0);
  const auto regs0 = rig.dbg->read_registers();
  ASSERT_TRUE(regs0);

  ASSERT_EQ(rig.dbg->reverse_step(), StopKind::kBreak);
  const auto n1 = rig.dbg->icount();
  ASSERT_TRUE(n1);
  EXPECT_EQ(*n1, *n0 - 1) << "reverse-step must land exactly one retired "
                             "instruction earlier";

  // One forward step re-executes the store: same watch, same pc, same icount.
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  EXPECT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  EXPECT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n0);
  const auto regs1 = rig.dbg->read_registers();
  ASSERT_TRUE(regs1);
  EXPECT_EQ(regs1->pc, regs0->pc);
}

// reverse-continue returns to the LAST watchpoint hit before the current
// position.
TEST(TimeTravelRsp, ReverseContinueLandsOnPreviousWatchHit) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  rig.tt->enable();

  // Two hits: continuing from the first anchors a checkpoint at the resume,
  // so the window covering the second hit is debugger-quiet and replayable
  // (see ReverseStepFromWatchpointHit).
  const u32 tick_addr = guest::kMailboxBase + Mailbox::kTicks;
  ASSERT_TRUE(rig.dbg->set_watchpoint(tick_addr, 4));
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  const auto n1 = rig.dbg->icount();
  ASSERT_TRUE(n1);
  const auto regs_hit = rig.dbg->read_registers();
  ASSERT_TRUE(regs_hit);

  // Move a couple of instructions past the hit, then run backwards. (A
  // stepped instruction can retire twice — faulting attempt plus re-run —
  // so read the position back instead of assuming +1 per step.)
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  const auto n2 = rig.dbg->icount();
  ASSERT_TRUE(n2);
  ASSERT_GT(*n2, *n1);

  ASSERT_EQ(rig.dbg->reverse_continue(), StopKind::kBreak);
  EXPECT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  EXPECT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n1);
  const auto regs_back = rig.dbg->read_registers();
  ASSERT_TRUE(regs_back);
  EXPECT_EQ(regs_back->pc, regs_hit->pc);
}

// Reverse without history is refused over the wire (Exx -> kError) and the
// target stays usable.
TEST(TimeTravelRsp, ReverseWithoutHistoryIsRefused) {
  TtRig rig;  // tt never enabled: no checkpoints
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto n = rig.dbg->icount();
  ASSERT_TRUE(n);
  EXPECT_EQ(rig.dbg->reverse_step(), StopKind::kError);
  EXPECT_EQ(rig.dbg->reverse_continue(), StopKind::kError);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n);
  // Still debuggable.
  EXPECT_EQ(rig.dbg->step(), StopKind::kBreak);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n + 1);
}

// Host-side snapshot slot over the wire: save, run forward, load, and the
// target is back at the saved position and still steppable.
TEST(TimeTravelRsp, SnapshotSaveLoadOverRsp) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto n0 = rig.dbg->icount();
  ASSERT_TRUE(n0);
  ASSERT_TRUE(rig.dbg->snapshot_save());

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  }
  ASSERT_EQ(rig.dbg->icount().value_or(0), *n0 + 3);

  ASSERT_TRUE(rig.dbg->snapshot_load());
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n0);
  EXPECT_EQ(rig.dbg->step(), StopKind::kBreak);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n0 + 1);
}

// Checkpoint control over the wire.
TEST(TimeTravelRsp, CheckpointQueriesOverRsp) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  EXPECT_EQ(rig.dbg->checkpoint_count().value_or(99), 0u);
  ASSERT_TRUE(rig.dbg->take_checkpoint());
  EXPECT_EQ(rig.dbg->checkpoint_count().value_or(0), 1u);
}

// A breakpoint session with time travel: an LVMM guest streaming at `mbps`,
// stub attached, the controller armed after a short boot, then a break-in
// and a breakpoint in the NIC interrupt handler. Continuing from that stop
// anchors a checkpoint, so the run to the first hit is debugger-quiet.
struct BreakpointRig {
  BreakpointRig(double mbps, TimeTravel::Config cfg) {
    platform = std::make_unique<Platform>(PlatformKind::kLvmm);
    platform->prepare(RunConfig::for_rate_mbps(mbps));
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart());
    stub->attach();
    tt = std::make_unique<TimeTravel>(*platform->monitor(), cfg);
    stub->set_time_travel(tt.get());
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
    dbg->add_symbols(platform->image().kernel);
    dbg->add_symbols(platform->image().app);
    EXPECT_TRUE(dbg->connect());
    tt->enable();
    platform->machine().run_for(seconds_to_cycles(0.03));
    EXPECT_EQ(dbg->interrupt(), StopKind::kBreak);
    isr_nic = dbg->lookup("isr_nic").value_or(0);
    EXPECT_NE(isr_nic, 0u);
    EXPECT_TRUE(dbg->set_breakpoint(isr_nic));
  }

  std::unique_ptr<Platform> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<TimeTravel> tt;
  std::unique_ptr<RemoteDebugger> dbg;
  u32 isr_nic = 0;
};

// Regression: stepping twice from a breakpoint stop, reversing one step and
// continuing must leave no debugger state behind in the guest. A step kept
// in the guest PSW would be captured by the resume-anchored checkpoint, the
// landing would carry TF=1, and the continue would panic the guest on #DB.
TEST(TimeTravelRsp, ContinueAfterReverseStepKeepsGuestHealthy) {
  TimeTravel::Config cfg;
  cfg.interval = 20'000;
  cfg.ring = 16;
  BreakpointRig rig(60.0, cfg);
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  ASSERT_EQ(rig.dbg->read_registers().value().pc, rig.isr_nic);

  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->reverse_step(), StopKind::kBreak);
  const auto landed = rig.dbg->read_registers();
  ASSERT_TRUE(landed);
  EXPECT_EQ(landed->psw & cpu::Psw::kTf, 0u)
      << "the landing carries the debugger's single-step trap flag";

  EXPECT_NE(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kGuestExit);
  EXPECT_EQ(rig.platform->mailbox().last_error, 0u);
  EXPECT_FALSE(rig.platform->monitor()->vcpu().crashed);
}

// reverse-continue returns to the previous breakpoint hit: replay stops at
// the armed address exactly where the first hit stopped, and the landing
// reports the breakpoint pc at that hit's retired-instruction count.
TEST(TimeTravelRsp, ReverseContinueLandsOnPreviousBreakpointHit) {
  TimeTravel::Config cfg;
  cfg.interval = 20'000;
  cfg.ring = 64;  // reaches back past the resume checkpoint at hit 1
  BreakpointRig rig(40.0, cfg);
  // Guest state at the most recent freeze.
  const auto& cpu = rig.platform->machine().cpu();
  cpu::CpuState frozen{};
  rig.platform->monitor()->set_stop_observer(
      [&](vmm::DebugDelegate::StopReason) { frozen = cpu.state(); });

  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  ASSERT_EQ(rig.dbg->read_registers().value().pc, rig.isr_nic);
  const auto n1 = rig.dbg->icount();
  ASSERT_TRUE(n1);
  const cpu::CpuState hit1 = frozen;
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  ASSERT_EQ(rig.dbg->read_registers().value().pc, rig.isr_nic);
  const auto n2 = rig.dbg->icount();
  ASSERT_TRUE(n2);
  ASSERT_GT(*n2, *n1);

  ASSERT_EQ(rig.dbg->reverse_continue(), StopKind::kBreak);
  EXPECT_EQ(rig.dbg->read_registers().value().pc, rig.isr_nic);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n1);
  // The landing is hit 1 itself.
  EXPECT_EQ(frozen.regs, hit1.regs);
  EXPECT_EQ(frozen.psw, hit1.psw);

  // Forward from the landing, the breakpoint still hits.
  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  EXPECT_EQ(rig.dbg->read_registers().value().pc, rig.isr_nic);
  EXPECT_EQ(rig.platform->mailbox().last_error, 0u);
}

// Replay fidelity from a breakpoint stop: the checkpoint anchored at the
// resume from hit 1 replays exactly like that resume, so reverse-stepi from
// hit 2 lands on the very state the original run had one instruction
// earlier. A twin session repeats the script up to that resume and runs to
// the same boundary undisturbed; pc, registers, flags and simulated time
// must all match. `arm_before_reverse`, when set, runs against the first
// session at hit 2, before the reverse step.
void expect_reverse_step_from_hit_2_matches_twin(
    const std::function<void(RemoteDebugger&)>& arm_before_reverse) {
  TimeTravel::Config cfg;
  cfg.interval = 100'000'000;  // only the stub's resume checkpoints
  cfg.ring = 64;
  BreakpointRig a(40.0, cfg);
  BreakpointRig twin(40.0, cfg);
  for (BreakpointRig* r : {&a, &twin}) {
    ASSERT_EQ(r->dbg->continue_and_wait(seconds_to_cycles(0.05)),
              StopKind::kBreak);
  }
  ASSERT_EQ(a.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  if (arm_before_reverse) arm_before_reverse(*a.dbg);
  const u64 m = a.dbg->icount().value();
  // The landing as the guest froze (simulated time runs on while the
  // reply crosses the wire).
  const auto& cpu = a.platform->machine().cpu();
  cpu::CpuState landed{};
  Cycles landed_at = 0;
  a.platform->monitor()->set_stop_observer(
      [&](vmm::DebugDelegate::StopReason) {
        landed = cpu.state();
        landed_at = cpu.cycles();
      });
  ASSERT_EQ(a.dbg->reverse_step(), StopKind::kBreak);
  ASSERT_EQ(a.dbg->icount().value_or(0), m - 1);

  auto& tm = twin.platform->machine();
  tm.uart().host_inject("$c#63");  // the same resume, then no debugger
  ASSERT_EQ(tm.run_to_instruction(m - 1, seconds_to_cycles(0.05)),
            MStop::kInstrLimit);
  const auto& want = tm.cpu();
  EXPECT_EQ(landed.pc, want.state().pc);
  EXPECT_EQ(landed.regs, want.state().regs);
  EXPECT_EQ(landed.psw, want.state().psw);
  EXPECT_EQ(landed_at, want.cycles())
      << "the replayed window diverged from the original in simulated time";
}

TEST(TimeTravelRsp, ReverseStepFromBreakpointHitMatchesTheOriginalRun) {
  expect_reverse_step_from_hit_2_matches_twin(nullptr);
}

// A watch armed at the stop and never hit in the replayed window leaves the
// replay exactly the original run. Its word shares the mailbox page, which
// the window stores to.
TEST(TimeTravelRsp, ReverseStepWithWatchpointArmedMatchesTheOriginalRun) {
  expect_reverse_step_from_hit_2_matches_twin([](RemoteDebugger& dbg) {
    ASSERT_TRUE(dbg.set_watchpoint(guest::kMailboxBase + 0xF00, 4));
  });
}

}  // namespace
}  // namespace vdbg::test
