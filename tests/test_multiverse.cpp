// Multiverse replay tests: fork COW timelines from one checkpoint, perturb
// interrupt timing deterministically, and trap a timing-dependent guest bug
// down to a minimal failure-flipping delta — then prove the winning timeline
// replays bit-identically.
//
// The racy guest models the classic "interrupt in the critical window" bug:
// it counts time in fixed-length slots and its timer ISR records which slot
// the first PIT tick lands in. The host calibrates a threshold one slot past
// the unperturbed arrival, so the unperturbed run always passes while an
// injected interrupt-arrival delay pushes the tick over the threshold and
// the ISR raises the failure flag. Whether the bug fires is a pure function
// of the perturbation — exactly what the bug trap must isolate.
#include <gtest/gtest.h>

#include <cstdio>

#include "asm/assembler.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "fleet/machine_unit.h"
#include "fleet/multiverse.h"
#include "guest/layout.h"
#include "hw/diag_port.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using fleet::Multiverse;
using fleet::MultiverseConfig;
using fleet::MultiverseService;
using fleet::OutcomePredicate;
using fleet::Perturbation;
using fleet::TimelineResult;
using guest::RunConfig;
using vmm::TimeTravel;
using MStop = hw::Machine::StopReason;

// Scratch page the racy guest and the host share (free RAM below the
// kernel, outside the mailbox page the harness writes).
constexpr u32 kSlotAddr = 0x2000;       // current slot, written by main loop
constexpr u32 kTickSlotAddr = 0x2004;   // slot the first tick landed in
constexpr u32 kThresholdAddr = 0x2008;  // host-calibrated failure threshold
constexpr u32 kFailFlagAddr = 0x200c;   // ISR writes kFailValue on late tick
constexpr u32 kTickSeenAddr = 0x2010;
constexpr u32 kFailValue = 0x0badf00d;
constexpr u32 kSlots = 96;
constexpr u32 kSpinIters = 300;
const std::string kFailPredicate = "mailbox:200c=badf00d";

/// Kernel whose failure depends on the interrupt arrival window: slots of
/// fixed length, a one-shot record of where the first PIT tick lands, and a
/// failure flag when it lands at or past the host-set threshold slot.
vasm::Program build_racy_guest() {
  using namespace vasm;
  using cpu::kR0;
  using cpu::kR1;
  using cpu::kR2;
  using cpu::kR6;
  using cpu::kSp;
  Assembler a(guest::kKernelBase);
  auto outb = [&](u16 port, u32 v) {
    a.movi(kR0, u32{v});
    a.out(port, kR0);
  };

  a.label("entry");
  a.movi(kSp, u32{guest::kKernelStackTop});
  outb(0x20, 0x11);  // ICW1 master
  outb(0x21, 0x20);  // ICW2: vectors 0x20-0x27
  outb(0x21, 0x04);  // ICW3
  outb(0x21, 0x01);  // ICW4
  outb(0xa0, 0x11);  // ICW1 slave
  outb(0xa1, 0x28);
  outb(0xa1, 0x02);
  outb(0xa1, 0x01);
  outb(0x21, 0xfe);  // unmask only IRQ0 (the PIT)
  outb(0xa1, 0xff);
  a.movi(kR0, l("idt"));
  a.lidt(kR0, guest::kIdtEntries);
  a.sti();
  // PIT channel 0, mode 2, divisor 128 (~135k cycles): the first tick lands
  // mid-slots (around slot 40 of 96). The period must dwarf the ~17k-cycle
  // monitor cost of one interrupt round-trip (arrival + inject + EOI exit +
  // IRET exit); a short divisor would make service cost exceed the period
  // and the guest would starve in back-to-back injections forever.
  outb(0x43, 0x34);
  outb(0x40, 128);
  outb(0x40, 0);

  a.movi(kR1, u32{0});
  a.movi(kR6, u32{kSlotAddr});
  a.label("slot_loop");
  a.st32(kR6, 0, kR1);
  a.movi(kR2, u32{kSpinIters});
  a.label("spin");
  a.subi(kR2, kR2, u32{1});
  a.cmpi(kR2, u32{0});
  a.jnz(l("spin"));
  a.addi(kR1, kR1, u32{1});
  a.cmpi(kR1, u32{kSlots});
  a.jb(l("slot_loop"));
  a.movi(kR0, u32{guest::kExitDone});
  a.out(hw::kDiagExitPort, kR0);
  a.hlt();

  a.label("isr_timer");
  a.push(kR0);
  a.push(kR1);
  a.push(kR2);
  a.movi(kR1, u32{kTickSeenAddr});
  a.ld32(kR0, kR1, 0);
  a.cmpi(kR0, u32{0});
  a.jnz(l("isr_done"));  // only the first tick is judged
  a.movi(kR0, u32{1});
  a.st32(kR1, 0, kR0);
  a.movi(kR1, u32{kSlotAddr});
  a.ld32(kR0, kR1, 0);
  a.movi(kR1, u32{kTickSlotAddr});
  a.st32(kR1, 0, kR0);
  a.movi(kR1, u32{kThresholdAddr});
  a.ld32(kR2, kR1, 0);
  a.cmp(kR0, kR2);
  a.jb(l("isr_done"));  // tick slot < threshold: arrived on time
  a.movi(kR0, u32{kFailValue});
  a.movi(kR1, u32{kFailFlagAddr});
  a.st32(kR1, 0, kR0);
  a.label("isr_done");
  a.movi(kR0, u32{0x20});
  a.out(0x20, kR0);  // EOI master
  a.pop(kR2);
  a.pop(kR1);
  a.pop(kR0);
  a.iret();

  a.label("panic");
  a.movi(kR0, u32{guest::kExitPanic});
  a.out(hw::kDiagExitPort, kR0);
  a.hlt();

  a.align(8);
  a.label("idt");
  for (u32 v = 0; v < guest::kIdtEntries; ++v) {
    a.data_ref(l(v == guest::kVecTimer ? "isr_timer" : "panic"));
    a.data32(cpu::Gate{0, true, 0, 0}.pack_flags());
  }
  return a.finalize();
}

/// A prepared LVMM unit with the racy guest loaded, threshold pre-set.
struct RacyRig {
  explicit RacyRig(u32 threshold)
      : unit(fleet::UnitKind::kLvmm, fleet::UnitOptions{}, 0) {
    unit.prepare(RunConfig());
    auto prog = build_racy_guest();
    prog.load(unit.machine().mem());
    unit.machine().cpu().state().pc = *prog.symbol("entry");
    unit.machine().mem().write32(kThresholdAddr, threshold);
  }

  fleet::MachineUnit unit;
};

/// Runs an unperturbed copy to completion and returns the slot the first
/// tick lands in. The simulator is deterministic, so this is a constant for
/// a given build — measured, not assumed, to keep the test robust against
/// cycle-cost tuning. Cached: every test forks from the same geometry.
u32 probe_tick_slot() {
  static const u32 slot = [] {
    RacyRig probe(/*threshold=*/0xffffffff);  // never fails
    auto& m = probe.unit.machine();
    EXPECT_EQ(m.run_until_stopped(seconds_to_cycles(0.01)), MStop::kGuestExit);
    EXPECT_EQ(m.guest_exit_code().value_or(0), guest::kExitDone);
    EXPECT_EQ(m.mem().read32(kTickSeenAddr), 1u) << "PIT tick never arrived";
    EXPECT_EQ(m.mem().read32(kFailFlagAddr), 0u);
    return m.mem().read32(kTickSlotAddr);
  }();
  return slot;
}

MultiverseConfig trap_config() {
  MultiverseConfig cfg;
  cfg.timelines = 6;
  cfg.threads = 4;
  cfg.seed = 7;
  cfg.budget = 1'200'000;
  cfg.slice = 200'000;
  cfg.max_rounds = 4;
  return cfg;  // unit/run defaults match RacyRig's construction
}

bool metrics_identical(const std::vector<MetricsRegistry::Sample>& a,
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

// ------------------------------------------------------------ calibration --

TEST(MultiverseGuest, UnperturbedTickLandsMidSlotsWithHeadroom) {
  const u32 s0 = probe_tick_slot();
  // The window needs room on both sides: early enough that a bounded delay
  // (max_irq_delay cycles / one slot's cycles ~ 20 slots) still lands
  // inside the slot region, late enough that slot zero is not ambiguous.
  EXPECT_GE(s0, 1u);
  EXPECT_LE(s0, kSlots - 26);
}

// ----------------------------------------------------------- explore path --

TEST(MultiverseExplore, ControlTimelineIsUnperturbedAndClassified) {
  RacyRig rig(probe_tick_slot() + 1);
  TimeTravel tt(*rig.unit.monitor());
  ASSERT_TRUE(tt.checkpoint_now());

  MultiverseConfig cfg = trap_config();
  cfg.timelines = 3;
  Multiverse mv(tt.checkpoints().back(), cfg);
  const auto pred = OutcomePredicate::parse("exit");
  ASSERT_TRUE(pred);

  const auto results = mv.explore(*pred);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].perturb.empty()) << "timeline 0 is the control";
  for (const TimelineResult& r : results) {
    EXPECT_EQ(r.status.stop, MStop::kGuestExit);
    EXPECT_TRUE(r.hit);  // every timeline still reaches the exit port
    EXPECT_FALSE(r.status.crashed);
    EXPECT_FALSE(r.replay_metrics.empty());
  }
  for (unsigned i = 1; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].perturb.empty());
  }
  EXPECT_EQ(mv.stats().forks, 3u);
  EXPECT_EQ(mv.stats().timelines_run, 3u);
}

// ------------------------------------------------------------- the trap --

// The acceptance scenario: a guest failure that depends on the interrupt
// arrival window; bug_trap() must return a minimal delta naming exactly the
// timer line, and the winning timeline must replay bit-identically.
TEST(MultiverseBugTrap, IsolatesTimerDelayToAOneKnobDelta) {
  RacyRig rig(probe_tick_slot() + 1);
  TimeTravel tt(*rig.unit.monitor());
  ASSERT_TRUE(tt.checkpoint_now());
  ASSERT_GT(tt.checkpoints().back().mem.resident_pages(), 0u)
      << "delta checkpoint should carry the memory image as COW frames";

  const auto pred = OutcomePredicate::parse(kFailPredicate);
  ASSERT_TRUE(pred);
  EXPECT_EQ(pred->addr, kFailFlagAddr);
  EXPECT_EQ(pred->value, kFailValue);

  Multiverse mv(tt.checkpoints().back(), trap_config());
  const auto trap = mv.bug_trap(*pred);

  EXPECT_FALSE(trap.baseline_hit)
      << "the unperturbed control must not fire the predicate";
  ASSERT_TRUE(trap.found) << "no drawn perturbation flipped the predicate in "
                          << trap.rounds << " rounds";
  EXPECT_TRUE(trap.verified);
  EXPECT_GE(trap.rounds, 1u);

  // The minimal delta is exactly the interrupt-arrival knob on the timer
  // line: every other knob this guest never exercises must be shed.
  EXPECT_EQ(trap.minimal.knob_count(), 1u)
      << "minimal delta not 1-minimal: " << trap.minimal.describe();
  EXPECT_GT(trap.minimal.irq_delay[0], 0u)
      << "minimal delta should blame IRQ0, got " << trap.minimal.describe();
  EXPECT_TRUE(trap.failing.hit);

  // Replay the winning timeline twice more: bit-identical replay-exact
  // metrics, and the failure flag set both times.
  const auto replays = mv.run_batch({trap.minimal, trap.minimal}, *pred);
  ASSERT_EQ(replays.size(), 2u);
  EXPECT_TRUE(replays[0].hit);
  EXPECT_TRUE(replays[1].hit);
  ASSERT_FALSE(replays[0].replay_metrics.empty());
  EXPECT_TRUE(metrics_identical(replays[0].replay_metrics,
                                replays[1].replay_metrics))
      << "forked timeline did not replay bit-identically";

  EXPECT_GE(mv.stats().predicate_hits, 3u);
  EXPECT_EQ(mv.stats().verify_passes, 1u);

  MetricsRegistry reg;
  mv.register_metrics(reg);
  bool saw = false;
  for (const auto& s : reg.snapshot()) {
    ASSERT_EQ(s.name.rfind("vmm.multiverse.", 0), 0u);
    if (s.name == "vmm.multiverse.forks") {
      saw = true;
      EXPECT_GT(s.value, 0u);
    }
  }
  EXPECT_TRUE(saw);
}

// ------------------------------------------------ end-to-end over RSP --

TEST(MultiverseRsp, ForkAndBugTrapOverTheWire) {
  RacyRig rig(probe_tick_slot() + 1);
  vmm::DebugStub* stub = rig.unit.attach_stub();
  ASSERT_NE(stub, nullptr);
  TimeTravel tt(*rig.unit.monitor());
  stub->set_time_travel(&tt);
  MultiverseService svc(*stub, tt, trap_config());

  RemoteDebugger dbg(rig.unit.machine());
  // Freeze the guest first: every transaction pumps the machine, and this
  // guest exits within one pump slice. A frozen guest is also the realistic
  // fork point — the debugger stops somewhere, then branches timelines.
  ASSERT_NE(dbg.interrupt(), RemoteDebugger::StopKind::kError);
  ASSERT_TRUE(rig.unit.monitor()->guest_frozen());
  ASSERT_TRUE(dbg.connect());

  const auto forks = dbg.fork_timelines(3, /*seed=*/11, "exit");
  ASSERT_TRUE(forks) << "qVdbg.Multiverse returned an error";
  ASSERT_EQ(forks->size(), 3u);
  EXPECT_EQ((*forks)[0].perturb, "none");
  EXPECT_EQ((*forks)[0].stop, "exit");
  EXPECT_TRUE((*forks)[0].hit);
  for (const auto& f : *forks) EXPECT_EQ(f.stop, "exit");
  EXPECT_NE((*forks)[1].perturb, "none");

  const auto report = dbg.bug_trap(kFailPredicate, 6, /*seed=*/7, 4);
  ASSERT_TRUE(report) << "qVdbg.BugTrap returned an error";
  EXPECT_FALSE(report->baseline_hit);
  ASSERT_TRUE(report->found);
  EXPECT_TRUE(report->verified);
  EXPECT_NE(report->minimal.find("irq0+"), std::string::npos)
      << "minimal delta over the wire: " << report->minimal;
  const auto parsed = Perturbation::parse(report->minimal);
  ASSERT_TRUE(parsed) << report->minimal;
  EXPECT_EQ(parsed->knob_count(), 1u);
  EXPECT_GE(svc.stats().timelines_run, 4u);
}

// Service stacking: queries the hook does not recognise still reach the
// stub's built-in handlers (the hook must not shadow them).
TEST(MultiverseRsp, UnrelatedQueriesFallThroughTheHook) {
  RacyRig rig(probe_tick_slot() + 1);
  vmm::DebugStub* stub = rig.unit.attach_stub();
  ASSERT_NE(stub, nullptr);
  TimeTravel tt(*rig.unit.monitor());
  stub->set_time_travel(&tt);
  tt.register_metrics(rig.unit.metrics());
  MultiverseService svc(*stub, tt, trap_config());

  RemoteDebugger dbg(rig.unit.machine());
  ASSERT_NE(dbg.interrupt(), RemoteDebugger::StopKind::kError);
  ASSERT_TRUE(dbg.connect());
  EXPECT_TRUE(dbg.take_checkpoint());
  EXPECT_EQ(dbg.metric("vmm.tt.ring_depth").value_or(0), 1.0);
}

// Forks branch from the program's real state: a breakpoint armed where the
// fork is taken is debugger state, not guest memory, so no timeline
// inherits it. A breakpoint patched into guest text would ride the
// checkpoint into every fork's timer ISR and panic it on #BP (mailbox
// last_error 3).
TEST(MultiverseRsp, ForksDoNotInheritDebuggerBreakpoints) {
  const RunConfig rc = RunConfig::for_rate_mbps(40.0);
  fleet::MachineUnit unit(fleet::UnitKind::kLvmm, fleet::UnitOptions{}, 0);
  unit.prepare(rc);
  vmm::DebugStub* stub = unit.attach_stub();
  ASSERT_NE(stub, nullptr);
  TimeTravel tt(*unit.monitor());
  stub->set_time_travel(&tt);
  RemoteDebugger dbg(unit.machine());
  dbg.add_symbols(unit.image().kernel);
  ASSERT_TRUE(dbg.connect());
  unit.machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(dbg.interrupt(), RemoteDebugger::StopKind::kBreak);

  const auto isr_timer = dbg.lookup("isr_timer");
  ASSERT_TRUE(isr_timer);
  ASSERT_TRUE(dbg.set_breakpoint(*isr_timer));
  ASSERT_TRUE(tt.checkpoint_now());

  MultiverseConfig cfg;
  cfg.timelines = 2;
  cfg.threads = 2;
  cfg.budget = seconds_to_cycles(0.005);  // a handful of 1 ms timer ticks
  cfg.slice = seconds_to_cycles(0.001);
  cfg.run = rc;
  Multiverse mv(tt.checkpoints().back(), cfg);
  char panic_on_bp[48];
  std::snprintf(panic_on_bp, sizeof panic_on_bp, "mailbox:%x=%x",
                guest::kMailboxBase + guest::Mailbox::kLastError,
                u32{cpu::kVecBreakpoint});
  const auto pred = OutcomePredicate::parse(panic_on_bp);
  ASSERT_TRUE(pred);

  const auto results = mv.explore(*pred);
  ASSERT_EQ(results.size(), 2u);
  for (const TimelineResult& r : results) {
    EXPECT_FALSE(r.hit) << "timeline " << r.perturb.describe()
                        << " panicked on the debugger's breakpoint";
    EXPECT_FALSE(r.status.crashed);
  }
}

// Forks branch from the program's real state: a watchpoint armed where the
// fork is taken is debugger state, so no timeline inherits it. Two sessions
// stop at the same point and arm one watch each with a same-length Z2 (so
// the stub charges both the same): one on an unwritten word of the busy
// mailbox page, one on a page the guest never touches. Their forks must
// run identically.
TEST(MultiverseRsp, ForksDoNotInheritDebuggerWatchpoints) {
  const RunConfig rc = RunConfig::for_rate_mbps(40.0);
  std::vector<std::vector<TimelineResult>> runs;
  for (const u32 watch_va : {0x1f00u, 0x5f00u}) {
    fleet::MachineUnit unit(fleet::UnitKind::kLvmm, fleet::UnitOptions{}, 0);
    unit.prepare(rc);
    vmm::DebugStub* stub = unit.attach_stub();
    ASSERT_NE(stub, nullptr);
    TimeTravel tt(*unit.monitor());
    stub->set_time_travel(&tt);
    RemoteDebugger dbg(unit.machine());
    ASSERT_TRUE(dbg.connect());
    unit.machine().run_for(seconds_to_cycles(0.02));
    ASSERT_EQ(dbg.interrupt(), RemoteDebugger::StopKind::kBreak);
    ASSERT_TRUE(dbg.set_watchpoint(watch_va, 4));
    ASSERT_TRUE(tt.checkpoint_now());

    MultiverseConfig cfg;
    cfg.timelines = 2;
    cfg.threads = 2;
    cfg.budget = seconds_to_cycles(0.005);
    cfg.slice = seconds_to_cycles(0.001);
    cfg.run = rc;
    Multiverse mv(tt.checkpoints().back(), cfg);
    const auto pred = OutcomePredicate::parse("frozen");
    ASSERT_TRUE(pred);
    runs.push_back(mv.explore(*pred));
    ASSERT_EQ(runs.back().size(), 2u);
  }
  const auto pf_exits = [](const TimelineResult& r) {
    for (const auto& s : r.replay_metrics) {
      if (s.name == "vmm.exit_pf.count") return s.value;
    }
    ADD_FAILURE() << "no vmm.exit_pf.count in the timeline's metrics";
    return u64{0};
  };
  for (std::size_t i = 0; i < 2; ++i) {
    const TimelineResult& busy = runs[0][i];
    const TimelineResult& idle = runs[1][i];
    EXPECT_FALSE(busy.frozen);
    EXPECT_EQ(busy.status.icount, idle.status.icount) << "timeline " << i;
    EXPECT_EQ(busy.status.cycles, idle.status.cycles) << "timeline " << i;
    EXPECT_EQ(pf_exits(busy), pf_exits(idle)) << "timeline " << i;
  }
}

}  // namespace
}  // namespace vdbg::test
