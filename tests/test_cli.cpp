// Scripted sessions through the debugger CLI, asserting on its transcript.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "debug/cli.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"
#include "vmm/trace.h"

namespace vdbg::test {
namespace {

struct CliRig {
  CliRig() {
    platform = std::make_unique<harness::Platform>(
        harness::PlatformKind::kLvmm);
    platform->prepare(guest::RunConfig::for_rate_mbps(40.0));
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart(),
                                            platform->metrics());
    stub->attach();
    platform->monitor()->set_tracer(&tracer);
    dbg = std::make_unique<debug::RemoteDebugger>(platform->machine());
    dbg->add_symbols(platform->image().kernel);
    dbg->add_symbols(platform->image().app);
    dbg->connect();
    cli = std::make_unique<debug::DebuggerCli>(*dbg, platform->machine(),
                                               out);
  }

  std::string run_script(const std::string& script) {
    std::istringstream in(script);
    cli->run(in);
    return out.str();
  }

  std::unique_ptr<harness::Platform> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<debug::RemoteDebugger> dbg;
  vmm::ExitTracer tracer;
  std::unique_ptr<debug::DebuggerCli> cli;
  std::ostringstream out;
};

/// The % column of every row a `profile` command printed.
std::vector<double> profile_shares(const std::string& transcript) {
  std::vector<double> out;
  std::istringstream is(transcript);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("  0x") == std::string::npos) continue;
    std::istringstream row(line);
    u64 samples = 0;
    double share = 0.0;
    row >> samples >> share;
    out.push_back(share);
  }
  return out;
}

TEST(Cli, HelpAndUnknownCommand) {
  CliRig rig;
  const auto t = rig.run_script("help\nbogus\n");
  EXPECT_NE(t.find("commands:"), std::string::npos);
  EXPECT_NE(t.find("unknown command: bogus"), std::string::npos);
}

TEST(Cli, ExitsSummaryLeadsWithExecutionTier) {
  CliRig rig;
  const auto t = rig.run_script("run 10\nexits\n");
  EXPECT_NE(t.find("tier: superblock"), std::string::npos);
  EXPECT_NE(t.find("kind"), std::string::npos);
}

// `profile n` shows each PC's share of every sample taken, not of the n
// rows it fetched.
TEST(Cli, ProfileSharesAreOfEverySample) {
  CliRig rig;
  rig.run_script("run 20\nprofile start 1000\nc 5\nint\n");
  ASSERT_GT(rig.platform->machine().cpu().profiler().hist().size(), 3u);
  rig.out.str("");
  const auto one = profile_shares(rig.run_script("profile 1\n"));
  rig.out.str("");
  const auto three = profile_shares(rig.run_script("profile 3\n"));

  ASSERT_EQ(one.size(), 1u);
  EXPECT_LT(one[0], 100.0);
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[0], one[0]);
  EXPECT_LT(three[0] + three[1] + three[2], 100.0);
}

TEST(Cli, RunAdvancesSimulatedTime) {
  CliRig rig;
  const auto t = rig.run_script("run 10\n");
  EXPECT_NE(t.find("advanced 10 ms"), std::string::npos);
  EXPECT_GE(rig.platform->machine().now(), seconds_to_cycles(0.010));
}

TEST(Cli, InterruptRegsAndSymbolisedPc) {
  CliRig rig;
  const auto t = rig.run_script("run 20\nint\nregs\n");
  EXPECT_NE(t.find("stopped at pc=0x"), std::string::npos);
  EXPECT_NE(t.find("pc="), std::string::npos);
  EXPECT_NE(t.find("cpl="), std::string::npos);
}

TEST(Cli, BreakpointBySymbolHitsAndClears) {
  CliRig rig;
  const auto t = rig.run_script(
      "run 20\nbreak isr_timer\nc\ndelete isr_timer\nc 1\n");
  EXPECT_NE(t.find("breakpoint set"), std::string::npos);
  EXPECT_NE(t.find("(isr_timer)"), std::string::npos);
  EXPECT_NE(t.find("breakpoint cleared"), std::string::npos);
}

TEST(Cli, MemoryDumpShowsMailboxMagic) {
  CliRig rig;
  const auto t = rig.run_script("run 20\nint\nx 0x1000 16\n");
  EXPECT_NE(t.find("iniM"), std::string::npos);  // "Mini" little-endian
}

TEST(Cli, WriteMemoryRoundTrip) {
  CliRig rig;
  const auto t =
      rig.run_script("run 20\nint\nw32 0x700000 0xfeedbeef\nx 0x700000 4\n");
  EXPECT_NE(t.find("ef be ed fe"), std::string::npos);
}

TEST(Cli, WatchpointStopsAndReports) {
  CliRig rig;
  const auto t = rig.run_script("run 25\nwatch 0x1004\nc\nstatus\n");
  EXPECT_NE(t.find("watchpoint set"), std::string::npos);
  EXPECT_NE(t.find("(watchpoint at 0x1004)"), std::string::npos);
  EXPECT_NE(t.find("watch:1004"), std::string::npos);
  EXPECT_NE(t.find("monitor:   intact"), std::string::npos);
}

TEST(Cli, TraceOnShowProducesEvents) {
  CliRig rig;
  const auto t = rig.run_script("trace on\nrun 10\ntrace show 4\n");
  EXPECT_NE(t.find("pc="), std::string::npos);
}

TEST(Cli, DisasAtSymbol) {
  CliRig rig;
  const auto t = rig.run_script("disas entry 2\n");
  EXPECT_NE(t.find("movi sp"), std::string::npos);
}

TEST(Cli, SetRegisterTakesEffect) {
  CliRig rig;
  rig.run_script("run 20\nint\nset r3 0xabcd\n");
  EXPECT_EQ(rig.dbg->read_registers()->r[3], 0xabcdu);
}

TEST(Cli, SymResolvesAndQuitStops) {
  CliRig rig;
  std::istringstream in("sym isr_nic\nquit\nregs\n");
  rig.cli->run(in);
  const auto t = rig.out.str();
  EXPECT_NE(t.find("isr_nic = 0x"), std::string::npos);
  // "regs" after quit must not have run.
  EXPECT_EQ(t.find("cpl="), std::string::npos);
}

TEST(Cli, SymbolPlusOffsetAddressing) {
  CliRig rig;
  const auto t = rig.run_script("run 20\nint\ndisas entry+0x8 1\n");
  EXPECT_NE(t.find("call"), std::string::npos);  // entry+8 is `call pic_init`
}

}  // namespace
}  // namespace vdbg::test
