// Interactive remote-debugger shell against a live MiniTactix under the
// lightweight monitor.
//
//   ./debugger_cli            reads commands from stdin (pipe a script, or
//                             type interactively; `help` lists commands)
//   ./debugger_cli --demo     runs a canned transcript that exercises
//                             breakpoints, watchpoints, reverse execution,
//                             tracing, the replayable window and memory,
//                             checks every reply it expects, and exits
//                             non-zero on a mismatch
//
// The target streams the paper's disk->UDP workload at 60 Mbps the whole
// time — debug it live, as the paper intends.
#include <iostream>
#include <sstream>
#include <string>

#include "common/units.h"
#include "debug/cli.h"
#include "fleet/multiverse.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/flight_loop.h"
#include "vmm/flight_recorder.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"
#include "vmm/trace.h"

using namespace vdbg;

namespace {

/// One command of the --demo session and a piece of text its reply must
/// contain (nullptr: any reply).
struct DemoStep {
  const char* command;
  const char* expect;
};

constexpr const char* kWatchStop = "(watchpoint at 0x1004)";

constexpr DemoStep kDemo[] = {
    {"run 30", "advanced 30 ms"},
    {"int", "stopped at pc="},
    {"regs", nullptr},
    {"disas", nullptr},
    {"break isr_nic", "breakpoint set"},
    {"c", "stopped at pc="},
    {"regs", nullptr},
    {"delete isr_nic", "breakpoint cleared"},
    {"x 0x1000 48", nullptr},
    {"watch 0x1004", "watchpoint set"},
    {"c", kWatchStop},
    {"c", kWatchStop},
    {"reverse-step", "stopped at pc="},  // the instruction before the store
    {"regs", nullptr},
    {"s", kWatchStop},
    {"reverse-continue", kWatchStop},
    {"unwatch 0x1004", "watchpoint cleared"},
    {"c 1", nullptr},
    {"trace on", "ok"},
    {"run 5", "advanced 5 ms"},
    {"trace show 6", nullptr},
    {"run 20", "advanced 20 ms"},
    {"window", "replayable window"},
    {"status", "crashed:   no"},
    {"quit", nullptr},
};

/// Runs kDemo, echoing a transcript to stdout. True when every reply holds
/// its expected text and no line reports an error.
bool run_demo(debug::DebuggerCli& cli, std::ostringstream& out) {
  bool ok = true;
  for (const DemoStep& step : kDemo) {
    out.str("");
    cli.execute(step.command);
    const std::string reply = out.str();
    std::cout << "(vdbg) " << step.command << "\n" << reply;
    const bool error = reply.rfind("error:", 0) == 0 ||
                       reply.find("\nerror:") != std::string::npos;
    const bool missing =
        step.expect && reply.find(step.expect) == std::string::npos;
    if (error || missing) {
      std::cerr << "demo: '" << step.command << "' did not reply with '"
                << (step.expect ? step.expect : "no error") << "'\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Platform platform(harness::PlatformKind::kLvmm);
  platform.prepare(guest::RunConfig::for_rate_mbps(60.0));

  vmm::DebugStub stub(*platform.monitor(), platform.machine().uart(),
                       platform.metrics());
  stub.attach();
  vmm::ExitTracer tracer;
  platform.monitor()->set_tracer(&tracer);

  // Continuous capture behind the live position answers `profile`,
  // `history` and `window`.
  vmm::FlightLoop flight_loop(*platform.monitor());
  flight_loop.set_metrics(&platform.metrics());
  flight_loop.register_metrics(platform.metrics());
  flight_loop.arm();
  stub.set_flight_loop(&flight_loop);

  // Periodic checkpoints make the reverse-continue / reverse-step commands
  // available (the stub anchors extra checkpoints at every resume).
  vmm::TimeTravel tt(*platform.monitor());
  stub.set_time_travel(&tt);
  tt.register_metrics(platform.metrics());
  tt.enable();

  // `multiverse <k>` / `bugtrap <pred>` fork perturbed COW timelines from
  // a checkpoint taken at the current stop and run them on fleet workers.
  fleet::MultiverseConfig mvcfg;
  mvcfg.run = guest::RunConfig::for_rate_mbps(60.0);
  fleet::MultiverseService multiverse(stub, tt, mvcfg);

  // `dump` writes a flight bundle through this over the wire.
  vmm::FlightRecorder::Config fc;
  fc.file_prefix = "debugger-cli-flight";
  vmm::FlightRecorder flight(*platform.monitor(), fc);
  flight.set_metrics(&platform.metrics());
  stub.set_flight_recorder(&flight);

  debug::RemoteDebugger dbg(platform.machine());
  dbg.add_symbols(platform.image().kernel);
  dbg.add_symbols(platform.image().app);
  if (!dbg.connect()) {
    std::cerr << "stub did not answer\n";
    return 1;
  }
  std::cout << "connected to MiniTactix under the LVMM (streaming at "
               "60 Mbps). Type 'help'.\n";

  if (argc > 1 && std::string(argv[1]) == "--demo") {
    std::ostringstream out;
    debug::DebuggerCli cli(dbg, platform.machine(), out);
    return run_demo(cli, out) ? 0 : 1;
  }
  debug::DebuggerCli cli(dbg, platform.machine(), std::cout);
  cli.run(std::cin, /*echo=*/false);
  return 0;
}
