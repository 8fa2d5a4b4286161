// Fleet sharding tests (DESIGN.md §10): per-machine determinism under
// thread placement, metrics rollup aggregation, the health monitor's
// sick-machine latching + flight-recorder quarantine, the multiplexed RSP
// server's per-machine session routing, and machine-tagged logging.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/units.h"
#include "fleet/fleet.h"
#include "fleet/server.h"
#include "guest/minitactix.h"
#include "harness/platform.h"

namespace vdbg::test {
namespace {

namespace fs = std::filesystem;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using MStop = hw::Machine::StopReason;

// ------------------------------------------------------------ determinism --

// The fleet contract: a machine's simulated timeline does not depend on
// thread placement or slice pumping. Two fleet machines sharded across two
// workers must finish bit-identical to each other AND to the same guest
// run solo through harness::Platform — every replay-exact metric and every
// guest mailbox field.
TEST(FleetDeterminism, TwoShardedMachinesMatchSoloRunBitForBit) {
  const RunConfig rc = RunConfig::for_rate_mbps(40.0);
  const Cycles budget = seconds_to_cycles(0.03);

  // Solo reference. Stub attach is a guest-visible UART register write, so
  // the solo run attaches one too (the fleet attaches by default).
  Platform solo(PlatformKind::kLvmm);
  solo.prepare(rc);
  ASSERT_NE(solo.unit().attach_stub(), nullptr);
  ASSERT_EQ(solo.machine().run_for(budget), MStop::kBudget);
  const auto want = solo.metrics().snapshot(/*replay_exact_only=*/true);
  const auto want_mb = solo.mailbox();
  ASSERT_GT(want.size(), 20u);
  ASSERT_GT(want_mb.segments_sent, 0u);

  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 2;
  fc.kind = fleet::UnitKind::kLvmm;
  fc.run = rc;
  fc.budget = budget;
  fc.slice = 2'000'000;  // ~19 pump boundaries inside the budget
  fleet::Fleet fleet(fc);
  const auto statuses = fleet.run();

  ASSERT_EQ(statuses.size(), 2u);
  for (unsigned i = 0; i < 2; ++i) {
    SCOPED_TRACE("machine " + std::to_string(i));
    EXPECT_TRUE(statuses[i].done);
    EXPECT_FALSE(statuses[i].crashed);
    EXPECT_EQ(statuses[i].stop, MStop::kBudget);
    EXPECT_EQ(statuses[i].icount, solo.machine().cpu().stats().instructions);

    const auto got =
        fleet.unit(i).metrics().snapshot(/*replay_exact_only=*/true);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k], want[k])
          << "metric '" << want[k].name << "' diverged from the solo run";
    }

    const auto mb = fleet.unit(i).mailbox();
    EXPECT_EQ(mb.ticks, want_mb.ticks);
    EXPECT_EQ(mb.segments_sent, want_mb.segments_sent);
    EXPECT_EQ(mb.bytes_sent, want_mb.bytes_sent);
    EXPECT_EQ(mb.disk_reads, want_mb.disk_reads);
    EXPECT_EQ(mb.seq, want_mb.seq);
    EXPECT_EQ(mb.syscalls, want_mb.syscalls);
    EXPECT_EQ(mb.underruns, want_mb.underruns);
  }
}

// ----------------------------------------------------------------- rollup --

TEST(FleetRollup, AggregatesPerMachineSnapshotsIntoTotals) {
  fleet::FleetConfig fc;
  fc.machines = 3;
  fc.threads = 2;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.01);
  fleet::Fleet fleet(fc);
  fleet.run();

  const auto roll = fleet.rollup();
  auto find = [&roll](const std::string& name) -> const MetricsRegistry::Sample* {
    for (const auto& s : roll) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };

  const auto* machines = find("fleet.rollup.machines");
  const auto* done = find("fleet.rollup.machines_done");
  const auto* crashed = find("fleet.rollup.machines_crashed");
  ASSERT_NE(machines, nullptr);
  ASSERT_NE(done, nullptr);
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(machines->value, 3u);
  EXPECT_EQ(done->value, 3u);
  EXPECT_EQ(crashed->value, 0u);

  // Every machine contributes a prefixed copy of each metric, and the
  // fleet.total counter is their exact sum.
  u64 sum = 0;
  for (unsigned i = 0; i < 3; ++i) {
    const auto* per = find("fleet.machine" + std::to_string(i) +
                           ".cpu.core.instructions");
    ASSERT_NE(per, nullptr) << "machine " << i;
    EXPECT_GT(per->value, 0u);
    sum += per->value;
  }
  const auto* total = find("fleet.total.cpu.core.instructions");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, sum);
  EXPECT_TRUE(total->replay_exact);

  // The per-machine section covers the whole snapshot, and each metric has
  // exactly one fleet.total row.
  const std::size_t snap_size = fleet.published(0).size();
  ASSERT_GT(snap_size, 0u);
  std::size_t total_rows = 0;
  for (const auto& s : roll) {
    if (s.name.rfind("fleet.total.", 0) == 0) ++total_rows;
  }
  EXPECT_EQ(total_rows, snap_size);
  EXPECT_EQ(roll.size(), 4u + 3u * snap_size + snap_size);
}

// Before run() there are no published snapshots: the rollup degrades to
// exactly the four fleet.rollup.* counters (the "empty fleet" shape — no
// per-machine rows, no totals).
TEST(FleetRollup, EmptyFleetRollsUpToJustTheFleetCounters) {
  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 1;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.005);
  fleet::Fleet fleet(fc);

  const auto roll = fleet.rollup();
  ASSERT_EQ(roll.size(), 4u);
  EXPECT_EQ(roll[0].name, "fleet.rollup.machines");
  EXPECT_EQ(roll[0].value, 2u);
  EXPECT_EQ(roll[1].name, "fleet.rollup.machines_done");
  EXPECT_EQ(roll[1].value, 0u);
  EXPECT_EQ(roll[2].name, "fleet.rollup.machines_crashed");
  EXPECT_EQ(roll[2].value, 0u);
  EXPECT_EQ(roll[3].name, "fleet.rollup.machines_sick");
  EXPECT_EQ(roll[3].value, 0u);
}

// A single-machine fleet's totals must be the machine's own values
// verbatim: a sum over one machine, a gauge "average" of one contributor,
// a histogram merge with nothing to merge.
TEST(FleetRollup, SingleMachineTotalsEqualTheMachineVerbatim) {
  fleet::FleetConfig fc;
  fc.machines = 1;
  fc.threads = 1;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.01);
  fleet::Fleet fleet(fc);
  fleet.run();

  const auto snap = fleet.published(0);
  ASSERT_FALSE(snap.empty());
  const auto roll = fleet.rollup();
  auto find = [&roll](const std::string& name) -> const MetricsRegistry::Sample* {
    for (const auto& s : roll) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };

  for (const auto& s : snap) {
    const auto* tot = find("fleet.total." + s.name);
    ASSERT_NE(tot, nullptr) << s.name;
    EXPECT_EQ(tot->kind, s.kind) << s.name;
    EXPECT_EQ(tot->replay_exact, s.replay_exact) << s.name;
    EXPECT_EQ(tot->value, s.value) << s.name;
    EXPECT_EQ(tot->number, s.number) << s.name;
    EXPECT_EQ(tot->buckets, s.buckets) << s.name;
  }
}

// Hand-computed merge rules over a real two-machine run: every histogram
// total is the element-wise bucket sum, every gauge total is the plain
// average of the per-machine values.
TEST(FleetRollup, HistogramsMergeElementWiseAndGaugesAverage) {
  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 2;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.01);
  fleet::Fleet fleet(fc);
  fleet.run();

  const auto a = fleet.published(0);
  const auto b = fleet.published(1);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  const auto roll = fleet.rollup();
  auto find = [&roll](const std::string& name) -> const MetricsRegistry::Sample* {
    for (const auto& s : roll) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };

  std::size_t histograms = 0;
  std::size_t gauges = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].name, b[k].name) << "registration order diverged";
    const auto* tot = find("fleet.total." + a[k].name);
    ASSERT_NE(tot, nullptr) << a[k].name;
    if (a[k].kind == MetricKind::kHistogram) {
      ++histograms;
      // Element-wise bucket sum, hand-computed from the two snapshots.
      std::vector<u32> want = a[k].buckets;
      if (want.size() < b[k].buckets.size()) {
        want.resize(b[k].buckets.size(), 0);
      }
      for (std::size_t i = 0; i < b[k].buckets.size(); ++i) {
        want[i] += b[k].buckets[i];
      }
      EXPECT_EQ(tot->buckets, want) << a[k].name;
    } else if (a[k].kind == MetricKind::kGauge) {
      ++gauges;
      EXPECT_DOUBLE_EQ(tot->number, (a[k].number + b[k].number) / 2.0)
          << a[k].name;
    }
  }
  // The guest workload under the monitor exercises both kinds; a zero here
  // means the registration sets changed and the test lost its teeth.
  EXPECT_GT(histograms, 0u);
  EXPECT_GT(gauges, 0u);
}

// ----------------------------------------------------------------- health --

TEST(FleetHealth, LatchesSickMachinesAndArmsFlightRecorders) {
  const fs::path dir = fs::temp_directory_path() / "vdbg_fleet_health";
  fs::remove_all(dir);
  fs::create_directories(dir);

  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 1;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.01);
  // Absurd ceiling: any monitor overhead at all counts as pathological, so
  // every machine gets flagged on the first deterministic pass.
  fc.health.max_cycles_per_exit = 0.001;
  fc.health.min_exits = 1;
  fc.health.arm_flight_recorder = true;
  fc.health.flight_dir = dir.string();
  fleet::Fleet fleet(fc);
  fleet.run();

  const auto fresh = fleet.health().check_now();
  ASSERT_EQ(fresh.size(), 2u);
  for (const auto& e : fresh) {
    EXPECT_NE(e.reason.find("cycles/exit over ceiling"), std::string::npos)
        << e.reason;
  }
  EXPECT_TRUE(fleet.status(0).sick);
  EXPECT_TRUE(fleet.status(1).sick);

  // Quarantine: each sick machine has a FlightRecorder armed and an
  // evidence bundle already dumped into the policy directory.
  for (unsigned i = 0; i < 2; ++i) {
    auto* fr = fleet.unit(i).flight_recorder();
    ASSERT_NE(fr, nullptr) << "machine " << i;
    EXPECT_GE(fr->dumps(), 1u);
  }
  std::size_t bundles = 0;
  for (const auto& ent : fs::directory_iterator(dir)) {
    if (ent.path().filename().string().rfind("fleet-m", 0) == 0) ++bundles;
  }
  EXPECT_GE(bundles, 2u);

  // The latch is idempotent: a second pass flags nothing new, and the
  // event log keeps the originals.
  EXPECT_TRUE(fleet.health().check_now().empty());
  EXPECT_EQ(fleet.health().events().size(), 2u);

  fs::remove_all(dir);
}

TEST(FleetHealth, PollingThreadTicksWithoutFlaggingHealthyMachines) {
  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 2;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.005);
  fc.health.poll_interval_ms = 1;  // thresholds all 0: nothing can be flagged
  fleet::Fleet fleet(fc);

  fleet.health().start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.health().polls() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fleet.run();
  fleet.health().stop();

  EXPECT_GT(fleet.health().polls(), 0u);
  EXPECT_TRUE(fleet.health().events().empty());
  EXPECT_FALSE(fleet.status(0).sick);
  EXPECT_FALSE(fleet.status(1).sick);
}

// ----------------------------------------------------------------- server --

/// Minimal blocking TCP client with a receive deadline.
struct TcpClient {
  int fd = -1;
  std::string buf;

  bool connect_to(u16 port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    timeval tv{};
    tv.tv_usec = 100'000;  // 100 ms recv timeout; callers loop on a deadline
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  bool send_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd, bytes.data(), bytes.size(), 0);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Reads until `token` appears in the accumulated buffer (or 30 s pass).
  bool read_until(const std::string& token) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (buf.find(token) == std::string::npos) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      char tmp[4096];
      const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
      if (n > 0) buf.append(tmp, static_cast<std::size_t>(n));
      if (n == 0) return false;
    }
    return true;
  }

  ~TcpClient() {
    if (fd >= 0) ::close(fd);
  }
};

std::string rsp_frame(const std::string& payload) {
  unsigned sum = 0;
  for (char c : payload) sum += static_cast<u8>(c);
  char trailer[4];
  std::snprintf(trailer, sizeof trailer, "#%02x", sum & 0xffu);
  return "$" + payload + trailer;
}

TEST(FleetServer, RoutesSessionsToMachinesBehindOneListener) {
  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 2;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(5.0);  // bounded below by request_stop_all
  fc.slice = 500'000;                  // tight pump for low attach latency
  fleet::Fleet fleet(fc);

  fleet::FleetServer server(fleet);
  if (!server.start()) {
    GTEST_SKIP() << "cannot bind a loopback TCP socket in this environment";
  }
  ASSERT_NE(server.port(), 0u);
  std::thread runner([&fleet] { fleet.run(); });

  // Session A: attach to machine 1, break in, query the icount.
  TcpClient a;
  bool ok = a.connect_to(server.port());
  std::string reply;
  if (ok) {
    ok = a.send_all("attach 1\n") && a.read_until("OK 1\n");
  }
  if (ok) {
    const std::string breakin(1, '\x03');
    ok = a.send_all(breakin +
                    rsp_frame("qVdbg.Metrics,cpu.core.instructions")) &&
         a.read_until("#");
    // Skip past the stop packet to the query reply if both arrived framed.
    const auto q = a.buf.rfind('$');
    const auto h = a.buf.find('#', q == std::string::npos ? 0 : q);
    if (q != std::string::npos && h != std::string::npos) {
      reply = a.buf.substr(q + 1, h - q - 1);
    }
  }

  // Bad attach lines are rejected without touching any machine.
  TcpClient bad;
  bool bad_ok = bad.connect_to(server.port()) && bad.send_all("attach 99\n") &&
                bad.read_until("ERR");

  // A second session for an already-attached machine is refused.
  TcpClient busy;
  bool busy_ok = busy.connect_to(server.port()) &&
                 busy.send_all("attach 1\n") && busy.read_until("ERR");

  // Bound the wall clock before asserting anything.
  fleet.request_stop_all();
  runner.join();
  server.stop();

  EXPECT_TRUE(ok) << "session bytes so far: " << a.buf;
  EXPECT_FALSE(reply.empty());
  // The stop packet, or the icount reply when both arrived framed.
  const std::string icount = "cpu.core.instructions=c:";
  const std::string payload =
      reply.rfind(icount, 0) == 0 ? reply.substr(icount.size()) : reply;
  EXPECT_EQ(payload.find_first_not_of("0123456789abcdefABCDEF+$TS:;"),
            std::string::npos)
      << "unexpected reply payload: " << reply;
  EXPECT_TRUE(bad_ok);
  EXPECT_TRUE(busy_ok);
  EXPECT_GE(server.sessions_accepted(), 3u);
  EXPECT_GT(server.bytes_in(), 0u);
  EXPECT_GT(server.bytes_out(), 0u);
}

TEST(FleetServer, TopIsAOneShotFleetTableBeforeAttach) {
  fleet::FleetConfig fc;
  fc.machines = 2;
  fc.threads = 2;
  fc.run = RunConfig::for_rate_mbps(40.0);
  fc.budget = seconds_to_cycles(0.02);
  fc.slice = 500'000;
  fleet::Fleet fleet(fc);

  fleet::FleetServer server(fleet);
  if (!server.start()) {
    GTEST_SKIP() << "cannot bind a loopback TCP socket in this environment";
  }
  std::thread runner([&fleet] { fleet.run(); });

  // "top\n" instead of an attach line: one rendered table, then the
  // server closes the session (recv returns 0 -> read_until sees EOF).
  TcpClient t;
  bool ok = t.connect_to(server.port()) && t.send_all("top\n") &&
            t.read_until("FLEET machines=2");

  fleet.request_stop_all();
  runner.join();
  server.stop();

  EXPECT_TRUE(ok) << "top bytes so far: " << t.buf;
  // Header line plus one row per machine, with the column banner between.
  EXPECT_NE(t.buf.find("id state"), std::string::npos) << t.buf;
  EXPECT_NE(t.buf.find("\n   0 "), std::string::npos) << t.buf;
  EXPECT_NE(t.buf.find("\n   1 "), std::string::npos) << t.buf;
}

// ---------------------------------------------------------------- logging --

TEST(FleetLog, MachineTagPrefixesComponentPerThread) {
  struct Line {
    std::string component;
    std::string message;
  };
  static std::vector<Line> captured;
  captured.clear();
  set_log_sink([](LogLevel, std::string_view comp, std::string_view msg) {
    captured.push_back({std::string(comp), std::string(msg)});
  });

  const Logger log("fleet.test");
  log.warn("untagged");
  {
    ScopedLogMachine tag(7);
    log.warn("tagged");
    // Another thread is unaffected: the tag is thread-local.
    std::thread([&log] { log.warn("other-thread"); }).join();
  }
  log.warn("untagged-again");
  set_log_sink(nullptr);

  ASSERT_EQ(captured.size(), 4u);
  EXPECT_EQ(captured[0].component, "fleet.test");
  EXPECT_EQ(captured[1].component, "m7:fleet.test");
  EXPECT_EQ(captured[1].message, "tagged");
  EXPECT_EQ(captured[2].component, "fleet.test");
  EXPECT_EQ(captured[3].component, "fleet.test");
}

}  // namespace
}  // namespace vdbg::test
