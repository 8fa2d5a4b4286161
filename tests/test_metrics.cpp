// Metrics registry and flight recorder tests: registry semantics (naming,
// registration, snapshot/export), the qVdbg.Metrics / qVdbg.FlightDump RSP
// round trips (including malformed queries and the no-recorder error
// path), flight-recorder capture on guest crash, and the replay-exactness
// contract — a time-travel replay must reproduce every replay-exact metric
// bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/flight_recorder.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"
#include "vmm/trace.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using vmm::FlightRecorder;
using vmm::TimeTravel;
using MStop = hw::Machine::StopReason;

// ----------------------------------------------------- registry semantics --

TEST(MetricName, EnforcesLayerComponentMetric) {
  EXPECT_TRUE(valid_metric_name("vmm.exit.total"));
  EXPECT_TRUE(valid_metric_name("vmm.irqspan.arrival_to_inject.count"));
  EXPECT_TRUE(valid_metric_name("hw.scsi0.bytes_transferred"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("vmm.total"));       // two segments
  EXPECT_FALSE(valid_metric_name("vmm.exit.Total"));  // uppercase
  EXPECT_FALSE(valid_metric_name("vmm..total"));      // empty segment
  EXPECT_FALSE(valid_metric_name(".vmm.exit.total"));
  EXPECT_FALSE(valid_metric_name("vmm.exit.total."));
  EXPECT_FALSE(valid_metric_name("vmm exit total"));
}

TEST(MetricsRegistry, ReadCacheComputesOncePerRead) {
  MetricsRegistry reg;
  int passes = 0;
  u64 state = 5;
  auto cache = std::make_shared<ReadCache<u64>>(reg);
  const auto scaled = [&passes, &state, cache](u64 k) {
    return [&passes, &state, cache, k] {
      return double(k * cache->get([&] {
        ++passes;
        return state;
      }));
    };
  };
  reg.add_gauge("t.unit.x1", scaled(1));
  reg.add_gauge("t.unit.x2", scaled(2));
  reg.add_gauge("t.unit.x3", scaled(3));

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(passes, 1) << "one pass feeds every gauge of a snapshot";
  EXPECT_EQ(snap[2].number, 15.0);
  state = 7;
  EXPECT_EQ(reg.to_json(),
            "{\"t.unit.x1\":7,\"t.unit.x2\":14,\"t.unit.x3\":21}");
  EXPECT_EQ(passes, 2);
  state = 8;
  EXPECT_EQ(reg.value("t.unit.x2"), 16.0);
  EXPECT_EQ(reg.value("t.unit.x3"), 24.0);
  EXPECT_EQ(passes, 4) << "each value() is its own read";
}

TEST(MetricsRegistry, RegistersAndSnapshotsInOrder) {
  MetricsRegistry reg;
  u64 a = 7, b = 9;
  u32 hist[4] = {1, 2, 3, 4};
  EXPECT_TRUE(reg.add_counter("t.unit.a", &a));
  EXPECT_TRUE(reg.add_gauge("t.unit.ratio", [&] { return double(b) / 2; }));
  EXPECT_TRUE(reg.add_histogram("t.unit.hist", hist, 4));
  EXPECT_EQ(reg.size(), 3u);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "t.unit.a");
  EXPECT_EQ(snap[0].value, 7u);
  EXPECT_EQ(snap[1].name, "t.unit.ratio");
  EXPECT_DOUBLE_EQ(snap[1].number, 4.5);
  EXPECT_EQ(snap[2].buckets, (std::vector<u32>{1, 2, 3, 4}));

  // Counters read the live slot, not a copy.
  a = 100;
  EXPECT_DOUBLE_EQ(reg.value("t.unit.a").value(), 100.0);
  EXPECT_FALSE(reg.value("t.unit.hist").has_value());  // no scalar value
  EXPECT_FALSE(reg.value("t.unit.nope").has_value());
}

// A prefix read tests names before it reads anything: a gauge outside the
// prefix is never computed, and an empty prefix still reads everything.
TEST(MetricsRegistry, PrefixReadComputesNothingOutsideThePrefix) {
  MetricsRegistry reg;
  u64 a = 3;
  int inside = 0, outside = 0;
  ASSERT_TRUE(reg.add_counter("t.unit.a", &a));
  ASSERT_TRUE(reg.add_gauge("t.unit.g", [&] { return double(++inside); }));
  ASSERT_TRUE(reg.add_gauge("t.other.g", [&] { return double(++outside); }));

  const auto unit = reg.snapshot(false, "t.unit.");
  ASSERT_EQ(unit.size(), 2u);
  EXPECT_EQ(unit[0].name, "t.unit.a");
  EXPECT_EQ(unit[0].value, 3u);
  EXPECT_EQ(unit[1].name, "t.unit.g");
  EXPECT_TRUE(reg.snapshot(false, "t.none.").empty());
  EXPECT_EQ(inside, 1);
  EXPECT_EQ(outside, 0) << "a gauge outside the prefix was computed";

  EXPECT_EQ(reg.snapshot(false, "").size(), 3u);
  EXPECT_EQ(inside, 2);
  EXPECT_EQ(outside, 1);
}

TEST(MetricsRegistry, RejectsBadNamesDuplicatesAndNullSlots) {
  MetricsRegistry reg;
  u64 a = 0;
  EXPECT_FALSE(reg.add_counter("two.segments", &a));
  EXPECT_FALSE(reg.add_counter("t.unit.a", nullptr));
  EXPECT_FALSE(reg.add_gauge("t.unit.g", nullptr));
  EXPECT_TRUE(reg.add_counter("t.unit.a", &a));
  EXPECT_FALSE(reg.add_counter("t.unit.a", &a));  // duplicate
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, DisabledRegistryExportsNothing) {
  MetricsRegistry reg;
  u64 a = 1;
  ASSERT_TRUE(reg.add_counter("t.unit.a", &a));
  reg.set_enabled(false);
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_FALSE(reg.value("t.unit.a").has_value());
  EXPECT_EQ(reg.to_json(), "{}");
  reg.set_enabled(true);
  EXPECT_EQ(reg.snapshot().size(), 1u);
}

TEST(MetricsRegistry, JsonEscapesNothingButIsWellFormed) {
  MetricsRegistry reg;
  u64 a = 42;
  u32 hist[2] = {5, 6};
  ASSERT_TRUE(reg.add_counter("t.unit.a", &a));
  ASSERT_TRUE(reg.add_gauge("t.unit.g", [] { return 0.5; }));
  ASSERT_TRUE(reg.add_histogram("t.unit.h", hist, 2));
  EXPECT_EQ(reg.to_json(),
            "{\"t.unit.a\":42,\"t.unit.g\":0.5,\"t.unit.h\":[5,6]}");
}

// The platform registers every machine/monitor counter under one roof.
TEST(MetricsRegistry, PlatformRegistersTheWholeStack) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(40.0));
  ASSERT_NE(p.unit().arm_flight_loop({}), nullptr);  // vmm.flight.*
  ASSERT_EQ(p.machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);

  for (const char* name :
       {"cpu.core.instructions", "cpu.tlb.hit_rate", "cpu.sbc.hits",
        "cpu.sbc.enabled", "hw.pic.acks", "hw.pit.ticks", "hw.uart.tx_bytes",
        "hw.nic.frames_sent", "hw.scsi0.requests_completed",
        "hw.machine.idle_cycles", "vmm.exit.total", "vmm.vtlb.hit_rate",
        "vmm.vpic.acks", "vmm.irqspan.completed", "vmm.health.guest_crashed",
        "vmm.health.monitor_intact", "vmm.flight.window_begin"}) {
    EXPECT_TRUE(p.metrics().value(name).has_value()) << name;
  }
  EXPECT_EQ(p.metrics().value("vmm.health.guest_crashed"), 0.0);
  EXPECT_EQ(p.metrics().value("vmm.health.monitor_intact"), 1.0);
  EXPECT_EQ(p.metrics().value("cpu.sbc.enabled"), 1.0);
  EXPECT_EQ(p.metrics().value("vmm.flight.window_begin").value() +
                p.metrics().value("vmm.flight.window_instructions").value(),
            p.metrics().value("cpu.core.instructions").value());
  EXPECT_GT(p.metrics().value("vmm.exit.total").value(), 0.0);
  EXPECT_GT(p.metrics().value("cpu.core.instructions").value(), 0.0);
  // The guest ran ticks, so delivery spans completed and the vPIC acked.
  EXPECT_GT(p.metrics().value("vmm.irqspan.completed").value(), 0.0);
  EXPECT_GT(p.metrics().value("vmm.vpic.acks").value(), 0.0);
}

// ---------------------------------------------------------- RSP round trip --

struct WireRig {
  explicit WireRig(double mbps = 0.0) {
    platform = std::make_unique<Platform>(PlatformKind::kLvmm);
    platform->prepare(mbps > 0 ? RunConfig::for_rate_mbps(mbps)
                               : RunConfig());
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart(),
                                            platform->metrics());
    stub->attach();
    platform->machine().uart().set_tx_sink(
        [this](u8 b) { wire_out.push_back(static_cast<char>(b)); });
  }

  void send_packet(const std::string& payload) {
    unsigned sum = 0;
    for (char c : payload) sum += static_cast<u8>(c);
    char trailer[4];
    std::snprintf(trailer, sizeof trailer, "#%02x", sum & 0xffu);
    const std::string frame = "$" + payload + trailer;
    for (char c : frame) {
      platform->machine().uart().host_inject(static_cast<u8>(c));
    }
    platform->machine().run_for(seconds_to_cycles(0.05));
  }

  std::string last_reply() const {
    const auto dollar = wire_out.rfind('$');
    if (dollar == std::string::npos) return {};
    const auto hash = wire_out.find('#', dollar);
    if (hash == std::string::npos) return {};
    return wire_out.substr(dollar + 1, hash - dollar - 1);
  }

  std::unique_ptr<Platform> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::string wire_out;
};

TEST(MetricsRsp, MalformedPrefixQueryIsAnError) {
  WireRig rig;
  rig.send_packet("qVdbg.Metrics,");  // comma but no prefix
  EXPECT_EQ(rig.last_reply(), "E01");
}

TEST(MetricsRsp, EmptyMatchReturnsOk) {
  WireRig rig;
  rig.send_packet("qVdbg.Metrics,no.such.prefix");
  EXPECT_EQ(rig.last_reply(), "OK");
}

TEST(MetricsRsp, PrefixFilteredRoundTripMatchesRegistry) {
  WireRig rig(40.0);
  rig.platform->machine().run_for(seconds_to_cycles(0.02));

  rig.send_packet("qVdbg.Metrics,vmm.exit.");
  const std::string reply = rig.last_reply();
  ASSERT_FALSE(reply.empty());
  ASSERT_NE(reply, "E01");

  // Every reply item is name=c:value and matches the live registry. The
  // query itself runs the machine, so compare names and require the wire
  // value to be no newer than the current registry reading.
  unsigned items = 0;
  std::size_t start = 0;
  while (start < reply.size()) {
    const auto sep = reply.find(';', start);
    const std::string item = reply.substr(
        start, sep == std::string::npos ? std::string::npos : sep - start);
    const auto eq = item.find("=c:");
    ASSERT_NE(eq, std::string::npos) << item;
    const std::string name = item.substr(0, eq);
    EXPECT_EQ(name.rfind("vmm.exit.", 0), 0u) << name;
    const auto now = rig.platform->metrics().value(name);
    ASSERT_TRUE(now.has_value()) << name;
    EXPECT_LE(std::stod(item.substr(eq + 3)), *now) << name;
    ++items;
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  EXPECT_EQ(items, 11u);  // the vmm.exit.* counter family
}

TEST(MetricsRsp, RemoteDebuggerParsesMetrics) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(40.0));
  vmm::DebugStub stub(*p.monitor(), p.machine().uart(), p.metrics());
  stub.attach();
  RemoteDebugger dbg(p.machine());
  ASSERT_TRUE(dbg.connect());
  p.machine().run_for(seconds_to_cycles(0.02));

  const auto ms = dbg.metrics("vmm.vtlb.");
  ASSERT_TRUE(ms.has_value());
  ASSERT_FALSE(ms->empty());
  bool saw_gauge = false;
  for (const auto& m : *ms) {
    EXPECT_EQ(m.name.rfind("vmm.vtlb.", 0), 0u);
    if (m.name == "vmm.vtlb.hit_rate") {
      saw_gauge = true;
      EXPECT_EQ(m.kind, 'g');
      EXPECT_GE(m.value, 0.0);
      EXPECT_LE(m.value, 1.0);
    } else {
      EXPECT_EQ(m.kind, 'c');
    }
  }
  EXPECT_TRUE(saw_gauge);

  // Unfiltered query streams the whole registry over the wire.
  const auto all = dbg.metrics();
  ASSERT_TRUE(all.has_value());
  EXPECT_GT(all->size(), 50u);
}

// --------------------------------------------------------- flight recorder --

/// Wrecks the guest's IDT so the next interrupt virtual-triple-faults the
/// kernel (the crash_resilience.cpp recipe).
void corrupt_idt(Platform& p) {
  const u32 idt = p.image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    p.machine().mem().write32(idt + i, 0x00dead00);
  }
}

TEST(FlightRecorder, ArmedRecorderCapturesOnGuestCrash) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(40.0));
  vmm::ExitTracer tracer(1024);
  tracer.set_enabled(true);
  p.monitor()->set_tracer(&tracer);

  FlightRecorder::Config fc;
  fc.dump_on_crash = false;  // capture in memory, write nothing
  FlightRecorder fr(*p.monitor(), fc);
  fr.set_metrics(&p.metrics());
  fr.arm();

  p.machine().run_for(seconds_to_cycles(0.01));
  EXPECT_EQ(fr.captures(), 0u);  // healthy guest: nothing captured
  corrupt_idt(p);
  p.machine().run_for(seconds_to_cycles(0.03));

  ASSERT_TRUE(p.monitor()->vcpu().crashed);
  EXPECT_EQ(fr.captures(), 1u);
  EXPECT_EQ(fr.dumps(), 0u);
  ASSERT_NE(fr.last(), nullptr);
  EXPECT_EQ(fr.last()->reason, "guest-crash");
  EXPECT_NE(fr.last()->summary_json.find("\"guest_crashed\":true"),
            std::string::npos);
  EXPECT_NE(fr.last()->summary_json.find("\"metrics\":{"),
            std::string::npos);
  EXPECT_NE(fr.last()->trace_json.find("\"traceEvents\":["),
            std::string::npos);
  // The crash itself is recorded in the tail before the observer fires.
  EXPECT_NE(fr.last()->trace_json.find("\"name\":\"CRASH\""),
            std::string::npos);
}

TEST(FlightRecorder, CaptureWithoutTracerOrRegistryStillWorks) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(40.0));
  FlightRecorder fr(*p.monitor());
  p.machine().run_for(seconds_to_cycles(0.01));
  const auto b = fr.capture("manual");
  EXPECT_NE(b.summary_json.find("\"reason\":\"manual\""), std::string::npos);
  EXPECT_NE(b.summary_json.find("\"metrics\":{}"), std::string::npos);
  // No tracer: the trace document is valid but empty of spans.
  EXPECT_NE(b.trace_json.find("\"traceEvents\":["), std::string::npos);
}

TEST(FlightRecorder, RspFlightDumpWritesBundlePostCrash) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "vdbg-flight-test";
  fs::create_directories(dir);

  WireRig rig(40.0);
  vmm::ExitTracer tracer(1024);
  tracer.set_enabled(true);
  rig.platform->monitor()->set_tracer(&tracer);

  // No recorder attached: the query must fail cleanly.
  rig.send_packet("qVdbg.FlightDump");
  EXPECT_EQ(rig.last_reply(), "E01");

  FlightRecorder::Config fc;
  fc.out_dir = dir.string();
  fc.file_prefix = "rsp-test";
  fc.dump_on_crash = false;
  FlightRecorder fr(*rig.platform->monitor(), fc);
  fr.set_metrics(&rig.platform->metrics());
  rig.stub->set_flight_recorder(&fr);

  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  corrupt_idt(*rig.platform);
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  ASSERT_TRUE(rig.platform->monitor()->vcpu().crashed);

  rig.send_packet("qVdbg.FlightDump");
  const std::string reply = rig.last_reply();
  const auto sep = reply.find(';');
  ASSERT_NE(sep, std::string::npos) << reply;
  const fs::path summary(reply.substr(0, sep));
  const fs::path trace(reply.substr(sep + 1));
  EXPECT_TRUE(fs::exists(summary)) << summary;
  EXPECT_TRUE(fs::exists(trace)) << trace;
  EXPECT_GT(fs::file_size(summary), 100u);
  EXPECT_GT(fs::file_size(trace), 100u);
  EXPECT_EQ(fr.dumps(), 1u);

  fs::remove_all(dir);
}

// ------------------------------------------------------- replay exactness --

TEST(MetricsReplay, ReplayReproducesReplayExactMetricsBitIdentically) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(40.0));
  auto& m = p.machine();
  TimeTravel::Config cfg;
  cfg.interval = 10'000;
  TimeTravel tt(*p.monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 base = m.cpu().stats().instructions;

  ASSERT_EQ(m.run_to_instruction(base + 20'000, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  const auto mark = tt.save_state();
  ASSERT_FALSE(mark.empty());

  ASSERT_EQ(m.run_to_instruction(base + 80'000, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  const auto straight = p.metrics().snapshot(/*replay_exact_only=*/true);
  ASSERT_GT(straight.size(), 20u);

  // Rewind and replay the same window: every replay-exact metric —
  // counters, gauges and histogram buckets — must match bit for bit.
  ASSERT_TRUE(tt.load_state(mark));
  ASSERT_EQ(m.run_to_instruction(base + 80'000, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  const auto replayed = p.metrics().snapshot(/*replay_exact_only=*/true);

  ASSERT_EQ(replayed.size(), straight.size());
  for (std::size_t i = 0; i < straight.size(); ++i) {
    EXPECT_EQ(replayed[i], straight[i])
        << "metric '" << straight[i].name << "' diverged under replay";
  }

  // The non-exact set (host-side observability) is allowed to differ and
  // must be excluded from the full snapshot comparison — prove the flag
  // actually partitions: a full snapshot contains more entries.
  EXPECT_GT(p.metrics().snapshot().size(), straight.size());
}

}  // namespace
}  // namespace vdbg::test