// RSP wire-protocol tests for the monitor's debug stub: framing, checksum
// rejection, command edge cases and custom queries — driven byte-by-byte
// through the UART like a real (possibly buggy) debugger would.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"

namespace vdbg::test {
namespace {

using harness::Platform;
using harness::PlatformKind;

struct WireRig {
  WireRig() {
    platform = std::make_unique<Platform>(PlatformKind::kLvmm);
    platform->prepare(guest::RunConfig());
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart());
    stub->attach();
    platform->machine().uart().set_tx_sink(
        [this](u8 b) { wire_out.push_back(static_cast<char>(b)); });
  }

  /// Injects raw bytes and runs the machine long enough to process them.
  void send_raw(std::string_view bytes) {
    for (char c : bytes) {
      platform->machine().uart().host_inject(static_cast<u8>(c));
    }
    platform->machine().run_for(seconds_to_cycles(0.01));
  }

  /// Frames and sends a payload with a correct checksum.
  void send_packet(const std::string& payload) {
    unsigned sum = 0;
    for (char c : payload) sum += static_cast<u8>(c);
    char trailer[4];
    std::snprintf(trailer, sizeof trailer, "#%02x",
                  static_cast<unsigned>(sum & 0xff));
    send_raw("$" + payload + trailer);
  }

  /// Extracts the payload of the most recent well-formed reply packet.
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

TEST(StubProtocol, AcksValidPacketsAndAnswers) {
  WireRig rig;
  rig.send_packet("qSupported");
  EXPECT_NE(rig.wire_out.find('+'), std::string::npos);
  EXPECT_EQ(rig.last_reply(), "PacketSize=1000");
}

TEST(StubProtocol, RejectsBadChecksumWithNak) {
  WireRig rig;
  rig.send_raw("$qSupported#00");  // wrong checksum
  EXPECT_NE(rig.wire_out.find('-'), std::string::npos);
  EXPECT_EQ(rig.last_reply(), "");  // no reply packet
}

TEST(StubProtocol, IgnoresGarbageBetweenPackets) {
  WireRig rig;
  rig.send_raw("zzz+++random");
  rig.send_packet("qAttached");
  EXPECT_EQ(rig.last_reply(), "1");
}

TEST(StubProtocol, UnknownCommandsGetEmptyReply) {
  WireRig rig;
  rig.send_packet("vMustReplyEmpty");
  EXPECT_EQ(rig.last_reply(), "");
  EXPECT_NE(rig.wire_out.find("$#00"), std::string::npos);
}

TEST(StubProtocol, RegisterReadWidthAndErrors) {
  WireRig rig;
  rig.send_packet("g");
  EXPECT_EQ(rig.last_reply().size(), 10u * 8u);  // r0-r7, pc, psw
  rig.send_packet("p20");  // register 0x20: out of range
  EXPECT_EQ(rig.last_reply(), "E01");
  rig.send_packet("P1=zzzzzzzz");  // bad hex
  EXPECT_EQ(rig.last_reply(), "E01");
}

TEST(StubProtocol, MemoryCommandEdgeCases) {
  WireRig rig;
  rig.send_packet("m1000");  // missing length
  EXPECT_EQ(rig.last_reply(), "E01");
  rig.send_packet("m1000,2000");  // oversize (>0x1000)
  EXPECT_EQ(rig.last_reply(), "E01");
  rig.send_packet("mfff00000,4");  // outside guest RAM
  EXPECT_EQ(rig.last_reply(), "E03");
  rig.send_packet("M1000,4:0102");  // length/data mismatch
  EXPECT_EQ(rig.last_reply(), "E01");
  rig.send_packet("M700000,4:0a0b0c0d");
  EXPECT_EQ(rig.last_reply(), "OK");
  rig.send_packet("m700000,4");
  EXPECT_EQ(rig.last_reply(), "0a0b0c0d");
}

TEST(StubProtocol, BreakpointValidation) {
  WireRig rig;
  rig.send_packet("Z0,10004,8");  // misaligned (not on an 8-byte boundary)
  EXPECT_EQ(rig.last_reply(), "E02");
  rig.send_packet("Z1,10000,8");  // hardware watchpoints unsupported
  EXPECT_EQ(rig.last_reply(), "");
  rig.send_packet("Z0,10000,8");
  EXPECT_EQ(rig.last_reply(), "OK");
  EXPECT_EQ(rig.stub->breakpoint_count(), 1u);
  rig.send_packet("Z0,10000,8");  // idempotent insert
  EXPECT_EQ(rig.last_reply(), "OK");
  EXPECT_EQ(rig.stub->breakpoint_count(), 1u);
  rig.send_packet("z0,10000,8");
  EXPECT_EQ(rig.last_reply(), "OK");
  EXPECT_EQ(rig.stub->breakpoint_count(), 0u);
  rig.send_packet("z0,10000,8");  // removing absent breakpoint is OK
  EXPECT_EQ(rig.last_reply(), "OK");
  rig.send_packet("Z2,fffffff0,20");  // wraps past 2^32: could never hit
  EXPECT_EQ(rig.last_reply(), "E01");
  rig.send_packet("z2,10000,4");  // removing an unknown watch is an error
  EXPECT_EQ(rig.last_reply(), "E03");
}

TEST(StubProtocol, CustomQueriesReportMonitorState) {
  WireRig rig;
  rig.send_packet("qVdbg.Crashed");
  EXPECT_EQ(rig.last_reply(), "0");
  rig.send_packet("qVdbg.MonitorIntact");
  EXPECT_EQ(rig.last_reply(), "1");
  rig.send_packet("qVdbg.Exits");
  EXPECT_FALSE(rig.last_reply().empty());
}

TEST(StubProtocol, TierQueryTracksKillSwitches) {
  WireRig rig;
  auto& cpu = rig.platform->machine().cpu();
  rig.send_packet("qVdbg.Tier");
  EXPECT_EQ(rig.last_reply(), "superblock");  // the default configuration
  cpu.set_superblocks_enabled(false);
  rig.send_packet("qVdbg.Tier");
  EXPECT_EQ(rig.last_reply(), "interp");
}

TEST(StubProtocol, ExitStatsQueryFormatsPerKindTriples) {
  WireRig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  rig.send_packet("qVdbg.ExitStats");
  const std::string reply = rig.last_reply();
  ASSERT_FALSE(reply.empty());

  // Exactly one "name:count:cycles" triple per exit kind, ';'-separated,
  // in enum order.
  std::vector<std::string> triples;
  std::size_t start = 0;
  while (start <= reply.size()) {
    const auto semi = reply.find(';', start);
    triples.push_back(reply.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  ASSERT_EQ(triples.size(), vmm::kNumExitKinds);
  u64 total = 0;
  for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
    const std::string& t = triples[k];
    const auto c1 = t.find(':');
    const auto c2 = t.find(':', c1 + 1);
    ASSERT_NE(c1, std::string::npos) << t;
    ASSERT_NE(c2, std::string::npos) << t;
    EXPECT_EQ(t.substr(0, c1),
              vmm::exit_kind_name(static_cast<vmm::ExitKind>(k)));
    total += std::stoull(t.substr(c1 + 1, c2 - c1 - 1));
  }
  // The guest booted and ran: some exits must have been recorded. The
  // reply is a snapshot — the guest keeps exiting while the answer drains
  // over the UART — so it can only lag the live counter.
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, rig.platform->monitor()->exit_stats().total);
}

TEST(StubProtocol, BreakInFreezesAndStatusQueryReflectsIt) {
  WireRig rig;
  rig.send_packet("?");
  EXPECT_EQ(rig.last_reply(), "OK");  // running
  rig.send_raw(std::string(1, '\x03'));
  EXPECT_TRUE(rig.stub->target_stopped());
  EXPECT_TRUE(rig.platform->machine().cpu_frozen());
  EXPECT_EQ(rig.last_reply(), "S05");
  rig.send_packet("?");
  EXPECT_EQ(rig.last_reply(), "S05");
  rig.send_packet("c");
  rig.platform->machine().run_for(seconds_to_cycles(0.005));
  EXPECT_FALSE(rig.platform->machine().cpu_frozen());
}

TEST(StubProtocol, SurvivesFuzzedWireGarbage) {
  // A hostile/broken debugger must not take the monitor down: feed random
  // bytes (interleaved with occasional valid packets) and verify the stub
  // still answers and the guest still streams.
  WireRig rig;
  Rng rng(0xfeedface);
  std::string junk;
  for (int i = 0; i < 2048; ++i) {
    junk.push_back(static_cast<char>(rng.next_u32()));
  }
  rig.send_raw(junk);
  rig.send_packet("qSupported");
  EXPECT_EQ(rig.last_reply(), "PacketSize=1000");
  for (int round = 0; round < 8; ++round) {
    std::string mix;
    for (int i = 0; i < 200; ++i) {
      mix.push_back(static_cast<char>(rng.next_u32()));
    }
    rig.send_raw(mix);
  }
  rig.send_packet("qVdbg.MonitorIntact");
  EXPECT_EQ(rig.last_reply(), "1");
  EXPECT_FALSE(rig.platform->monitor()->vcpu().crashed);
  EXPECT_FALSE(rig.platform->machine().cpu().shutdown());
  // Fuzz may include 0x03 break-ins: resume if frozen, then confirm life.
  rig.send_packet("c");
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  EXPECT_GT(rig.platform->mailbox().ticks, 0u);
}

TEST(StubProtocol, CommandsAreChargedMonitorCycles) {
  WireRig rig;
  const auto before = rig.platform->monitor()->exit_stats().charged_cycles;
  rig.send_packet("g");
  EXPECT_GT(rig.platform->monitor()->exit_stats().charged_cycles, before);
  EXPECT_GE(rig.stub->commands_executed(), 1u);
}

}  // namespace
}  // namespace vdbg::test
