// A complete remote-debugging session against a live, streaming OS — the
// workflow of the paper's Fig. 2.1, scripted:
//
//   host debugger ==serial==> monitor stub ==> guest OS (MiniTactix)
//
//   1. attach while the guest streams disk->UDP traffic,
//   2. break in asynchronously and inspect registers/symbols,
//   3. plant a breakpoint in the NIC interrupt handler, hit it mid-I/O,
//   4. walk the guest's mailbox and disassemble around the stop,
//   5. single-step a few instructions,
//   6. resume and confirm the stream continued without corruption.
//
// Exits non-zero on any failed command or unexpected stop, so it doubles
// as an end-to-end check (ctest runs it as example_debug_session).
#include <cstdio>

#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"

using namespace vdbg;
using debug::RemoteDebugger;
using StopKind = RemoteDebugger::StopKind;

int main() {
  harness::Platform platform(harness::PlatformKind::kLvmm);
  auto rc = guest::RunConfig::for_rate_mbps(60.0);
  platform.prepare(rc);
  platform.sink().set_payload_validator(guest::make_stream_validator(rc));

  vmm::DebugStub stub(*platform.monitor(), platform.machine().uart(),
                       platform.metrics());
  stub.attach();

  RemoteDebugger dbg(platform.machine());
  dbg.add_symbols(platform.image().kernel);
  dbg.add_symbols(platform.image().app);

  std::printf("[host] connecting over the serial link...\n");
  if (!dbg.connect()) {
    std::printf("[host] stub did not answer\n");
    return 1;
  }
  std::printf("[host] connected; letting the target stream for 30 ms\n");
  platform.machine().run_for(seconds_to_cycles(0.03));

  std::printf("[host] ^C break-in\n");
  if (dbg.interrupt() != StopKind::kBreak) return 1;
  auto regs = *dbg.read_registers();
  std::printf("[host] stopped at pc=%08x (%s), sp=%08x\n", regs.pc,
              dbg.describe(regs.pc).c_str(), regs.r[7]);

  const u32 isr_nic = dbg.lookup("isr_nic").value();
  std::printf("[host] setting breakpoint at isr_nic (%08x)\n", isr_nic);
  if (!dbg.set_breakpoint(isr_nic)) return 1;

  std::printf("[host] continue...\n");
  if (dbg.continue_and_wait(seconds_to_cycles(0.1)) != StopKind::kBreak) {
    return 1;
  }
  regs = *dbg.read_registers();
  if (regs.pc != isr_nic) {
    std::printf("[host] stopped at %08x, not at the breakpoint\n", regs.pc);
    return 1;
  }
  std::printf("[host] hit breakpoint at %s while the guest was mid-I/O\n",
              dbg.describe(regs.pc).c_str());

  std::printf("[host] disassembly at the stop:\n");
  for (const auto& line : dbg.disassemble(regs.pc, 4)) {
    std::printf("         %s\n", line.c_str());
  }

  const auto mb = dbg.read_memory(guest::kMailboxBase, 0x30).value();
  auto word = [&](u32 off) {
    return u32(mb[off]) | (u32(mb[off + 1]) << 8) | (u32(mb[off + 2]) << 16) |
           (u32(mb[off + 3]) << 24);
  };
  std::printf("[host] guest mailbox: ticks=%u segments=%u tx_done=%u "
              "syscalls=%u\n",
              word(guest::Mailbox::kTicks),
              word(guest::Mailbox::kSegmentsSent),
              word(guest::Mailbox::kTxCompletions),
              word(guest::Mailbox::kSyscalls));

  std::printf("[host] single-stepping 3 instructions:\n");
  for (int i = 0; i < 3; ++i) {
    if (dbg.step() != StopKind::kBreak) return 1;
    regs = *dbg.read_registers();
    std::printf("         pc=%08x  %s\n", regs.pc,
                dbg.describe(regs.pc).c_str());
  }

  std::printf("[host] clearing breakpoint, resuming for 50 ms\n");
  if (!dbg.clear_breakpoint(isr_nic)) return 1;
  // With the breakpoint gone, the guest just runs: any stop is a failure.
  if (dbg.continue_and_wait(seconds_to_cycles(0.002)) != StopKind::kTimeout ||
      platform.machine().run_for(seconds_to_cycles(0.05)) !=
          hw::Machine::StopReason::kBudget) {
    std::printf("[host] unexpected stop after the resume\n");
    return 1;
  }

  const auto& sink = platform.sink();
  std::printf("[host] stream after the session: frames=%llu gaps=%llu "
              "checksum_errors=%llu content_errors=%llu\n",
              (unsigned long long)sink.frames(),
              (unsigned long long)sink.sequence_gaps(),
              (unsigned long long)sink.checksum_errors(),
              (unsigned long long)sink.content_errors());

  const bool ok = sink.frames() > 0 && sink.checksum_errors() == 0 &&
                  sink.content_errors() == 0 &&
                  platform.mailbox().last_error == 0;
  std::printf("\ndebug_session: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
