// The paper's stability claim, demonstrated: inject a wild-pointer bug into
// the OS under development and compare what remains of the debugging
// environment afterwards.
//
//   * On real hardware with an in-kernel stub, the kernel's triple fault
//     takes the whole machine down — nothing left to debug with.
//   * Under the lightweight monitor, the same bug crashes only the guest;
//     the monitor's stub keeps answering, and the developer gets registers,
//     memory and a disassembly of the crash site post-mortem.
#include <cstdio>

#include "asm/assembler.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"

using namespace vdbg;

namespace {

/// Replaces the guest app with a buggy one: it streams briefly, then follows
/// a wild pointer into the guest's own IDT and scribbles over it; the next
/// interrupt finds no usable gates and the kernel triple-faults.
void plant_bug(harness::Platform& p) {
  const u32 idt = p.image().kernel.symbol("idt").value();
  vasm::Assembler a(guest::kAppBase);
  using namespace vasm;
  a.label("app_entry");
  // Busy-wait ten ticks so the collateral IDT corruption (applied by
  // main() at ~5 ms) lands before the wild store detonates.
  a.movi(cpu::kR6, u32{guest::kMailboxBase});
  a.ld32(cpu::kR4, cpu::kR6, i32(guest::Mailbox::kTicks));
  a.label("wait");
  a.ld32(cpu::kR0, cpu::kR6, i32(guest::Mailbox::kTicks));
  a.sub(cpu::kR1, cpu::kR0, cpu::kR4);
  a.cmpi(cpu::kR1, u32{10});
  a.jb(l("wait"));
  // The "bug": a stray store loop over the IDT... but the IDT is a kernel
  // page, so from user mode this first faults; the fault handler IS the
  // IDT, which we corrupt via a second bug in the kernel's timer ISR.
  // Simplest faithful wild write: user-mode store to the IDT -> #PF ->
  // panic handler -> but we ALSO corrupted the #PF gate? To keep the
  // injection honest we scribble through a syscall-less path: the store
  // below faults and the pre-corrupted gates (done host-side in main) turn
  // it into a triple fault.
  a.movi(cpu::kR1, u32{idt});
  a.movi(cpu::kR0, u32{0xdeadbeef});
  a.st32(cpu::kR1, 0, cpu::kR0);
  a.label("spin");
  a.jmp(l("spin"));
  a.finalize().load(p.machine().mem());
}

void corrupt_idt(harness::Platform& p) {
  const u32 idt = p.image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    p.machine().mem().write32(idt + i, 0x00dead00);
  }
}

}  // namespace

int main() {
  std::printf("=== scenario 1: the bug on real hardware ===\n");
  {
    harness::Platform p(harness::PlatformKind::kNative);
    p.prepare(guest::RunConfig::for_rate_mbps(60.0));
    plant_bug(p);
    p.machine().run_for(seconds_to_cycles(0.005));
    corrupt_idt(p);  // the wild write's collateral damage
    p.machine().run_for(seconds_to_cycles(0.03));
    std::printf("machine state: %s\n",
                p.machine().cpu().shutdown()
                    ? "TRIPLE FAULT - machine reset, debug session lost"
                    : "still running");
  }

  std::printf("\n=== scenario 2: the same bug under the lightweight monitor "
              "===\n");
  harness::Platform p(harness::PlatformKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(60.0));
  plant_bug(p);  // before anything runs: the buggy app ships in the image
  vmm::DebugStub stub(*p.monitor(), p.machine().uart(), p.metrics());
  stub.attach();
  debug::RemoteDebugger dbg(p.machine());
  dbg.add_symbols(p.image().kernel);
  dbg.add_symbols(p.image().app);
  dbg.connect();

  p.machine().run_for(seconds_to_cycles(0.005));
  corrupt_idt(p);
  p.machine().run_for(seconds_to_cycles(0.03));

  std::printf("machine state: %s\n", p.machine().cpu().shutdown()
                                         ? "shut down"
                                         : "running (monitor alive)");
  const auto health = dbg.metrics("vmm.health.").value_or(
      std::vector<debug::RemoteMetric>{});
  const bool crashed =
      debug::find_metric(health, "vmm.health.guest_crashed") == 1.0;
  const bool intact =
      debug::find_metric(health, "vmm.health.monitor_intact") == 1.0;
  std::printf("guest state:   %s\n",
              crashed ? "crashed (virtual triple fault)" : "running");
  std::printf("monitor mem:   %s\n",
              intact ? "intact (canary verified)" : "CORRUPT");

  std::printf("\npost-mortem over the serial link:\n");
  const auto regs = dbg.read_registers();
  if (!regs) {
    std::printf("  (stub unreachable)\n");
    return 1;
  }
  std::printf("  pc  = %08x  (%s)\n", regs->pc,
              dbg.describe(regs->pc).c_str());
  std::printf("  sp  = %08x  psw = %08x\n", regs->r[7], regs->psw);
  std::printf("  disassembly at the crash site:\n");
  for (const auto& line : dbg.disassemble(regs->pc & ~7u, 3)) {
    std::printf("    %s\n", line.c_str());
  }
  const auto mb = dbg.read_memory(guest::kMailboxBase, 0x30);
  if (mb) {
    const auto w = [&](u32 off) {
      return u32((*mb)[off]) | (u32((*mb)[off + 1]) << 8) |
             (u32((*mb)[off + 2]) << 16) | (u32((*mb)[off + 3]) << 24);
    };
    std::printf("  guest had sent %u segments over %u ticks before dying\n",
                w(guest::Mailbox::kSegmentsSent), w(guest::Mailbox::kTicks));
  }

  const bool ok = !p.machine().cpu().shutdown() && crashed && intact &&
                  regs.has_value();
  std::printf("\ncrash_resilience: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
