// Virtual CPU state the monitor maintains for the de-privileged guest.
//
// Ring compression: guest "ring 0" runs at physical ring 1, guest ring 3
// stays at ring 3. The physical PSW.IF is owned by the monitor (always on
// while the guest runs); the guest's view of IF/CPL/CR*/IDTR lives here.
#pragma once

#include <array>
#include <bit>
#include <string_view>

#include "common/types.h"
#include "cpu/isa.h"

namespace vdbg::vmm {

struct VcpuState {
  bool vif = true;       // guest's virtual interrupt-enable flag
  u8 vcpl = 0;           // guest's believed privilege (0 or 3)
  std::array<u32, cpu::kNumCrs> vcr{};  // guest CR0/CR2/CR3 + ring stacks
  u32 vidt_base = 0;
  u32 vidt_count = 0;
  bool halted = false;   // guest executed HLT
  bool crashed = false;  // guest triple-faulted; monitor still alive

  bool paging_enabled() const { return vcr[cpu::kCr0] & cpu::kCr0PgBit; }

  /// Physical ring implementing a virtual privilege level.
  static u8 physical_ring(u8 vcpl) {
    return vcpl == cpu::kRing3 ? cpu::kRing3 : cpu::kRing1;
  }
};

/// Classification of a VM exit by the reason the monitor was entered. One
/// record per kind is kept in VmExitStats; the dispatch pipeline in
/// Lvmm::on_event classifies each exit exactly once.
enum class ExitKind : u8 {
  kPrivileged = 0,  // emulated privileged instruction (CLI/STI/HLT/...)
  kIo,              // trapped IN/OUT emulated against a virtual device
  kPageFault,       // #PF: shadow sync, PT-write emulation or reflection
  kSoftInt,         // guest INT n (syscall) injected through the vIDT
  kInterrupt,       // physical device interrupt arrival
  kBreakpoint,      // debugger-owned #BP (guest frozen)
  kStep,            // debugger #DB: single step or watch hit (guest frozen)
  kOther,           // reflected faults, fetch failures, unknown vectors
};
inline constexpr unsigned kNumExitKinds = 8;

constexpr std::string_view exit_kind_name(ExitKind k) {
  constexpr std::string_view names[kNumExitKinds] = {
      "priv", "io", "pf", "softint", "irq", "bp", "step", "other"};
  return names[static_cast<unsigned>(k)];
}

/// Count, total monitor cycles and a log2 latency histogram for one exit
/// kind. The histogram bucket of a cost c is bit_width(c): bucket b counts
/// exits that cost [2^(b-1), 2^b) cycles, with the last bucket open-ended.
struct ExitKindStats {
  static constexpr unsigned kHistBuckets = 24;

  u64 count = 0;
  Cycles cycles = 0;      // monitor cycles charged while handling these exits
  Cycles max_cycles = 0;
  std::array<u32, kHistBuckets> hist{};

  static unsigned bucket_of(Cycles c) {
    const unsigned b = static_cast<unsigned>(std::bit_width(c));
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }
  void record(Cycles c) {
    ++count;
    cycles += c;
    if (c > max_cycles) max_cycles = c;
    ++hist[bucket_of(c)];
  }
  double mean() const { return count ? double(cycles) / double(count) : 0.0; }
};

/// Per-reason VM-exit counters, for tests, benches and the ablation study.
struct VmExitStats {
  u64 total = 0;
  u64 privileged_instr = 0;  // CLI/STI/HLT/LIDT/CR/INVLPG/IRET
  u64 io_emulated = 0;       // trapped IN/OUT
  u64 interrupts = 0;        // physical interrupt arrivals
  u64 injections = 0;        // events pushed into the guest
  u64 shadow_syncs = 0;      // hidden page faults resolved
  u64 pt_writes = 0;         // write-protected guest PT writes emulated
  u64 reflected_faults = 0;  // guest-visible exceptions forwarded
  u64 soft_ints = 0;         // guest INT n reflections (syscalls)
  u64 unknown_ports = 0;
  Cycles charged_cycles = 0;  // total monitor cycles billed to the CPU

  /// Per-exit-kind cycle-cost records (counts, totals, histograms).
  std::array<ExitKindStats, kNumExitKinds> by_kind{};

  ExitKindStats& kind(ExitKind k) {
    return by_kind[static_cast<unsigned>(k)];
  }
  const ExitKindStats& kind(ExitKind k) const {
    return by_kind[static_cast<unsigned>(k)];
  }
  void record_exit(ExitKind k, Cycles cost) { kind(k).record(cost); }
};

}  // namespace vdbg::vmm
