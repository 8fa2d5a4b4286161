// Two-level paging MMU with a small TLB, modelled on IA-32.
//
// Protection is exactly the two-level user/supervisor scheme the paper calls
// out as insufficient: the U bit separates ring 3 from rings 0/1, and nothing
// in the page tables can separate ring 1 (de-privileged guest kernel) from
// ring 0 (monitor). The monitor's shadow page tables provide the third level
// by construction (see vmm/shadow_mmu.h).
//
// PDE/PTE layout (32-bit words):
//   bit 0  P   present
//   bit 1  W   writable
//   bit 2  U   user-accessible
//   bit 5  A   accessed   (set by the walker)
//   bit 6  D   dirty      (PTE only; set on write)
//   bits 12-31 physical frame number
#pragma once

#include <array>

#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/types.h"
#include "cpu/cost_model.h"
#include "cpu/cpu_state.h"
#include "cpu/fault.h"
#include "cpu/phys_mem.h"

namespace vdbg::cpu {

// kPageBits / kPageSize / kPageMask live in phys_mem.h (physical memory
// tracks decoded code at page granularity) and are re-exported here via
// that include for all paging code.

struct Pte {
  static constexpr u32 kP = 1u << 0;
  static constexpr u32 kW = 1u << 1;
  static constexpr u32 kU = 1u << 2;
  static constexpr u32 kA = 1u << 5;
  static constexpr u32 kD = 1u << 6;
  static constexpr u32 kFrameMask = ~kPageMask;

  /// Builds an entry from a frame base address and permission bits.
  static u32 make(PAddr frame, bool w, bool u) {
    return (frame & kFrameMask) | kP | (w ? kW : 0) | (u ? kU : 0);
  }
};

enum class Access : u8 { kRead, kWrite, kExec };

/// Result of an address translation attempt.
struct TranslateResult {
  bool ok = false;
  PAddr pa = 0;
  Fault fault{};     // valid when !ok
  Cycles cost = 0;   // extra cycles charged (TLB miss walk)
  bool tlb_hit = false;
};

class Mmu {
 public:
  Mmu(PhysMem& mem, const CostModel& costs) : mem_(mem), costs_(costs) {}

  /// Translates `va` for an access of type `acc` at privilege `cpl`, using
  /// the paging configuration in `st`. Never mutates CPU state; sets A/D
  /// bits in the page tables as IA-32 does. `size` is the byte width of the
  /// access: all `size` bytes must lie inside physical memory or the
  /// translation faults (aligned accesses never cross a page, so a single
  /// translation covers the whole access).
  TranslateResult translate(const CpuState& st, VAddr va, Access acc, u8 cpl,
                            u32 size = 1);
  TranslateResult translate(const CpuState& st, VAddr va, Access acc) {
    return translate(st, va, acc, st.cpl());
  }

  /// Read-only probe used by the VMM and the debugger: like translate() but
  /// never sets A/D bits and charges no cycles.
  TranslateResult probe(const CpuState& st, VAddr va, Access acc, u8 cpl,
                        u32 size = 1) const;
  TranslateResult probe(const CpuState& st, VAddr va, Access acc) const {
    return probe(st, va, acc, st.cpl());
  }

  void flush_tlb();
  void invlpg(VAddr va);

  /// Inline fast-path revalidation of a sequential instruction fetch, used
  /// by the superblock executor between instructions of a block. On a
  /// TLB hit with execute permission it fills `pa` and charges exactly what
  /// translate() would for that hit (zero cycles, one hit count) and
  /// returns true. Any other outcome — miss, permission violation, frame
  /// out of range — returns false with no counter movement so the caller
  /// can fall back to the full translate()/fault path, which then performs
  /// the identical accounting the slow interpreter path would.
  bool fetch_recheck(VAddr va, u8 cpl, PAddr& pa) {
    const u32 vpn = va >> kPageBits;
    const TlbEntry& slot = tlb_[tlb_index(vpn)];
    if (!slot.valid || slot.vpn != vpn) return false;
    if (cpl == kRing3 && !slot.u) return false;
    const PAddr p = (slot.pfn << kPageBits) | (va & kPageMask);
    if (!mem_.contains(p, kInstrBytes)) return false;
    ++hits_;
    pa = p;
    return true;
  }

  /// Inline data-access sibling of fetch_recheck(), used by the superblock
  /// tier's native loads and stores. On a TLB hit that translate() would
  /// complete without side effects — permission granted, and for a write
  /// an entry that is writable with D already set — it fills `pa` and
  /// counts exactly what translate() counts for that hit (zero cycles, one
  /// hit). A miss, a permission fault, a D-bit update, or `size` bytes
  /// outside physical memory returns false with no counter movement; the
  /// caller then runs the full translate() path. The access must be
  /// aligned, so it never crosses a page. Never changes a TLB entry.
  bool data_recheck(VAddr va, u8 cpl, bool write, u32 size, PAddr& pa) {
    const u32 vpn = va >> kPageBits;
    const TlbEntry& slot = tlb_[tlb_index(vpn)];
    if (!slot.valid || slot.vpn != vpn) return false;
    if (cpl == kRing3 && !slot.u) return false;
    if (write && !(slot.w && slot.dirty)) return false;
    const PAddr p = (slot.pfn << kPageBits) | (va & kPageMask);
    if (!mem_.contains(p, size)) return false;
    ++hits_;
    pa = p;
    return true;
  }

  /// Accounting shortcut for the superblock tier's *pure* blocks: every
  /// instruction of such a block has a native handler (no device or hook
  /// calls, and loads/stores only on a data_recheck() hit, which changes no
  /// entry), so nothing between two instructions can evict the code page's
  /// TLB entry, change permissions, or move the page out of physical memory
  /// — the per-instruction fetch_recheck() is proven to hit and its only
  /// observable effect is its hit count. This bumps the same counter the
  /// elided rechecks would have, keeping cpu.tlb.* bit-identical to the
  /// reference path.
  void count_proven_fetch_hits(u64 n) { hits_ += n; }

  // --- statistics ---
  u64 tlb_hits() const { return hits_; }
  u64 tlb_misses() const { return misses_; }

  /// Registers cpu.tlb.* counters. The TLB is serialized exactly in
  /// snapshots, so these counters are replay-exact.
  void register_metrics(MetricsRegistry& reg) {
    reg.add_counter("cpu.tlb.hits", &hits_);
    reg.add_counter("cpu.tlb.misses", &misses_);
    reg.add_gauge("cpu.tlb.hit_rate", [this] {
      const u64 total = hits_ + misses_;
      return total ? double(hits_) / double(total) : 0.0;
    });
  }

  /// Snapshot support. The TLB is serialized exactly (not rebuilt): a hit
  /// and a walk charge different cycle costs, so flushing on restore would
  /// make a replay diverge from the uninterrupted run it must reproduce.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  struct TlbEntry {
    bool valid = false;
    u32 vpn = 0;
    u32 pfn = 0;
    bool w = false;
    bool u = false;
    bool dirty = false;
    PAddr pte_addr = 0;  // for setting D on first write after a read fill
  };

  static constexpr u32 kTlbEntries = 64;
  static u32 tlb_index(u32 vpn) { return vpn % kTlbEntries; }

  /// Performs the two-level walk. On success fills `entry` (not inserted).
  bool walk(const CpuState& st, VAddr va, Access acc, u8 cpl, bool set_bits,
            TlbEntry& entry, Fault& fault) const;

  static bool perm_ok(bool w, bool u, Access acc, u8 cpl) {
    if (cpl == kRing3 && !u) return false;
    if (acc == Access::kWrite && !w) return false;
    return true;
  }

  PhysMem& mem_;
  const CostModel& costs_;
  std::array<TlbEntry, kTlbEntries> tlb_{};
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace vdbg::cpu
