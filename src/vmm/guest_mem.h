// The monitor's guest-memory access layer.
//
// Every monitor-side access to guest memory — vIDT gate reads, injection
// frame pushes, IRET frame reads, debug-stub m/M commands — goes through
// this class instead of re-walking the guest's page tables per access.
// Translations are served from a small software translation cache (the
// "vTLB"), a direct-mapped table keyed by virtual page number, mirroring
// the hardware TLB in cpu/mmu.h.
//
// Invalidation is precise and follows hardware TLB semantics (DESIGN.md,
// "Monitor hot path"):
//  * ShadowMmu::flush (CR3/CR0 loads, shadow-pool exhaustion) drops the
//    whole cache,
//  * ShadowMmu::invlpg drops the one entry,
//  * emulated guest stores into registered page-table frames
//    (ShadowMmu::pt_write) drop entries derived from the touched words,
//  * monitor-initiated writes through this class drop entries whose PDE or
//    PTE word overlaps the written range.
// A guest store to a not-yet-registered PT frame leaves the cache stale
// until the guest executes INVLPG or reloads CR3 — exactly the staleness
// the architectural TLB exhibits, and the guest must already tolerate.
//
// Reads and writes are all-or-nothing: every page of the span is
// translated before any byte is copied, so a failed translation mid-span
// can no longer tear a stub M command.
//
// The cache has a kill switch (set_translation_cache_enabled) mirroring
// the CPU's superblock switch: disabled, every access performs a full
// walk. Simulated timing is charged through the charge hook — walk_cost
// per full walk, hit_cost per cached translation.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "common/snapshot.h"
#include "cpu/phys_mem.h"
#include "vmm/shadow_mmu.h"
#include "vmm/vcpu.h"

namespace vdbg::vmm {

class GuestMemory final : public TranslationListener {
 public:
  struct Stats {
    u64 lookups = 0;        // translations requested while paging is on
    u64 hits = 0;           // served from the vTLB
    u64 walks = 0;          // full guest page-table walks
    u64 fills = 0;          // vTLB entries installed
    u64 invalidations = 0;  // single entries dropped
    u64 flushes = 0;        // whole-cache drops
  };

  /// `vcpu` must outlive this object; translations use its vCR3 and paging
  /// bit. The owner must register this object as `shadow`'s translation
  /// listener for invalidation to work.
  GuestMemory(cpu::PhysMem& mem, ShadowMmu& shadow, const VcpuState& vcpu,
              u32 guest_mem_limit);

  // --- timing hooks (simulated cycles; host work is never charged) ---
  using ChargeFn = std::function<void(Cycles)>;
  void set_charge_hook(ChargeFn fn) { charge_ = std::move(fn); }
  void set_walk_costs(Cycles walk, Cycles hit) {
    walk_cost_ = walk;
    hit_cost_ = hit;
  }

  /// Kill switch mirroring Cpu::set_superblocks_enabled: disabled, every
  /// translation performs a full guest walk. Translation results are
  /// identical either way; only the per-access charge differs (walk vs hit).
  void set_translation_cache_enabled(bool on) {
    cache_enabled_ = on;
    if (!on) flush_cache();
  }

  /// Translates a guest-virtual address under the guest's own paging
  /// config. Identity (bounds-checked only) while guest paging is off.
  bool translate(VAddr va, bool write, PAddr& pa);

  /// All-or-nothing span accessors; page-crossing handled.
  bool read(VAddr va, std::span<u8> out);
  bool write(VAddr va, std::span<const u8> in);
  bool read32(VAddr va, u32& value);
  bool write32(VAddr va, u32 value);

  void flush_cache();
  const Stats& stats() const { return stats_; }

  /// Snapshot support. The vTLB is serialized exactly (like the hardware
  /// TLB): a hit and a walk charge different costs, so rebuilding on
  /// restore would make a replay's cycle stream diverge. The kill switch
  /// and hooks are host wiring and are left alone.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

  // --- TranslationListener (wired to the owner's ShadowMmu) ---
  void on_tlb_flush() override { flush_cache(); }
  void on_tlb_invlpg(VAddr va) override;
  void on_guest_pt_store(PAddr pa, unsigned len) override;

 private:
  struct Entry {
    bool valid = false;
    bool writable = false;  // guest PDE.W & PTE.W at fill time
    u32 vpn = 0;
    u32 pfn = 0;
    PAddr pde_addr = 0;  // guest table words this translation depends on
    PAddr pte_addr = 0;
  };
  static constexpr u32 kEntries = 64;
  static u32 index(u32 vpn) { return vpn % kEntries; }

  struct Seg {
    PAddr pa;
    u32 len;
  };
  /// Phase 1 of an all-or-nothing access: translates every page of
  /// [va, va+len) into `segs`. False (nothing stored) on any failure.
  bool translate_span(VAddr va, std::size_t len, bool write,
                      std::vector<Seg>& segs);
  /// Drops entries whose PDE/PTE dependency word overlaps [pa, pa+len).
  void invalidate_overlapping(PAddr pa, u32 len);
  void charge(Cycles c) {
    if (charge_) charge_(c);
  }

  cpu::PhysMem& mem_;
  ShadowMmu& shadow_;
  const VcpuState& vcpu_;
  u32 guest_mem_limit_;  // snap:skip(install-time config)

  std::array<Entry, kEntries> entries_{};
  bool cache_enabled_ = true;  // snap:skip(host tuning knob)
  Cycles walk_cost_ = 0;  // snap:skip(cost-model config, set at install)
  Cycles hit_cost_ = 0;   // snap:skip(cost-model config, set at install)
  ChargeFn charge_;  // snap:skip(host callback wiring)
  /// Reused across calls so hot-path span accesses do not allocate.
  /// snap:skip(scratch; contents are meaningless between calls)
  std::vector<Seg> scratch_segs_;
  Stats stats_;
};

}  // namespace vdbg::vmm
