// Shadow page tables: the monitor's implementation of the paper's
// three-level memory protection on two-level paging hardware.
//
// The guest never runs on its own page tables. The monitor maintains:
//  * an identity map of guest RAM (used while the guest has paging off), and
//  * a lazily-populated shadow of the guest's tables (used once the guest
//    enables paging),
// both living in monitor-owned frames that are *absent* from every mapping
// the guest executes under. Hence:
//   level 1: U-bit separates the guest's applications from its kernel,
//   level 2: the guest kernel (physical ring 1) sees only guest frames,
//   level 3: monitor frames are unmapped and DMA-protected — unreachable
//            even from a wildly misbehaving guest kernel.
//
// Dirty-bit tracking is faithful: a page is first shadowed read-only; the
// write fault sets the guest PTE's D bit and upgrades the shadow entry.
// Guest page-table frames are write-protected in the shadow; writes to them
// are emulated by the monitor and the derived shadow entries invalidated.
// Nothing is write-protected for the debugger: its write watchpoints are
// the CPU's own debug state (Cpu::arm_watchpoint).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/snapshot.h"
#include "cpu/mmu.h"
#include "cpu/phys_mem.h"
#include "vmm/vcpu.h"

namespace vdbg::vmm {

/// Observer of guest-translation invalidation points. The monitor's
/// GuestMemory layer registers itself here so its software translation
/// cache is dropped exactly when the architectural TLB would be: full flush
/// (CR3/CR0 load, shadow pool exhaustion), INVLPG, and emulated guest
/// stores into page-table frames.
class TranslationListener {
 public:
  virtual ~TranslationListener() = default;
  virtual void on_tlb_flush() = 0;
  virtual void on_tlb_invlpg(VAddr va) = 0;
  virtual void on_guest_pt_store(PAddr pa, unsigned len) = 0;
};

class ShadowMmu {
 public:
  struct Config {
    PAddr monitor_base = 0;
    u32 monitor_len = 0;
    u32 guest_mem_limit = 0;  // guest-visible RAM; frames beyond are denied
  };

  ShadowMmu(cpu::PhysMem& mem, const Config& cfg);

  void set_translation_listener(TranslationListener* l) { listener_ = l; }

  /// Physical page-directory to run the guest on while its paging is off.
  PAddr identity_pd() const { return identity_pd_; }
  /// Physical page-directory shadowing the guest's current tables.
  PAddr shadow_pd() const { return shadow_pd_; }

  /// Guest loaded CR3 (or enabled paging): drop the whole shadow, like a
  /// hardware TLB flush.
  void flush();
  /// Guest executed INVLPG.
  void invlpg(VAddr va);

  struct GuestWalk {
    bool ok = false;
    PAddr pa = 0;
    u32 errcode = 0;  // guest-visible #PF error code when !ok
    PAddr pde_addr = 0, pte_addr = 0;
    u32 pde = 0, pte = 0;
    bool writable = false, user = false, dirty = false;
  };
  /// Walks the *guest's* tables (no shadow involvement, no A/D updates).
  GuestWalk walk_guest(u32 vcr3, VAddr va, bool write, bool user) const;

  struct FaultOutcome {
    enum Kind {
      kSynced,     // hidden fault: shadow updated, restart the instruction
      kPtWrite,    // write hit a protected guest PT frame: emulate the store
      kReflect,    // genuine guest fault: inject #PF with guest_errcode
    } kind = kReflect;
    u32 guest_errcode = 0;
    PAddr target_pa = 0;  // for kPtWrite: guest-physical store target
  };
  /// Handles a physical #PF taken while the guest runs with paging enabled.
  FaultOutcome handle_fault(u32 vcr3, VAddr va, u32 hw_errcode);

  /// Applies an emulated store to a protected guest PT frame and
  /// invalidates every shadow entry derived from the touched word(s).
  void pt_write(PAddr pa, unsigned size, u32 value);

  /// True when `pa` lies in a currently write-protected guest PT/PD frame.
  bool is_pt_frame(PAddr pa) const {
    return pt_frames_.count(pa & cpu::Pte::kFrameMask) != 0;
  }

  // --- statistics ---
  u64 syncs() const { return syncs_; }
  u64 flushes() const { return flushes_; }
  u64 pool_in_use() const { return pool_used_; }

  /// Snapshot support. The table contents themselves live in PhysMem (the
  /// monitor pool frames) and roll back with it; this serialises only the
  /// bookkeeping derived alongside them: pool allocation cursor, the
  /// registered PT-frame map and counters. The frame layout (identity PD,
  /// shadow PD, pool base) is fixed at construction and must match between
  /// save and restore.
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  PAddr alloc_pool_frame();  // zeroed; flushes everything when exhausted
  /// Installs a shadow PTE for va. Returns false when the pool flushed
  /// mid-operation (caller simply lets the guest re-fault).
  bool install(VAddr va, PAddr frame, bool writable, bool user);
  void clear_shadow_pte(VAddr va);
  void register_pt_frame(PAddr frame, u32 pd_index, bool is_pd);
  void downgrade_mappings_of(PAddr frame);

  cpu::PhysMem& mem_;
  Config cfg_;  // snap:skip(install-time config)
  TranslationListener* listener_ = nullptr;  // snap:skip(host wiring)

  // Monitor-frame pool layout: fixed at install() and identical on the
  // restoring side by construction. snap:skip(install-time layout)
  PAddr identity_pd_ = 0;
  PAddr shadow_pd_ = 0;    // snap:skip(install-time layout)
  PAddr pool_base_ = 0;    // snap:skip(install-time layout)
  u32 pool_frames_ = 0;    // snap:skip(install-time layout)
  u32 pool_used_ = 0;

  /// guest PT frame -> PD indices whose PDE points at it; index 0xffffffff
  /// marks the page-directory frame itself.
  std::map<PAddr, std::set<u32>> pt_frames_;

  u64 syncs_ = 0;
  u64 flushes_ = 0;
  u64 pt_invals_ = 0;
};

}  // namespace vdbg::vmm
