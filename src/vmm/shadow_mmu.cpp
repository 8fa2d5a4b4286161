#include "vmm/shadow_mmu.h"

#include <cstring>
#include <stdexcept>

namespace vdbg::vmm {

using cpu::kPageBits;
using cpu::kPageMask;
using cpu::kPageSize;
using cpu::PfErr;
using cpu::Pte;

namespace {
constexpr u32 kPdMark = 0xffffffffu;
}

ShadowMmu::ShadowMmu(cpu::PhysMem& mem, const Config& cfg)
    : mem_(mem), cfg_(cfg) {
  const u32 ident_tables = (cfg_.guest_mem_limit + (4u << 20) - 1) >> 22;
  const u32 needed = 1 /*identity pd*/ + ident_tables + 1 /*shadow pd*/;
  // Shadow pool: enough for a guest's worth of tables plus slack.
  pool_frames_ = ident_tables + 48;
  const u32 total = (needed + pool_frames_) * kPageSize;
  if (total > cfg_.monitor_len) {
    throw std::invalid_argument("monitor region too small for shadow tables");
  }
  PAddr next = cfg_.monitor_base;
  identity_pd_ = next;
  next += kPageSize;
  const PAddr ident_pt_base = next;
  next += ident_tables * kPageSize;
  shadow_pd_ = next;
  next += kPageSize;
  pool_base_ = next;

  // Build the identity map of guest RAM (supervisor, writable).
  for (u32 t = 0; t < ident_tables; ++t) {
    const PAddr pt = ident_pt_base + t * kPageSize;
    mem_.write32(identity_pd_ + t * 4, Pte::make(pt, true, false));
    for (u32 e = 0; e < 1024; ++e) {
      const PAddr frame = (t << 22) | (e << kPageBits);
      const u32 val = frame < cfg_.guest_mem_limit
                          ? Pte::make(frame, true, false)
                          : 0;
      mem_.write32(pt + e * 4, val);
    }
  }
  // Shadow PD starts empty.
  for (u32 e = 0; e < 1024; ++e) mem_.write32(shadow_pd_ + e * 4, 0);
}

PAddr ShadowMmu::alloc_pool_frame() {
  if (pool_used_ >= pool_frames_) {
    flush();  // start over; the guest simply re-faults
  }
  const PAddr f = pool_base_ + pool_used_ * kPageSize;
  ++pool_used_;
  for (u32 e = 0; e < 1024; ++e) mem_.write32(f + e * 4, 0);
  return f;
}

void ShadowMmu::flush() {
  ++flushes_;
  pool_used_ = 0;
  pt_frames_.clear();
  for (u32 e = 0; e < 1024; ++e) mem_.write32(shadow_pd_ + e * 4, 0);
  if (listener_) listener_->on_tlb_flush();
}

void ShadowMmu::clear_shadow_pte(VAddr va) {
  const u32 pde = mem_.read32(shadow_pd_ + (va >> 22) * 4);
  if (!(pde & Pte::kP)) return;
  const PAddr pt = pde & Pte::kFrameMask;
  mem_.write32(pt + ((va >> kPageBits) & 0x3ff) * 4, 0);
}

void ShadowMmu::invlpg(VAddr va) {
  clear_shadow_pte(va);
  if (listener_) listener_->on_tlb_invlpg(va);
}

ShadowMmu::GuestWalk ShadowMmu::walk_guest(u32 vcr3, VAddr va, bool write,
                                           bool user) const {
  GuestWalk w;
  auto fail = [&](bool present) {
    w.ok = false;
    w.errcode = (present ? PfErr::kPresent : 0) |
                (write ? PfErr::kWrite : 0) | (user ? PfErr::kUser : 0);
    return w;
  };
  const PAddr dir = vcr3 & Pte::kFrameMask;
  w.pde_addr = dir + (va >> 22) * 4;
  if (!mem_.contains(w.pde_addr, 4) || w.pde_addr >= cfg_.guest_mem_limit) {
    return fail(false);
  }
  w.pde = mem_.read32(w.pde_addr);
  if (!(w.pde & Pte::kP)) return fail(false);
  w.pte_addr = (w.pde & Pte::kFrameMask) + ((va >> kPageBits) & 0x3ff) * 4;
  if (!mem_.contains(w.pte_addr, 4) || w.pte_addr >= cfg_.guest_mem_limit) {
    return fail(false);
  }
  w.pte = mem_.read32(w.pte_addr);
  if (!(w.pte & Pte::kP)) return fail(false);
  w.writable = (w.pde & Pte::kW) && (w.pte & Pte::kW);
  w.user = (w.pde & Pte::kU) && (w.pte & Pte::kU);
  w.dirty = w.pte & Pte::kD;
  if (user && !w.user) return fail(true);
  if (write && !w.writable) return fail(true);
  w.pa = (w.pte & Pte::kFrameMask) | (va & kPageMask);
  w.ok = true;
  return w;
}

void ShadowMmu::register_pt_frame(PAddr frame, u32 pd_index, bool is_pd) {
  auto [it, inserted] =
      pt_frames_.try_emplace(frame & Pte::kFrameMask, std::set<u32>{});
  const bool newly_tracked = inserted;
  it->second.insert(is_pd ? kPdMark : pd_index);
  if (newly_tracked) {
    // Any existing writable shadow mapping of this frame must become
    // read-only so future guest PT writes trap.
    downgrade_mappings_of(frame & Pte::kFrameMask);
  }
}

void ShadowMmu::downgrade_mappings_of(PAddr frame) {
  for (u32 d = 0; d < 1024; ++d) {
    const u32 pde = mem_.read32(shadow_pd_ + d * 4);
    if (!(pde & Pte::kP)) continue;
    const PAddr pt = pde & Pte::kFrameMask;
    for (u32 e = 0; e < 1024; ++e) {
      const u32 pte = mem_.read32(pt + e * 4);
      if ((pte & Pte::kP) && (pte & Pte::kFrameMask) == frame &&
          (pte & Pte::kW)) {
        mem_.write32(pt + e * 4, pte & ~Pte::kW);
      }
    }
  }
}

bool ShadowMmu::install(VAddr va, PAddr frame, bool writable, bool user) {
  const u32 d = va >> 22;
  u32 pde = mem_.read32(shadow_pd_ + d * 4);
  if (!(pde & Pte::kP)) {
    const u32 before = pool_used_;
    const PAddr pt = alloc_pool_frame();
    if (pool_used_ <= before) return false;  // pool flushed underneath us
    pde = Pte::make(pt, true, true);  // permissive; the PTE enforces
    mem_.write32(shadow_pd_ + d * 4, pde);
  }
  const PAddr pt = pde & Pte::kFrameMask;
  mem_.write32(pt + ((va >> kPageBits) & 0x3ff) * 4,
               (frame & Pte::kFrameMask) | Pte::kP |
                   (writable ? Pte::kW : 0u) | (user ? Pte::kU : 0u));
  return true;
}

ShadowMmu::FaultOutcome ShadowMmu::handle_fault(u32 vcr3, VAddr va,
                                                u32 hw_errcode) {
  FaultOutcome out;
  const bool write = hw_errcode & PfErr::kWrite;
  const bool user = hw_errcode & PfErr::kUser;

  const GuestWalk w = walk_guest(vcr3, va, write, user);
  if (!w.ok) {
    out.kind = FaultOutcome::kReflect;
    out.guest_errcode = w.errcode;
    return out;
  }

  const PAddr frame = w.pa & Pte::kFrameMask;
  if (frame >= cfg_.guest_mem_limit) {
    // Guest mapped something beyond its RAM (e.g. at the monitor): deny as
    // a protection fault. This is the third protection level acting.
    out.kind = FaultOutcome::kReflect;
    out.guest_errcode = hw_errcode | PfErr::kPresent;
    return out;
  }

  if (write && is_pt_frame(frame)) {
    out.kind = FaultOutcome::kPtWrite;
    out.target_pa = w.pa;
    return out;
  }

  // Track the guest's paging structures.
  register_pt_frame(vcr3, 0, /*is_pd=*/true);
  register_pt_frame(w.pde & Pte::kFrameMask, va >> 22, /*is_pd=*/false);

  // Faithful A/D maintenance on the *guest's* tables.
  mem_.write32(w.pde_addr, w.pde | Pte::kA);
  u32 new_pte = w.pte | Pte::kA;
  if (write) new_pte |= Pte::kD;
  mem_.write32(w.pte_addr, new_pte);

  // Dirty tracking: map read-only until the guest writes; PT frames are
  // always read-only in the shadow.
  bool shadow_w = w.writable && (write || (w.pte & Pte::kD));
  if (is_pt_frame(frame)) shadow_w = false;
  if (install(va, frame, shadow_w, w.user)) {
    ++syncs_;
  }
  out.kind = FaultOutcome::kSynced;
  return out;
}

void ShadowMmu::pt_write(PAddr pa, unsigned size, u32 value) {
  const PAddr frame = pa & Pte::kFrameMask;
  auto it = pt_frames_.find(frame);
  switch (size) {
    case 1: mem_.write8(pa, static_cast<u8>(value)); break;
    case 2: mem_.write16(pa, static_cast<u16>(value)); break;
    default: mem_.write32(pa, value); break;
  }
  if (listener_) listener_->on_guest_pt_store(pa, size);
  if (it == pt_frames_.end()) return;
  ++pt_invals_;
  // Invalidate shadow entries derived from the touched table word(s).
  const u32 first_idx = (pa & kPageMask) / 4;
  const u32 last_idx = ((pa + size - 1) & kPageMask) / 4;
  for (u32 idx = first_idx; idx <= last_idx; ++idx) {
    for (u32 owner : it->second) {
      if (owner == kPdMark) {
        // A PDE changed: drop that entire shadow table.
        mem_.write32(shadow_pd_ + idx * 4, 0);
      } else {
        clear_shadow_pte((owner << 22) | (idx << kPageBits));
      }
    }
  }
}

void ShadowMmu::save(SnapshotWriter& w) const {
  w.put_u32(pool_used_);
  w.put_u64(pt_frames_.size());
  for (const auto& [frame, owners] : pt_frames_) {
    w.put_u32(frame);
    w.put_u64(owners.size());
    for (u32 o : owners) w.put_u32(o);
  }
  w.put_u64(syncs_);
  w.put_u64(flushes_);
  w.put_u64(pt_invals_);
}

void ShadowMmu::restore(SnapshotReader& r) {
  pool_used_ = r.get_u32();
  pt_frames_.clear();
  const u64 nframes = r.get_u64();
  for (u64 i = 0; i < nframes && r.ok(); ++i) {
    const PAddr frame = r.get_u32();
    auto& owners = pt_frames_[frame];
    const u64 nowners = r.get_u64();
    for (u64 j = 0; j < nowners && r.ok(); ++j) owners.insert(r.get_u32());
  }
  syncs_ = r.get_u64();
  flushes_ = r.get_u64();
  pt_invals_ = r.get_u64();
}

}  // namespace vdbg::vmm
