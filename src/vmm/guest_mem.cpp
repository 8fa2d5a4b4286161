#include "vmm/guest_mem.h"

#include <algorithm>

#include "cpu/isa.h"

namespace vdbg::vmm {

GuestMemory::GuestMemory(cpu::PhysMem& mem, ShadowMmu& shadow,
                         const VcpuState& vcpu, u32 guest_mem_limit)
    : mem_(mem),
      shadow_(shadow),
      vcpu_(vcpu),
      guest_mem_limit_(guest_mem_limit) {
  scratch_segs_.reserve(8);
}

void GuestMemory::flush_cache() {
  ++stats_.flushes;
  for (auto& e : entries_) e.valid = false;
}

void GuestMemory::on_tlb_invlpg(VAddr va) {
  Entry& e = entries_[index(va >> cpu::kPageBits)];
  if (e.valid && e.vpn == (va >> cpu::kPageBits)) {
    e.valid = false;
    ++stats_.invalidations;
  }
}

void GuestMemory::invalidate_overlapping(PAddr pa, u32 len) {
  for (auto& e : entries_) {
    if (!e.valid) continue;
    if ((pa < e.pde_addr + 4 && e.pde_addr < pa + len) ||
        (pa < e.pte_addr + 4 && e.pte_addr < pa + len)) {
      e.valid = false;
      ++stats_.invalidations;
    }
  }
}

void GuestMemory::on_guest_pt_store(PAddr pa, unsigned len) {
  invalidate_overlapping(pa, static_cast<u32>(len));
}

bool GuestMemory::translate(VAddr va, bool write, PAddr& pa) {
  if (!vcpu_.paging_enabled()) {
    if (va >= guest_mem_limit_) return false;
    pa = va;
    return true;
  }
  ++stats_.lookups;
  const u32 vpn = va >> cpu::kPageBits;
  Entry& e = entries_[index(vpn)];
  if (cache_enabled_ && e.valid && e.vpn == vpn && (!write || e.writable)) {
    ++stats_.hits;
    charge(hit_cost_);
    pa = (PAddr{e.pfn} << cpu::kPageBits) | (va & cpu::kPageMask);
    return true;
  }
  ++stats_.walks;
  charge(walk_cost_);
  const auto w =
      shadow_.walk_guest(vcpu_.vcr[cpu::kCr3], va, write, /*user=*/false);
  if (!w.ok) return false;
  if (w.pa >= guest_mem_limit_) return false;
  if (cache_enabled_) {
    // One entry serves both access types: walk_guest fills `writable` from
    // the guest PDE/PTE before the permission check, so a read walk of a
    // writable page lets later writes hit too.
    e.valid = true;
    e.writable = w.writable;
    e.vpn = vpn;
    e.pfn = w.pa >> cpu::kPageBits;
    e.pde_addr = w.pde_addr;
    e.pte_addr = w.pte_addr;
    ++stats_.fills;
  }
  pa = w.pa;
  return true;
}

bool GuestMemory::translate_span(VAddr va, std::size_t len, bool write,
                                 std::vector<Seg>& segs) {
  segs.clear();
  std::size_t done = 0;
  while (done < len) {
    const VAddr cur = va + static_cast<u32>(done);
    PAddr pa = 0;
    if (!translate(cur, write, pa)) return false;
    const u32 chunk = std::min<u32>(cpu::kPageSize - (cur & cpu::kPageMask),
                                    static_cast<u32>(len - done));
    segs.push_back({pa, chunk});
    done += chunk;
  }
  return true;
}

bool GuestMemory::read(VAddr va, std::span<u8> out) {
  if (out.empty()) return true;
  // Single-page fast path: no segment table needed.
  if ((va >> cpu::kPageBits) ==
      ((va + static_cast<u32>(out.size()) - 1) >> cpu::kPageBits)) {
    PAddr pa = 0;
    if (!translate(va, /*write=*/false, pa)) return false;
    mem_.read_block(pa, out);
    return true;
  }
  if (!translate_span(va, out.size(), /*write=*/false, scratch_segs_)) {
    return false;
  }
  std::size_t done = 0;
  for (const Seg& s : scratch_segs_) {
    mem_.read_block(s.pa, out.subspan(done, s.len));
    done += s.len;
  }
  return true;
}

bool GuestMemory::write(VAddr va, std::span<const u8> in) {
  if (in.empty()) return true;
  if ((va >> cpu::kPageBits) ==
      ((va + static_cast<u32>(in.size()) - 1) >> cpu::kPageBits)) {
    PAddr pa = 0;
    if (!translate(va, /*write=*/true, pa)) return false;
    mem_.write_block(pa, in);
    invalidate_overlapping(pa, static_cast<u32>(in.size()));
    return true;
  }
  // Two-phase: translate every page first so a failure mid-span leaves
  // guest memory untouched (all-or-nothing stub M commands).
  if (!translate_span(va, in.size(), /*write=*/true, scratch_segs_)) {
    return false;
  }
  std::size_t done = 0;
  for (const Seg& s : scratch_segs_) {
    mem_.write_block(s.pa, in.subspan(done, s.len));
    // A monitor poke may overwrite guest page-table words the cache
    // depends on (e.g. a debugger editing a PTE): drop those entries.
    invalidate_overlapping(s.pa, s.len);
    done += s.len;
  }
  return true;
}

bool GuestMemory::read32(VAddr va, u32& value) {
  u8 b[4];
  if (!read(va, b)) return false;
  value = u32(b[0]) | (u32(b[1]) << 8) | (u32(b[2]) << 16) | (u32(b[3]) << 24);
  return true;
}

bool GuestMemory::write32(VAddr va, u32 value) {
  const u8 b[4] = {static_cast<u8>(value), static_cast<u8>(value >> 8),
                   static_cast<u8>(value >> 16), static_cast<u8>(value >> 24)};
  return write(va, b);
}

void GuestMemory::save(SnapshotWriter& w) const {
  for (const Entry& e : entries_) {
    w.put_bool(e.valid);
    w.put_bool(e.writable);
    w.put_u32(e.vpn);
    w.put_u32(e.pfn);
    w.put_u32(e.pde_addr);
    w.put_u32(e.pte_addr);
  }
  w.put_u64(stats_.lookups);
  w.put_u64(stats_.hits);
  w.put_u64(stats_.walks);
  w.put_u64(stats_.fills);
  w.put_u64(stats_.invalidations);
  w.put_u64(stats_.flushes);
}

void GuestMemory::restore(SnapshotReader& r) {
  for (Entry& e : entries_) {
    e.valid = r.get_bool();
    e.writable = r.get_bool();
    e.vpn = r.get_u32();
    e.pfn = r.get_u32();
    e.pde_addr = r.get_u32();
    e.pte_addr = r.get_u32();
  }
  stats_.lookups = r.get_u64();
  stats_.hits = r.get_u64();
  stats_.walks = r.get_u64();
  stats_.fills = r.get_u64();
  stats_.invalidations = r.get_u64();
  stats_.flushes = r.get_u64();
}

}  // namespace vdbg::vmm
