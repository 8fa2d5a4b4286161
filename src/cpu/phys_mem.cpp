#include "cpu/phys_mem.h"

#include "common/metrics.h"

namespace vdbg::cpu {

PhysMem::~PhysMem() {
  for (CowPage* n : nodes_) cow_detail::release(n);
}

const u8* PhysMem::zero_page() {
  static const u8 kZero[kPageSize] = {};
  return kZero;
}

u8* PhysMem::cow_fault(u32 page) {
  CowPage* fresh = new CowPage;
  std::memcpy(fresh->data, read_[page], kPageSize);
  cow_detail::release(nodes_[page]);
  nodes_[page] = fresh;
  read_[page] = fresh->data;
  ++cow_faults_;
  return fresh->data;
}

void PhysMem::drop_page(u32 page) {
  cow_detail::release(nodes_[page]);
  nodes_[page] = nullptr;
  read_[page] = zero_page();
}

u8* PhysMem::own_page_nocopy(u32 page) {
  CowPage* n = nodes_[page];
  if (n && n->refs.load(std::memory_order_acquire) == 1) return n->data;
  CowPage* fresh = new CowPage;
  cow_detail::release(n);
  nodes_[page] = fresh;
  read_[page] = fresh->data;
  return fresh->data;
}

CowPages PhysMem::capture_cow() {
  CowPages out;
  out.size_bytes_ = size_bytes_;
  const u32 pages = static_cast<u32>(nodes_.size());
  for (u32 p = 0; p < pages; ++p) {
    CowPage* n = nodes_[p];
    if (n == nullptr) continue;
    // refs == 1 means no older capture still references this frame: it was
    // (re)written since the previous capture, so this capture is the one
    // paying to keep it alive.
    if (n->refs.load(std::memory_order_relaxed) == 1) ++out.fresh_pages_;
    n->refs.fetch_add(1, std::memory_order_relaxed);
    out.pages_.emplace_back(p, n);
  }
  ++cow_captures_;
  return out;
}

bool PhysMem::adopt_cow(const CowPages& t) {
  if (t.size_bytes_ != size_bytes_) return false;
  // Retain before releasing our own frames so adopting a capture taken from
  // this very machine (refs momentarily equal) cannot free a live frame.
  for (const auto& [page, node] : t.pages_) cow_detail::retain(node);
  retire_all_code();
  const u32 pages = static_cast<u32>(nodes_.size());
  for (u32 p = 0; p < pages; ++p) {
    cow_detail::release(nodes_[p]);
    nodes_[p] = nullptr;
    read_[p] = zero_page();
  }
  for (const auto& [page, node] : t.pages_) {
    nodes_[page] = node;
    read_[page] = node->data;
  }
  ++cow_adopts_;
  return true;
}

void PhysMem::retire_all_code() {
  for (u32 p = 0; p < static_cast<u32>(code_.size()); ++p) {
    if (code_[p] != 0) retire_page(p);
  }
}

void PhysMem::cow_census(u64* zero, u64* shared, u64* owned) const {
  u64 z = 0, s = 0, o = 0;
  for (const CowPage* n : nodes_) {
    if (n == nullptr) {
      ++z;
    } else if (n->refs.load(std::memory_order_relaxed) > 1) {
      ++s;
    } else {
      ++o;
    }
  }
  if (zero) *zero = z;
  if (shared) *shared = s;
  if (owned) *owned = o;
}

void PhysMem::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("mem.cow.faults", &cow_faults_, /*replay_exact=*/false);
  reg.add_counter("mem.cow.captures", &cow_captures_, /*replay_exact=*/false);
  reg.add_counter("mem.cow.adopts", &cow_adopts_, /*replay_exact=*/false);
  reg.add_gauge(
      "mem.cow.zero_pages",
      [this] {
        u64 z = 0;
        cow_census(&z, nullptr, nullptr);
        return static_cast<double>(z);
      },
      /*replay_exact=*/false);
  reg.add_gauge(
      "mem.cow.shared_pages",
      [this] {
        u64 s = 0;
        cow_census(nullptr, &s, nullptr);
        return static_cast<double>(s);
      },
      /*replay_exact=*/false);
  reg.add_gauge(
      "mem.cow.owned_pages",
      [this] {
        u64 o = 0;
        cow_census(nullptr, nullptr, &o);
        return static_cast<double>(o);
      },
      /*replay_exact=*/false);
}

void PhysMem::save(SnapshotWriter& w) const {
  w.put_u32(size_bytes_);
  const u32 pages = size() >> kPageBits;
  u32 nonzero = 0;
  for (u32 p = 0; p < pages; ++p) {
    if (!page_is_zero(p)) ++nonzero;
  }
  w.put_u32(nonzero);
  for (u32 p = 0; p < pages; ++p) {
    if (page_is_zero(p)) continue;
    w.put_u32(p);
    w.put_bytes(nodes_[p]->data, kPageSize);
  }
}

void PhysMem::save_external(SnapshotWriter& w) const {
  w.put_u32(size_bytes_);
  w.put_u32(kExternalPages);
}

bool PhysMem::restore(SnapshotReader& r) {
  if (r.get_u32() != size_bytes_) return false;
  const u32 nonzero = r.get_u32();
  // External-contents stream: the caller adopted a CowPages table before
  // restoring; memory is already in place.
  if (nonzero == kExternalPages) return true;
  const u32 pages = size() >> kPageBits;
  retire_all_code();
  for (u32 p = 0; p < static_cast<u32>(nodes_.size()); ++p) drop_page(p);
  for (u32 i = 0; i < nonzero; ++i) {
    const u32 p = r.get_u32();
    if (p >= pages) return false;
    r.get_bytes(own_page_nocopy(p), kPageSize);
  }
  return true;
}

}  // namespace vdbg::cpu
