#include "cpu/phys_mem.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "common/metrics.h"

namespace vdbg::cpu {

PhysMem::~PhysMem() {
  for (CowChunk* c : top_) cow_detail::release(c);
}

const u8* PhysMem::zero_page() {
  static const u8 kZero[kPageSize] = {};
  return kZero;
}

u8* PhysMem::cow_fault(u32 page, NewFrame init) {
  const u32 c = page >> kChunkBits;
  CowChunk* chunk = top_[c];
  if (chunk == nullptr) {
    chunk = top_[c] = new CowChunk;
  } else if (chunk->refs.load(std::memory_order_acquire) != 1) {
    chunk = unshare_chunk(c);
  }
  CowPage*& frame = chunk->frames[page & (kChunkPages - 1)];
  // A frame whose last other holder was released is written in place: no
  // copy, no fault.
  if (frame == nullptr || frame->refs.load(std::memory_order_acquire) != 1) {
    CowPage* fresh = new CowPage;
    if (init == NewFrame::kCopy) {
      std::memcpy(fresh->data, read_[page], kPageSize);
    }
    if (init != NewFrame::kRestore) ++cow_faults_;
    if (frame == nullptr) {
      ++chunk->resident;
      ++resident_;
    }
    cow_detail::release(frame);
    frame = fresh;
    read_[page] = fresh->data;
  }
  writable_[page] = frame->data;
  dirty_.push_back(page);
  return frame->data;
}

CowChunk* PhysMem::unshare_chunk(u32 c) {
  const CowChunk* shared = top_[c];
  CowChunk* own = new CowChunk;
  own->resident = shared->resident;
  own->nonzero = shared->nonzero;
  for (u32 i = 0; i < kChunkPages; ++i) {
    own->frames[i] = shared->frames[i];
    cow_detail::retain(own->frames[i]);
  }
  cow_detail::release(top_[c]);
  top_[c] = own;
  return own;
}

void PhysMem::clear_writable() {
  for (u32 p : dirty_) writable_[p] = nullptr;
  dirty_.clear();
}

void PhysMem::drop_all() {
  clear_writable();
  for (CowChunk*& c : top_) {
    cow_detail::release(c);
    c = nullptr;
  }
  std::fill(read_.begin(), read_.end(), zero_page());
  resident_ = 0;
  nonzero_ = 0;
}

void PhysMem::refresh_read(u32 c) {
  const CowChunk* chunk = top_[c];
  const u32 first = c << kChunkBits;
  const u32 n = std::min<u32>(kChunkPages, u32(read_.size()) - first);
  for (u32 i = 0; i < n; ++i) {
    const CowPage* frame = chunk ? chunk->frames[i] : nullptr;
    read_[first + i] = frame ? frame->data : zero_page();
  }
}

void PhysMem::sync_nonzero() const {
  // Only whole pages count: a trailing partial page is never saved.
  const u32 pages = size() >> kPageBits;
  for (u32 p : dirty_) {
    CowChunk* chunk = top_[p >> kChunkBits];
    const u64 bit = u64{1} << (p & (kChunkPages - 1));
    const bool nonzero =
        p < pages && std::memcmp(read_[p], zero_page(), kPageSize) != 0;
    if (nonzero == ((chunk->nonzero & bit) != 0)) continue;
    chunk->nonzero ^= bit;
    if (nonzero) {
      ++nonzero_;
    } else {
      --nonzero_;
    }
  }
}

CowPages PhysMem::capture_cow() {
  sync_nonzero();
  CowPages out;
  out.size_bytes_ = size_bytes_;
  out.resident_pages_ = resident_;
  out.nonzero_pages_ = nonzero_;
  out.chunks_.reserve(std::count_if(top_.begin(), top_.end(),
                                    [](auto* c) { return c != nullptr; }));
  for (u32 c = 0; c < static_cast<u32>(top_.size()); ++c) {
    CowChunk* chunk = top_[c];
    if (chunk == nullptr) continue;
    // A chunk the machine held alone holds the pages written since the
    // previous capture; among its frames, those it alone points to are the
    // ones this capture is the first to keep alive.
    if (chunk->refs.fetch_add(1, std::memory_order_relaxed) == 1) {
      ++out.fresh_chunks_;
      for (const CowPage* f : chunk->frames) {
        if (f && f->refs.load(std::memory_order_relaxed) == 1) {
          ++out.fresh_pages_;
        }
      }
    }
    out.chunks_.emplace_back(c, chunk);
  }
  clear_writable();
  ++cow_captures_;
  return out;
}

bool PhysMem::adopt_cow(const CowPages& t) {
  if (t.size_bytes_ != size_bytes_) return false;
  retire_all_code();
  clear_writable();
  // Same chunk, same bytes: only chunks that differ are swapped. Retaining
  // before releasing keeps a chunk both tables share alive.
  auto next = t.chunks_.begin();
  for (u32 c = 0; c < static_cast<u32>(top_.size()); ++c) {
    CowChunk* chunk = nullptr;
    if (next != t.chunks_.end() && next->first == c) chunk = (next++)->second;
    if (chunk == top_[c]) continue;
    cow_detail::retain(chunk);
    cow_detail::release(top_[c]);
    top_[c] = chunk;
    refresh_read(c);
  }
  resident_ = t.resident_pages_;
  nonzero_ = t.nonzero_pages_;
  ++cow_adopts_;
  return true;
}

void PhysMem::retire_all_code() {
  for (u32 w = 0; w < static_cast<u32>(code_pages_.size()); ++w) {
    for (u64 bits = std::exchange(code_pages_[w], 0); bits != 0;
         bits &= bits - 1) {
      const u32 p = w * 64 + u32(std::countr_zero(bits));
      if (code_[p] != 0) retire_page(p);
    }
  }
}

void PhysMem::cow_census(u64* zero, u64* shared, u64* owned) const {
  const u32 pages = static_cast<u32>(read_.size());
  u64 z = 0, s = 0, o = 0;
  for (u32 c = 0; c < static_cast<u32>(top_.size()); ++c) {
    const CowChunk* chunk = top_[c];
    const u32 n = std::min<u32>(kChunkPages, pages - (c << kChunkBits));
    if (chunk == nullptr) {
      z += n;
    } else if (chunk->refs.load(std::memory_order_relaxed) > 1) {
      s += chunk->resident;
      z += n - chunk->resident;
    } else {
      for (u32 i = 0; i < n; ++i) {
        const CowPage* f = chunk->frames[i];
        if (f == nullptr) {
          ++z;
        } else if (f->refs.load(std::memory_order_relaxed) > 1) {
          ++s;
        } else {
          ++o;
        }
      }
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
  // One census pass per registry read fills all three page gauges.
  struct Census {
    u64 zero = 0, shared = 0, owned = 0;
  };
  auto census = std::make_shared<ReadCache<Census>>(reg);
  const auto pages = [this, census](u64 Census::*count) {
    return [this, census, count] {
      const Census& c = census->get([this] {
        Census fresh;
        cow_census(&fresh.zero, &fresh.shared, &fresh.owned);
        return fresh;
      });
      return static_cast<double>(c.*count);
    };
  };
  reg.add_gauge("mem.cow.zero_pages", pages(&Census::zero),
                /*replay_exact=*/false);
  reg.add_gauge("mem.cow.shared_pages", pages(&Census::shared),
                /*replay_exact=*/false);
  reg.add_gauge("mem.cow.owned_pages", pages(&Census::owned),
                /*replay_exact=*/false);
}

void PhysMem::save(SnapshotWriter& w) const {
  w.put_u32(size_bytes_);
  w.put_u32(nonzero_pages());
  for (u32 c = 0; c < static_cast<u32>(top_.size()); ++c) {
    const CowChunk* chunk = top_[c];
    for (u64 bits = chunk ? chunk->nonzero : 0; bits != 0; bits &= bits - 1) {
      const u32 p = (c << kChunkBits) + u32(std::countr_zero(bits));
      w.put_u32(p);
      w.put_bytes(read_[p], kPageSize);
    }
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
  drop_all();
  for (u32 i = 0; i < nonzero; ++i) {
    const u32 p = r.get_u32();
    if (p >= pages) return false;
    u8* dst = writable_[p];
    r.get_bytes(dst ? dst : cow_fault(p, NewFrame::kRestore), kPageSize);
  }
  return true;
}

}  // namespace vdbg::cpu
