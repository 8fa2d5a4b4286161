// Physical memory of the simulated machine: page-granular copy-on-write
// frames under a two-level page table, per-page code masks and write
// versions, and protected ranges.
//
// Pages live in refcounted CowPage frames, grouped 64 to a refcounted
// CowChunk; the machine's top table points at its chunks. A chunk's count is
// the number of page tables (a PhysMem or a CowPages capture) that hold it,
// and a frame's count is the number of chunks that point to it. Capturing
// (capture_cow) retains the machine's chunks, so a capture costs one atomic
// per resident chunk, not per page; copying or releasing a capture costs the
// same. The machine's first write to a shared chunk copies the chunk (its
// frames are retained, not copied), and its first write to a shared frame
// copies the frame (cow_fault). All-zero pages that were never written are
// null frames backed by one static zero page, and an all-zero run of 64
// pages is a null chunk, so a 64 MiB machine that touches 2 MiB costs 2 MiB.
//
// Stores go through a flat writable mirror: a page's slot holds its frame
// while the machine alone holds both its chunk and its frame, and null
// otherwise. A page enters the mirror on its first write after a capture,
// adopt or restore, and is appended to a dirty list then; capture and adopt
// clear the mirror for the listed pages only. Per-chunk nonzero-page bits
// are exact for every page outside the mirror, so nonzero_pages() rescans
// only the listed pages.
//
// COW faults are host-side bookkeeping only: they charge no simulated
// cycles, so a timeline forked from a checkpoint replays bit-identically to
// the original run.
//
// Protected ranges model the monitor's private frames. Guest stores never
// reach them because the monitor's shadow page tables map no guest virtual
// address onto those frames, and device DMA consults overlaps_protected()
// and is refused (the devices report an address error). This is the
// physical backstop behind the paper's third protection level.
//
// Precise code-write detection: each page keeps a 64-bit code mask, one bit
// per 64-byte chunk, that superblock translation (cpu/superblock.h) sets
// over every range it decodes (mark_code). A write — CPU store, device
// DMA, monitor emulation, debugger poke — that overlaps a marked chunk
// retires the page: it bumps the page's version and clears its mask. Each
// decoded block is tagged with its code page's version, so every block on a
// retired page misses from then on and is decoded afresh (re-marking its
// chunks), no matter which agent wrote the page. A write to unmarked bytes
// leaves the version alone, so data sharing a page with hot code does not
// churn the cache. Masks and versions describe the host's decode history,
// not the guest: snapshots never carry them, and adopt_cow / restore retire
// every marked page before they replace the contents.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"

namespace vdbg {
class MetricsRegistry;
}

namespace vdbg::cpu {

// Page geometry of the simulated machine. Defined here (not mmu.h) because
// physical memory versions itself at page granularity.
inline constexpr u32 kPageBits = 12;
inline constexpr u32 kPageSize = 1u << kPageBits;
inline constexpr u32 kPageMask = kPageSize - 1;

/// One refcounted physical page frame. Its count is the number of chunks
/// that point to it. The refcount is atomic because forked sibling
/// timelines holding references run on fleet worker threads; frame
/// *contents* are only ever written while exclusively held.
struct CowPage {
  std::atomic<u32> refs{1};
  u8 data[kPageSize];
};

/// Pages per chunk of the two-level page table.
inline constexpr u32 kChunkBits = 6;
inline constexpr u32 kChunkPages = 1u << kChunkBits;

/// One refcounted run of kChunkPages page slots. Its count is the number of
/// page tables holding it; its fields change only while one table holds it
/// alone.
struct CowChunk {
  std::atomic<u32> refs{1};
  u32 resident = 0;  // non-null frames
  /// Bit i: frame i holds a nonzero byte. Exact for every page outside its
  /// machine's writable mirror, so exact whenever the chunk is shared.
  u64 nonzero = 0;
  CowPage* frames[kChunkPages] = {};
};

namespace cow_detail {
inline void retain(CowPage* p) {
  if (p) p->refs.fetch_add(1, std::memory_order_relaxed);
}
inline void release(CowPage* p) {
  if (p && p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete p;
}
inline void retain(CowChunk* c) {
  if (c) c->refs.fetch_add(1, std::memory_order_relaxed);
}
/// A chunk that dies releases its frames.
inline void release(CowChunk* c) {
  if (c && c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (CowPage* f : c->frames) release(f);
    delete c;
  }
}
}  // namespace cow_detail

/// A retained capture of one PhysMem's contents: its resident chunks, shared
/// and refcounted. Copyable (copies retain the chunks) and cheap to take,
/// copy and release: one atomic per resident chunk, no byte copies.
/// `fresh_pages()` counts frames no other capture or fork could see at
/// capture time — the pages dirtied since the previous capture, i.e. the
/// bytes a delta checkpoint newly pays for.
class CowPages {
 public:
  CowPages() = default;
  CowPages(const CowPages& o) { *this = o; }
  CowPages& operator=(const CowPages& o) {
    if (this == &o) return *this;
    release_all();
    size_bytes_ = o.size_bytes_;
    resident_pages_ = o.resident_pages_;
    nonzero_pages_ = o.nonzero_pages_;
    fresh_pages_ = o.fresh_pages_;
    fresh_chunks_ = o.fresh_chunks_;
    chunks_ = o.chunks_;
    for (auto& [index, chunk] : chunks_) cow_detail::retain(chunk);
    return *this;
  }
  CowPages(CowPages&& o) noexcept { swap(o); }
  CowPages& operator=(CowPages&& o) noexcept {
    if (this != &o) {
      release_all();
      swap(o);
    }
    return *this;
  }
  ~CowPages() { release_all(); }

  bool empty() const { return size_bytes_ == 0; }
  u32 size_bytes() const { return size_bytes_; }
  /// Resident (non-zero-sentinel) pages this capture references.
  u64 resident_pages() const { return resident_pages_; }
  /// Frames the captured machine alone held at capture time (dirtied since
  /// the previous capture) — the frames this capture alone keeps alive once
  /// the machine writes them again.
  u64 fresh_pages() const { return fresh_pages_; }
  /// Bytes this capture retains beyond what it shares with older captures:
  /// fresh frames, fresh chunks and the sparse chunk index. This is the
  /// honest marginal memory cost of keeping the capture in a checkpoint
  /// ring.
  u64 retained_bytes() const {
    return fresh_pages_ * kPageSize + fresh_chunks_ * sizeof(CowChunk) +
           chunks_.size() * (sizeof(u32) + sizeof(CowChunk*));
  }

 private:
  friend class PhysMem;
  void release_all() {
    for (auto& [index, chunk] : chunks_) cow_detail::release(chunk);
    chunks_.clear();
    size_bytes_ = 0;
    resident_pages_ = nonzero_pages_ = fresh_pages_ = fresh_chunks_ = 0;
  }
  void swap(CowPages& o) {
    std::swap(size_bytes_, o.size_bytes_);
    std::swap(resident_pages_, o.resident_pages_);
    std::swap(nonzero_pages_, o.nonzero_pages_);
    std::swap(fresh_pages_, o.fresh_pages_);
    std::swap(fresh_chunks_, o.fresh_chunks_);
    chunks_.swap(o.chunks_);
  }

  u32 size_bytes_ = 0;
  u64 resident_pages_ = 0;
  u32 nonzero_pages_ = 0;  // the machine's nonzero_pages() at capture
  u64 fresh_pages_ = 0;
  u64 fresh_chunks_ = 0;  // chunks the machine alone held at capture
  std::vector<std::pair<u32, CowChunk*>> chunks_;  // sorted by chunk index
};

class PhysMem {
 public:
  explicit PhysMem(u32 size_bytes)
      : size_bytes_(size_bytes),
        top_((((size_bytes + kPageMask) >> kPageBits) + kChunkPages - 1) >>
                 kChunkBits,
             nullptr),
        read_((size_bytes + kPageMask) >> kPageBits, zero_page()),
        writable_(read_.size(), nullptr),
        versions_((size_bytes >> kPageBits) + 1, 0),
        code_(versions_.size(), 0),
        code_pages_((code_.size() + 63) / 64, 0) {}
  ~PhysMem();
  // Copying would need refcount bookkeeping nothing wants; forks go through
  // capture_cow/adopt_cow instead. Move keeps by-value holders (CpuHarness,
  // Machine under NRVO) working: vector moves leave the source's chunk
  // table empty, so no double-release.
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;
  PhysMem(PhysMem&&) noexcept = default;
  PhysMem& operator=(PhysMem&&) = delete;

  u32 size() const { return size_bytes_; }
  bool contains(PAddr addr, u32 len) const {
    return addr <= size() && len <= size() - addr;
  }

  // --- raw accessors (no protection checks; used by the CPU after the MMU
  // has authorised the access, and by host-side tooling) ---
  u8 read8(PAddr a) const { return read_[a >> kPageBits][a & kPageMask]; }
  u16 read16(PAddr a) const {
    const u32 off = a & kPageMask;
    if (off <= kPageSize - 2) [[likely]] {
      const u8* p = read_[a >> kPageBits] + off;
      return u16(p[0]) | (u16(p[1]) << 8);
    }
    return u16(read8(a)) | (u16(read8(a + 1)) << 8);
  }
  u32 read32(PAddr a) const {
    const u32 off = a & kPageMask;
    if (off <= kPageSize - 4) [[likely]] {
      const u8* p = read_[a >> kPageBits] + off;
      return u32(p[0]) | (u32(p[1]) << 8) | (u32(p[2]) << 16) |
             (u32(p[3]) << 24);
    }
    return u32(read8(a)) | (u32(read8(a + 1)) << 8) |
           (u32(read8(a + 2)) << 16) | (u32(read8(a + 3)) << 24);
  }
  void write8(PAddr a, u8 v) {
    retire_code(a, 1);
    wpage(a >> kPageBits)[a & kPageMask] = v;
  }
  void write16(PAddr a, u16 v) {
    retire_code(a, 2);
    const u32 off = a & kPageMask;
    if (off <= kPageSize - 2) [[likely]] {
      u8* p = wpage(a >> kPageBits) + off;
      p[0] = static_cast<u8>(v);
      p[1] = static_cast<u8>(v >> 8);
      return;
    }
    put8(a, static_cast<u8>(v));
    put8(a + 1, static_cast<u8>(v >> 8));
  }
  void write32(PAddr a, u32 v) {
    retire_code(a, 4);
    const u32 off = a & kPageMask;
    if (off <= kPageSize - 4) [[likely]] {
      u8* p = wpage(a >> kPageBits) + off;
      p[0] = static_cast<u8>(v);
      p[1] = static_cast<u8>(v >> 8);
      p[2] = static_cast<u8>(v >> 16);
      p[3] = static_cast<u8>(v >> 24);
      return;
    }
    for (u32 i = 0; i < 4; ++i) put8(a + i, static_cast<u8>(v >> (8 * i)));
  }

  /// Bulk copy out of memory. Caller must check contains().
  void read_block(PAddr a, std::span<u8> out) const {
    std::size_t done = 0;
    while (done < out.size()) {
      const PAddr cur = a + static_cast<u32>(done);
      const u32 off = cur & kPageMask;
      const std::size_t n =
          std::min<std::size_t>(out.size() - done, kPageSize - off);
      std::memcpy(out.data() + done, read_[cur >> kPageBits] + off, n);
      done += n;
    }
  }
  /// Bulk copy into memory. Caller must check contains().
  void write_block(PAddr a, std::span<const u8> in) {
    fill_block(a, static_cast<u32>(in.size()),
               [&in](u32 done, std::span<u8> dst) {
                 std::memcpy(dst.data(), in.data() + done, dst.size());
               });
  }
  /// Bulk write in place: retires decoded code over [a, a+len) once, then
  /// calls fill(done, span) for each page-bounded writable span in address
  /// order, `done` being the span's offset from `a`. The fill must write
  /// every byte of its span. Copy-on-write faults and code retirement are
  /// exactly those of write_block. A whole-page span that faults gets its
  /// new frame without a copy of the old bytes, which the fill overwrites.
  /// Caller must check contains().
  template <typename Fill>
  void fill_block(PAddr a, u32 len, Fill&& fill) {
    if (len == 0) return;
    retire_code(a, len);
    for (u32 done = 0; done < len;) {
      const PAddr cur = a + done;
      const u32 off = cur & kPageMask;
      const u32 n = std::min(len - done, kPageSize - off);
      const u32 page = cur >> kPageBits;
      u8* frame = writable_[page];
      if (frame == nullptr) {
        frame = cow_fault(page, n == kPageSize ? NewFrame::kOverwrite
                                               : NewFrame::kCopy);
      }
      fill(done, std::span<u8>(frame + off, n));
      done += n;
    }
  }

  /// Write-version of physical page `page` (= pa >> kPageBits). Monotonic;
  /// bumped each time the page is retired (see retire_code).
  u64 page_version(u32 page) const { return versions_[page]; }
  /// Stable pointer to a page's version word (versions_ never reallocates
  /// after construction). Lets the block dispatcher poll one page's version
  /// in its inner loop without re-deriving the vector slot. COW relocates
  /// page *frames*, never the version table, so these stay valid across
  /// capture/adopt/fault.
  const u64* page_version_ptr(u32 page) const { return &versions_[page]; }

  // --- decoded-code tracking ---
  /// Marks [a, a+len) as decoded instruction bytes. The range lies inside
  /// one page (blocks never cross a page boundary).
  void mark_code(PAddr a, u32 len) {
    const u32 lo = (a & kPageMask) >> kCodeChunkBits;
    const u32 hi = ((a + len - 1) & kPageMask) >> kCodeChunkBits;
    const u32 page = a >> kPageBits;
    code_[page] |= chunk_span(lo, hi);
    code_pages_[page >> 6] |= u64{1} << (page & 63);
  }
  /// Retires every page whose marked chunks [a, a+len) overlaps: bumps its
  /// version and clears its mask. Every write calls this before it lands;
  /// a page without decoded code costs one load and a predictable branch.
  void retire_code(PAddr a, u32 len) {
    const u32 first = a >> kPageBits;
    const u32 last = (a + len - 1) >> kPageBits;
    for (u32 p = first; p <= last; ++p) {
      const u64 code = code_[p];
      if (code == 0) [[likely]] continue;
      const u32 lo = p == first ? (a & kPageMask) >> kCodeChunkBits : 0;
      const u32 hi = p == last ? ((a + len - 1) & kPageMask) >> kCodeChunkBits
                               : (kPageSize >> kCodeChunkBits) - 1;
      if (code & chunk_span(lo, hi)) retire_page(p);
    }
  }

  // --- protected (monitor-owned) ranges ---
  void add_protected_range(PAddr begin, u32 len) {
    protected_.push_back({begin, len});
  }

  /// True when [addr, addr+len) overlaps a protected range. Devices consult
  /// this before DMA writes; tests use it to assert containment.
  bool overlaps_protected(PAddr addr, u32 len) const {
    for (const auto& r : protected_) {
      if (addr < r.begin + r.len && r.begin < addr + len) return true;
    }
    return false;
  }

  /// Pages with at least one nonzero byte — what a sparse snapshot copies.
  /// Rescans only the pages written since the last capture or adopt.
  u32 nonzero_pages() const {
    sync_nonzero();
    return nonzero_;
  }

  // --- copy-on-write capture / adopt ---
  /// Retain the current contents as a shared page table. After capture the
  /// machine's resident chunks are shared; its next write to each one copies
  /// the chunk, then the frame. Charge-free and version-neutral.
  CowPages capture_cow();
  /// Replace the current contents with a previously captured table, after
  /// retiring every page that holds decoded code. Chunks become shared with
  /// the capture; writes after adoption copy-on-write. Only chunks that
  /// differ from the capture's are swapped. False on size mismatch.
  /// Self-adoption safe.
  bool adopt_cow(const CowPages& t);

  // --- host-side accounting (never serialized; mem.cow.* metrics) ---
  u64 cow_faults() const { return cow_faults_; }
  /// Page census for gauges: zero-sentinel / shared / exclusively owned.
  /// Walks the chunks; looks into frames only for chunks held alone.
  void cow_census(u64* zero, u64* shared, u64* owned) const;
  /// mem.cow.* metrics — all host-side (fork/debugger activity), so
  /// replay_exact=false.
  void register_metrics(MetricsRegistry& reg);

  // --- snapshot support ---
  /// Sparse save: only pages with at least one nonzero byte are stored.
  /// Code masks and versions are host decode history and are not saved; a
  /// full restore retires every marked page before it replaces the
  /// contents, so no block decoded before the restore matches afterwards.
  void save(SnapshotWriter& w) const;
  /// External-contents save: writes only the size echo and a sentinel page
  /// count. The matching restore() leaves memory untouched — the caller
  /// carries the contents out-of-band as a CowPages (adopt_cow *before*
  /// restoring the stream). This is what makes delta checkpoints cheap:
  /// the stream no longer embeds a full memory image.
  void save_external(SnapshotWriter& w) const;
  /// Returns false (and restores nothing) on a size mismatch; the snapshot
  /// was taken from a differently configured machine.
  bool restore(SnapshotReader& r);

 private:
  /// Sentinel "page count" marking an external-contents stream; impossible
  /// as a real count (a 4 GiB machine has 2^20 pages).
  static constexpr u32 kExternalPages = 0xFFFFFFFFu;

  static const u8* zero_page();

  /// Writable frame for `page`: one flat load on the fast path, else the
  /// copy-on-write slow path.
  u8* wpage(u32 page) {
    u8* w = writable_[page];
    if (w != nullptr) [[likely]] return w;
    return cow_fault(page);
  }
  /// Raw byte store without code retirement (callers already retired).
  void put8(PAddr a, u8 v) { wpage(a >> kPageBits)[a & kPageMask] = v; }
  /// What a new frame from cow_fault starts as. kCopy: the page's old
  /// bytes (a store). kOverwrite: unfilled, for a caller that writes the
  /// whole page. Both count one mem.cow.fault. kRestore: unfilled, and no
  /// fault, for a restore that loads the page from a stream.
  enum class NewFrame : u8 { kCopy, kOverwrite, kRestore };
  /// Makes `page`'s chunk and frame exclusive, copying the chunk only when
  /// it is shared and making a new frame only when the frame is shared or
  /// absent, then enters the page in the writable mirror and the dirty
  /// list.
  u8* cow_fault(u32 page, NewFrame init = NewFrame::kCopy);
  /// Replaces the shared chunk `c` with a private copy that retains the
  /// same frames.
  CowChunk* unshare_chunk(u32 c);
  /// Empties the writable mirror and the dirty list.
  void clear_writable();
  /// Releases every chunk: all memory reads as zero.
  void drop_all();
  /// Points read_ at chunk `c`'s frames.
  void refresh_read(u32 c);
  /// Brings the nonzero bits and count up to date for the dirty pages.
  void sync_nonzero() const;

  /// Code-mask granularity: one mask bit per 64-byte chunk, 64 per page.
  static constexpr u32 kCodeChunkBits = 6;
  /// Mask bits lo..hi inclusive (chunk indices within one page).
  static u64 chunk_span(u32 lo, u32 hi) {
    return (~u64{0} >> (63 - hi)) & (~u64{0} << lo);
  }
  void retire_page(u32 page) {
    ++versions_[page];
    code_[page] = 0;
  }
  /// Retires every page with decoded code (before contents are replaced),
  /// visiting only the pages marked since the last call.
  void retire_all_code();

  struct Range {
    PAddr begin;
    u32 len;
  };
  u32 size_bytes_ = 0;
  // Chunk table, kChunkPages pages per slot; null = all-zero pages.
  // snap:skip(save writes the pages it points to)
  std::vector<CowChunk*> top_;
  // Read-pointer mirror of the frames (static zero page for null slots);
  // purely derived, rebuilt by every table mutation.
  // snap:skip(derived from top_)
  std::vector<const u8*> read_;
  // Writable mirror: a page's frame while the machine alone holds its chunk
  // and frame and the page is in dirty_, else null.
  // snap:skip(derived from top_)
  std::vector<u8*> writable_;
  // Pages entered in writable_ since the last capture, adopt or restore.
  // snap:skip(derived from top_)
  std::vector<u32> dirty_;
  // Non-null frames. snap:skip(derived from top_)
  u64 resident_ = 0;
  // Set nonzero bits across the chunks. snap:skip(derived from top_)
  mutable u32 nonzero_ = 0;
  // Host decode history (see the header comment), which restore retires
  // instead of rolling back. snap:skip(host decode history)
  std::vector<u64> versions_;
  // One bit per 64-byte chunk of decoded bytes. snap:skip(host decode history)
  std::vector<u64> code_;
  // One bit per page marked since the last retire_all_code: a superset of
  // the pages with a nonzero code_ mask. snap:skip(host decode history)
  std::vector<u64> code_pages_;
  // Install-time monitor ranges; restore targets an installed machine
  // where they are already in place. snap:skip(install-time)
  std::vector<Range> protected_;
  // Host-side COW accounting: fault/capture/adopt counts are a function of
  // debugger and fork activity, not guest state. snap:skip(host-side stats)
  u64 cow_faults_ = 0;
  u64 cow_captures_ = 0;  // snap:skip(host-side stats)
  u64 cow_adopts_ = 0;    // snap:skip(host-side stats)
};

}  // namespace vdbg::cpu
