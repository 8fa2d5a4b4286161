// Copy-on-write physical memory tests: frame sharing between a machine and
// its captures, write isolation across forked siblings, delta-capture
// accounting (fresh pages = dirtied since the previous capture), the
// two-level table against a flat model of refcounted frames and across
// threads, decoded-code tracking (which writes retire a page, and that
// adopting or restoring contents retires every decoded page), and the
// TimeTravel property the multiverse rests on — a delta checkpoint restores
// to state byte-identical with a full self-contained snapshot, and a stream
// that does not fit the machine changes nothing.
#include <gtest/gtest.h>

#include <array>
#include <list>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/units.h"
#include "cpu/phys_mem.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/time_travel.h"

namespace vdbg::test {
namespace {

using cpu::CowPages;
using cpu::kChunkPages;
using cpu::kPageSize;
using cpu::PhysMem;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using vmm::TimeTravel;
using MStop = hw::Machine::StopReason;

constexpr u32 kMemBytes = 1024 * 1024;

// --------------------------------------------------------- frame sharing --

TEST(CowPhysMem, CaptureIsSparseAndZeroPagesStayFree) {
  PhysMem m(kMemBytes);
  EXPECT_EQ(m.nonzero_pages(), 0u);

  const CowPages empty = m.capture_cow();
  EXPECT_EQ(empty.resident_pages(), 0u);
  EXPECT_EQ(empty.fresh_pages(), 0u);
  EXPECT_EQ(empty.retained_bytes(), 0u);

  m.write32(5 * kPageSize + 16, 0x11223344);
  m.write32(9 * kPageSize, 0x55667788);
  const CowPages two = m.capture_cow();
  EXPECT_EQ(two.resident_pages(), 2u);
  EXPECT_EQ(two.fresh_pages(), 2u);
  EXPECT_GE(two.retained_bytes(), 2u * kPageSize);

  u64 zero = 0, shared = 0, owned = 0;
  m.cow_census(&zero, &shared, &owned);
  EXPECT_EQ(shared, 2u);  // both resident frames now shared with the capture
  EXPECT_EQ(owned, 0u);
  EXPECT_EQ(zero, (kMemBytes / kPageSize) - 2);
}

TEST(CowPhysMem, ForkedSiblingsWriteTheSamePageWithoutInterference) {
  PhysMem parent(kMemBytes);
  const u32 addr = 7 * kPageSize + 128;
  parent.write32(addr, 0xa11ce);
  const CowPages snap = parent.capture_cow();

  PhysMem sibling(kMemBytes);
  ASSERT_TRUE(sibling.adopt_cow(snap));
  EXPECT_EQ(sibling.read32(addr), 0xa11ceu);

  // Both timelines dirty the SAME page; each must fault onto a private
  // frame and neither may see the other's write.
  parent.write32(addr, 0xfacade);
  sibling.write32(addr, 0xdecade);
  EXPECT_EQ(parent.read32(addr), 0xfacadeu);
  EXPECT_EQ(sibling.read32(addr), 0xdecadeu);
  EXPECT_GE(parent.cow_faults() + sibling.cow_faults(), 2u);

  // A third adopter of the original capture still reads the original
  // contents: the shared frame itself was never written through.
  PhysMem witness(kMemBytes);
  ASSERT_TRUE(witness.adopt_cow(snap));
  EXPECT_EQ(witness.read32(addr), 0xa11ceu);
}

// ------------------------------------------------- decoded-code tracking --

TEST(PhysMemCode, WritesRetireExactlyThePagesWhoseMarkedChunksTheyOverlap) {
  // Pages 2..5; superblock translation marks the 64-byte chunks it decoded.
  PhysMem m(kMemBytes);
  const u32 p2 = 2 * kPageSize, p3 = 3 * kPageSize, p5 = 5 * kPageSize;
  std::array<u64, 4> seen{};
  // Which of pages 2..5 were retired since the previous call, as a bitmask.
  const auto retired = [&] {
    unsigned bits = 0;
    for (u32 i = 0; i < 4; ++i) {
      const u64 v = m.page_version(2 + i);
      if (v != seen[i]) bits |= 1u << i;
      seen[i] = v;
    }
    return bits;
  };
  const auto mark = [&] {
    m.mark_code(p2 + 0x40, 0x40);  // page 2, chunk 1 only
    m.mark_code(p3, 8);            // page 3, chunk 0
    m.mark_code(p5 + 0x140, 16);   // page 5, chunk 5
  };
  mark();
  retired();

  m.write8(p2 + 0x3f, 1);  // chunk 0: data next to code
  m.write8(p2 + 0x80, 1);  // chunk 2
  m.write32(p2 + 0xffc, 1);
  m.write8(p3 + 0x40, 1);
  EXPECT_EQ(retired(), 0u) << "a write beside decoded bytes retired a page";

  m.write8(p2 + 0x40, 1);
  EXPECT_EQ(retired(), 0b0001u);
  m.write8(p2 + 0x40, 2);  // retiring cleared page 2's mask
  EXPECT_EQ(retired(), 0u);

  mark();
  retired();
  m.write16(p2 + 0x7f, 1);  // straddles chunks 1 and 2 (host writes may)
  EXPECT_EQ(retired(), 0b0001u);
  mark();
  retired();
  m.write32(p2 + 0x3e, 1);  // straddles chunks 0 and 1
  EXPECT_EQ(retired(), 0b0001u);

  mark();
  retired();
  m.write32(p3 - 2, 1);  // last chunk of page 2, first chunk of page 3
  EXPECT_EQ(retired(), 0b0010u);

  // A bulk write over the tail of page 2, all of pages 3 and 4, and the
  // head of page 5 retires exactly the pages with marked chunks in range.
  mark();
  retired();
  std::vector<u8> bytes(p5 + 0x140 - (p2 + 0x800), 0xab);
  m.write_block(p2 + 0x800, bytes);
  EXPECT_EQ(retired(), 0b0010u) << "page 5's chunk 5 starts past the write";
  mark();
  retired();
  bytes.push_back(0xcd);
  m.write_block(p2 + 0x800, bytes);
  EXPECT_EQ(retired(), 0b1010u);
}

/// Snapshot stream holding only `m`'s PhysMem section.
std::vector<u8> save_mem(const PhysMem& m) {
  SnapshotWriter w;
  w.begin_section(SnapTag::kPhysMem);
  m.save(w);
  w.end_section();
  return w.finish();
}

TEST(CowPhysMem, AdoptAndRestoreRetireDecodedCode) {
  // Page versions record decode history, not contents, so they never roll
  // back. Replacing the contents — adopting a capture, or restoring a full
  // stream — retires every page holding decoded code (its version moves
  // past every block decoded from it) and leaves the other pages alone.
  PhysMem m(kMemBytes);
  const u32 code = 3 * kPageSize;
  const u32 data = 4 * kPageSize;
  m.write32(code, 1);
  m.write32(data, 2);
  const CowPages snap = m.capture_cow();
  const auto stream = save_mem(m);

  m.mark_code(code, 64);
  u64 v_code = m.page_version(3);
  const u64 v_data = m.page_version(4);
  m.write32(code, 5);  // lands on decoded bytes: retires the page
  EXPECT_GT(m.page_version(3), v_code);

  m.mark_code(code, 64);
  v_code = m.page_version(3);
  ASSERT_TRUE(m.adopt_cow(snap));
  EXPECT_EQ(m.read32(code), 1u);
  EXPECT_GT(m.page_version(3), v_code) << "adopt kept a decoded page";
  EXPECT_EQ(m.page_version(4), v_data);
  // Retiring cleared the mask: the page holds no decoded code any more.
  v_code = m.page_version(3);
  m.write32(code, 6);
  EXPECT_EQ(m.page_version(3), v_code);

  m.mark_code(code, 64);
  SnapshotReader r(stream);
  ASSERT_TRUE(r.open_section(SnapTag::kPhysMem));
  ASSERT_TRUE(m.restore(r));
  EXPECT_EQ(m.read32(code), 1u);
  EXPECT_GT(m.page_version(3), v_code) << "restore kept a decoded page";
  EXPECT_EQ(m.page_version(4), v_data);

  // Decode history is not saved: the same contents give the same stream.
  EXPECT_EQ(save_mem(m), stream);
}

// Adopting retires the pages marked since the previous adopt or restore:
// every round, a zero page included, and not a page whose mask a write
// already cleared.
TEST(PhysMemCode, EachAdoptRetiresThePagesMarkedSinceTheLast) {
  PhysMem m(kMemBytes);
  const u32 code = 3 * kPageSize;
  const u32 zero = 200 * kPageSize;
  m.write32(code, 1);
  const CowPages snap = m.capture_cow();
  for (int round = 0; round < 3; ++round) {
    m.mark_code(code, 64);
    m.mark_code(zero, 64);
    const u64 v_code = m.page_version(3);
    const u64 v_zero = m.page_version(200);
    const u64 v_data = m.page_version(4);
    ASSERT_TRUE(m.adopt_cow(snap));
    EXPECT_GT(m.page_version(3), v_code) << "round " << round;
    EXPECT_GT(m.page_version(200), v_zero) << "round " << round;
    EXPECT_EQ(m.page_version(4), v_data) << "round " << round;
  }
  m.mark_code(code, 64);
  m.write32(code, 7);  // retires page 3 and clears its mask
  const u64 v_code = m.page_version(3);
  ASSERT_TRUE(m.adopt_cow(snap));
  EXPECT_EQ(m.page_version(3), v_code);
}

TEST(CowPhysMem, SelfAdoptionIsSafe) {
  PhysMem m(kMemBytes);
  m.write32(0x4000, 0xbeef);
  const CowPages snap = m.capture_cow();
  ASSERT_TRUE(m.adopt_cow(snap));
  EXPECT_EQ(m.read32(0x4000), 0xbeefu);

  // Size mismatch is refused and leaves the target untouched.
  PhysMem other(kMemBytes * 2);
  other.write32(0x4000, 7);
  EXPECT_FALSE(other.adopt_cow(snap));
  EXPECT_EQ(other.read32(0x4000), 7u);
}

TEST(CowPhysMem, FreshPagesCountOnlyPagesDirtiedSinceTheLastCapture) {
  PhysMem m(kMemBytes);
  for (u32 p = 0; p < 8; ++p) m.write32(p * kPageSize, p + 1);
  const CowPages base = m.capture_cow();
  EXPECT_EQ(base.fresh_pages(), 8u);

  // Dirty exactly one page: the next capture retains one new frame and
  // shares the other seven with `base`.
  m.write32(2 * kPageSize, 0x99);
  const CowPages delta = m.capture_cow();
  EXPECT_EQ(delta.resident_pages(), 8u);
  EXPECT_EQ(delta.fresh_pages(), 1u);
  EXPECT_LT(delta.retained_bytes(), base.retained_bytes());
  EXPECT_GE(delta.retained_bytes(), u64{kPageSize});
}

TEST(CowPhysMem, MetricsRegisterUnderMemCow) {
  PhysMem m(kMemBytes);
  MetricsRegistry reg;
  m.register_metrics(reg);
  bool saw_faults = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "mem.cow.faults") {
      saw_faults = true;
      EXPECT_FALSE(s.replay_exact) << "COW activity is host-side";
    }
    EXPECT_EQ(s.name.rfind("mem.cow.", 0), 0u);
  }
  EXPECT_TRUE(saw_faults);
}

TEST(CowPhysMem, PageGaugesMatchTheCensusAtEveryRead) {
  PhysMem m(kMemBytes);
  MetricsRegistry reg;
  m.register_metrics(reg);
  const auto expect_census = [&](const char* when) {
    u64 zero = 0, shared = 0, owned = 0;
    m.cow_census(&zero, &shared, &owned);
    double got_zero = -1, got_shared = -1, got_owned = -1;
    for (const auto& s : reg.snapshot()) {
      if (s.name == "mem.cow.zero_pages") got_zero = s.number;
      if (s.name == "mem.cow.shared_pages") got_shared = s.number;
      if (s.name == "mem.cow.owned_pages") got_owned = s.number;
    }
    EXPECT_EQ(got_zero, double(zero)) << when;
    EXPECT_EQ(got_shared, double(shared)) << when;
    EXPECT_EQ(got_owned, double(owned)) << when;
    EXPECT_EQ(reg.value("mem.cow.owned_pages"), double(owned)) << when;
  };
  expect_census("fresh");
  for (u32 p : {1u, 2u, 3u}) m.write32(p * kPageSize, p);
  expect_census("three pages written");
  {
    const CowPages first = m.capture_cow();
    expect_census("captured");
    m.write32(2 * kPageSize + 8, 0xbeef);  // copy-on-write fault
    m.write32(6 * kPageSize, 0xcafe);      // fresh page
    expect_census("written after capture");
    const CowPages second = m.capture_cow();
    expect_census("captured again");
  }
  expect_census("checkpoints released");
  // value() reads afresh each time, with no snapshot in between.
  const double owned = *reg.value("mem.cow.owned_pages");
  m.write32(9 * kPageSize, 1);
  EXPECT_EQ(reg.value("mem.cow.owned_pages"), owned + 1);
  EXPECT_EQ(reg.value("mem.cow.zero_pages"),
            double(kMemBytes / kPageSize) - owned - 1);
}

// ------------------------------------------------------- the flat model --

// The two-level table against a model kept as plain byte arrays plus one
// frame id per page and holder: a page's frame is shared when another live
// holder (the other machine or a capture) has the same id there, and a
// write to a page with no frame or a shared one is a COW fault that gives
// the writer a new id. That is the one-refcount-per-frame design the table
// replaced, so every count below must come out the same.
class FlatModel {
 public:
  static constexpr u32 kPages = 2 * kChunkPages + 22;  // a partial chunk
  static constexpr u32 kBytes = kPages * kPageSize;

  struct Image {
    std::vector<u8> bytes = std::vector<u8>(kBytes, 0);
    std::vector<u64> ids = std::vector<u64>(kPages, 0);
  };
  struct Capture {
    Image image;
    u64 resident = 0, fresh = 0;
    CowPages cow;
  };

  FlatModel() : mem_{PhysMem(kBytes), PhysMem(kBytes)} {}

  void step(Rng& rng) {
    const unsigned m = static_cast<unsigned>(rng.below(2));
    switch (rng.below(12)) {
      case 0: case 1: case 2:
        write_word(m, rng);
        break;
      case 3: case 4:
        write_span(m, rng, /*zeros=*/false);
        break;
      case 5:
        write_span(m, rng, /*zeros=*/true);
        break;
      case 6: case 7:
        capture(m);
        break;
      case 8:
        if (!caps_.empty()) caps_.erase(pick(rng));
        break;
      case 9:
        if (!caps_.empty()) adopt(m, *pick(rng));
        break;
      case 10:
        streams_.push_back({save_stream(mem_[m]), image_[m].bytes});
        break;
      case 11:
        if (!streams_.empty()) {
          restore_stream(m, streams_[rng.below(streams_.size())]);
        }
        break;
    }
  }

  /// Releases every holder of `page` but machine `m`, then writes it: the
  /// write lands in place, with no copy and no fault.
  void rewrite_after_release(unsigned m, u32 page) {
    touch(m, page * kPageSize, 1, [](u32) { return u8{0x5a}; });
    capture(m);
    caps_.clear();
    // The other machine lets go by adopting an empty image.
    ASSERT_TRUE(mem_[1 - m].adopt_cow(PhysMem(kBytes).capture_cow()));
    image_[1 - m] = Image();
    const u64 before = mem_[m].cow_faults();
    touch(m, page * kPageSize + 8, 4, [](u32 i) { return u8(0xc0 + i); });
    EXPECT_EQ(mem_[m].cow_faults(), before);
  }

  void check(const std::string& when) const {
    for (unsigned m = 0; m < 2; ++m) {
      const PhysMem& mem = mem_[m];
      const Image& img = image_[m];
      std::vector<u8> got(kBytes);
      mem.read_block(0, got);
      for (u32 p = 0; p < kPages; ++p) {
        ASSERT_EQ(0, std::memcmp(got.data() + p * kPageSize,
                                 img.bytes.data() + p * kPageSize, kPageSize))
            << when << ": machine " << m << " page " << p;
      }
      u32 nonzero = 0;
      u64 zero = 0, shared = 0, owned = 0;
      for (u32 p = 0; p < kPages; ++p) {
        if (!page_is_zero(img.bytes, p)) ++nonzero;
        if (img.ids[p] == 0) {
          ++zero;
        } else if (is_shared(&img, p)) {
          ++shared;
        } else {
          ++owned;
        }
      }
      EXPECT_EQ(mem.nonzero_pages(), nonzero) << when << ": machine " << m;
      u64 z = 0, s = 0, o = 0;
      mem.cow_census(&z, &s, &o);
      EXPECT_EQ(z, zero) << when << ": machine " << m;
      EXPECT_EQ(s, shared) << when << ": machine " << m;
      EXPECT_EQ(o, owned) << when << ": machine " << m;
      EXPECT_EQ(mem.cow_faults(), faults_[m]) << when << ": machine " << m;
    }
    for (const Capture& c : caps_) {
      EXPECT_EQ(c.cow.resident_pages(), c.resident) << when;
      EXPECT_EQ(c.cow.fresh_pages(), c.fresh) << when;
    }
  }

 private:
  struct Stream {
    std::vector<u8> bytes;
    std::vector<u8> image;
  };

  static bool page_is_zero(const std::vector<u8>& bytes, u32 p) {
    for (u32 i = 0; i < kPageSize; ++i) {
      if (bytes[p * kPageSize + i] != 0) return false;
    }
    return true;
  }

  bool is_shared(const Image* img, u32 p) const {
    const u64 id = img->ids[p];
    for (const Image& other : image_) {
      if (&other != img && other.ids[p] == id) return true;
    }
    for (const Capture& c : caps_) {
      if (&c.image != img && c.image.ids[p] == id) return true;
    }
    return false;
  }

  std::list<Capture>::iterator pick(Rng& rng) {
    auto it = caps_.begin();
    std::advance(it, rng.below(caps_.size()));
    return it;
  }

  /// The model's fault rule for a write over [a, a+len) on machine `m`: the
  /// first byte that lands on a page without a frame of its own faults and
  /// gives the page a new frame.
  void fault_pages(unsigned m, u32 a, u32 len) {
    Image& img = image_[m];
    for (u32 p = a / kPageSize; p <= (a + len - 1) / kPageSize; ++p) {
      if (img.ids[p] == 0 || is_shared(&img, p)) {
        ++faults_[m];
        img.ids[p] = next_id_++;
      }
    }
  }

  /// write_block of byte(i) over [a, a+len) on machine `m` and its model.
  template <typename Byte>
  void touch(unsigned m, u32 a, u32 len, Byte byte) {
    fault_pages(m, a, len);
    std::vector<u8> bytes(len);
    for (u32 i = 0; i < len; ++i) bytes[i] = byte(i);
    std::memcpy(image_[m].bytes.data() + a, bytes.data(), len);
    mem_[m].write_block(a, bytes);
  }

  /// A hot set of pages on both sides of each chunk boundary, plus any page.
  static u32 pick_page(Rng& rng) {
    static constexpr u32 kHot[] = {0,  1,  5,  62, 63,  64,
                                   65, 90, 127, 128, 129, kPages - 1};
    return rng.chance(0.7) ? kHot[rng.below(std::size(kHot))]
                           : static_cast<u32>(rng.below(kPages));
  }

  void write_word(unsigned m, Rng& rng) {
    const u32 size = 1u << rng.below(3);  // 1, 2 or 4 bytes
    // Sometimes straddle the end of the page (host writes may).
    const u32 off = rng.chance(0.2) ? kPageSize - 1 - u32(rng.below(3))
                                    : u32(rng.below(kPageSize - 4));
    const u32 a = std::min(pick_page(rng) * kPageSize + off, kBytes - size);
    const u32 v = rng.next_u32();
    fault_pages(m, a, size);
    for (u32 i = 0; i < size; ++i) image_[m].bytes[a + i] = u8(v >> (8 * i));
    if (size == 1) mem_[m].write8(a, u8(v));
    if (size == 2) mem_[m].write16(a, u16(v));
    if (size == 4) mem_[m].write32(a, v);
  }

  /// write_block or fill_block across page and chunk boundaries; with
  /// `zeros`, whole pages of zeros (a nonzero page can turn zero).
  void write_span(unsigned m, Rng& rng, bool zeros) {
    const u32 start = pick_page(rng) * kPageSize +
                      (zeros ? 0 : u32(rng.below(kPageSize)));
    const u32 max_len = kBytes - start;
    const u32 len = std::min<u32>(
        max_len, zeros ? kPageSize * u32(rng.between(1, 2))
                       : u32(rng.between(1, 3 * kPageSize)));
    const u8 seed = static_cast<u8>(rng.next_u32());
    const auto byte = [zeros, seed](u32 i) {
      return zeros ? u8{0} : u8(seed + i * 7);
    };
    fault_pages(m, start, len);
    for (u32 i = 0; i < len; ++i) image_[m].bytes[start + i] = byte(i);
    if (rng.chance(0.5)) {
      std::vector<u8> bytes(len);
      for (u32 i = 0; i < len; ++i) bytes[i] = byte(i);
      mem_[m].write_block(start, bytes);
    } else {
      mem_[m].fill_block(start, len, [&](u32 done, std::span<u8> dst) {
        for (std::size_t i = 0; i < dst.size(); ++i) {
          dst[i] = byte(done + static_cast<u32>(i));
        }
      });
    }
  }

  void capture(unsigned m) {
    Capture c;
    c.image = image_[m];
    for (u32 p = 0; p < kPages; ++p) {
      if (c.image.ids[p] == 0) continue;
      ++c.resident;
      if (!is_shared(&image_[m], p)) ++c.fresh;
    }
    c.cow = mem_[m].capture_cow();
    caps_.push_back(std::move(c));
  }

  void adopt(unsigned m, const Capture& c) {
    ASSERT_TRUE(mem_[m].adopt_cow(c.cow));
    image_[m] = c.image;
  }

  static std::vector<u8> save_stream(const PhysMem& mem) {
    SnapshotWriter w;
    w.begin_section(SnapTag::kPhysMem);
    mem.save(w);
    w.end_section();
    return w.finish();
  }

  void restore_stream(unsigned m, const Stream& s) {
    SnapshotReader r(s.bytes);
    ASSERT_TRUE(r.open_section(SnapTag::kPhysMem));
    ASSERT_TRUE(mem_[m].restore(r));
    Image& img = image_[m];
    img.bytes = s.image;
    // A full restore leaves a private frame for each nonzero page only.
    for (u32 p = 0; p < kPages; ++p) {
      img.ids[p] = page_is_zero(img.bytes, p) ? 0 : next_id_++;
    }
  }

  std::array<PhysMem, 2> mem_;
  std::array<Image, 2> image_;
  std::array<u64, 2> faults_{};
  std::list<Capture> caps_;
  std::vector<Stream> streams_;
  u64 next_id_ = 1;
};

TEST(CowPhysMem, RandomOpsMatchAFlatModel) {
  for (const u64 seed : {1u, 2u, 3u}) {
    FlatModel model;
    Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      model.step(rng);
      model.check("seed " + std::to_string(seed) + " step " +
                  std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const u32 page : {3u, kChunkPages, FlatModel::kPages - 1}) {
      model.rewrite_after_release(0, page);
      model.check("rewrite after release, page " + std::to_string(page));
    }
  }
}

// Forks on fleet worker threads share one capture's chunks and frames: each
// adopts it, then writes, captures and releases in a loop, while the others
// retain and release the same chunks. TSan runs this in CI.
TEST(CowPhysMem, ForksOnThreadsShareChunks) {
  constexpr u32 kBytes = 4 * kChunkPages * kPageSize;
  constexpr unsigned kThreads = 4;
  PhysMem parent(kBytes);
  for (u32 p = 0; p < kBytes / kPageSize; p += 3) {
    parent.write32(p * kPageSize, 0x1000 + p);
  }
  const CowPages base = parent.capture_cow();

  std::array<bool, kThreads> ok{};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PhysMem fork(kBytes);
      fork.adopt_cow(base);
      std::vector<CowPages> ring;
      for (u32 i = 0; i < 200; ++i) {
        const u32 page = (i * 7 + t * 13) % (kBytes / kPageSize);
        fork.write32(page * kPageSize + 4, (t << 16) | i);
        ring.push_back(fork.capture_cow());
        if (ring.size() > 3) ring.erase(ring.begin());
      }
      bool good = true;
      for (u32 p = 0; p < kBytes / kPageSize; p += 3) {
        good = good && fork.read32(p * kPageSize) == 0x1000 + p;
      }
      // The last write each page saw is this thread's own.
      for (u32 i = 200 - 10; i < 200; ++i) {
        const u32 page = (i * 7 + t * 13) % (kBytes / kPageSize);
        good = good && (fork.read32(page * kPageSize + 4) >> 16) == t;
      }
      ok[t] = good;
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;

  // The shared capture was never written through.
  PhysMem witness(kBytes);
  ASSERT_TRUE(witness.adopt_cow(base));
  for (u32 p = 0; p < kBytes / kPageSize; ++p) {
    EXPECT_EQ(witness.read32(p * kPageSize), p % 3 == 0 ? 0x1000 + p : 0u);
    EXPECT_EQ(witness.read32(p * kPageSize + 4), 0u);
  }
  u64 zero = 0, shared = 0, owned = 0;
  parent.cow_census(&zero, &shared, &owned);
  EXPECT_EQ(shared, base.resident_pages());
}

// ------------------------------------------------- delta checkpoint ring --

std::unique_ptr<Platform> make_lvmm() {
  auto p = std::make_unique<Platform>(PlatformKind::kLvmm);
  p->prepare(RunConfig::for_rate_mbps(40.0));
  return p;
}

// The headline property: restoring a delta (COW) checkpoint lands on state
// byte-identical to a full self-contained snapshot taken at the same
// boundary.
TEST(CowCheckpoint, DeltaRestoreIsByteIdenticalToFullSnapshot) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel tt(*p->monitor());

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto full = tt.save_state();  // always a full stream
  ASSERT_FALSE(full.empty());

  // The delta stream itself must be much smaller than the full one (it
  // externalises memory), while restoring to identical state.
  const auto& cp = tt.checkpoints().back();
  EXPECT_GT(cp.mem.resident_pages(), 0u);
  EXPECT_LT(cp.bytes.size(), full.size() / 4);

  // Run past the boundary, then restore through the fork path the
  // multiverse uses (adopt the COW table, then replay the external-memory
  // stream over it).
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.005)), MStop::kBudget);
  ASSERT_TRUE(vmm::restore_checkpoint(m, p->monitor(), cp));
  EXPECT_EQ(tt.save_state(), full)
      << "delta checkpoint restored to different state than a full snapshot";
}

/// Full save() of a machine, the byte-identity witness.
std::vector<u8> save_machine(const hw::Machine& m) {
  SnapshotWriter w;
  m.save(w);
  return w.finish();
}

// Restore applies nothing until the stream fits: a checkpoint from a
// machine with another disk count, or one missing the monitor's sections,
// is refused with the target's memory and every section as they were.
TEST(CowCheckpoint, MismatchedRestoreLeavesTheMachineUntouched) {
  hw::MachineConfig three;
  three.mem_bytes = kMemBytes;
  three.num_disks = 3;
  hw::MachineConfig two = three;
  two.num_disks = 2;
  hw::Machine src(three);
  hw::Machine dst(two);
  src.mem().write32(0x5000, 0xaaaa5555);
  dst.mem().write32(0x5000, 0x12345678);

  vmm::Checkpoint cp;
  cp.mem = src.mem().capture_cow();
  SnapshotWriter w;
  src.save(w, /*external_mem=*/true);
  cp.bytes = w.finish();

  const auto before = save_machine(dst);
  EXPECT_FALSE(vmm::restore_checkpoint(dst, nullptr, cp));
  EXPECT_EQ(dst.mem().read32(0x5000), 0x12345678u);
  EXPECT_EQ(save_machine(dst), before);

  // Same machine configuration, but the stream lacks the monitor's
  // sections: refused before any page is adopted.
  auto p = make_lvmm();
  auto& m = p->machine();
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.002)), MStop::kBudget);
  vmm::Checkpoint machine_only;
  machine_only.mem = m.mem().capture_cow();
  SnapshotWriter mw;
  m.save(mw, /*external_mem=*/true);
  machine_only.bytes = mw.finish();
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.002)), MStop::kBudget);
  TimeTravel tt(*p->monitor());
  const auto live = tt.save_state();
  EXPECT_FALSE(vmm::restore_checkpoint(m, p->monitor(), machine_only));
  EXPECT_EQ(tt.save_state(), live);
}

// Consecutive delta checkpoints only pay for pages dirtied in between.
TEST(CowCheckpoint, ConsecutiveCheckpointsStoreOnlyTheDelta) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel tt(*p->monitor());

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto& first = tt.checkpoints().back();
  const u64 first_cost = first.stored_bytes;
  ASSERT_GT(first.mem.fresh_pages(), 0u);

  // A short run dirties far fewer pages than the whole boot did.
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.001)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto& second = tt.checkpoints().back();
  EXPECT_LT(second.mem.fresh_pages(), first.mem.fresh_pages());
  EXPECT_LT(second.stored_bytes, first_cost / 2)
      << "second delta checkpoint should cost a fraction of the first";
  EXPECT_GE(second.mem.resident_pages(), first.mem.resident_pages());
  EXPECT_GE(tt.stats().cow_fresh_pages,
            first.mem.fresh_pages() + second.mem.fresh_pages());
}

}  // namespace
}  // namespace vdbg::test
