// Copy-on-write physical memory tests: frame sharing between a machine and
// its captures, write isolation across forked siblings, delta-capture
// accounting (fresh pages = dirtied since the previous capture), decoded-
// code tracking (which writes retire a page, and that adopting or restoring
// contents retires every decoded page), and the TimeTravel property the
// multiverse rests on — a delta checkpoint restores to state byte-identical
// with a full self-contained snapshot.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/units.h"
#include "cpu/phys_mem.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/time_travel.h"

namespace vdbg::test {
namespace {

using cpu::CowPages;
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
  TimeTravel::Config cfg;
  cfg.cow_delta = true;
  TimeTravel tt(*p->monitor(), cfg);

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
  ASSERT_TRUE(TimeTravel::restore_checkpoint_into(m, p->monitor(), cp));
  EXPECT_EQ(tt.save_state(), full)
      << "delta checkpoint restored to different state than a full snapshot";
}

// Consecutive delta checkpoints only pay for pages dirtied in between.
TEST(CowCheckpoint, ConsecutiveCheckpointsStoreOnlyTheDelta) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.cow_delta = true;
  TimeTravel tt(*p->monitor(), cfg);

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

// Full (non-delta) mode still produces self-contained checkpoints and the
// two modes restore to the same machine state.
TEST(CowCheckpoint, FullModeCheckpointsRemainSelfContained) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.cow_delta = false;
  TimeTravel tt(*p->monitor(), cfg);

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto& cp = tt.checkpoints().back();
  EXPECT_TRUE(cp.mem.empty());
  EXPECT_EQ(cp.stored_bytes, cp.bytes.size());

  const auto here = tt.save_state();
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.002)), MStop::kBudget);
  ASSERT_TRUE(TimeTravel::restore_checkpoint_into(m, p->monitor(), cp));
  EXPECT_EQ(tt.save_state(), here);
}

}  // namespace
}  // namespace vdbg::test
