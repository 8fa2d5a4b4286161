// GuestMemory (vTLB) tests: translation caching, precise invalidation at
// every architectural TLB point, all-or-nothing span accesses, the kill
// switch, and a cached-vs-uncached lockstep differential run of the full
// debug platform (mirroring the CPU's superblock lockstep fuzz).
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "cpu/mmu.h"
#include "cpu/phys_mem.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/guest_mem.h"
#include "vmm/shadow_mmu.h"

namespace vdbg::test {
namespace {

using cpu::Pte;
using guest::RunConfig;
using harness::Platform;
using harness::PlatformKind;
using harness::PlatformOptions;
using vmm::GuestMemory;
using vmm::ShadowMmu;
using vmm::VcpuState;

constexpr u32 kGuestLimit = 0x100000;  // 1 MiB of guest RAM
constexpr PAddr kPd = 0x1000;
constexpr PAddr kPt = 0x2000;

/// Unit-level rig: physical memory with hand-built guest page tables, a
/// ShadowMmu for walk_guest, and a GuestMemory wired as its listener.
struct GmemRig {
  GmemRig() : mem(0x200000), shadow(mem, shadow_cfg()), gmem(make_gmem()) {
    shadow.set_translation_listener(&gmem);
    gmem.set_walk_costs(700, 60);
    gmem.set_charge_hook([this](Cycles c) { charged += c; });

    // Guest paging on, one PD at kPd with a single PT at kPt covering the
    // first 4 MiB of virtual space.
    vcpu.vcr[cpu::kCr3] = kPd;
    vcpu.vcr[cpu::kCr0] = cpu::kCr0PgBit;
    mem.write32(kPd, Pte::make(kPt, /*w=*/true, /*u=*/false));
    map(0x2, kPt >> cpu::kPageBits, true);  // PT maps itself (PTE pokes)
    map(0x4, 0x5, true);
    map(0x6, 0x7, false);  // read-only
    map(0x8, 0x9, true);
    map(0x9, 0xa, true);   // contiguous VA pair for span tests
    map(0x44, 0xb, true);  // vpn 0x44 = 68: direct-map collision with vpn 4
  }

  static ShadowMmu::Config shadow_cfg() {
    ShadowMmu::Config c;
    c.monitor_base = 0x100000;
    c.monitor_len = 0x100000;
    c.guest_mem_limit = kGuestLimit;
    return c;
  }
  GuestMemory make_gmem() {
    return GuestMemory(mem, shadow, vcpu, kGuestLimit);
  }

  void map(u32 vpn, u32 pfn, bool writable) {
    mem.write32(kPt + vpn * 4,
                Pte::make(pfn << cpu::kPageBits, writable, false));
  }

  cpu::PhysMem mem;
  VcpuState vcpu;
  ShadowMmu shadow;
  GuestMemory gmem;
  Cycles charged = 0;
};

TEST(GuestMem, IdentityWhilePagingOff) {
  GmemRig rig;
  rig.vcpu.vcr[cpu::kCr0] = 0;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x1234, false, pa));
  EXPECT_EQ(pa, 0x1234u);
  EXPECT_FALSE(rig.gmem.translate(kGuestLimit, false, pa));  // out of RAM
  EXPECT_EQ(rig.gmem.stats().lookups, 0u);  // identity path is uncounted
  EXPECT_EQ(rig.charged, 0u);
}

TEST(GuestMem, WalkThenHitWithCharges) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4020, false, pa));
  EXPECT_EQ(pa, 0x5020u);
  EXPECT_EQ(rig.gmem.stats().walks, 1u);
  EXPECT_EQ(rig.gmem.stats().fills, 1u);
  EXPECT_EQ(rig.charged, 700u);

  ASSERT_TRUE(rig.gmem.translate(0x4f00, false, pa));  // same page
  EXPECT_EQ(pa, 0x5f00u);
  EXPECT_EQ(rig.gmem.stats().hits, 1u);
  EXPECT_EQ(rig.gmem.stats().walks, 1u);
  EXPECT_EQ(rig.charged, 760u);
}

TEST(GuestMem, ReadFillServesLaterWritesOfWritablePages) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));  // read walk
  ASSERT_TRUE(rig.gmem.translate(0x4000, true, pa));   // write: cached
  EXPECT_EQ(rig.gmem.stats().hits, 1u);
  EXPECT_EQ(rig.gmem.stats().walks, 1u);
}

TEST(GuestMem, ReadOnlyPageNeverServesWrites) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x6000, false, pa));
  EXPECT_EQ(pa, 0x7000u);
  // The cached entry records non-writable: a write misses and the guest
  // walk denies it.
  EXPECT_FALSE(rig.gmem.translate(0x6000, true, pa));
  EXPECT_EQ(rig.gmem.stats().hits, 0u);
  EXPECT_EQ(rig.gmem.stats().walks, 2u);
}

TEST(GuestMem, FlushDropsEverything) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  ASSERT_TRUE(rig.gmem.translate(0x8000, false, pa));
  // A CR3/CR0 load reaches the vTLB as ShadowMmu::flush via the listener.
  rig.shadow.flush();
  EXPECT_GE(rig.gmem.stats().flushes, 1u);
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(rig.gmem.stats().walks, 3u);  // refilled, not served from cache
}

TEST(GuestMem, InvlpgDropsOnlyThatPage) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  ASSERT_TRUE(rig.gmem.translate(0x8000, false, pa));
  rig.shadow.invlpg(0x4000);
  EXPECT_EQ(rig.gmem.stats().invalidations, 1u);
  ASSERT_TRUE(rig.gmem.translate(0x8000, false, pa));  // survives
  EXPECT_EQ(rig.gmem.stats().hits, 1u);
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));  // dropped: walks
  EXPECT_EQ(rig.gmem.stats().walks, 3u);
}

TEST(GuestMem, EmulatedGuestPtStoreInvalidatesDependentEntry) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0x5000u);
  // The guest rewrites its own PTE for vpn 4; the monitor emulates the
  // store with ShadowMmu::pt_write, which must notify the vTLB.
  rig.shadow.pt_write(kPt + 4 * 4, 4, Pte::make(0xc000, true, false));
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0xc000u);  // fresh walk sees the new mapping
  EXPECT_EQ(rig.gmem.stats().walks, 2u);
}

TEST(GuestMem, MonitorWriteToPteWordInvalidates) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0x5000u);
  // A debugger poke through the monitor lands on the PTE word for vpn 4
  // (the PT maps itself at va 0x2000). The entry depending on that word
  // must drop; unrelated data writes must not invalidate anything.
  const u64 inv_before = rig.gmem.stats().invalidations;
  ASSERT_TRUE(rig.gmem.write32(0x2000 + 4 * 4, Pte::make(0xd000, true, false)));
  EXPECT_GT(rig.gmem.stats().invalidations, inv_before);
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0xd000u);

  const u64 inv_mid = rig.gmem.stats().invalidations;
  ASSERT_TRUE(rig.gmem.write32(0x8000, 0xabcd1234));  // plain data page
  EXPECT_EQ(rig.gmem.stats().invalidations, inv_mid);
}

TEST(GuestMem, RawStoreToUnregisteredPtFrameStaysStaleUntilInvlpg) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0x5000u);
  // A raw CPU store to a PT frame the shadow has not write-protected yet
  // bypasses every hook. Architectural TLB semantics: the cached
  // translation stays visible until the guest flushes.
  rig.mem.write32(kPt + 4 * 4, Pte::make(0xe000, true, false));
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0x5000u);  // stale, like hardware
  rig.shadow.invlpg(0x4000);
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));
  EXPECT_EQ(pa, 0xe000u);
}

TEST(GuestMem, DirectMapCollisionEvicts) {
  GmemRig rig;
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));   // vpn 4
  ASSERT_TRUE(rig.gmem.translate(0x44000, false, pa));  // vpn 68: same slot
  EXPECT_EQ(pa, 0xb000u);
  ASSERT_TRUE(rig.gmem.translate(0x4000, false, pa));   // evicted: walks
  EXPECT_EQ(rig.gmem.stats().walks, 3u);
  EXPECT_EQ(rig.gmem.stats().hits, 0u);
}

TEST(GuestMem, SpanReadWriteCrossesPages) {
  GmemRig rig;
  std::vector<u8> pattern(0x1800);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<u8>(i * 13 + 5);
  }
  // va 0x8400..0x9c00 spans the contiguous vpn 8/9 pair.
  ASSERT_TRUE(rig.gmem.write(0x8400, pattern));
  std::vector<u8> back(pattern.size());
  ASSERT_TRUE(rig.gmem.read(0x8400, back));
  EXPECT_EQ(back, pattern);
  // The bytes landed at the mapped physical frames.
  u8 probe = 0;
  rig.mem.read_block(0x9400, {&probe, 1});
  EXPECT_EQ(probe, pattern[0]);
}

TEST(GuestMem, WriteIsAllOrNothing) {
  GmemRig rig;
  // vpn 4 is mapped, vpn 5 is not: a span crossing 0x4fff->0x5000 must fail
  // without touching the first page.
  const u8 before = 0x5a;
  rig.mem.write_block(0x5ff8, {&before, 1});
  std::vector<u8> data(16, 0xff);
  EXPECT_FALSE(rig.gmem.write(0x4ff8, data));
  u8 after = 0;
  rig.mem.read_block(0x5ff8, {&after, 1});
  EXPECT_EQ(after, before);  // nothing stored
}

TEST(GuestMem, KillSwitchForcesFullWalks) {
  GmemRig rig;
  rig.gmem.set_translation_cache_enabled(false);
  PAddr pa = 0;
  ASSERT_TRUE(rig.gmem.translate(0x4020, false, pa));
  EXPECT_EQ(pa, 0x5020u);
  ASSERT_TRUE(rig.gmem.translate(0x4020, false, pa));
  EXPECT_EQ(pa, 0x5020u);  // identical result, never cached
  EXPECT_EQ(rig.gmem.stats().hits, 0u);
  EXPECT_EQ(rig.gmem.stats().walks, 2u);
  EXPECT_EQ(rig.gmem.stats().fills, 0u);
  EXPECT_EQ(rig.charged, 1400u);

  rig.gmem.set_translation_cache_enabled(true);
  ASSERT_TRUE(rig.gmem.translate(0x4020, false, pa));  // fills again
  ASSERT_TRUE(rig.gmem.translate(0x4020, false, pa));
  EXPECT_EQ(rig.gmem.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Integration: the monitor's hot path actually rides the vTLB.
// ---------------------------------------------------------------------------

TEST(GuestMemIntegration, MonitorHotPathHitsTranslationCache) {
  Platform p(PlatformKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(40.0));
  p.machine().run_for(seconds_to_cycles(0.05));
  ASSERT_EQ(p.mailbox().magic, guest::Mailbox::kMagicValue);

  const auto& st = p.monitor()->guest_mem().stats();
  EXPECT_GT(st.lookups, 0u);
  // Injection frames and vIDT gates hammer the same few pages: the cache
  // must serve the bulk of hot-path translations.
  EXPECT_GT(st.hits, st.walks);
  // Exit-kind observability: interrupts and syscalls were dispatched and
  // their cycle costs recorded.
  const auto& es = p.monitor()->exit_stats();
  EXPECT_GT(es.kind(vmm::ExitKind::kInterrupt).count, 0u);
  EXPECT_GT(es.kind(vmm::ExitKind::kSoftInt).count, 0u);
  EXPECT_GT(es.kind(vmm::ExitKind::kInterrupt).cycles, 0u);
  u64 by_kind_total = 0;
  for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
    by_kind_total += es.by_kind[k].count;
  }
  EXPECT_EQ(by_kind_total, es.total);
}

// ---------------------------------------------------------------------------
// Differential: cached vs uncached must be bit-identical when the cost
// model charges walks and hits equally (mirrors the CPU's superblock
// lockstep fuzz).
// ---------------------------------------------------------------------------

TEST(GuestMemDifferential, CachedAndUncachedRunsStayInLockstep) {
  PlatformOptions opts;
  opts.lvmm_costs.guest_walk_hit = opts.lvmm_costs.guest_walk;

  Platform cached(PlatformKind::kLvmm, opts);
  Platform uncached(PlatformKind::kLvmm, opts);
  const RunConfig rc = RunConfig::for_rate_mbps(40.0);
  cached.prepare(rc);
  uncached.prepare(rc);
  uncached.monitor()->guest_mem().set_translation_cache_enabled(false);

  for (int slice = 0; slice < 10; ++slice) {
    cached.machine().run_for(seconds_to_cycles(0.005));
    uncached.machine().run_for(seconds_to_cycles(0.005));
    const auto& a = cached.machine().cpu().state();
    const auto& b = uncached.machine().cpu().state();
    ASSERT_EQ(a.pc, b.pc) << "slice " << slice;
    ASSERT_EQ(a.psw, b.psw) << "slice " << slice;
    for (unsigned r = 0; r < cpu::kNumGprs; ++r) {
      ASSERT_EQ(a.regs[r], b.regs[r]) << "slice " << slice << " r" << r;
    }
    ASSERT_EQ(cached.machine().cpu().cycles(),
              uncached.machine().cpu().cycles())
        << "slice " << slice;
    ASSERT_EQ(cached.mailbox().segments_sent,
              uncached.mailbox().segments_sent)
        << "slice " << slice;
  }

  // The cache was actually exercised on one side and bypassed on the other.
  EXPECT_GT(cached.monitor()->guest_mem().stats().hits, 0u);
  EXPECT_EQ(uncached.monitor()->guest_mem().stats().hits, 0u);

  // Full guest-RAM comparison at the end.
  const u32 limit = cached.monitor()->config().guest_mem_limit;
  std::vector<u8> ma(limit), mb(limit);
  cached.machine().mem().read_block(0, ma);
  uncached.machine().mem().read_block(0, mb);
  EXPECT_EQ(ma, mb);
}

}  // namespace
}  // namespace vdbg::test
