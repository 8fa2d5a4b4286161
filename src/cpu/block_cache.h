// Predecoded basic-block cache for the VX32 interpreter fast path.
//
// On first execution of a physical pc the dispatcher decodes forward until a
// control-transfer / privileged / I/O / trapping opcode (see
// is_block_terminator in isa.h), the page boundary, or the block-size cap,
// and stores the decoded Instr sequence here. Subsequent executions dispatch
// straight from the cached block, skipping the per-instruction
// translate + read_block + opcode_valid + decode work of the slow path.
//
// Indexing is PHYSICAL and content validity is guarded by PhysMem's
// per-page code masks and write versions:
//  * build() marks the 64-byte chunks it decoded in its page's code mask;
//    a guest store, DMA, monitor emulation or debugger write that overlaps
//    a marked chunk bumps the page's version, so a block decoded from bytes
//    that have since been written never hits (self-modifying code), while
//    writes to data that merely shares the page leave its blocks alone;
//  * TLB events (flush_tlb / invlpg / CR0-CR3 writes) need no content
//    invalidation at all: the dispatcher re-translates pc at every block
//    entry and revalidates the fetch translation between the instructions
//    of a block, so a remapped pc simply resolves to a different physical
//    block.
// The monitor's armed breakpoints (Cpu::arm_breakpoint) shape blocks
// without touching memory: decoding stops before an armed address, so one
// is only ever a block head, which build() refuses — the dispatcher then
// takes the slow path that raises the breakpoint. Arming or disarming
// retires the page's decoded code (PhysMem::retire_code) through the same
// version bump, so its blocks are decoded again.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/types.h"
#include "cpu/isa.h"
#include "cpu/phys_mem.h"

namespace vdbg::cpu {

/// Longest decoded block, in instructions. A 4 KiB page holds 512 aligned
/// instruction words; capping well below that bounds the cache footprint
/// while still covering realistic straight-line runs between branches.
inline constexpr u32 kMaxBlockInstrs = 32;

struct CachedBlock {
  PAddr pa = 0;     // physical address of the first instruction
  u64 version = 0;  // code-page write version when the block was decoded
  u16 count = 0;    // decoded instructions, >= 1 for a valid block
  u16 hot = 0;      // executions since decode; drives superblock promotion
  bool valid = false;
  // Tail is a non-terminator that ran into the page boundary (or the block
  // cap). The fall-through successor starts at pa + count*8 — on the next
  // page for a page-edge block — and is itself a block entry, so the
  // superblock tier may chain straight to it; the chain guard checks the
  // successor's own page version, which is exactly the second page's.
  bool falls_through = false;
  std::array<Instr, kMaxBlockInstrs> instrs{};
};

/// Direct-mapped, physically-indexed cache of decoded blocks.
class BlockCache {
 public:
  static constexpr u32 kNumBlocks = 2048;  // power of two

  BlockCache() : blocks_(kNumBlocks) {}

  /// Hit path, kept inline for the dispatcher's hot loop: returns the
  /// cached block starting at physical `pa` iff it is present and its code
  /// page has not been written since decode (`version` is the page's
  /// current write version). Bumps `hits` on success; on miss/stale the
  /// caller uses build().
  CachedBlock* lookup(PAddr pa, u64 version, u64& hits) {
    CachedBlock& slot = slot_for(pa);
    if (slot.valid && slot.pa == pa && slot.version == version) {
      ++hits;
      return &slot;
    }
    return nullptr;
  }

  /// (Re)decodes the block starting at physical `pa` into its slot,
  /// ending before any address in `stops` (the armed breakpoints), and
  /// marks the decoded bytes in `mem`'s code mask.
  /// Counters: `builds` on every decode, `invals` when a stale block (code
  /// page written since decode) was dropped on the way. Returns nullptr
  /// when no instruction can be decoded at `pa` (invalid head opcode,
  /// out-of-range fetch, or `pa` itself in `stops`); the caller must fall
  /// back to the slow path, which raises the right event.
  CachedBlock* build(PAddr pa, PhysMem& mem, std::span<const PAddr> stops,
                     u64& builds, u64& invals);

  /// Drops everything.
  void invalidate_all(u64& invals);

 private:
  CachedBlock& slot_for(PAddr pa) {
    return blocks_[(pa / kInstrBytes) & (kNumBlocks - 1)];
  }

  std::vector<CachedBlock> blocks_;
};

}  // namespace vdbg::cpu
