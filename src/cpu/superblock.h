// The CPU's fast execution path: threaded superblocks, decoded straight from
// physical memory the first time the dispatcher reaches a block.
//
// Translation decodes forward from a physical pc until a control-transfer /
// privileged / I/O / trapping opcode (see is_block_terminator in isa.h), an
// armed breakpoint, the page edge, the block-size cap or an undecodable
// word, and compiles the run into a SuperBlock: per-instruction handler
// pointers resolved once (computed-goto dispatch, see Cpu::exec_superblock),
// operand decode hoisted out of the loop, loads and stores executed natively
// behind an inline data-TLB hit check, and — for *pure* blocks whose
// non-tail instructions all have native handlers — the per-instruction
// revalidation replaced by the single page-version + fetch-translation guard
// at superblock entry (the vTLB lookup inlined into the dispatcher).
//
// Indexing is PHYSICAL and content validity is guarded by PhysMem's
// per-page code masks and write versions: translate() marks the 64-byte
// chunks it decoded, and a guest store, DMA, monitor emulation or debugger
// write that overlaps a marked chunk bumps the page's version, so a block
// decoded from bytes that have since been written never runs again, while
// writes to data that merely shares the page leave its blocks alone. TLB
// events need no content invalidation: the dispatcher re-translates pc at
// every block entry, so a remapped pc simply resolves to another block.
//
// Superblocks chain directly to each other in the style of QEMU's
// tb_find_fast/tb_add_jump: a block ending in a direct branch (constant
// target, see is_direct_branch) stores up to two resolved successor pointers
// (taken / fall-through) so the dispatcher loop is skipped entirely. Every
// chain follow re-checks the *target's* page version and the fetch
// translation of the new pc, so chains are safe against self-modifying code
// and remapping; when a stale block is dropped (at lookup, by a failed
// chain guard, on slot reuse or by invalidate_all) the incoming-jump list
// is walked and every edge into the dying block is severed eagerly (the
// tb_phys_invalidate analog). Decoding stops before an armed breakpoint, so
// one is only ever a block head, which translate() refuses — the dispatcher
// then takes the reference step that raises it — and arming one retires
// its page's decoded code, so no chain guard ever lets one run past it.
//
// Determinism contract: a superblock retires exactly the state, cycle
// charges and counter movements of the reference interpreter (Cpu::step);
// tests/test_cpu_diff.cpp fuzzes the two in lockstep. The superblock cache
// is derived state: it is dropped on snapshot restore and rebuilt on
// demand.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/types.h"
#include "cpu/cost_model.h"
#include "cpu/isa.h"
#include "cpu/phys_mem.h"

namespace vdbg::cpu {

/// Longest decoded block, in instructions. A 4 KiB page holds 512 aligned
/// instruction words; capping well below that bounds the cache footprint
/// while still covering realistic straight-line runs between branches.
inline constexpr u32 kMaxBlockInstrs = 32;

/// Dispatch classes the threaded executor implements natively. Everything
/// else (stack ops, div, privileged/system ops, dynamic branches) routes
/// through kGeneric, which flushes executor locals and calls Cpu::execute.
/// Branch classes can only appear as a block tail (branches terminate block
/// decode). The other classes before kLd8 are register-only and
/// non-faulting; kLd8..kSt32 run natively on an aligned data-TLB hit and
/// hand every other case (a fault or a TLB fill included) to kGeneric.
enum class SbClass : u8 {
  kNop,
  kMovI,
  kMov,
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kSar,
  kMul,
  kAddI,
  kSubI,
  kAndI,
  kOrI,
  kXorI,
  kShlI,
  kShrI,
  kSarI,
  kMulI,
  kCmp,
  kCmpI,
  kJmp,
  kJmpR,
  kJz,
  kJnz,
  kJb,
  kJae,
  kJbe,
  kJa,
  kJl,
  kJge,
  kJle,
  kJg,
  kLd8,
  kLd16,
  kLd32,
  kSt8,
  kSt16,
  kSt32,
  kGeneric,
  // Flag-elided twins used only via SbInstr::fast_handler: identical
  // arithmetic with the PSW update removed. Translation assigns one when a
  // later in-block instruction overwrites all four flags before any possible
  // reader, so in fast mode (no mid-block exits, nothing can observe the
  // intermediate PSW) skipping the update is architecturally invisible. A
  // dead kCmp/kCmpI elides to kNop outright — flags are its only effect.
  kAddNf,
  kSubNf,
  kAndNf,
  kOrNf,
  kXorNf,
  kShlNf,
  kShrNf,
  kSarNf,
  kMulNf,
  kAddINf,
  kSubINf,
  kAndINf,
  kOrINf,
  kXorINf,
  kShlINf,
  kShrINf,
  kSarINf,
  kMulINf,
  // Fused compare-and-branch, used only via SbInstr::fast_handler when a
  // kCmp/kCmpI immediately precedes the block's Jcc tail: one handler sets
  // the full PSW flags of the compare (they stay architecturally live past
  // the branch) and evaluates the branch condition directly from the
  // compare operands — the standard flag identities (Jb ⟺ a<b unsigned,
  // Jl ⟺ a<b signed, ...) — saving the separate Jcc dispatch. Ten
  // conditions × two compare forms, in Jz..Jg order to allow arithmetic
  // mapping from the tail class.
  kCmpJz,
  kCmpJnz,
  kCmpJb,
  kCmpJae,
  kCmpJbe,
  kCmpJa,
  kCmpJl,
  kCmpJge,
  kCmpJle,
  kCmpJg,
  kCmpIJz,
  kCmpIJnz,
  kCmpIJb,
  kCmpIJae,
  kCmpIJbe,
  kCmpIJa,
  kCmpIJl,
  kCmpIJge,
  kCmpIJle,
  kCmpIJg,
  kNumClasses,
};

/// One translated instruction: handler resolved at translation time plus
/// the hoisted operand decode. Register indices are stored raw (unmasked) —
/// the native handlers mask with kNumGprs-1 exactly like Cpu::execute, and
/// the generic fallback needs the raw fields to reconstruct the original
/// Instr (MovToCr, for one, distinguishes rd=9 from rd=1).
struct SbInstr {
  const void* handler = nullptr;  // computed-goto label; null in fallback builds
  /// Fast-mode handler: same as `handler`, or the flag-elided twin when this
  /// instruction's flags are provably dead within the block (see the kAddNf
  /// comment). Only dispatched from fast-mode sites.
  const void* fast_handler = nullptr;
  SbClass cls = SbClass::kGeneric;
  Opcode op = Opcode::kNop;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  u32 imm = 0;
};

/// How a superblock ends, decided at translation time.
enum class SbTail : u8 {
  kFallthrough,  // non-terminator tail (page edge / decode cap): chain to pc+8
  kCond,         // conditional direct branch: chain taken=imm / fallthrough
  kJmp,          // unconditional direct jump: chain to imm
  kCall,         // call with constant target: generic exec, then chain to imm
  kDynamic,      // JmpR/CallR/Ret: pure branch, target known only at run time
  kStop,         // non-pure terminator: return to run() for the full re-check
};

struct SuperBlock {
  PAddr pa = 0;      // physical address of the first instruction
  u64 version = 0;   // code-page write version at translation
  /// Stable pointer to the code page's version word (PhysMem never
  /// reallocates it); polled by entry/chain guards and impure boundaries.
  const u64* version_ptr = nullptr;
  u16 count = 0;
  bool valid = false;
  /// True when every non-tail instruction has a native handler: the
  /// executor may elide the per-instruction version poll + fetch recheck
  /// and charge the proven TLB hits in bulk. Native handlers never touch the
  /// TLB or call out; a native store that retires this block's own page
  /// clears the executor's copy of the flag, and a memory op that falls back
  /// to the generic path revalidates at its boundary. Impure blocks
  /// revalidate the fetch at every boundary, as the reference path does.
  bool pure = false;
  /// Number of kMul/kMulI instructions (they charge costs_.mul on top of the
  /// fetch cost). With it, a pure block's worst-case cycle charge is a
  /// translation-time constant: count*fetch + mul_count*mul + one branch.
  /// The executor uses that bound to prove no mid-block budget check can
  /// fire and batch all per-instruction accounting at block entry.
  u16 mul_count = 0;
  /// Fast-entry constants, precomputed at translation so the executor's
  /// block entry is two compares and a handful of adds (see enter_block in
  /// Cpu::exec_superblock for the batching argument):
  /// total fetch charge for the whole block (count * (mem + base)).
  Cycles fast_charge = 0;
  /// Worst-case cycle charge of one full execution: fast_charge plus every
  /// multiply plus one taken branch. kNoFast for impure blocks and for
  /// blocks with a load or store (which may fall back or fault mid-block),
  /// so the executor's `cycles + fast_worst < stop` test fails naturally and
  /// folds both checks into the budget check.
  Cycles fast_worst = kNoFast;
  static constexpr Cycles kNoFast = ~Cycles{0} / 2;
  u32 fast_pc_step = 0;   // (count-1)*8: parks pc on the tail instruction
  u16 fast_icount = 0;    // batched retires (count, or count-1 if the tail
                          // retires in its own branch or generic handler)
  u16 fast_tlb = 0;       // proven fetch TLB hits per execution (count-1)
  SbTail tail = SbTail::kStop;
  /// Direct chain edges (tb_add_jump): [0] = fall-through / not-taken
  /// successor (pa + count*8), [1] = taken / call target (tail imm). Null
  /// until the dispatcher resolves the successor once at run time. The
  /// virtual target of each slot is a translation-time constant, so an
  /// installed edge always leads where the dispatcher would have.
  std::array<SuperBlock*, 2> next{};
  /// Reverse edges for unchaining: every (from, slot) with from->next[slot]
  /// == this. Walked on invalidation so no stale pointer survives.
  struct BackRef {
    SuperBlock* from;
    u8 slot;
  };
  std::vector<BackRef> incoming;
  std::array<SbInstr, kMaxBlockInstrs> instrs{};
};

/// Telemetry for the superblock tier (cpu.sbc.*). Not architectural state:
/// excluded from snapshots, registered replay_exact=false.
struct SbcStats {
  u64 translations = 0;  // blocks decoded into the cache
  u64 hits = 0;          // dispatcher entries into a superblock (a first
                         // dispatch right after its translation included)
  u64 chains = 0;        // direct block-to-block transitions taken
  u64 unchains = 0;      // chain edges severed (guard failure or eager)
  u64 invalidations = 0; // superblocks dropped (stale / explicit / reuse)
  u64 mem_native = 0;     // loads/stores that took the native TLB-hit path
  u64 mem_fallbacks = 0;  // loads/stores handed to the generic path
};

/// Direct-mapped, physically-indexed cache of translated superblocks.
/// Storage is allocated once and never moves, so SuperBlock* chain pointers
/// stay valid for the cache's lifetime; slots are retranslated in place
/// (after unchaining) on conflict.
class SuperblockCache {
 public:
  static constexpr u32 kNumBlocks = 1024;  // power of two

  SuperblockCache() : blocks_(kNumBlocks) {}

  /// Hit path: the superblock at physical `pa` iff present and its code
  /// page is unretired since translation. A slot found stale (same pa,
  /// bumped page version — a write hit decoded bytes) is dropped eagerly
  /// so every chain through it is severed now, not when the slot happens
  /// to be reused. No hit-counter movement (the dispatcher counts hits
  /// itself); on miss the caller uses translate().
  SuperBlock* lookup(PAddr pa, u64 version, SbcStats& stats) {
    SuperBlock& slot = slot_for(pa);
    if (slot.valid && slot.pa == pa) {
      if (slot.version == version) return &slot;
      drop(slot, stats);
    }
    return nullptr;
  }

  /// Decodes the block starting at physical `pa` straight from `mem` into
  /// its slot, evicting (and unchaining) any previous occupant, and marks
  /// the decoded bytes in `mem`'s code mask. Decoding ends after a
  /// terminator, or before an address in `stops` (the armed breakpoints),
  /// the page edge, an undecodable word or the kMaxBlockInstrs cap.
  /// Returns nullptr, leaving the slot alone, when nothing decodes at `pa`
  /// (invalid head opcode, out-of-range fetch, or `pa` itself in `stops`);
  /// the caller must then take the reference path, which raises the right
  /// event. `labels` is the executor's handler table indexed by SbClass
  /// (null in builds without computed goto); `costs` feeds the precomputed
  /// fast-entry charge constants.
  SuperBlock* translate(PAddr pa, PhysMem& mem, std::span<const PAddr> stops,
                        const CostModel& costs, const void* const* labels,
                        SbcStats& stats);

  /// Severs one chain edge and its back-reference. Exposed for the executor's
  /// lazy unchain on a failed chain guard.
  static void unchain_edge(SuperBlock& from, u8 slot, SbcStats& stats);

  /// Drops everything (snapshot restore, explicit full invalidation).
  void invalidate_all(SbcStats& stats);

 private:
  SuperBlock& slot_for(PAddr pa) {
    return blocks_[(pa / kInstrBytes) & (kNumBlocks - 1)];
  }

  /// Invalidates one block: severs incoming and outgoing edges, counts.
  static void drop(SuperBlock& b, SbcStats& stats);

  std::vector<SuperBlock> blocks_;
};

}  // namespace vdbg::cpu
