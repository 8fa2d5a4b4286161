#include "cpu/superblock.h"

#include <algorithm>

namespace vdbg::cpu {

namespace {

/// Opcode -> dispatch class. Branch classes only occur at a block tail
/// (branches terminate decode); everything unlisted is kGeneric.
SbClass classify(Opcode op) {
  switch (op) {
    case Opcode::kNop: return SbClass::kNop;
    case Opcode::kMovI: return SbClass::kMovI;
    case Opcode::kMov: return SbClass::kMov;
    case Opcode::kAdd: return SbClass::kAdd;
    case Opcode::kSub: return SbClass::kSub;
    case Opcode::kAnd: return SbClass::kAnd;
    case Opcode::kOr: return SbClass::kOr;
    case Opcode::kXor: return SbClass::kXor;
    case Opcode::kShl: return SbClass::kShl;
    case Opcode::kShr: return SbClass::kShr;
    case Opcode::kSar: return SbClass::kSar;
    case Opcode::kMul: return SbClass::kMul;
    case Opcode::kAddI: return SbClass::kAddI;
    case Opcode::kSubI: return SbClass::kSubI;
    case Opcode::kAndI: return SbClass::kAndI;
    case Opcode::kOrI: return SbClass::kOrI;
    case Opcode::kXorI: return SbClass::kXorI;
    case Opcode::kShlI: return SbClass::kShlI;
    case Opcode::kShrI: return SbClass::kShrI;
    case Opcode::kSarI: return SbClass::kSarI;
    case Opcode::kMulI: return SbClass::kMulI;
    case Opcode::kCmp: return SbClass::kCmp;
    case Opcode::kCmpI: return SbClass::kCmpI;
    case Opcode::kJmp: return SbClass::kJmp;
    case Opcode::kJmpR: return SbClass::kJmpR;
    case Opcode::kJz: return SbClass::kJz;
    case Opcode::kJnz: return SbClass::kJnz;
    case Opcode::kJb: return SbClass::kJb;
    case Opcode::kJae: return SbClass::kJae;
    case Opcode::kJbe: return SbClass::kJbe;
    case Opcode::kJa: return SbClass::kJa;
    case Opcode::kJl: return SbClass::kJl;
    case Opcode::kJge: return SbClass::kJge;
    case Opcode::kJle: return SbClass::kJle;
    case Opcode::kJg: return SbClass::kJg;
    case Opcode::kLd8: return SbClass::kLd8;
    case Opcode::kLd16: return SbClass::kLd16;
    case Opcode::kLd32: return SbClass::kLd32;
    case Opcode::kSt8: return SbClass::kSt8;
    case Opcode::kSt16: return SbClass::kSt16;
    case Opcode::kSt32: return SbClass::kSt32;
    default: return SbClass::kGeneric;
  }
}

/// True for every class whose handler overwrites all four PSW flags
/// (the ALU/compare block of the enum — Nop/Mov/MovI and branches do not).
bool writes_all_flags(SbClass c) {
  return c >= SbClass::kAdd && c <= SbClass::kCmpI;
}

/// Neither writes nor reads flags; transparent to the liveness scan.
bool flag_transparent(SbClass c) {
  return c == SbClass::kNop || c == SbClass::kMov || c == SbClass::kMovI;
}

/// Flag-elided twin for the fast-mode handler. kCmp/kCmpI have no effect
/// besides flags, so a dead compare degenerates to a nop.
SbClass nf_of(SbClass c) {
  switch (c) {
    case SbClass::kAdd: return SbClass::kAddNf;
    case SbClass::kSub: return SbClass::kSubNf;
    case SbClass::kAnd: return SbClass::kAndNf;
    case SbClass::kOr: return SbClass::kOrNf;
    case SbClass::kXor: return SbClass::kXorNf;
    case SbClass::kShl: return SbClass::kShlNf;
    case SbClass::kShr: return SbClass::kShrNf;
    case SbClass::kSar: return SbClass::kSarNf;
    case SbClass::kMul: return SbClass::kMulNf;
    case SbClass::kAddI: return SbClass::kAddINf;
    case SbClass::kSubI: return SbClass::kSubINf;
    case SbClass::kAndI: return SbClass::kAndINf;
    case SbClass::kOrI: return SbClass::kOrINf;
    case SbClass::kXorI: return SbClass::kXorINf;
    case SbClass::kShlI: return SbClass::kShlINf;
    case SbClass::kShrI: return SbClass::kShrINf;
    case SbClass::kSarI: return SbClass::kSarINf;
    case SbClass::kMulI: return SbClass::kMulINf;
    case SbClass::kCmp:
    case SbClass::kCmpI: return SbClass::kNop;
    default: return c;
  }
}

/// The ten conditional direct branches occupy a contiguous enum run.
bool is_jcc_class(SbClass c) {
  return c >= SbClass::kJz && c <= SbClass::kJg;
}

/// Fused twin for `cmp` immediately followed by the Jcc tail `jcc`
/// (see SbClass::kCmpJz). Relies on both enum runs being in Jz..Jg order.
SbClass fused_cmp_jcc(SbClass cmp, SbClass jcc) {
  const u8 idx = static_cast<u8>(jcc) - static_cast<u8>(SbClass::kJz);
  const SbClass base =
      cmp == SbClass::kCmp ? SbClass::kCmpJz : SbClass::kCmpIJz;
  return static_cast<SbClass>(static_cast<u8>(base) + idx);
}

/// Are instruction i's flag writes dead within the block? Dead iff a later
/// instruction overwrites all flags with only flag-transparent natives in
/// between; any branch (reads), generic (unknown) or the block end keeps
/// them live. Used only for fast-mode dispatch. A load or store is the one
/// place a block can leave fast mode mid-block (a fallback to the generic
/// handler, which may fault and push the PSW, or a store that retires the
/// block's own page), so it counts as a flag reader here: it is not
/// flag-transparent, and no flag write is ever elided across it.
bool flags_dead_at(const SuperBlock& b, u16 i) {
  if (!writes_all_flags(b.instrs[i].cls)) return false;
  for (u16 j = i + 1; j < b.count; ++j) {
    const SbClass c = b.instrs[j].cls;
    if (writes_all_flags(c)) return true;
    if (!flag_transparent(c)) return false;
  }
  return false;
}

SbTail classify_tail(Opcode op) {
  if (!is_block_terminator(op)) return SbTail::kFallthrough;
  if (op == Opcode::kJmp) return SbTail::kJmp;
  if (op == Opcode::kCall) return SbTail::kCall;
  if (is_direct_branch(op)) return SbTail::kCond;  // the ten Jcc forms
  if (is_dynamic_branch(op)) return SbTail::kDynamic;
  return SbTail::kStop;
}

}  // namespace

SuperBlock* SuperblockCache::translate(PAddr pa, PhysMem& mem,
                                       std::span<const PAddr> stops,
                                       const CostModel& costs,
                                       const void* const* labels,
                                       SbcStats& stats) {
  // Decode forward from `pa`. Blocks never cross a page boundary, so a
  // single page version covers the whole block, and in-page offsets make
  // the virtual and physical instruction streams advance in lockstep.
  const PAddr page_end = (pa & ~PAddr{kPageMask}) + kPageSize;
  std::array<Instr, kMaxBlockInstrs> code;
  u16 n = 0;
  for (PAddr p = pa; n < kMaxBlockInstrs && p + kInstrBytes <= page_end &&
                     mem.contains(p, kInstrBytes);
       p += kInstrBytes) {
    if (std::find(stops.begin(), stops.end(), p) != stops.end()) break;
    u8 bytes[kInstrBytes];
    mem.read_block(p, bytes);
    if (!opcode_valid(bytes[0])) break;
    code[n] = Instr::decode(bytes);
    if (is_block_terminator(code[n++].op)) break;
  }
  if (n == 0) return nullptr;
  mem.mark_code(pa, u32(n) * kInstrBytes);

  SuperBlock& slot = slot_for(pa);
  if (slot.valid) drop(slot, stats);

  for (u16 i = 0; i < n; ++i) {
    const Instr& in = code[i];
    SbInstr& out = slot.instrs[i];
    out.cls = classify(in.op);
    out.handler = labels ? labels[static_cast<u8>(out.cls)] : nullptr;
    out.op = in.op;
    out.rd = in.rd;
    out.rs1 = in.rs1;
    out.rs2 = in.rs2;
    out.imm = in.imm;
  }

  slot.pa = pa;
  slot.version_ptr = mem.page_version_ptr(pa >> kPageBits);
  slot.version = *slot.version_ptr;
  slot.count = n;
  slot.tail = classify_tail(code[n - 1].op);
  // Pure = every non-tail instruction has a native class. Native handlers
  // never touch the TLB, never fault and never call out (div, stack and
  // system ops classify as kGeneric), so between two instructions of a pure
  // block the fetch translation provably cannot change. The code page's
  // version can, through a native store; that store clears the executor's
  // purity on the spot, and a memory op that falls back to kGeneric
  // revalidates like any generic op. Either one first leaves fast mode.
  bool pure = true;
  for (u16 i = 0; i + 1 < n; ++i) {
    if (slot.instrs[i].cls == SbClass::kGeneric) {
      pure = false;
      break;
    }
  }
  slot.pure = pure;
  u16 muls = 0;
  u16 mem_ops = 0;
  for (u16 i = 0; i < n; ++i) {
    const SbClass c = slot.instrs[i].cls;
    if (c == SbClass::kMul || c == SbClass::kMulI) ++muls;
    if (c >= SbClass::kLd8 && c <= SbClass::kSt32) ++mem_ops;
  }
  slot.fast_charge = Cycles(n) * (costs.mem + costs.base);
  slot.fast_worst = pure ? slot.fast_charge + Cycles(muls) * costs.mul +
                               Cycles(mem_ops) * costs.mem +
                               costs.branch_taken
                         : SuperBlock::kNoFast;
  slot.fast_pc_step = u32(n - 1) * kInstrBytes;
  // A native fall-through tail retires in the batch; a generic one (a
  // non-terminator cut by the page edge, the decode cap or an undecodable
  // successor) retires in the generic handler like any other tail.
  slot.fast_icount = slot.tail == SbTail::kFallthrough &&
                             slot.instrs[n - 1].cls != SbClass::kGeneric
                         ? n
                         : u16(n - 1);
  slot.fast_tlb = u16(n - 1);
  for (u16 i = 0; i < n; ++i) {
    SbClass fc = flags_dead_at(slot, i) ? nf_of(slot.instrs[i].cls)
                                        : slot.instrs[i].cls;
    if (i + 2 == n &&
        (fc == SbClass::kCmp || fc == SbClass::kCmpI) &&
        is_jcc_class(slot.instrs[i + 1].cls)) {
      fc = fused_cmp_jcc(fc, slot.instrs[i + 1].cls);
    }
    slot.instrs[i].fast_handler = labels ? labels[static_cast<u8>(fc)] : nullptr;
  }
  slot.next = {nullptr, nullptr};
  slot.incoming.clear();
  slot.valid = true;
  ++stats.translations;
  return &slot;
}

void SuperblockCache::unchain_edge(SuperBlock& from, u8 slot, SbcStats& stats) {
  SuperBlock* to = from.next[slot];
  if (!to) return;
  from.next[slot] = nullptr;
  for (auto it = to->incoming.begin(); it != to->incoming.end(); ++it) {
    if (it->from == &from && it->slot == slot) {
      to->incoming.erase(it);
      break;
    }
  }
  ++stats.unchains;
}

void SuperblockCache::drop(SuperBlock& b, SbcStats& stats) {
  // Sever every edge INTO the dying block (tb_phys_invalidate): a chained
  // predecessor must fall back to the dispatcher, which will miss here and
  // rebuild. unchain_edge removes the back-reference being processed.
  while (!b.incoming.empty()) {
    const auto ref = b.incoming.back();
    if (ref.from->next[ref.slot] == &b) {
      unchain_edge(*ref.from, ref.slot, stats);
    } else {
      b.incoming.pop_back();  // defensive: never reachable while the
                              // edge/back-reference invariant holds
    }
  }
  // And every edge OUT, so the successors' back-reference lists stay exact.
  unchain_edge(b, 0, stats);
  unchain_edge(b, 1, stats);
  b.valid = false;
  ++stats.invalidations;
}

void SuperblockCache::invalidate_all(SbcStats& stats) {
  for (auto& b : blocks_) {
    if (b.valid) drop(b, stats);
  }
}

}  // namespace vdbg::cpu
