#include "cpu/cpu.h"

#include <algorithm>
#include <utility>

namespace vdbg::cpu {

Cpu::Cpu(PhysMem& mem, IoBus& io, IntrLine* intr, const CostModel& costs)
    : mem_(mem), io_(io), intr_(intr), costs_(costs), mmu_(mem, costs) {
  // Capture the threaded executor's handler table: the computed-goto labels
  // live inside exec_superblock's body, so a null-block call is the only way
  // to export them for SuperblockCache::translate.
  exec_superblock(nullptr, 0);
}

void Cpu::io_allow_range(u16 first, u16 count, bool allow) {
  // Word-parallel update: head/tail partial words get a sub-range mask, the
  // middle is whole-word fills. O(count/64) instead of O(count).
  const u32 end = std::min<u32>(u32(first) + count, 65536);
  u32 p = first;
  while (p < end) {
    const u32 word = p >> 6;
    const u32 lo = p & 63;
    const u32 hi = std::min<u32>(end - (word << 6), 64);
    const u64 upper = hi == 64 ? ~u64{0} : (u64{1} << hi) - 1;
    const u64 mask = upper & ~((u64{1} << lo) - 1);
    if (allow) {
      io_bitmap_[word] |= mask;
    } else {
      io_bitmap_[word] &= ~mask;
    }
    p = (word << 6) + hi;
  }
}

RunExit Cpu::run(Cycles budget) {
  const Cycles target = cycles_ + budget;
  run_limit_ = ~Cycles{0};
  while (cycles_ < target && cycles_ < run_limit_) {
    if (shutdown_) return RunExit::kShutdown;
    if (stop_requested_) {
      stop_requested_ = false;
      return RunExit::kStopRequested;
    }
    // Checked before the interrupt poll: a run stopped at instruction N must
    // leave the pending-interrupt state untouched so a later resume (or a
    // replay stopped at the same N) proceeds identically.
    if (stats_.instructions >= instr_stop_) return RunExit::kInstrLimit;
    if (intr_ && intr_->intr_asserted()) {
      if (hook_) {
        const u8 vector = intr_->acknowledge();
        cycles_ += costs_.intr_ack;
        halted_ = false;
        ++stats_.interrupts;
        ++stats_.hook_events;
        hook_->on_external_interrupt(*this, vector);
        continue;
      }
      if (st_.intr_enabled()) {
        const u8 vector = intr_->acknowledge();
        cycles_ += costs_.intr_ack;
        halted_ = false;
        ++stats_.interrupts;
        deliver_event(Fault{vector, 0, 0, EventKind::kExternal}, st_.pc);
        continue;
      }
      if (halted_) return RunExit::kHalted;  // pending but masked: sleep on
    }
    if (halted_) return RunExit::kHalted;
    if (superblocks_enabled_) {
      run_cached(target);
    } else {
      step();
    }
  }
  return RunExit::kBudget;
}

RunExit Cpu::step_one() {
  if (shutdown_) return RunExit::kShutdown;
  if (intr_ && intr_->intr_asserted()) {
    if (hook_) {
      const u8 vector = intr_->acknowledge();
      cycles_ += costs_.intr_ack;
      halted_ = false;
      ++stats_.interrupts;
      ++stats_.hook_events;
      hook_->on_external_interrupt(*this, vector);
      return RunExit::kBudget;
    }
    if (st_.intr_enabled()) {
      const u8 vector = intr_->acknowledge();
      cycles_ += costs_.intr_ack;
      halted_ = false;
      ++stats_.interrupts;
      deliver_event(Fault{vector, 0, 0, EventKind::kExternal}, st_.pc);
      return RunExit::kBudget;
    }
  }
  if (halted_) return RunExit::kHalted;
  step();
  if (shutdown_) return RunExit::kShutdown;
  if (stop_requested_) {
    stop_requested_ = false;
    return RunExit::kStopRequested;
  }
  return halted_ ? RunExit::kHalted : RunExit::kBudget;
}

void Cpu::step() {
  const u32 pc0 = st_.pc;
  if (pc0 & 0x7) {
    raise(Fault::gp(1), pc0);
    return;
  }
  auto tr = mmu_.translate(st_, pc0, Access::kExec, st_.cpl(), kInstrBytes);
  cycles_ += tr.cost;
  if (!tr.ok) {
    raise(tr.fault, pc0);
    return;
  }
  step_at(tr.pa, pc0);
}

void Cpu::step_at(PAddr pa, u32 pc0) {
  // An armed breakpoint fires before the fetch: the guest is charged
  // nothing and retires nothing, and a resume from the stop passes it once.
  if (pc0 != std::exchange(resume_pc_, kNoResume) && breakpoint_armed(pa)) {
    raise(Fault::monitor(kVecBreakpoint), pc0);
    return;
  }
  const bool tf_pending = st_.trap_flag();
  u8 bytes[kInstrBytes];
  mem_.read_block(pa, bytes);
  cycles_ += costs_.mem;
  ++stats_.mem_accesses;

  if (!opcode_valid(bytes[0])) {
    raise(Fault::ud(), pc0);
    return;
  }
  const Instr in = Instr::decode(bytes);
  cycles_ += costs_.base;

  const ExecResult er = execute(in);
  ++stats_.instructions;
  if (er.faulted) {
    // st_.pc is still pc0: execute() commits pc only on success. Software
    // INT resumes after the instruction; every fault restarts it.
    const u32 resume =
        er.fault.kind == EventKind::kSoftInt ? pc0 + kInstrBytes : pc0;
    raise(er.fault, resume);
    return;
  }
  if (halted_) return;
  // Traps reported after the instruction completes, with the resume point
  // at the next instruction. The guest's own TF trap goes first, then a
  // watch its store hit; a monitor step request then stops wherever those
  // left the guest.
  const u32 resume = st_.pc;
  if (tf_pending) raise(Fault::db(), resume);
  if (watch_pending_) raise_watch_hit(resume);
  if (debug_step_) {
    debug_step_ = false;
    raise(Fault::monitor(kVecDebug), st_.pc);
  }
}

void Cpu::arm_breakpoint(PAddr pa) {
  if (breakpoint_armed(pa)) return;
  breakpoints_.push_back(pa);
  invalidate_code_page(pa);
}

void Cpu::disarm_breakpoint(PAddr pa) {
  const auto it = std::find(breakpoints_.begin(), breakpoints_.end(), pa);
  if (it == breakpoints_.end()) return;
  breakpoints_.erase(it);
  invalidate_code_page(pa);
}

bool Cpu::breakpoint_armed(PAddr pa) const {
  return std::find(breakpoints_.begin(), breakpoints_.end(), pa) !=
         breakpoints_.end();
}

bool Cpu::arm_watchpoint(VAddr va, u32 len) {
  if (len == 0 || len - 1 > ~va) return false;  // empty, or wraps past 2^32
  watches_.push_back({va, len});
  return true;
}

bool Cpu::disarm_watchpoint(VAddr va, u32 len) {
  const auto it =
      std::find_if(watches_.begin(), watches_.end(), [&](const WatchRange& w) {
        return w.va == va && w.len == len;
      });
  if (it == watches_.end()) return false;
  watches_.erase(it);
  return true;
}

void Cpu::note_watched_store(VAddr va, unsigned size, u32 value) {
  for (const WatchRange& w : watches_) {
    if (va - w.va < w.len || w.va - va < size) {
      const u32 stored = size == 4 ? value : value & ((1u << (8 * size)) - 1);
      watch_hit_ = {std::max(va, w.va), stored, size, 0};
      watch_pending_ = true;
      return;
    }
  }
}

void Cpu::raise_watch_hit(u32 resume_pc) {
  watch_pending_ = false;
  watch_hit_.pc = resume_pc;
  raise(Fault::watch(), st_.pc);
}

void Cpu::invalidate_code_page(PAddr pa) {
  // Arming must split any block spanning pa (blocks are decoded to end
  // before an armed address, which is then only ever reached at a block head
  // and diverted to step_at); disarming lets the truncated blocks grow back.
  // Retiring the page's decoded code is the same version bump a write to
  // it makes, so its superblocks drop on their next lookup.
  mem_.retire_code(pa & ~PAddr{kPageMask}, kPageSize);
}

void Cpu::run_cached(Cycles target) {
  // Single-stepping (guest TF or a monitor step request) decodes fresh: a
  // #DB boundary after every instruction makes block dispatch pointless,
  // and the slow path is the reference. A pending resume-over-breakpoint
  // must be consumed by exactly the next instruction, so it goes there too.
  if (st_.trap_flag() || debug_step_ || resume_pc_ != kNoResume) {
    step();
    return;
  }
  // The stop limit is loop-invariant across chained blocks: only device/
  // hook activity moves run_limit_, and every op with such side effects
  // forces dispatch back to run() (not a pure branch).
  const Cycles stop = target < run_limit_ ? target : run_limit_;
  // Pending chain-edge request from the superblock executor, resolved
  // against the next block this loop dispatches.
  SuperBlock* chain_from = nullptr;
  u8 chain_slot = 0;
  PAddr pa = 0;
  // Set when the executor's chain guard already resolved (and accounted)
  // the fetch translation for st_.pc; skips the entry resolution below.
  bool have_pa = false;
  for (;;) {
    const u32 pc0 = st_.pc;
    if (!have_pa) {
      if (pc0 & 0x7) {
        raise(Fault::gp(1), pc0);
        return;
      }
      // Block-entry fetch translation, with the unpaged and TLB-hit cases
      // inlined. Accounting matches Mmu::translate exactly: unpaged charges
      // nothing and touches no counters, a TLB hit charges nothing and bumps
      // hits_ (fetch_recheck does both), everything else — miss, permission
      // fault, bad physical range — falls back to the real translate.
      if (!st_.paging_enabled()) {
        if (!mem_.contains(pc0, kInstrBytes)) {
          raise(Fault::gp(/*err=*/2), pc0);
          return;
        }
        pa = pc0;
      } else if (!mmu_.fetch_recheck(pc0, st_.cpl(), pa)) {
        auto tr =
            mmu_.translate(st_, pc0, Access::kExec, st_.cpl(), kInstrBytes);
        cycles_ += tr.cost;
        if (!tr.ok) {
          raise(tr.fault, pc0);
          return;
        }
        pa = tr.pa;
      }
    }
    have_pa = false;
    const u64 version = mem_.page_version(pa >> kPageBits);
    SuperBlock* sb = sbcache_.lookup(pa, version, sbc_stats_);
    if (!sb) {
      sb = sbcache_.translate(pa, mem_, breakpoints_, costs_, sb_labels_,
                              sbc_stats_);
      if (!sb) {
        // Undecodable head (invalid opcode / truncated fetch) or an armed
        // breakpoint: the reference tail raises the right event.
        step_at(pa, pc0);
        return;
      }
      // Block heads 8 KiB apart share a slot. If translate just recycled
      // the requester's slot, the request belonged to the evicted block.
      if (sb == chain_from) chain_from = nullptr;
    }
    // Resolve the executor's pending chain request (tb_add_jump): the block
    // now dispatched is exactly the one the requesting tail jumps to, so
    // wire the direct edge. A request never outlives one dispatcher
    // iteration — installing it against any later block would chain the
    // wrong pair.
    if (chain_from) {
      if (!chain_from->next[chain_slot]) {
        chain_from->next[chain_slot] = sb;
        sb->incoming.push_back({chain_from, chain_slot});
      }
      chain_from = nullptr;
    }
    ++sbc_stats_.hits;
    const SbRun r = exec_superblock(sb, stop);
    if (r.kind == SbRun::kDone) return;
    chain_from = r.from;
    chain_slot = r.slot;
    if (r.kind == SbRun::kDispatchAt) {
      // The executor's chain guard already performed (and accounted) the
      // fetch translation of the new pc; re-translating here would charge
      // a second TLB hit the reference path never sees.
      pa = r.pa;
      have_pa = true;
    }
  }
}

// Superblock executor: threaded dispatch over translated superblocks with
// direct cross-block chaining. Uses the GNU labels-as-values extension where
// available (gcc and clang, i.e. every toolchain in CI); the portable
// fallback dispatches the same handler bodies through a switch.
#if defined(__GNUC__)
#define VDBG_SB_THREADED 1
#else
#define VDBG_SB_THREADED 0
#endif

#if VDBG_SB_THREADED
#define SB_CASE(name) h_##name:
#define SB_DISPATCH() goto* ip->handler
// Fast-mode dispatch goes through the flag-elided handler variant chosen at
// translation time (SbInstr::fast_handler); only fast-mode sites use it.
#define SB_DISPATCH_FAST() goto* ip->fast_handler
#else
#define SB_CASE(name) case SbClass::k##name:
#define SB_DISPATCH() goto dispatch_loop
// The portable switch dispatches on the exact class, so fallback builds
// always compute flags — correct either way, elision is an optimization.
#define SB_DISPATCH_FAST() goto dispatch_loop
#endif

// Boundary after a native non-branch instruction, expanded into every
// handler (rather than shared via a label) so each handler ends in its own
// indirect jump: with one dispatch site per handler the host BTB predicts
// handler-to-handler transitions per site instead of funneling every
// transition through a single shared branch. In fast mode the budget checks
// were proven dead at entry and accounting was batched, so the boundary is
// just the threaded-dispatch step itself; the slow path stays shared.
#define SB_NEXT()                               \
  do {                                          \
    if (fast) {                                 \
      if (++ip == end) goto tail_fallthrough;   \
      SB_DISPATCH_FAST();                       \
    }                                           \
    goto next_instr;                            \
  } while (0)

// Boundary for handlers only ever reached through fast-mode dispatch (the
// flag-elided twins): the mode test is statically true, so drop it.
#define SB_NEXT_FAST()                          \
  do {                                          \
    if (++ip == end) goto tail_fallthrough;     \
    SB_DISPATCH_FAST();                         \
  } while (0)

// Identical bit algebra to CpuState::set_flags, applied to the executor's
// psw local.
#define SB_SET_ZNCV(z, n, c, v)                                             \
  psw = (psw & ~Psw::kFlagsMask) | ((z) ? Psw::kZ : 0u) |                   \
        ((n) ? Psw::kN : 0u) | ((c) ? Psw::kC : 0u) | ((v) ? Psw::kV : 0u)

// flatten: inline execute() and the mem helpers into the generic handler,
// the executor's slowest common path. no-crossjumping/no-gcse keep GCC
// from re-merging the per-handler dispatch sites SB_NEXT replicates
// (the standard flags for computed-goto interpreter loops).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-crossjumping", "no-gcse")))
#endif
__attribute__((flatten)) Cpu::SbRun Cpu::exec_superblock(SuperBlock* sb,
                                                         Cycles stop) {
#if VDBG_SB_THREADED
  // Indexed by SbClass; order must match the enum exactly.
  static const void* const kLabels[] = {
      &&h_Nop,    &&h_MovI,   &&h_Mov,    &&h_Add,    &&h_Sub,    &&h_And,
      &&h_Or,     &&h_Xor,    &&h_Shl,    &&h_Shr,    &&h_Sar,    &&h_Mul,
      &&h_AddI,   &&h_SubI,   &&h_AndI,   &&h_OrI,    &&h_XorI,   &&h_ShlI,
      &&h_ShrI,   &&h_SarI,   &&h_MulI,   &&h_Cmp,    &&h_CmpI,   &&h_Jmp,
      &&h_JmpR,   &&h_Jz,     &&h_Jnz,    &&h_Jb,     &&h_Jae,    &&h_Jbe,
      &&h_Ja,     &&h_Jl,     &&h_Jge,    &&h_Jle,    &&h_Jg,     &&h_Ld8,
      &&h_Ld16,   &&h_Ld32,   &&h_St8,    &&h_St16,   &&h_St32,   &&h_Generic,
      &&h_AddNf,  &&h_SubNf,  &&h_AndNf,  &&h_OrNf,   &&h_XorNf,  &&h_ShlNf,
      &&h_ShrNf,  &&h_SarNf,  &&h_MulNf,  &&h_AddINf, &&h_SubINf, &&h_AndINf,
      &&h_OrINf,  &&h_XorINf, &&h_ShlINf, &&h_ShrINf, &&h_SarINf, &&h_MulINf,
      &&h_CmpJz,  &&h_CmpJnz, &&h_CmpJb,  &&h_CmpJae, &&h_CmpJbe, &&h_CmpJa,
      &&h_CmpJl,  &&h_CmpJge, &&h_CmpJle, &&h_CmpJg,  &&h_CmpIJz, &&h_CmpIJnz,
      &&h_CmpIJb, &&h_CmpIJae, &&h_CmpIJbe, &&h_CmpIJa, &&h_CmpIJl,
      &&h_CmpIJge, &&h_CmpIJle, &&h_CmpIJg};
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                static_cast<std::size_t>(SbClass::kNumClasses));
  if (sb == nullptr) {
    // Construction-time call: export the handler table for translation.
    sb_labels_ = kLabels;
    return {};
  }
#else
  if (sb == nullptr) return {};
#endif

  // Loop-invariant guest state: every op that can change cpl, paging, the
  // interrupt/trap flags, halted or run_limit_ is a non-pure terminator
  // (SbTail::kStop) and exits to run() before the change can matter here.
  const u8 cpl = st_.cpl();
  const bool paged = st_.paging_enabled();
  const Cycles fetch_cost = costs_.mem + costs_.base;
  const Cycles mem_cost = costs_.mem;
  const Cycles branch_cost = costs_.branch_taken;
  const Cycles mul_cost = costs_.mul;
  const u64 instr_stop = instr_stop_;

  // Executor-local mirrors of the hot members. They live in registers
  // across chained blocks and are flushed at every exit and around the
  // generic execute() path — the core of the executor's speedup over the
  // reference path, which updates the members per instruction.
  Cycles cyc = cycles_;
  u64 icount = stats_.instructions;
  u64 memacc = stats_.mem_accesses;
  u64 tlb_pending = 0;  // proven fetch-recheck hits not yet in mmu_
  u32 psw = st_.psw;
  u32 pc = st_.pc;
  u32* const regs = st_.regs.data();

  const SbInstr* ip = nullptr;
  const SbInstr* end = nullptr;
  PAddr pa = 0;
  bool pure = false;
  bool fast = false;
  u32 entry_va = 0;  // virtual pc this block was entered with (guard anchor)
  u64 chains_batch = 0;  // chain-taken count, folded into sbc_stats_ on flush
  // Register mirrors of the current fast block's entry constants, captured
  // at fast entry so the proven self-chain re-entry runs without touching
  // memory. Only read when `fast` is set (they go stale on slow entries).
  const SbInstr* f_begin = nullptr;
  Cycles f_worst = 0;
  Cycles f_charge = 0;
  u64 f_tlb = 0;
  u32 f_pcstep = 0;
  u16 f_n = 0;
  u16 f_icount = 0;
  const u64* version_ptr = nullptr;
  u64 version = 0;
  u8 slot = 0;
  SbRun out{};

  const auto flush = [&] {
    cycles_ = cyc;
    stats_.instructions = icount;
    stats_.mem_accesses = memacc;
    st_.psw = psw;
    st_.pc = pc;
    if (tlb_pending) {
      mmu_.count_proven_fetch_hits(tlb_pending);
      tlb_pending = 0;
    }
    if (chains_batch) {
      sbc_stats_.chains += chains_batch;
      chains_batch = 0;
    }
  };
  const auto reload = [&] {
    cyc = cycles_;
    icount = stats_.instructions;
    memacc = stats_.mem_accesses;
    psw = st_.psw;
    pc = st_.pc;
  };
  // Physical address of an aligned data access that mem_read/mem_write
  // would complete with no side effect beyond the access itself and one
  // TLB hit (counted here); false leaves every counter alone.
  const auto data_hit = [&](VAddr va, u32 size, bool write, PAddr& dpa) {
    if (va & (size - 1)) return false;
    if (!paged) {
      dpa = va;
      return mem_.contains(va, size);
    }
    return mmu_.data_recheck(va, cpl, write, size, dpa);
  };

enter_block:
  // Entry accounting identical to the reference fetch in step_at; the entry
  // fetch translation and page-version check are the caller's (dispatcher
  // or chain guard) and were already performed.
  ip = sb->instrs.data();
  end = ip + sb->count;
  entry_va = pc;
  // Fast mode: a pure block's per-instruction charges are all known at
  // translation (count fetches, mul_count multiplies, at most one taken
  // branch — precomputed into fast_worst/fast_charge), so if even the
  // worst-case total stays under both budgets, no boundary check inside
  // this block can fire — the checks are pure reads of monotonically
  // increasing counters. Batch every per-instruction charge up front and
  // run the body with nothing but ++ip between handlers. Native handlers
  // cannot fault and nothing observes pc/cyc/icount before the tail, so the
  // flushed state at every possible exit is bit-identical to slow mode.
  // Impure blocks carry fast_worst = kNoFast, failing the first compare.
  {
    f_worst = sb->fast_worst;
    const Cycles worst = cyc + f_worst;
    if (worst < stop && icount + sb->count < instr_stop) {
      fast = true;
      f_begin = ip;
      f_charge = sb->fast_charge;
      f_n = sb->count;
      f_icount = sb->fast_icount;
      f_tlb = paged ? u64(sb->fast_tlb) : 0u;
      f_pcstep = sb->fast_pc_step;
      cyc += f_charge;
      memacc += f_n;
      tlb_pending += f_tlb;
      // Non-tail retires are batched; the tail's ++icount stays with its
      // branch handler, except a fall-through tail retires via next_instr
      // (fast mode skips icount there), so fast_icount counts it instead.
      icount += f_icount;
      // Park pc on the tail instruction: no fast-mode exit can happen
      // before the tail handler, and that handler is the next reader.
      pc += f_pcstep;
      SB_DISPATCH_FAST();
    }
  }
  fast = false;
  pa = sb->pa;
  pure = sb->pure;
  version_ptr = sb->version_ptr;
  version = sb->version;
  cyc += fetch_cost;
  ++memacc;
  SB_DISPATCH();

#if !VDBG_SB_THREADED
dispatch_loop:
  switch (ip->cls) {
#endif

  SB_CASE(Nop) { SB_NEXT(); }
  SB_CASE(MovI) {
    regs[ip->rd & (kNumGprs - 1)] = ip->imm;
    SB_NEXT();
  }
  SB_CASE(Mov) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)];
    SB_NEXT();
  }
  SB_CASE(Add) {
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];
    const u32 b = regs[ip->rs2 & (kNumGprs - 1)];
    const u32 r = a + b;
    SB_SET_ZNCV(r == 0, r >> 31, r < a, (~(a ^ b) & (a ^ r)) >> 31);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Sub) {
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];
    const u32 b = regs[ip->rs2 & (kNumGprs - 1)];
    const u32 r = a - b;
    SB_SET_ZNCV(r == 0, r >> 31, a < b, ((a ^ b) & (a ^ r)) >> 31);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(And) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] & regs[ip->rs2 & (kNumGprs - 1)];
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Or) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] | regs[ip->rs2 & (kNumGprs - 1)];
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Xor) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] ^ regs[ip->rs2 & (kNumGprs - 1)];
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Shl) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)]
                  << (regs[ip->rs2 & (kNumGprs - 1)] & 31);
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Shr) {
    const u32 r =
        regs[ip->rs1 & (kNumGprs - 1)] >> (regs[ip->rs2 & (kNumGprs - 1)] & 31);
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Sar) {
    const u32 r = static_cast<u32>(
        static_cast<i32>(regs[ip->rs1 & (kNumGprs - 1)]) >>
        (regs[ip->rs2 & (kNumGprs - 1)] & 31));
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(Mul) {
    const u32 r =
        regs[ip->rs1 & (kNumGprs - 1)] * regs[ip->rs2 & (kNumGprs - 1)];
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    cyc += costs_.mul;
    SB_NEXT();
  }
  SB_CASE(AddI) {
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];
    const u32 r = a + ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, r < a, (~(a ^ ip->imm) & (a ^ r)) >> 31);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(SubI) {
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];
    const u32 r = a - ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, a < ip->imm, ((a ^ ip->imm) & (a ^ r)) >> 31);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(AndI) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] & ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(OrI) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] | ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(XorI) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] ^ ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(ShlI) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] << (ip->imm & 31);
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(ShrI) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] >> (ip->imm & 31);
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(SarI) {
    const u32 r = static_cast<u32>(
        static_cast<i32>(regs[ip->rs1 & (kNumGprs - 1)]) >> (ip->imm & 31));
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    SB_NEXT();
  }
  SB_CASE(MulI) {
    const u32 r = regs[ip->rs1 & (kNumGprs - 1)] * ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, 0, 0);
    regs[ip->rd & (kNumGprs - 1)] = r;
    cyc += costs_.mul;
    SB_NEXT();
  }
  SB_CASE(Cmp) {
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];
    const u32 b = regs[ip->rs2 & (kNumGprs - 1)];
    const u32 r = a - b;
    SB_SET_ZNCV(r == 0, r >> 31, a < b, ((a ^ b) & (a ^ r)) >> 31);
    SB_NEXT();
  }
  SB_CASE(CmpI) {
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];
    const u32 r = a - ip->imm;
    SB_SET_ZNCV(r == 0, r >> 31, a < ip->imm, ((a ^ ip->imm) & (a ^ r)) >> 31);
    SB_NEXT();
  }

  // --- flag-elided twins (fast-mode only; see SbClass::kAddNf) ---
  SB_CASE(AddNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] + regs[ip->rs2 & (kNumGprs - 1)];
    SB_NEXT_FAST();
  }
  SB_CASE(SubNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] - regs[ip->rs2 & (kNumGprs - 1)];
    SB_NEXT_FAST();
  }
  SB_CASE(AndNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] & regs[ip->rs2 & (kNumGprs - 1)];
    SB_NEXT_FAST();
  }
  SB_CASE(OrNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] | regs[ip->rs2 & (kNumGprs - 1)];
    SB_NEXT_FAST();
  }
  SB_CASE(XorNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] ^ regs[ip->rs2 & (kNumGprs - 1)];
    SB_NEXT_FAST();
  }
  SB_CASE(ShlNf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)]
                                    << (regs[ip->rs2 & (kNumGprs - 1)] & 31);
    SB_NEXT_FAST();
  }
  SB_CASE(ShrNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] >> (regs[ip->rs2 & (kNumGprs - 1)] & 31);
    SB_NEXT_FAST();
  }
  SB_CASE(SarNf) {
    regs[ip->rd & (kNumGprs - 1)] = static_cast<u32>(
        static_cast<i32>(regs[ip->rs1 & (kNumGprs - 1)]) >>
        (regs[ip->rs2 & (kNumGprs - 1)] & 31));
    SB_NEXT_FAST();
  }
  SB_CASE(MulNf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] * regs[ip->rs2 & (kNumGprs - 1)];
    cyc += mul_cost;
    SB_NEXT_FAST();
  }
  SB_CASE(AddINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)] + ip->imm;
    SB_NEXT_FAST();
  }
  SB_CASE(SubINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)] - ip->imm;
    SB_NEXT_FAST();
  }
  SB_CASE(AndINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)] & ip->imm;
    SB_NEXT_FAST();
  }
  SB_CASE(OrINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)] | ip->imm;
    SB_NEXT_FAST();
  }
  SB_CASE(XorINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)] ^ ip->imm;
    SB_NEXT_FAST();
  }
  SB_CASE(ShlINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)]
                                    << (ip->imm & 31);
    SB_NEXT_FAST();
  }
  SB_CASE(ShrINf) {
    regs[ip->rd & (kNumGprs - 1)] =
        regs[ip->rs1 & (kNumGprs - 1)] >> (ip->imm & 31);
    SB_NEXT_FAST();
  }
  SB_CASE(SarINf) {
    regs[ip->rd & (kNumGprs - 1)] = static_cast<u32>(
        static_cast<i32>(regs[ip->rs1 & (kNumGprs - 1)]) >> (ip->imm & 31));
    SB_NEXT_FAST();
  }
  SB_CASE(MulINf) {
    regs[ip->rd & (kNumGprs - 1)] = regs[ip->rs1 & (kNumGprs - 1)] * ip->imm;
    cyc += mul_cost;
    SB_NEXT_FAST();
  }

  // --- fused compare-and-branch twins (fast-mode only; see
  // SbClass::kCmpJz). The compare's flags are set exactly (they are live
  // past the branch) and the branch condition is evaluated straight from
  // the operands via the standard flag identities. ip is advanced onto the
  // Jcc tail so ip->imm is the branch target; in fast mode pc is already
  // parked on the tail, making `pc += kInstrBytes` the fall-through. The
  // tail's retire is this handler's ++icount, exactly as in the unfused
  // branch handlers.
#define SB_FUSED_CMP(jname, cond)                                            \
  SB_CASE(Cmp##jname) {                                                      \
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];                            \
    const u32 b = regs[ip->rs2 & (kNumGprs - 1)];                            \
    const u32 r = a - b;                                                     \
    SB_SET_ZNCV(r == 0, r >> 31, a < b, ((a ^ b) & (a ^ r)) >> 31);          \
    ++icount;                                                                \
    ++ip;                                                                    \
    if (cond) {                                                              \
      pc = ip->imm;                                                          \
      cyc += branch_cost;                                                    \
      slot = 1;                                                              \
    } else {                                                                 \
      pc += kInstrBytes;                                                     \
      slot = 0;                                                              \
    }                                                                        \
    goto tail_chain;                                                         \
  }                                                                          \
  SB_CASE(CmpI##jname) {                                                     \
    const u32 a = regs[ip->rs1 & (kNumGprs - 1)];                            \
    const u32 b = ip->imm;                                                   \
    const u32 r = a - b;                                                     \
    SB_SET_ZNCV(r == 0, r >> 31, a < b, ((a ^ b) & (a ^ r)) >> 31);          \
    ++icount;                                                                \
    ++ip;                                                                    \
    if (cond) {                                                              \
      pc = ip->imm;                                                          \
      cyc += branch_cost;                                                    \
      slot = 1;                                                              \
    } else {                                                                 \
      pc += kInstrBytes;                                                     \
      slot = 0;                                                              \
    }                                                                        \
    goto tail_chain;                                                         \
  }

  SB_FUSED_CMP(Jz, r == 0)
  SB_FUSED_CMP(Jnz, r != 0)
  SB_FUSED_CMP(Jb, a < b)
  SB_FUSED_CMP(Jae, a >= b)
  SB_FUSED_CMP(Jbe, a <= b)
  SB_FUSED_CMP(Ja, a > b)
  SB_FUSED_CMP(Jl, static_cast<i32>(a) < static_cast<i32>(b))
  SB_FUSED_CMP(Jge, static_cast<i32>(a) >= static_cast<i32>(b))
  SB_FUSED_CMP(Jle, static_cast<i32>(a) <= static_cast<i32>(b))
  SB_FUSED_CMP(Jg, static_cast<i32>(a) > static_cast<i32>(b))
#undef SB_FUSED_CMP

  // --- native loads and stores (see SbClass::kLd8) ---
  // An aligned access that hits the data TLB (or lies inside physical memory
  // with paging off) charges and counts what mem_read/mem_write charge for
  // it and goes straight to PhysMem, whose stores keep the COW and code-
  // retirement behaviour of the reference path. Anything else — misaligned,
  // TLB miss, permission fault, D bit still clear, out of range, or a store
  // while a watch is armed — reaches the generic handler untouched, which
  // produces the reference accounting and fault. A store that retired this
  // block's own page ends its purity, so the next boundary resyncs.
#define SB_LOAD(name, size, read)                                            \
  SB_CASE(name) {                                                            \
    const VAddr ea = regs[ip->rs1 & (kNumGprs - 1)] + ip->imm;               \
    PAddr dpa = 0;                                                           \
    if (!data_hit(ea, size, false, dpa)) goto mem_fallback;                  \
    cyc += mem_cost;                                                         \
    ++memacc;                                                                \
    ++sbc_stats_.mem_native;                                                 \
    regs[ip->rd & (kNumGprs - 1)] = mem_.read(dpa);                          \
    SB_NEXT();                                                               \
  }
#define SB_STORE(name, size, write, type)                                    \
  SB_CASE(name) {                                                            \
    const VAddr ea = regs[ip->rs1 & (kNumGprs - 1)] + ip->imm;               \
    PAddr dpa = 0;                                                           \
    if (!watches_.empty() || !data_hit(ea, size, true, dpa)) {               \
      goto mem_fallback;                                                     \
    }                                                                        \
    cyc += mem_cost;                                                         \
    ++memacc;                                                                \
    ++sbc_stats_.mem_native;                                                 \
    mem_.write(dpa, static_cast<type>(regs[ip->rs2 & (kNumGprs - 1)]));      \
    if (*version_ptr != version) pure = false;                               \
    SB_NEXT();                                                               \
  }

  SB_LOAD(Ld8, 1, read8)
  SB_LOAD(Ld16, 2, read16)
  SB_LOAD(Ld32, 4, read32)
  SB_STORE(St8, 1, write8, u8)
  SB_STORE(St16, 2, write16, u16)
  SB_STORE(St32, 4, write32, u32)
#undef SB_LOAD
#undef SB_STORE

  // --- branch handlers: tail-only (branches terminate block decode) ---
  SB_CASE(Jmp) {
    ++icount;
    pc = ip->imm;
    cyc += branch_cost;
    slot = 1;
    goto tail_chain;
  }
  SB_CASE(JmpR) {
    ++icount;
    pc = regs[ip->rs1 & (kNumGprs - 1)];
    cyc += branch_cost;
    goto tail_dynamic;
  }
  SB_CASE(Jz) {
    ++icount;
    if (psw & Psw::kZ) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jnz) {
    ++icount;
    if (!(psw & Psw::kZ)) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jb) {
    ++icount;
    if (psw & Psw::kC) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jae) {
    ++icount;
    if (!(psw & Psw::kC)) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jbe) {
    ++icount;
    if ((psw & Psw::kC) || (psw & Psw::kZ)) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Ja) {
    ++icount;
    if (!(psw & Psw::kC) && !(psw & Psw::kZ)) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jl) {
    ++icount;
    if (!!(psw & Psw::kN) != !!(psw & Psw::kV)) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jge) {
    ++icount;
    if (!!(psw & Psw::kN) == !!(psw & Psw::kV)) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jle) {
    ++icount;
    if ((psw & Psw::kZ) || (!!(psw & Psw::kN) != !!(psw & Psw::kV))) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }
  SB_CASE(Jg) {
    ++icount;
    if (!(psw & Psw::kZ) && (!!(psw & Psw::kN) == !!(psw & Psw::kV))) {
      pc = ip->imm;
      cyc += branch_cost;
      slot = 1;
    } else {
      pc += kInstrBytes;
      slot = 0;
    }
    goto tail_chain;
  }

  SB_CASE(Generic) {
    // Anything without a native handler — stack ops, div, system/privileged
    // ops, Call/Ret — and every load/store the native handlers hand over.
    // Runs through the reference execute() with the locals flushed, with
    // step_at's retire and fault handling.
  generic_op:
    flush();
    Instr in;
    in.op = ip->op;
    in.rd = ip->rd;
    in.rs1 = ip->rs1;
    in.rs2 = ip->rs2;
    in.imm = ip->imm;
    const ExecResult er = execute(in);
    ++stats_.instructions;
    if (er.faulted) {
      const u32 resume =
          er.fault.kind == EventKind::kSoftInt ? pc + kInstrBytes : pc;
      raise(er.fault, resume);
      return {};
    }
    if (watch_pending_) {
      raise_watch_hit(st_.pc);
      return {};
    }
    reload();  // pc now committed by execute(); icount includes this instr
    // A generic op may have written memory (Call pushes, St stores...), so
    // the "nothing since the entry guard could touch code pages" premise of
    // the fast self-chain skip no longer holds; force the full chain guard.
    fast = false;
    if (++ip == end) goto tail_generic;
    if (cyc >= stop) goto out_done;
    if (icount >= instr_stop) goto out_done;
    // Always revalidate, in pure blocks too: a load or store handed over by
    // a native handler may have filled the TLB or written this page. Pure
    // blocks do not track pa, so derive it from ip.
    pa = sb->pa + u32(ip - sb->instrs.data()) * kInstrBytes;
    if (*version_ptr != version) goto out_resync;
    if (paged) {
      PAddr np = 0;
      if (!mmu_.fetch_recheck(pc, cpl, np) || np != pa) goto out_resync;
    }
    cyc += fetch_cost;
    ++memacc;
    SB_DISPATCH();
  }

#if !VDBG_SB_THREADED
  }
  goto out_done;  // unreachable: every SbClass value has a case
#endif

mem_fallback:
  ++sbc_stats_.mem_fallbacks;
  goto generic_op;

next_instr:
  // Slow-mode boundary (SB_NEXT routes here only when !fast): tail check,
  // then the budget and instruction-stop checks run() makes before each
  // reference step, then the revalidation standing in for step()'s fetch
  // translation (hit-identical accounting). Pure blocks replace the poll +
  // recheck with the proven-hit count (see Mmu::count_proven_fetch_hits).
  ++icount;
  if (++ip == end) goto tail_fallthrough;
  pc += kInstrBytes;
  if (cyc >= stop) goto out_done;
  if (icount >= instr_stop) goto out_done;
  if (pure) {
    tlb_pending += paged ? 1u : 0u;
  } else {
    pa += kInstrBytes;
    if (*version_ptr != version) goto out_resync;
    if (paged) {
      PAddr np = 0;
      if (!mmu_.fetch_recheck(pc, cpl, np) || np != pa) goto out_resync;
    }
  }
  cyc += fetch_cost;
  ++memacc;
  SB_DISPATCH();

tail_fallthrough:
  // Straight-line tail (page edge or decode cap): the successor starts at
  // pc+8 — possibly on the next page, which is fine because the chain guard
  // checks the *target's* page version.
  pc += kInstrBytes;
  slot = 0;
  goto tail_chain;

tail_generic:
  switch (sb->tail) {
    case SbTail::kFallthrough:
      slot = 0;  // pc already committed to the fall-through by execute()
      goto tail_chain;
    case SbTail::kCall:
      slot = 1;  // pc == the constant call target
      goto tail_chain;
    case SbTail::kDynamic:
      goto tail_dynamic;
    default:
      // kStop: interrupt/halt/trap-flag/run-limit state may have changed;
      // run() must re-evaluate its loop conditions.
      goto out_done;
  }

tail_chain:
  // Direct-chain follow (tb_find_fast on a resolved edge). Guard order
  // matters for accounting: the budget/instr checks and the target's
  // validity + page-version test move no counters; the fetch recheck then
  // performs exactly the accounting the dispatcher's entry path would.
  if (cyc >= stop) goto out_done;
  if (icount >= instr_stop) goto out_done;
  {
    SuperBlock* t = sb->next[slot];
    if (t == nullptr) goto out_request_chain;
    if (t == sb && fast && pc == entry_va) {
      // Proven self-chain (the tight-loop case): this block just ran in
      // fast mode, so its body was all-native — since this iteration's own
      // entry guard validated (entry_va -> pa, page version, TLB entry,
      // validity), nothing has executed that could write memory, touch the
      // TLB or invalidate a block (a generic tail clears `fast`). With
      // pc == entry_va the next entry is the very same fetch, so the full
      // guard would provably succeed with a TLB hit; charge that hit and
      // re-enter from the captured register constants. Same argument as
      // count_proven_fetch_hits, extended around the back edge.
      tlb_pending += paged ? 1u : 0u;
      ++chains_batch;
      const Cycles worst = cyc + f_worst;
      if (worst < stop && icount + f_n < instr_stop) {
        ip = f_begin;
        cyc += f_charge;
        memacc += f_n;
        tlb_pending += f_tlb;
        icount += f_icount;
        pc += f_pcstep;
        SB_DISPATCH_FAST();
      }
      goto enter_block;  // budget-tight: take the checked slow entry
    }
    if (!t->valid || *t->version_ptr != t->version) {
      // Stale target (self-modified or evicted): lazy unchain, then let the
      // dispatcher rebuild it.
      SuperblockCache::unchain_edge(*sb, slot, sbc_stats_);
      goto out_request_chain;
    }
    if (pc & (kInstrBytes - 1)) goto out_request_chain;  // dispatcher faults
    PAddr np = 0;
    if (paged) {
      if (!mmu_.fetch_recheck(pc, cpl, np)) goto out_request_chain;
    } else {
      if (!mem_.contains(pc, kInstrBytes)) goto out_request_chain;
      np = pc;
    }
    if (np != t->pa) {
      // The constant virtual target now maps to a different physical block:
      // sever the edge and hand the dispatcher the already-accounted
      // translation so it is not charged twice.
      SuperblockCache::unchain_edge(*sb, slot, sbc_stats_);
      flush();
      out.kind = SbRun::kDispatchAt;
      out.pa = np;
      out.from = sb;
      out.slot = slot;
      return out;
    }
    ++chains_batch;
    sb = t;
  }
  goto enter_block;

tail_dynamic:
  // Pure dynamic branch (JmpR/CallR/Ret): dispatch may continue without
  // re-entering run(), but the target is not a translation-time constant,
  // so no chain edge exists or is requested.
  if (cyc >= stop) goto out_done;
  if (icount >= instr_stop) goto out_done;
  flush();
  out.kind = SbRun::kDispatch;
  return out;

out_request_chain:
  flush();
  out.kind = SbRun::kDispatch;
  out.from = sb;
  out.slot = slot;
  return out;

out_done:
  flush();
  out.kind = SbRun::kDone;
  return out;

out_resync:
  // Mid-block revalidation failed (page written or fetch remapped under an
  // impure block): one reference step() with its full fetch translation
  // and accounting, then back to run().
  flush();
  step();
  out.kind = SbRun::kDone;
  return out;
}

#undef SB_CASE
#undef SB_DISPATCH
#undef SB_DISPATCH_FAST
#undef SB_NEXT
#undef SB_SET_ZNCV
#undef VDBG_SB_THREADED

void Cpu::raise(const Fault& f, u32 resume_pc) {
  if (f.vector == kVecPf && f.kind == EventKind::kException) {
    st_.cr[kCr2] = f.cr2;
  }
  if (hook_) {
    ++stats_.hook_events;
    hook_->on_event(*this, f);
    return;
  }
  deliver_event(f, resume_pc);
}

bool Cpu::deliver_event(const Fault& f, u32 resume_pc) {
  auto escalate = [&]() -> bool {
    if (f.vector == kVecDoubleFault) {
      shutdown_ = true;  // triple fault: machine is gone
      return false;
    }
    return deliver_event(
        Fault{kVecDoubleFault, 0, 0, EventKind::kException}, resume_pc);
  };

  // --- locate and validate the gate ---
  if (f.vector >= st_.idt_count) return escalate();
  u32 w0 = 0, w1 = 0;
  Fault mf;
  const VAddr gate_va = st_.idt_base + u32(f.vector) * Gate::kBytes;
  if (!mem_read(gate_va, 4, w0, mf, kRing0) ||
      !mem_read(gate_va + 4, 4, w1, mf, kRing0)) {
    return escalate();
  }
  const Gate g = Gate::unpack(w0, w1);
  if (!g.present) return escalate();
  if (f.kind == EventKind::kSoftInt && g.dpl < st_.cpl()) return escalate();
  if (g.target_ring > st_.cpl()) return escalate();  // no privilege lowering
  if (g.handler & (kInstrBytes - 1)) return escalate();

  // --- stack selection (TSS-equivalent) and frame push ---
  const u8 target = g.target_ring;
  u32 sp = target == st_.cpl()
               ? st_.sp()
               : (target == kRing0 ? st_.cr[kCrMonitorSp]
                                   : st_.cr[kCrKernelSp]);
  const u32 old_sp = st_.sp();
  // The frame is the CPU's own store, not a guest store: no watch sees it.
  auto watches = std::exchange(watches_, {});
  const bool pushed =
      push32(old_sp, sp, target, mf) && push32(st_.psw, sp, target, mf) &&
      push32(resume_pc, sp, target, mf) && push32(f.errcode, sp, target, mf);
  watches_ = std::move(watches);
  if (!pushed) return escalate();

  // --- commit ---
  st_.regs[kSp] = sp;
  st_.set_cpl(target);
  st_.set_if(false);
  st_.set_tf(false);
  st_.pc = g.handler;
  halted_ = false;
  cycles_ += costs_.exception_entry;
  ++stats_.exceptions;
  return true;
}

bool Cpu::mem_read(VAddr va, unsigned size, u32& value, Fault& fault, u8 cpl) {
  if ((size == 2 && (va & 1)) || (size == 4 && (va & 3))) {
    fault = Fault::gp(3);
    return false;
  }
  auto tr = mmu_.translate(st_, va, Access::kRead, cpl, size);
  cycles_ += tr.cost + costs_.mem;
  ++stats_.mem_accesses;
  if (!tr.ok) {
    fault = tr.fault;
    return false;
  }
  switch (size) {
    case 1: value = mem_.read8(tr.pa); break;
    case 2: value = mem_.read16(tr.pa); break;
    default: value = mem_.read32(tr.pa); break;
  }
  return true;
}

bool Cpu::mem_write(VAddr va, unsigned size, u32 value, Fault& fault, u8 cpl) {
  if ((size == 2 && (va & 1)) || (size == 4 && (va & 3))) {
    fault = Fault::gp(3);
    return false;
  }
  auto tr = mmu_.translate(st_, va, Access::kWrite, cpl, size);
  cycles_ += tr.cost + costs_.mem;
  ++stats_.mem_accesses;
  if (!tr.ok) {
    fault = tr.fault;
    return false;
  }
  switch (size) {
    case 1: mem_.write8(tr.pa, static_cast<u8>(value)); break;
    case 2: mem_.write16(tr.pa, static_cast<u16>(value)); break;
    default: mem_.write32(tr.pa, value); break;
  }
  if (!watches_.empty()) note_watched_store(va, size, value);
  return true;
}

bool Cpu::push32(u32 value, u32& sp, u8 cpl, Fault& fault) {
  const u32 new_sp = sp - 4;
  if (!mem_write(new_sp, 4, value, fault, cpl)) return false;
  sp = new_sp;
  return true;
}

void Cpu::set_flags_addsub(u32 a, u32 b, u32 r, bool is_sub) {
  const bool z = r == 0;
  const bool n = r >> 31;
  bool c, v;
  if (is_sub) {
    c = a < b;  // borrow
    v = ((a ^ b) & (a ^ r)) >> 31;
  } else {
    c = r < a;  // carry out
    v = (~(a ^ b) & (a ^ r)) >> 31;
  }
  st_.set_flags(z, n, c, v);
}

void Cpu::set_flags_logic(u32 r) {
  st_.set_flags(r == 0, r >> 31, false, false);
}

Cpu::ExecResult Cpu::execute(const Instr& in) {
  ExecResult res;
  auto fail = [&](Fault f) {
    res.faulted = true;
    res.fault = f;
    return res;
  };

  const u8 cpl = st_.cpl();
  auto reg = [&](u8 r) -> u32& { return st_.regs[r & (kNumGprs - 1)]; };
  const u32 a = reg(in.rs1);
  const u32 b = reg(in.rs2);
  u32 next_pc = st_.pc + kInstrBytes;
  Fault mf;

  if (is_privileged(in.op) && cpl != 0) {
    return fail(Fault::gp(0));
  }

  switch (in.op) {
    case Opcode::kNop:
      break;
    case Opcode::kMovI:
      reg(in.rd) = in.imm;
      break;
    case Opcode::kMov:
      reg(in.rd) = a;
      break;

    case Opcode::kAdd: {
      const u32 r = a + b;
      set_flags_addsub(a, b, r, false);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kSub: {
      const u32 r = a - b;
      set_flags_addsub(a, b, r, true);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kAnd: reg(in.rd) = a & b; set_flags_logic(reg(in.rd)); break;
    case Opcode::kOr: reg(in.rd) = a | b; set_flags_logic(reg(in.rd)); break;
    case Opcode::kXor: reg(in.rd) = a ^ b; set_flags_logic(reg(in.rd)); break;
    case Opcode::kShl: reg(in.rd) = a << (b & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kShr: reg(in.rd) = a >> (b & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kSar:
      reg(in.rd) = static_cast<u32>(static_cast<i32>(a) >> (b & 31));
      set_flags_logic(reg(in.rd));
      break;
    case Opcode::kMul:
      reg(in.rd) = a * b;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.mul;
      break;
    case Opcode::kDivU:
      if (b == 0) return fail(Fault::de());
      reg(in.rd) = a / b;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.div;
      break;
    case Opcode::kRemU:
      if (b == 0) return fail(Fault::de());
      reg(in.rd) = a % b;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.div;
      break;

    case Opcode::kAddI: {
      const u32 r = a + in.imm;
      set_flags_addsub(a, in.imm, r, false);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kSubI: {
      const u32 r = a - in.imm;
      set_flags_addsub(a, in.imm, r, true);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kAndI: reg(in.rd) = a & in.imm; set_flags_logic(reg(in.rd)); break;
    case Opcode::kOrI: reg(in.rd) = a | in.imm; set_flags_logic(reg(in.rd)); break;
    case Opcode::kXorI: reg(in.rd) = a ^ in.imm; set_flags_logic(reg(in.rd)); break;
    case Opcode::kShlI: reg(in.rd) = a << (in.imm & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kShrI: reg(in.rd) = a >> (in.imm & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kSarI:
      reg(in.rd) = static_cast<u32>(static_cast<i32>(a) >> (in.imm & 31));
      set_flags_logic(reg(in.rd));
      break;
    case Opcode::kMulI:
      reg(in.rd) = a * in.imm;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.mul;
      break;

    case Opcode::kCmp:
      set_flags_addsub(a, b, a - b, true);
      break;
    case Opcode::kCmpI:
      set_flags_addsub(a, in.imm, a - in.imm, true);
      break;

    case Opcode::kLd8:
    case Opcode::kLd16:
    case Opcode::kLd32: {
      const unsigned size = in.op == Opcode::kLd8    ? 1
                            : in.op == Opcode::kLd16 ? 2
                                                     : 4;
      u32 v = 0;
      if (!mem_read(a + in.imm, size, v, mf, cpl)) return fail(mf);
      reg(in.rd) = v;
      break;
    }
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32: {
      const unsigned size = in.op == Opcode::kSt8    ? 1
                            : in.op == Opcode::kSt16 ? 2
                                                     : 4;
      if (!mem_write(a + in.imm, size, b, mf, cpl)) return fail(mf);
      break;
    }

    case Opcode::kJmp:
      next_pc = in.imm;
      cycles_ += costs_.branch_taken;
      break;
    case Opcode::kJmpR:
      next_pc = a;
      cycles_ += costs_.branch_taken;
      break;

    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJb:
    case Opcode::kJae:
    case Opcode::kJbe:
    case Opcode::kJa:
    case Opcode::kJl:
    case Opcode::kJge:
    case Opcode::kJle:
    case Opcode::kJg: {
      const bool z = st_.flag_z(), n = st_.flag_n(), c = st_.flag_c(),
                 v = st_.flag_v();
      bool taken = false;
      switch (in.op) {
        case Opcode::kJz: taken = z; break;
        case Opcode::kJnz: taken = !z; break;
        case Opcode::kJb: taken = c; break;
        case Opcode::kJae: taken = !c; break;
        case Opcode::kJbe: taken = c || z; break;
        case Opcode::kJa: taken = !c && !z; break;
        case Opcode::kJl: taken = n != v; break;
        case Opcode::kJge: taken = n == v; break;
        case Opcode::kJle: taken = z || (n != v); break;
        case Opcode::kJg: taken = !z && (n == v); break;
        default: break;
      }
      if (taken) {
        next_pc = in.imm;
        cycles_ += costs_.branch_taken;
      }
      break;
    }

    case Opcode::kCall: {
      u32 sp = st_.sp();
      if (!push32(st_.pc + kInstrBytes, sp, cpl, mf)) return fail(mf);
      st_.regs[kSp] = sp;
      next_pc = in.imm;
      cycles_ += costs_.branch_taken;
      break;
    }
    case Opcode::kCallR: {
      u32 sp = st_.sp();
      if (!push32(st_.pc + kInstrBytes, sp, cpl, mf)) return fail(mf);
      st_.regs[kSp] = sp;
      next_pc = a;
      cycles_ += costs_.branch_taken;
      break;
    }
    case Opcode::kRet: {
      u32 target = 0;
      if (!mem_read(st_.sp(), 4, target, mf, cpl)) return fail(mf);
      st_.regs[kSp] += 4;
      next_pc = target;
      cycles_ += costs_.branch_taken;
      break;
    }
    case Opcode::kPush: {
      u32 sp = st_.sp();
      if (!push32(a, sp, cpl, mf)) return fail(mf);
      st_.regs[kSp] = sp;
      break;
    }
    case Opcode::kPop: {
      u32 v = 0;
      if (!mem_read(st_.sp(), 4, v, mf, cpl)) return fail(mf);
      st_.regs[kSp] += 4;
      reg(in.rd) = v;
      break;
    }

    case Opcode::kInt:
      return fail(Fault::soft(static_cast<u8>(in.imm & 0xff)));

    case Opcode::kIret: {
      const u32 sp = st_.sp();
      u32 err = 0, rpc = 0, rpsw = 0, rsp = 0;
      if (!mem_read(sp, 4, err, mf, cpl) ||
          !mem_read(sp + 4, 4, rpc, mf, cpl) ||
          !mem_read(sp + 8, 4, rpsw, mf, cpl) ||
          !mem_read(sp + 12, 4, rsp, mf, cpl)) {
        return fail(mf);
      }
      const u32 new_cpl = rpsw & Psw::kCplMask;
      if (new_cpl == 2) return fail(Fault::gp(4));
      if (rpc & (kInstrBytes - 1)) return fail(Fault::gp(1));
      st_.psw = rpsw & (Psw::kCplMask | Psw::kIf | Psw::kTf | Psw::kFlagsMask);
      st_.regs[kSp] = rsp;
      next_pc = rpc;
      cycles_ += costs_.iret;
      break;
    }

    case Opcode::kHlt:
      halted_ = true;
      break;
    case Opcode::kCli:
      st_.set_if(false);
      break;
    case Opcode::kSti:
      st_.set_if(true);
      break;
    case Opcode::kLidt:
      st_.idt_base = a;
      st_.idt_count = in.imm;
      break;
    case Opcode::kMovToCr: {
      const u8 crn = in.rd;
      if (crn >= kNumCrs) return fail(Fault::ud());
      st_.cr[crn] = a;
      if (crn == kCr3 || crn == kCr0) mmu_.flush_tlb();
      break;
    }
    case Opcode::kMovFromCr: {
      const u8 crn = in.rs1;
      if (crn >= kNumCrs) return fail(Fault::ud());
      reg(in.rd) = st_.cr[crn];
      break;
    }
    case Opcode::kInvlpg:
      mmu_.invlpg(a);
      break;

    case Opcode::kIn: {
      const u16 port = static_cast<u16>(in.imm & 0xffff);
      if (!io_allowed(cpl, port)) return fail(Fault::gp(0x10000u | port));
      reg(in.rd) = io_.io_read(port);
      cycles_ += costs_.port_io;
      ++stats_.io_accesses;
      break;
    }
    case Opcode::kOut: {
      const u16 port = static_cast<u16>(in.imm & 0xffff);
      if (!io_allowed(cpl, port)) return fail(Fault::gp(0x10000u | port));
      io_.io_write(port, a);
      cycles_ += costs_.port_io;
      ++stats_.io_accesses;
      break;
    }

    case Opcode::kBrk:
      return fail(Fault::bp());
  }

  st_.pc = next_pc;
  return res;
}

bool Cpu::read_virt(VAddr va, std::span<u8> out, u8 cpl) {
  std::size_t done = 0;
  while (done < out.size()) {
    const VAddr cur = va + static_cast<u32>(done);
    const u32 page_rem = kPageSize - (cur & kPageMask);
    const u32 chunk = std::min<u32>(
        page_rem, static_cast<u32>(out.size() - done));
    const auto tr = mmu_.probe(st_, cur, Access::kRead, cpl, chunk);
    if (!tr.ok) return false;
    if (!mem_.contains(tr.pa, chunk)) return false;
    mem_.read_block(tr.pa, out.subspan(done, chunk));
    done += chunk;
  }
  return true;
}

void Cpu::save(SnapshotWriter& w) const {
  for (u32 r : st_.regs) w.put_u32(r);
  w.put_u32(st_.pc);
  w.put_u32(st_.psw);
  for (u32 c : st_.cr) w.put_u32(c);
  w.put_u32(st_.idt_base);
  w.put_u32(st_.idt_count);
  w.put_u64(cycles_);
  w.put_bool(halted_);
  w.put_bool(shutdown_);
  for (u64 word : io_bitmap_) w.put_u64(word);
  w.put_u64(stats_.instructions);
  w.put_u64(stats_.mem_accesses);
  w.put_u64(stats_.io_accesses);
  w.put_u64(stats_.exceptions);
  w.put_u64(stats_.interrupts);
  w.put_u64(stats_.hook_events);
  profiler_.save(w);
}

void Cpu::restore(SnapshotReader& r) {
  for (u32& reg : st_.regs) reg = r.get_u32();
  st_.pc = r.get_u32();
  st_.psw = r.get_u32();
  for (u32& c : st_.cr) c = r.get_u32();
  st_.idt_base = r.get_u32();
  st_.idt_count = r.get_u32();
  cycles_ = r.get_u64();
  halted_ = r.get_bool();
  shutdown_ = r.get_bool();
  for (u64& word : io_bitmap_) word = r.get_u64();
  stats_.instructions = r.get_u64();
  stats_.mem_accesses = r.get_u64();
  stats_.io_accesses = r.get_u64();
  stats_.exceptions = r.get_u64();
  stats_.interrupts = r.get_u64();
  stats_.hook_events = r.get_u64();
  profiler_.restore(r);
  // Host-side run controls are not guest state: clear them so the restored
  // machine runs exactly like a freshly stopped one.
  stop_requested_ = false;
  run_limit_ = ~Cycles{0};
  // The superblock cache is derived from (possibly rolled-back) memory
  // contents and page versions; drop it and let it rebuild — including
  // every chain edge, which may reference pre-rollback code. All cache
  // states retire bit-identical architectural state, so this keeps replay
  // exact.
  invalidate_superblocks();
}

bool Cpu::write_virt(VAddr va, std::span<const u8> in, u8 cpl) {
  std::size_t done = 0;
  while (done < in.size()) {
    const VAddr cur = va + static_cast<u32>(done);
    const u32 page_rem = kPageSize - (cur & kPageMask);
    const u32 chunk =
        std::min<u32>(page_rem, static_cast<u32>(in.size() - done));
    const auto tr = mmu_.probe(st_, cur, Access::kWrite, cpl, chunk);
    if (!tr.ok) return false;
    if (!mem_.contains(tr.pa, chunk)) return false;
    mem_.write_block(tr.pa, in.subspan(done, chunk));
    done += chunk;
  }
  return true;
}

}  // namespace vdbg::cpu
