// Page-fault exits: shadow-paging sync and emulated guest page-table
// writes. The faulting store is decoded at most once per exit
// (decode_faulting_store caches the decode in the ExitContext).
#include "vmm/lvmm.h"

namespace vdbg::vmm {

using cpu::Fault;
using cpu::Opcode;

void Lvmm::handle_page_fault(ExitContext& ctx) {
  const Fault& f = ctx.fault;
  if (!vcpu_.paging_enabled()) {
    // Identity phase: the guest touched memory it does not own (e.g. the
    // monitor region). Reflect as a protection #PF.
    reflect(Fault::pf(f.cr2, f.errcode), st().pc);
    return;
  }
  const auto out =
      shadow_->handle_fault(vcpu_.vcr[cpu::kCr3], f.cr2, f.errcode);
  switch (out.kind) {
    case ShadowMmu::FaultOutcome::kSynced:
      charge(cfg_.costs.shadow_sync);
      ++stats_.shadow_syncs;
      trace(TraceKind::kShadowSync, 0, 0, f.cr2);
      machine_.cpu().mmu().invlpg(f.cr2);
      return;  // hidden fault: restart the instruction
    case ShadowMmu::FaultOutcome::kPtWrite: {
      StoreInfo store;
      if (!decode_faulting_store(ctx, store)) {
        guest_crash();
        return;
      }
      handle_pt_write(out.target_pa, store);
      return;
    }
    case ShadowMmu::FaultOutcome::kReflect:
      reflect(Fault::pf(f.cr2, out.guest_errcode), st().pc);
      return;
  }
}

/// Decodes the store that raised this exit, fetching the instruction only
/// if no earlier pipeline stage already did. False when the instruction
/// cannot be fetched or is not a store (a faulting "write" from a non-store
/// should not happen).
// charge:exempt(decode helper; callers charge per fault outcome)
bool Lvmm::decode_faulting_store(ExitContext& ctx, StoreInfo& out) {
  if (!ctx.have_instr) {
    if (!fetch_guest_instr(ctx.instr)) return false;
    ctx.have_instr = true;
  }
  switch (ctx.instr.op) {
    case Opcode::kSt8: out.size = 1; break;
    case Opcode::kSt16: out.size = 2; break;
    case Opcode::kSt32: out.size = 4; break;
    default:
      return false;
  }
  auto& s = st();
  out.value = s.regs[ctx.instr.rs2 & (cpu::kNumGprs - 1)];
  out.ea = s.regs[ctx.instr.rs1 & (cpu::kNumGprs - 1)] + ctx.instr.imm;
  return true;
}

void Lvmm::handle_pt_write(PAddr target_pa, const StoreInfo& store) {
  shadow_->pt_write(target_pa, store.size, store.value);
  machine_.cpu().mmu().flush_tlb();  // derived translations changed
  st().pc += cpu::kInstrBytes;
  charge(cfg_.costs.pt_write_emulate);
  ++stats_.pt_writes;
  trace(TraceKind::kPtWrite, 0, 0, target_pa);
}

}  // namespace vdbg::vmm
