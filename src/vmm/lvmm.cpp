// Monitor core: lifecycle, physical-PIC ownership, and the VM-exit dispatch
// pipeline. Per-exit-kind handlers live in exit_priv.cpp, exit_io.cpp,
// exit_pf.cpp and exit_inject.cpp.
#include "vmm/lvmm.h"

#include <string>
#include <utility>

#include "hw/diag_port.h"
#include "hw/nic.h"
#include "hw/scsi_disk.h"
#include "hw/uart.h"

namespace vdbg::vmm {

using cpu::Fault;
using cpu::Instr;
using cpu::Opcode;

namespace {
constexpr u32 kCanaryWord = 0x4c564d4d;  // "LVMM"
constexpr u32 kCanaryWords = 256;
}  // namespace

Lvmm::Lvmm(hw::Machine& machine, const Config& cfg)
    : machine_(machine), cfg_(cfg) {
  ShadowMmu::Config scfg;
  // First monitor page holds the canary (the monitor's "private data").
  scfg.monitor_base = cfg_.monitor_base + cpu::kPageSize;
  scfg.monitor_len = cfg_.monitor_len - cpu::kPageSize;
  scfg.guest_mem_limit = cfg_.guest_mem_limit;
  shadow_ = std::make_unique<ShadowMmu>(machine_.mem(), scfg);
  gmem_ = std::make_unique<GuestMemory>(machine_.mem(), *shadow_, vcpu_,
                                        cfg_.guest_mem_limit);
  // The vTLB stays coherent by listening at the ShadowMmu's invalidation
  // points (flush / INVLPG / emulated guest PT stores).
  shadow_->set_translation_listener(gmem_.get());
  gmem_->set_walk_costs(cfg_.costs.guest_walk, cfg_.costs.guest_walk_hit);
  gmem_->set_charge_hook([this](Cycles c) { charge(c); });
}

Lvmm::~Lvmm() = default;

void Lvmm::charge(Cycles c) {
  machine_.cpu().add_cycles(c);
  stats_.charged_cycles += c;
}

void Lvmm::trace(TraceKind kind, u8 vector, u16 detail, u32 extra, u32 span,
                 SpanPhase phase) {
  if (!tracer_ || !tracer_->enabled()) return;
  charge(cfg_.costs.trace_per_event);
  TraceEvent e;
  e.timestamp = machine_.cpu().cycles();
  e.pc = st().pc;
  e.kind = kind;
  e.vector = vector;
  e.detail = detail;
  e.extra = extra;
  e.span = span;
  e.phase = phase;
  tracer_->record(e);
}

// --------------------------------------------------------------------------
// Interrupt-delivery spans: arrival -> injection -> guest ISR -> EOI. The
// bookkeeping is pure simulation state (cycle timestamps, monotonic ids)
// and is snapshot-saved, so a replay reproduces both the aggregate phase
// stats and the span ids of future trace events bit-identically.
// --------------------------------------------------------------------------

void Lvmm::begin_irq_span(unsigned irq, u8 vector) {
  if (irq >= irq_spans_.size()) return;
  IrqSpan& sp = irq_spans_[irq];
  if (sp.id != 0) ++span_stats_.aborted;  // line re-armed with span open
  sp.id = next_span_id_++;
  sp.arrival = machine_.cpu().cycles();
  sp.injected = 0;
  sp.injected_seen = false;
  ++span_stats_.begun;
  trace(TraceKind::kInterrupt, vector, static_cast<u16>(irq), 0, sp.id,
        SpanPhase::kBegin);
}

void Lvmm::note_irq_injected(unsigned irq) {
  if (irq >= irq_spans_.size()) return;
  IrqSpan& sp = irq_spans_[irq];
  if (sp.id == 0 || sp.injected_seen) return;
  sp.injected = machine_.cpu().cycles();
  sp.injected_seen = true;
  span_stats_.arrival_to_inject.record(sp.injected - sp.arrival);
}

void Lvmm::end_irq_span(unsigned irq) {
  if (irq >= irq_spans_.size()) return;
  IrqSpan& sp = irq_spans_[irq];
  if (sp.id == 0) return;  // EOI with no forwarded interrupt (e.g. init)
  if (sp.injected_seen) {
    span_stats_.inject_to_eoi.record(machine_.cpu().cycles() - sp.injected);
    ++span_stats_.completed;
  } else {
    ++span_stats_.aborted;
  }
  trace(TraceKind::kEoi, 0, static_cast<u16>(irq), 0, sp.id, SpanPhase::kEnd);
  sp = IrqSpan{};
}

int Lvmm::irq_for_vpic_vector(u8 vector) const {
  const u8 mo = vpic_.vector_offset(false);
  const u8 so = vpic_.vector_offset(true);
  if (vector >= mo && vector < mo + 8) return vector - mo;
  if (vector >= so && vector < so + 8) return 8 + (vector - so);
  return -1;
}

void Lvmm::install() {
  if (installed_) return;
  installed_ = true;

  // Third protection level, physical half: monitor frames are invisible to
  // DMA and to every mapping the guest will ever run under.
  machine_.mem().add_protected_range(cfg_.monitor_base, cfg_.monitor_len);
  for (u32 i = 0; i < kCanaryWords; ++i) {
    machine_.mem().write32(cfg_.monitor_base + i * 4, kCanaryWord);
  }

  configure_io_bitmap();
  physical_pic_init();

  // The guest always runs with physical paging enabled, on monitor-owned
  // tables: identity while its own paging is off, shadow afterwards.
  auto& s = st();
  s.cr[cpu::kCr3] = shadow_->identity_pd();
  s.cr[cpu::kCr0] = cpu::kCr0PgBit;
  machine_.cpu().mmu().flush_tlb();

  // Ring compression: guest "ring 0" executes at ring 1; physical IF is the
  // monitor's and stays on.
  s.set_cpl(cpu::kRing1);
  s.set_if(true);
  vcpu_ = VcpuState{};
  gmem_->flush_cache();
  machine_.cpu().set_trap_hook(this);
}

void Lvmm::configure_io_bitmap() {
  auto& c = machine_.cpu();
  c.io_deny_all();
  if (!cfg_.device_passthrough) return;  // ablation: trap everything
  // Direct access for the high-throughput devices: the paper's key design
  // point. Everything else (PIC, PIT, UART) traps and is emulated.
  c.io_allow_range(hw::kNicBase, 0x40, true);
  for (unsigned d = 0; d < machine_.num_disks(); ++d) {
    c.io_allow_range(
        static_cast<u16>(hw::kScsiBase0 + d * hw::kScsiPortStride),
        hw::kScsiPortStride, true);
  }
  c.io_allow_range(hw::kDiagBase, hw::kDiagPortCount, true);
}

bool Lvmm::monitor_memory_intact() const {
  for (u32 i = 0; i < kCanaryWords; ++i) {
    if (machine_.mem().read32(cfg_.monitor_base + i * 4) != kCanaryWord) {
      return false;
    }
  }
  return true;
}

bool Lvmm::fetch_guest_instr(Instr& out) {
  u8 bytes[cpu::kInstrBytes];
  if (!machine_.cpu().read_virt(st().pc, bytes, cpu::kRing0)) return false;
  out = Instr::decode(bytes);
  return true;
}

// --------------------------------------------------------------------------
// Physical PIC ownership.
// --------------------------------------------------------------------------

void Lvmm::physical_pic_write(bool slave, u16 offset, u8 value) {
  auto& dev = slave ? machine_.pic().slave_ports()
                    : machine_.pic().master_ports();
  dev.io_write(offset, value);
}

void Lvmm::physical_pic_init() {
  physical_pic_write(false, 0, 0x11);
  physical_pic_write(false, 1, 0x20);
  physical_pic_write(false, 1, 0x04);
  physical_pic_write(false, 1, 0x01);
  physical_pic_write(true, 0, 0x11);
  physical_pic_write(true, 1, 0x28);
  physical_pic_write(true, 1, 0x02);
  physical_pic_write(true, 1, 0x01);
  // Unmask PIT, cascade, UART (the monitor's own device), NIC.
  physical_pic_write(false, 1, 0xca);
  // Unmask the three SCSI lines (IRQ 10-12).
  physical_pic_write(true, 1, 0xe3);
}

void Lvmm::physical_eoi(unsigned irq) {
  if (irq >= 8) physical_pic_write(true, 0, 0x20);
  physical_pic_write(false, 0, 0x20);
}

void Lvmm::physical_set_mask(unsigned irq, bool masked) {
  const bool slave = irq >= 8;
  const u8 bit = static_cast<u8>(1u << (irq & 7));
  u8 imr = machine_.pic().imr(slave);
  imr = masked ? static_cast<u8>(imr | bit) : static_cast<u8>(imr & ~bit);
  physical_pic_write(slave, 1, imr);
}

// --------------------------------------------------------------------------
// VM-exit dispatch pipeline: classify once, dispatch, record per-kind cost.
// --------------------------------------------------------------------------

void Lvmm::on_event(cpu::Cpu& cpu, const Fault& f) {
  (void)cpu;
  const Cycles t0 = stats_.charged_cycles;
  charge(cfg_.costs.exit_base);
  ++stats_.total;

  ExitContext ctx{f};
  classify_exit(ctx);
  dispatch_exit(ctx);
  stats_.record_exit(ctx.kind, stats_.charged_cycles - t0);
}

/// Maps the raising fault to an ExitKind, decoding the faulting instruction
/// at most once (for #GP exits, which are the only kind whose handling
/// depends on the instruction). A #GP whose instruction cannot be fetched
/// classifies as kOther with have_instr=false; dispatch crashes the guest.
void Lvmm::classify_exit(ExitContext& ctx) {
  const Fault& f = ctx.fault;
  if (f.kind == cpu::EventKind::kSoftInt) {
    ctx.kind = ExitKind::kSoftInt;
    return;
  }
  if (f.kind == cpu::EventKind::kMonitor) {
    // The debugger's own breakpoint, watch hit or step request (a watch
    // hit is a #DB like a step, told apart by its errcode); a guest BRK or
    // TF trap is a plain exception and reflects below like any other.
    ctx.kind = f.vector == cpu::kVecBreakpoint ? ExitKind::kBreakpoint
                                               : ExitKind::kStep;
    return;
  }
  switch (f.vector) {
    case cpu::kVecGp: {
      ctx.have_instr = fetch_guest_instr(ctx.instr);
      if (!ctx.have_instr) {
        ctx.kind = ExitKind::kOther;
        return;
      }
      const bool guest_kernel = st().cpl() == cpu::kRing1;
      if (guest_kernel && cpu::is_privileged(ctx.instr.op)) {
        ctx.kind = ExitKind::kPrivileged;
        return;
      }
      if (guest_kernel && (f.errcode & 0x10000u) &&
          (ctx.instr.op == Opcode::kIn || ctx.instr.op == Opcode::kOut)) {
        ctx.kind = ExitKind::kIo;
        return;
      }
      ctx.kind = ExitKind::kOther;  // genuine guest #GP: reflect
      return;
    }
    case cpu::kVecPf:
      ctx.kind = ExitKind::kPageFault;
      return;
    default:
      ctx.kind = ExitKind::kOther;
      return;
  }
}

void Lvmm::dispatch_exit(ExitContext& ctx) {
  const Fault& f = ctx.fault;
  switch (ctx.kind) {
    case ExitKind::kSoftInt:
      ++stats_.soft_ints;
      trace(TraceKind::kSoftInt, f.vector, 0, 0);
      inject(f.vector, 0, st().pc + cpu::kInstrBytes, /*is_soft_int=*/true);
      return;
    case ExitKind::kPrivileged:
      emulate_privileged(ctx.instr);
      return;
    case ExitKind::kIo:
      emulate_io(ctx.instr, static_cast<u16>(f.errcode & 0xffff));
      return;
    case ExitKind::kPageFault:
      handle_page_fault(ctx);
      return;
    case ExitKind::kBreakpoint:
      freeze_guest(DebugDelegate::StopReason::kBreakpoint);
      return;
    case ExitKind::kStep:
      freeze_guest(f.errcode == cpu::kDbWatchHit
                       ? DebugDelegate::StopReason::kWatchpoint
                       : DebugDelegate::StopReason::kStep);
      return;
    case ExitKind::kInterrupt:  // external interrupts never route here
    case ExitKind::kOther:
      if (f.vector == cpu::kVecGp && !ctx.have_instr) {
        guest_crash();  // unfetchable faulting instruction
        return;
      }
      reflect(f, st().pc);
      return;
  }
}

void Lvmm::on_external_interrupt(cpu::Cpu& cpu, u8 vector) {
  (void)cpu;
  const Cycles t0 = stats_.charged_cycles;
  charge(cfg_.costs.exit_base + cfg_.costs.intr_arrival);
  ++stats_.total;
  ++stats_.interrupts;
  forward_external_interrupt(vector);
  stats_.record_exit(ExitKind::kInterrupt, stats_.charged_cycles - t0);
}

void Lvmm::forward_external_interrupt(u8 vector) {
  int irq = -1;
  if (vector >= 0x20 && vector < 0x28) {
    irq = vector - 0x20;
  } else if (vector >= 0x28 && vector < 0x30) {
    irq = 8 + (vector - 0x28);
  }
  if (irq < 0) return;  // spurious/unknown: drop

  if (irq == int(hw::kUartIrq)) {
    // The monitor's own communication device: service the debug stub.
    physical_eoi(unsigned(irq));
    if (debug_) {
      debug_->on_uart_activity();
    } else {
      // Nobody will drain the UART (a timeline forked from a debugged
      // machine restores with the stub's interrupt enables latched but no
      // delegate attached). The source is level-triggered: mask the line
      // or the storm starves the guest forever.
      physical_set_mask(unsigned(irq), true);
    }
    return;
  }

  // Forward to the guest's virtual PIC. Mask the line physically until the
  // guest EOIs its vPIC (the device keeps asserting until the guest's ISR
  // acknowledges it directly).
  begin_irq_span(unsigned(irq), vector);
  physical_set_mask(unsigned(irq), true);
  masked_pending_.insert(unsigned(irq));
  physical_eoi(unsigned(irq));
  vpic_.pulse_irq(unsigned(irq));
  on_device_interrupt_forwarded(unsigned(irq));
  try_inject();
}

// --------------------------------------------------------------------------
// Debug / lifecycle.
// --------------------------------------------------------------------------

void Lvmm::freeze_guest(DebugDelegate::StopReason reason) {
  trace(TraceKind::kDebugStop, static_cast<u8>(reason), 0, 0);
  frozen_ = true;
  machine_.set_cpu_frozen(true);
  machine_.cpu().request_stop();
  machine_.cpu().set_debug_step(false);
  if (debug_) debug_->on_guest_stop(reason);
  if (stop_observer_) stop_observer_(reason);
}

void Lvmm::resume_guest() {
  frozen_ = false;
  machine_.set_cpu_frozen(false);
  machine_.cpu().resume_over_breakpoint();  // before an injection moves pc
  try_inject();
}

// charge:covered(terminal; the guest freezes for good, accounting is moot)
void Lvmm::guest_crash() {
  trace(TraceKind::kGuestCrash, 0, 0, 0);
  vcpu_.crashed = true;
  freeze_guest(DebugDelegate::StopReason::kCrash);
}

// --------------------------------------------------------------------------
// Snapshot support.
// --------------------------------------------------------------------------

void Lvmm::save(SnapshotWriter& w) const {
  w.begin_section(SnapTag::kLvmm);
  w.put_bool(vcpu_.vif);
  w.put_u8(vcpu_.vcpl);
  for (u32 c : vcpu_.vcr) w.put_u32(c);
  w.put_u32(vcpu_.vidt_base);
  w.put_u32(vcpu_.vidt_count);
  w.put_bool(vcpu_.halted);
  w.put_bool(vcpu_.crashed);

  w.put_u64(stats_.total);
  w.put_u64(stats_.privileged_instr);
  w.put_u64(stats_.io_emulated);
  w.put_u64(stats_.interrupts);
  w.put_u64(stats_.injections);
  w.put_u64(stats_.shadow_syncs);
  w.put_u64(stats_.pt_writes);
  w.put_u64(stats_.reflected_faults);
  w.put_u64(stats_.soft_ints);
  w.put_u64(stats_.unknown_ports);
  w.put_u64(stats_.charged_cycles);
  for (const ExitKindStats& k : stats_.by_kind) {
    w.put_u64(k.count);
    w.put_u64(k.cycles);
    w.put_u64(k.max_cycles);
    for (u32 h : k.hist) w.put_u32(h);
  }

  w.put_u64(masked_pending_.size());
  for (unsigned irq : masked_pending_) w.put_u32(irq);
  w.put_bool(frozen_);

  for (const IrqSpan& sp : irq_spans_) {
    w.put_u32(sp.id);
    w.put_u64(sp.arrival);
    w.put_u64(sp.injected);
    w.put_bool(sp.injected_seen);
  }
  w.put_u32(next_span_id_);
  w.put_u64(span_stats_.begun);
  w.put_u64(span_stats_.completed);
  w.put_u64(span_stats_.aborted);
  for (const ExitKindStats* ph :
       {&span_stats_.arrival_to_inject, &span_stats_.inject_to_eoi}) {
    w.put_u64(ph->count);
    w.put_u64(ph->cycles);
    w.put_u64(ph->max_cycles);
    for (u32 h : ph->hist) w.put_u32(h);
  }
  w.end_section();

  w.begin_section(SnapTag::kVpic);
  vpic_.save(w);
  w.end_section();
  w.begin_section(SnapTag::kShadowMmu);
  shadow_->save(w);
  w.end_section();
  w.begin_section(SnapTag::kGuestMem);
  gmem_->save(w);
  w.end_section();
}

bool Lvmm::fits(const SnapshotReader& r) const {
  for (SnapTag tag : {SnapTag::kLvmm, SnapTag::kVpic, SnapTag::kShadowMmu,
                      SnapTag::kGuestMem}) {
    if (!r.has_section(tag)) return false;
  }
  return true;
}

bool Lvmm::restore(SnapshotReader& r) {
  if (!fits(r) || !r.open_section(SnapTag::kLvmm)) return false;
  vcpu_.vif = r.get_bool();
  vcpu_.vcpl = r.get_u8();
  for (u32& c : vcpu_.vcr) c = r.get_u32();
  vcpu_.vidt_base = r.get_u32();
  vcpu_.vidt_count = r.get_u32();
  vcpu_.halted = r.get_bool();
  vcpu_.crashed = r.get_bool();

  stats_.total = r.get_u64();
  stats_.privileged_instr = r.get_u64();
  stats_.io_emulated = r.get_u64();
  stats_.interrupts = r.get_u64();
  stats_.injections = r.get_u64();
  stats_.shadow_syncs = r.get_u64();
  stats_.pt_writes = r.get_u64();
  stats_.reflected_faults = r.get_u64();
  stats_.soft_ints = r.get_u64();
  stats_.unknown_ports = r.get_u64();
  stats_.charged_cycles = r.get_u64();
  for (ExitKindStats& k : stats_.by_kind) {
    k.count = r.get_u64();
    k.cycles = r.get_u64();
    k.max_cycles = r.get_u64();
    for (u32& h : k.hist) h = r.get_u32();
  }

  masked_pending_.clear();
  const u64 nmasked = r.get_u64();
  for (u64 i = 0; i < nmasked && r.ok(); ++i) {
    masked_pending_.insert(r.get_u32());
  }
  frozen_ = r.get_bool();

  for (IrqSpan& sp : irq_spans_) {
    sp.id = r.get_u32();
    sp.arrival = r.get_u64();
    sp.injected = r.get_u64();
    sp.injected_seen = r.get_bool();
  }
  next_span_id_ = r.get_u32();
  span_stats_.begun = r.get_u64();
  span_stats_.completed = r.get_u64();
  span_stats_.aborted = r.get_u64();
  for (ExitKindStats* ph :
       {&span_stats_.arrival_to_inject, &span_stats_.inject_to_eoi}) {
    ph->count = r.get_u64();
    ph->cycles = r.get_u64();
    ph->max_cycles = r.get_u64();
    for (u32& h : ph->hist) h = r.get_u32();
  }

  if (!r.open_section(SnapTag::kVpic)) return false;
  vpic_.restore(r);
  if (!r.open_section(SnapTag::kShadowMmu)) return false;
  shadow_->restore(r);
  if (!r.open_section(SnapTag::kGuestMem)) return false;
  gmem_->restore(r);
  return r.ok();
}

// --------------------------------------------------------------------------
// Metrics registration. Every slot handed to the registry is a live stats
// member serialized by save()/restore() above (or by the component's own
// snapshot support), so the exported values are replay-exact; the only
// exceptions are the tracer gauges, which read host wiring.
// --------------------------------------------------------------------------

void Lvmm::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("vmm.exit.total", &stats_.total);
  reg.add_counter("vmm.exit.privileged_instr", &stats_.privileged_instr);
  reg.add_counter("vmm.exit.io_emulated", &stats_.io_emulated);
  reg.add_counter("vmm.exit.interrupts", &stats_.interrupts);
  reg.add_counter("vmm.exit.injections", &stats_.injections);
  reg.add_counter("vmm.exit.shadow_syncs", &stats_.shadow_syncs);
  reg.add_counter("vmm.exit.pt_writes", &stats_.pt_writes);
  reg.add_counter("vmm.exit.reflected_faults", &stats_.reflected_faults);
  reg.add_counter("vmm.exit.soft_ints", &stats_.soft_ints);
  reg.add_counter("vmm.exit.unknown_ports", &stats_.unknown_ports);
  reg.add_counter("vmm.exit.charged_cycles", &stats_.charged_cycles);

  for (unsigned i = 0; i < kNumExitKinds; ++i) {
    const ExitKindStats& k = stats_.by_kind[i];
    const std::string base =
        "vmm.exit_" + std::string(exit_kind_name(static_cast<ExitKind>(i)));
    reg.add_counter(base + ".count", &k.count);
    reg.add_counter(base + ".cycles", &k.cycles);
    reg.add_counter(base + ".max_cycles", &k.max_cycles);
    reg.add_histogram(base + ".latency_log2", k.hist.data(),
                      ExitKindStats::kHistBuckets);
  }

  const GuestMemory::Stats& vs = gmem_->stats();
  reg.add_counter("vmm.vtlb.lookups", &vs.lookups);
  reg.add_counter("vmm.vtlb.hits", &vs.hits);
  reg.add_counter("vmm.vtlb.walks", &vs.walks);
  reg.add_counter("vmm.vtlb.fills", &vs.fills);
  reg.add_counter("vmm.vtlb.invalidations", &vs.invalidations);
  reg.add_counter("vmm.vtlb.flushes", &vs.flushes);
  reg.add_gauge("vmm.vtlb.hit_rate", [this] {
    const GuestMemory::Stats& s = gmem_->stats();
    return s.lookups ? double(s.hits) / double(s.lookups) : 0.0;
  });

  reg.add_counter("vmm.irqspan.begun", &span_stats_.begun);
  reg.add_counter("vmm.irqspan.completed", &span_stats_.completed);
  reg.add_counter("vmm.irqspan.aborted", &span_stats_.aborted);
  for (const auto& [phase, ph] :
       {std::pair{"arrival_to_inject", &span_stats_.arrival_to_inject},
        std::pair{"inject_to_eoi", &span_stats_.inject_to_eoi}}) {
    const std::string base = "vmm.irqspan." + std::string(phase);
    reg.add_counter(base + ".count", &ph->count);
    reg.add_counter(base + ".cycles", &ph->cycles);
    reg.add_counter(base + ".max_cycles", &ph->max_cycles);
    reg.add_histogram(base + ".latency_log2", ph->hist.data(),
                      ExitKindStats::kHistBuckets);
  }

  vpic_.register_metrics(reg, "vmm.vpic");

  // The crash latch is serialized with the vCPU and the canary lives in
  // simulated memory, so both replay exactly.
  reg.add_gauge("vmm.health.guest_crashed",
                [this] { return vcpu_.crashed ? 1.0 : 0.0; });
  reg.add_gauge("vmm.health.monitor_intact",
                [this] { return monitor_memory_intact() ? 1.0 : 0.0; });

  // Host wiring: the tracer ring is dropped on restore, not replayed.
  reg.add_gauge(
      "vmm.trace.recorded",
      [this] { return tracer_ ? double(tracer_->recorded()) : 0.0; },
      /*replay_exact=*/false);
  reg.add_gauge(
      "vmm.trace.overwritten",
      [this] { return tracer_ ? double(tracer_->overwritten()) : 0.0; },
      /*replay_exact=*/false);
}

}  // namespace vdbg::vmm
