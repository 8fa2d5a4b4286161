#include "hw/machine.h"

#include <algorithm>

namespace vdbg::hw {

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg), mem_(cfg.mem_bytes), irq_perturb_(eq_, *this, pic_) {
  // Devices raise interrupts through the perturbation shim; with all delays
  // zero (default) it forwards synchronously and is wiring-invisible. The
  // CPU's INTR/INTA line stays on the PIC itself.
  cpu_ = std::make_unique<cpu::Cpu>(mem_, router_, &pic_, cfg_.costs);
  pit_ = std::make_unique<Pit>(eq_, *this, irq_perturb_);
  uart_ = std::make_unique<Uart>(eq_, *this, irq_perturb_, cfg_.uart);
  nic_ = std::make_unique<Nic>(eq_, *this, irq_perturb_, mem_, cfg_.nic);
  for (unsigned i = 0; i < cfg_.num_disks; ++i) {
    disks_.push_back(std::make_unique<ScsiDisk>(
        i, eq_, *this, irq_perturb_, kScsiIrq0 + i, mem_, cfg_.scsi));
  }

  router_.map(kPicMasterBase, 2, &pic_.master_ports());
  router_.map(kPicSlaveBase, 2, &pic_.slave_ports());
  router_.map(kPitBase, 4, pit_.get());
  router_.map(kUartBase, 8, uart_.get());
  router_.map(kNicBase, 0x40, nic_.get());
  for (unsigned i = 0; i < cfg_.num_disks; ++i) {
    router_.map(static_cast<u16>(kScsiBase0 + i * kScsiPortStride),
                kScsiPortStride, disks_[i].get());
  }
  router_.map(kDiagBase, kDiagPortCount, &diag_);

  diag_.set_exit_fn([this](u32 code) {
    guest_exit_ = code;
    // Stop the CPU at the next instruction boundary so the run loop sees
    // the exit promptly instead of spinning out the rest of the slice.
    cpu_->request_stop();
  });
  diag_.set_tsc_fn([this] { return static_cast<u32>(cpu_->cycles()); });

  // Preempt a running CPU slice when a device schedules an event earlier
  // than the slice's planned end, so completions/interrupts are observed
  // with their true timing (a polling guest must see them promptly).
  eq_.set_deadline_observer([this](Cycles d) { cpu_->lower_run_limit(d); });
}

void Machine::load(const vasm::Program& image) {
  image.load(mem_);
  const auto entry = image.symbol("entry");
  cpu_->state().pc = entry.value_or(image.base);
}

double Machine::cpu_load(const LoadProbe& probe) const {
  const Cycles total = now() - probe.start_cycles;
  if (total == 0) return 0.0;
  const Cycles idle = idle_cycles_ - probe.start_idle;
  return 1.0 - static_cast<double>(idle) / static_cast<double>(total);
}

Machine::StopReason Machine::run_for(Cycles budget) {
  const Cycles end = now() + budget;
  while (now() < end) {
    eq_.run_until(now());
    if (external_stop_) {
      external_stop_ = false;
      return StopReason::kExternalStop;
    }
    if (guest_exit_) return StopReason::kGuestExit;
    if (cpu_->shutdown()) return StopReason::kShutdown;

    // Deterministic PC sampler: a function of retired instructions only,
    // polled before the generic hooks so a checkpoint taken on the same
    // boundary already contains the sample. Serialised with the CPU, so a
    // restored replay resumes sampling at exactly the original boundaries.
    cpu::PcProfiler& prof = cpu_->profiler();
    if (cpu_->stats().instructions >= prof.next_sample()) {
      prof.take_sample(cpu_->stats().instructions, cpu_->state().pc);
      continue;
    }

    // Periodic hooks (checkpointers): fire between CPU slices, at the first
    // boundary at-or-after each absolute multiple of the interval. Fired
    // before the instruction-target check so a replay that stops on the
    // same boundary still performs (and charges) the checkpoint exactly as
    // the original run did.
    bool hook_fired = false;
    for (auto& h : instr_hooks_) {
      if (cpu_->stats().instructions < h.next) continue;
      const u64 icount = cpu_->stats().instructions;
      h.next = (icount / h.every + 1) * h.every;
      h.fn(icount);
      hook_fired = true;
      break;  // hook may charge cycles / freeze; re-evaluate everything
    }
    if (hook_fired) continue;
    if (cpu_->stats().instructions >= instr_target_) {
      return StopReason::kInstrLimit;
    }
    cpu_->set_instr_stop(next_instr_boundary(instr_target_));

    if (frozen_) {
      if (frozen_service_) frozen_service_();
      if (external_stop_ || guest_exit_ || !frozen_) continue;
      const auto next = eq_.next_deadline();
      if (!next) return StopReason::kIdleDeadlock;
      const Cycles target = std::min(end, std::max(*next, now()));
      if (target <= now()) continue;  // due events handled at loop top
      idle_cycles_ += target - now();
      cpu_->add_cycles(target - now());
      continue;
    }

    if (cpu_->halted()) {
      const bool wakeable =
          pic_.intr_asserted() &&
          (cpu_->trap_hook() != nullptr || cpu_->state().intr_enabled());
      if (wakeable) {
        cpu_->run(1);  // processes the pending interrupt immediately
        continue;
      }
      const auto next = eq_.next_deadline();
      if (!next) return StopReason::kIdleDeadlock;
      const Cycles target = std::min(end, *next);
      if (target <= now()) continue;
      idle_cycles_ += target - now();
      cpu_->add_cycles(target - now());
      continue;
    }

    const auto next = eq_.next_deadline();
    const Cycles slice_end = next ? std::min(end, *next) : end;
    if (slice_end <= now()) continue;
    cpu_->run(slice_end - now());
    // Exit reasons (halt, shutdown, stop request) are observed at loop top.
  }
  eq_.run_until(now());
  if (guest_exit_) return StopReason::kGuestExit;
  if (cpu_->shutdown()) return StopReason::kShutdown;
  if (cpu_->stats().instructions >= instr_target_) {
    return StopReason::kInstrLimit;
  }
  return StopReason::kBudget;
}

Machine::StopReason Machine::run_to_instruction(u64 target, Cycles budget) {
  instr_target_ = target;
  StopReason r = StopReason::kBudget;
  const Cycles end = now() + budget;
  for (;;) {
    if (cpu_->stats().instructions >= target) {
      r = StopReason::kInstrLimit;
      break;
    }
    if (now() >= end) break;
    r = run_for(std::min<Cycles>(end - now(), 1'000'000));
    if (r != StopReason::kBudget) break;
  }
  instr_target_ = ~u64{0};
  cpu_->set_instr_stop(~u64{0});
  return r;
}

u64 Machine::next_instr_boundary(u64 cap) const {
  u64 stop = cap;
  for (const auto& h : instr_hooks_) stop = std::min(stop, h.next);
  return std::min(stop, cpu_->profiler().next_sample());
}

int Machine::add_instr_hook(u64 every, InstrHook hook, bool charges) {
  HookSlot h;
  h.id = next_hook_id_++;
  h.every = std::max<u64>(1, every);
  h.next = (cpu_->stats().instructions / h.every + 1) * h.every;
  h.charges = charges;
  h.fn = std::move(hook);
  const int id = h.id;
  instr_hooks_.push_back(std::move(h));
  std::stable_partition(instr_hooks_.begin(), instr_hooks_.end(),
                        [](const HookSlot& s) { return s.charges; });
  return id;
}

void Machine::remove_instr_hook(int id) {
  for (auto it = instr_hooks_.begin(); it != instr_hooks_.end(); ++it) {
    if (it->id != id) continue;
    instr_hooks_.erase(it);
    break;
  }
  // Drop any stale stop the removed hook planted; run_for re-tightens.
  cpu_->set_instr_stop(next_instr_boundary(~u64{0}));
}

void Machine::register_metrics(MetricsRegistry& reg) {
  cpu_->register_metrics(reg);
  pic_.register_metrics(reg, "hw.pic");
  pit_->register_metrics(reg);
  uart_->register_metrics(reg);
  nic_->register_metrics(reg);
  for (unsigned d = 0; d < num_disks(); ++d) {
    disks_[d]->register_metrics(reg, "hw.scsi" + std::to_string(d));
  }
  reg.add_counter("hw.machine.idle_cycles", &idle_cycles_);
  mem_.register_metrics(reg);
}

void Machine::save(SnapshotWriter& w, bool external_mem) const {
  w.begin_section(SnapTag::kMachine);
  w.put_u32(cfg_.mem_bytes);
  w.put_u32(cfg_.num_disks);
  w.put_bool(frozen_);
  w.put_bool(guest_exit_.has_value());
  w.put_u32(guest_exit_.value_or(0));
  w.put_u64(idle_cycles_);
  w.put_u64(eq_.next_seq());
  w.end_section();

  w.begin_section(SnapTag::kCpu);
  cpu_->save(w);
  w.end_section();
  w.begin_section(SnapTag::kMmu);
  cpu_->mmu().save(w);
  w.end_section();
  w.begin_section(SnapTag::kPhysMem);
  if (external_mem) {
    mem_.save_external(w);
  } else {
    mem_.save(w);
  }
  w.end_section();
  w.begin_section(SnapTag::kPic);
  pic_.save(w);
  w.end_section();
  w.begin_section(SnapTag::kIrqPerturb);
  irq_perturb_.save(w);
  w.end_section();
  w.begin_section(SnapTag::kPit);
  pit_->save(w);
  w.end_section();
  w.begin_section(SnapTag::kUart);
  uart_->save(w);
  w.end_section();
  w.begin_section(SnapTag::kNic);
  nic_->save(w);
  w.end_section();
  w.begin_section(SnapTag::kScsi);
  for (const auto& d : disks_) d->save(w);
  w.end_section();
  w.begin_section(SnapTag::kDiag);
  diag_.save(w);
  w.end_section();
}

bool Machine::fits(SnapshotReader& r) const {
  for (SnapTag tag :
       {SnapTag::kCpu, SnapTag::kMmu, SnapTag::kPhysMem, SnapTag::kPic,
        SnapTag::kIrqPerturb, SnapTag::kPit, SnapTag::kUart, SnapTag::kNic,
        SnapTag::kScsi, SnapTag::kDiag}) {
    if (!r.has_section(tag)) return false;
  }
  if (!r.open_section(SnapTag::kMachine)) return false;
  return r.get_u32() == cfg_.mem_bytes && r.get_u32() == cfg_.num_disks &&
         r.ok();
}

bool Machine::restore(SnapshotReader& r) {
  if (!fits(r)) return false;
  frozen_ = r.get_bool();
  const bool has_exit = r.get_bool();
  const u32 exit_code = r.get_u32();
  guest_exit_ = has_exit ? std::optional<u32>(exit_code) : std::nullopt;
  idle_cycles_ = r.get_u64();
  const u64 saved_next_seq = r.get_u64();

  if (!r.open_section(SnapTag::kCpu)) return false;
  cpu_->restore(r);
  if (!r.open_section(SnapTag::kMmu)) return false;
  cpu_->mmu().restore(r);
  if (!r.open_section(SnapTag::kPhysMem)) return false;
  if (!mem_.restore(r)) return false;
  if (!r.open_section(SnapTag::kPic)) return false;
  pic_.restore(r);
  if (!r.open_section(SnapTag::kIrqPerturb)) return false;
  irq_perturb_.restore(r);
  if (!r.open_section(SnapTag::kPit)) return false;
  pit_->restore(r);
  if (!r.open_section(SnapTag::kUart)) return false;
  uart_->restore(r);
  if (!r.open_section(SnapTag::kNic)) return false;
  nic_->restore(r);
  if (!r.open_section(SnapTag::kScsi)) return false;
  for (const auto& d : disks_) d->restore(r);
  if (!r.open_section(SnapTag::kDiag)) return false;
  diag_.restore(r);

  // Roll the sequence counter back only after every device has re-armed its
  // events (schedule_restored bumps it past each restored seq); the saved
  // value is by construction past all of them.
  eq_.set_next_seq(saved_next_seq);

  external_stop_ = false;
  // Re-anchor every checkpoint hook to the restored instruction count so
  // the replay fires at exactly the boundaries the original run used. The
  // profiler needs no re-anchoring: its next-sample boundary is part of the
  // serialised CPU state.
  for (auto& h : instr_hooks_) {
    h.next = (cpu_->stats().instructions / h.every + 1) * h.every;
  }
  return r.ok();
}

Machine::StopReason Machine::run_until_stopped(Cycles max) {
  const Cycles end = now() + max;
  while (now() < end) {
    const StopReason r = run_for(std::min<Cycles>(end - now(), 1'000'000));
    if (r != StopReason::kBudget) return r;
  }
  return StopReason::kBudget;
}

}  // namespace vdbg::hw
