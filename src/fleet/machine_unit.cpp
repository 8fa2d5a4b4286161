#include "fleet/machine_unit.h"

#include <stdexcept>

#include "guest/layout.h"

namespace vdbg::fleet {

std::string_view unit_kind_name(UnitKind k) {
  switch (k) {
    case UnitKind::kNative: return "native";
    case UnitKind::kLvmm: return "lvmm";
    case UnitKind::kHosted: return "hosted";
  }
  return "?";
}

// thread:init-only(runs before the unit is handed to any worker)
MachineUnit::MachineUnit(UnitKind kind, const UnitOptions& opts, int id)
    : kind_(kind), opts_(opts), id_(id) {
  machine_ = std::make_unique<hw::Machine>(opts_.machine);
  image_ = opts_.prebuilt_image ? *opts_.prebuilt_image
                                : guest::build_minitactix(opts_.build);
  opts_.prebuilt_image = nullptr;  // consumed; the pointee may not outlive us
}

// thread:init-only(runs before the unit is handed to any worker)
void MachineUnit::prepare(const guest::RunConfig& rc) {
  if (prepared_) throw std::logic_error("MachineUnit::prepare called twice");
  prepared_ = true;
  rc_ = rc;

  image_.load(machine_->mem());
  machine_->cpu().state().pc = *image_.kernel.symbol("entry");
  guest::write_run_config(machine_->mem(), rc);
  machine_->nic().set_wire_sink(
      [this](std::span<const u8> f, Cycles now) { sink_.on_frame(f, now); });

  if (kind_ == UnitKind::kNative) {
    if (opts_.metrics_registration) machine_->register_metrics(metrics_);
    return;
  }

  vmm::Lvmm::Config mc;
  mc.costs = opts_.lvmm_costs;
  mc.device_passthrough = opts_.lvmm_device_passthrough;
  mc.monitor_base = guest::kMonitorBase;
  mc.monitor_len = opts_.machine.mem_bytes - guest::kMonitorBase;
  mc.guest_mem_limit = guest::kGuestMemBytes;
  if (mc.monitor_len == 0 || opts_.machine.mem_bytes <= guest::kMonitorBase) {
    throw std::invalid_argument("machine too small for the monitor region");
  }
  if (kind_ == UnitKind::kLvmm) {
    monitor_ = std::make_unique<vmm::Lvmm>(*machine_, mc);
  } else {
    monitor_ = std::make_unique<fullvmm::HostedVmm>(*machine_, mc,
                                                    opts_.hosted_costs);
  }
  monitor_->install();
  if (opts_.metrics_registration) {
    machine_->register_metrics(metrics_);
    monitor_->register_metrics(metrics_);
  }
}

// thread:init-only(runs before the unit is handed to any worker)
vmm::DebugStub* MachineUnit::attach_stub() {
  if (stub_) return stub_.get();
  if (!monitor_) return nullptr;
  stub_ = std::make_unique<vmm::DebugStub>(*monitor_, machine_->uart(),
                                           metrics_);
  stub_->attach();
  // Observers armed before the stub attached still get their wire surface.
  if (flight_) stub_->set_flight_recorder(flight_.get());
  if (flight_loop_) stub_->set_flight_loop(flight_loop_.get());
  return stub_.get();
}

// thread:handoff(owning worker via the slot.mu arm_requested protocol, or harness init before the run)
vmm::FlightRecorder* MachineUnit::arm_flight_recorder(
    const std::string& dir, const std::string& file_prefix) {
  if (flight_) return flight_.get();
  if (!monitor_) return nullptr;
  // The tracer and recorder are host-side observers — they charge nothing,
  // so the simulated timeline is identical with or without them.
  if (!monitor_->tracer()) {
    flight_tracer_ = std::make_unique<vmm::ExitTracer>();
    flight_tracer_->set_enabled(true);
    monitor_->set_tracer(flight_tracer_.get());
  }
  vmm::FlightRecorder::Config fc;
  fc.out_dir = dir;
  fc.file_prefix = file_prefix;
  fc.machine_id = id_;
  flight_ = std::make_unique<vmm::FlightRecorder>(*monitor_, fc);
  flight_->set_metrics(&metrics_);
  flight_->arm();
  if (stub_) stub_->set_flight_recorder(flight_.get());
  return flight_.get();
}

// thread:init-only(armed before the unit is handed to any worker)
vmm::FlightLoop* MachineUnit::arm_flight_loop(
    const vmm::FlightLoop::Config& cfg) {
  if (flight_loop_) return flight_loop_.get();
  if (!monitor_) return nullptr;
  if (!monitor_->tracer()) {
    flight_tracer_ = std::make_unique<vmm::ExitTracer>();
    flight_tracer_->set_enabled(true);
    monitor_->set_tracer(flight_tracer_.get());
  }
  flight_loop_ = std::make_unique<vmm::FlightLoop>(*monitor_, cfg);
  flight_loop_->set_metrics(&metrics_);
  flight_loop_->arm();
  if (opts_.metrics_registration) {
    flight_loop_->register_metrics(metrics_);
    // The metrics time series rides in the unit's flight loop; its health
    // counters live under the fleet.series.* family.
    const SeriesRing& series = flight_loop_->series();
    metrics_.add_counter("fleet.series.points", &series.stats().pushed,
                         /*replay_exact=*/false);
    metrics_.add_counter("fleet.series.evicted", &series.stats().evicted,
                         /*replay_exact=*/false);
    metrics_.add_gauge(
        "fleet.series.depth",
        [this] { return double(flight_loop_->series().size()); },
        /*replay_exact=*/false);
  }
  if (stub_) stub_->set_flight_loop(flight_loop_.get());
  return flight_loop_.get();
}

}  // namespace vdbg::fleet
