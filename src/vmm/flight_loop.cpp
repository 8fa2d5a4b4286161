#include "vmm/flight_loop.h"

#include <algorithm>

namespace vdbg::vmm {

FlightLoop::FlightLoop(Lvmm& mon, Config cfg)
    : mon_(mon), cfg_(cfg), series_(cfg.series_ring) {}

FlightLoop::~FlightLoop() { disarm(); }

u64 FlightLoop::icount() const {
  return machine().cpu().stats().instructions;
}

void FlightLoop::arm() {
  if (armed_) return;
  armed_ = true;
  hook_id_ = machine().add_instr_hook(
      cfg_.interval, [this](u64 ic) { on_boundary(ic); }, /*charges=*/false);
  if (cfg_.profile_interval != 0) {
    machine().cpu().profiler().configure(cfg_.profile_interval, icount());
  }
}

void FlightLoop::disarm() {
  if (!armed_) return;
  armed_ = false;
  machine().remove_instr_hook(hook_id_);
  hook_id_ = 0;
}

void FlightLoop::on_boundary(u64 ic) {
  if (frozen_) return;
  // A verify replay re-crosses boundaries already in the ring. Skip them:
  // the state there is bit-identical by determinism, the entries' trace
  // cursors must not move before verify_window re-anchors them, and the
  // series must not gain a duplicate point.
  if (!ring_.empty() && ic <= ring_.back().cp.icount) return;

  // No simulated-cycle charge: the flight loop is an observer, not a
  // debugger feature the guest pays for.
  Entry e;
  e.cp = capture_checkpoint(mon_);
  const ExitTracer* tracer = mon_.tracer();
  e.trace_cursor = tracer ? tracer->recorded() : 0;
  ring_.push_back(std::move(e));
  ++stats_.checkpoints;

  SeriesRing::Point pt;
  pt.icount = ic;
  pt.cycles = machine().now();
  if (metrics_) pt.samples = metrics_->snapshot();
  series_.push(std::move(pt));
  ++stats_.series_points;

  evict();
}

void FlightLoop::evict() {
  while (ring_.size() > cfg_.ring) {
    ring_.pop_front();
    ++stats_.evictions;
  }
  // Keep the checkpoint and trace windows aligned: once the tracer has
  // overwritten part of a checkpoint's tail, that checkpoint can no longer
  // anchor a bit-exact replay window, so it goes too.
  const ExitTracer* tracer = mon_.tracer();
  if (tracer == nullptr) return;
  while (ring_.size() > 1 &&
         tracer->recorded() - ring_.front().trace_cursor >
             tracer->capacity()) {
    ring_.pop_front();
    ++stats_.evictions;
  }
}

FlightLoop::Window FlightLoop::window() const {
  Window w;
  if (ring_.empty()) return w;
  w.begin_icount = ring_.front().cp.icount;
  w.begin_cycles = ring_.front().cp.cycles;
  w.end_icount = icount();
  w.end_cycles = machine().now();
  w.checkpoints = ring_.size();
  if (const ExitTracer* tracer = mon_.tracer()) {
    const u64 since = tracer->recorded() - ring_.front().trace_cursor;
    w.trace_events = static_cast<std::size_t>(
        std::min<u64>(since, tracer->capacity()));
  }
  return w;
}

u64 FlightLoop::replayable_instructions() const {
  if (ring_.empty()) return 0;
  return icount() - ring_.front().cp.icount;
}

bool FlightLoop::verify_window(std::string* error) {
  auto fail = [&](std::string why) {
    ++stats_.verify_failures;
    if (error) *error = std::move(why);
    return false;
  };
  ++stats_.verifies;
  if (ring_.empty()) return fail("no checkpoints in the ring");
  const ExitTracer* tracer = mon_.tracer();
  if (tracer == nullptr) return fail("no tracer attached");

  const Entry& oldest = ring_.front();
  const u64 origin = icount();
  const u64 have = tracer->recorded() - oldest.trace_cursor;
  // Events beyond the tracer's capacity were overwritten since the last
  // capture boundary (evict() keeps that gap to at most one partial
  // interval); the element-wise proof covers the surviving tail, while the
  // event-count check below still covers the full window.
  const auto cmp = static_cast<std::size_t>(
      std::min<u64>(have, tracer->capacity()));
  const auto recorded_tail = tracer->tail(cmp);
  const u64 recorded_before = tracer->recorded();

  if (!restore_checkpoint(machine(), &mon_, oldest.cp)) {
    return fail("checkpoint restore failed");
  }
  ++stats_.replays;
  const auto r = replay_to(mon_, origin, cfg_.replay_budget);
  if (icount() != origin) {
    return fail("replay stopped short at icount " + std::to_string(icount()) +
                " (reason " + std::to_string(static_cast<int>(r)) + ")");
  }

  const u64 replayed_n = tracer->recorded() - recorded_before;
  if (replayed_n != have) {
    return fail("replay recorded " + std::to_string(replayed_n) +
                " events, expected " + std::to_string(have));
  }
  const auto replayed_tail = tracer->tail(cmp);
  for (std::size_t i = 0; i < recorded_tail.size(); ++i) {
    if (recorded_tail[i] == replayed_tail[i]) continue;
    return fail("trace divergence at window event " + std::to_string(i));
  }

  // The replayed copy of the window is now the tracer's newest content;
  // re-anchor every checkpoint's cursor onto it so windows keep counting
  // from events that are actually in the ring.
  for (Entry& e : ring_) e.trace_cursor += replayed_n;
  return true;
}

void FlightLoop::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("vmm.flight.checkpoints", &stats_.checkpoints,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.evictions", &stats_.evictions,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.series_points", &stats_.series_points,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.replays", &stats_.replays,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.verifies", &stats_.verifies,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.verify_failures", &stats_.verify_failures,
                  /*replay_exact=*/false);
  reg.add_gauge(
      "vmm.flight.ring_depth", [this] { return double(ring_.size()); },
      /*replay_exact=*/false);
  // Registered side by side so one vmm.flight.window_ read returns both
  // ends of the window from the same instant.
  reg.add_gauge(
      "vmm.flight.window_begin",
      [this] { return ring_.empty() ? 0.0 : double(ring_.front().cp.icount); },
      /*replay_exact=*/false);
  reg.add_gauge(
      "vmm.flight.window_instructions",
      [this] { return double(replayable_instructions()); },
      /*replay_exact=*/false);
}

}  // namespace vdbg::vmm
