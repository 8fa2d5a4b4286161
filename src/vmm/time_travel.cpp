#include "vmm/time_travel.h"

#include <algorithm>

namespace vdbg::vmm {

TimeTravel::TimeTravel(Lvmm& mon, Config cfg) : mon_(mon), cfg_(cfg) {}

TimeTravel::~TimeTravel() { disable(); }

u64 TimeTravel::icount() const {
  return machine().cpu().stats().instructions;
}

void TimeTravel::enable() {
  if (enabled_) return;
  enabled_ = true;
  // Charge before capturing so the checkpoint holds the post-charge state:
  // restoring it resumes *after* that boundary's checkpoint work, and the
  // next replayed boundary re-charges its own.
  hook_id_ = machine().add_instr_hook(
      cfg_.interval, [this](u64) { checkpoint_now(); }, /*charges=*/true);
}

void TimeTravel::disable() {
  if (!enabled_) return;
  enabled_ = false;
  machine().remove_instr_hook(hook_id_);
  hook_id_ = 0;
}

// --------------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------------

void TimeTravel::charge_checkpoint() {
  // Per *resident* page: a pure function of guest state at the boundary, so
  // a replay reaching the same boundary re-charges the identical amount.
  // Charging per fresh page instead would tie the cost to host-side capture
  // history (a resume-anchored checkpoint resets freshness) and break
  // replay cycle-identity.
  const auto& costs = mon_.config().costs;
  const u64 pages = machine().mem().nonzero_pages();
  const Cycles cost = costs.checkpoint_base + costs.checkpoint_per_page * pages;
  mon_.charge(cost);
  stats_.checkpoint_charged_cycles += cost;
}

void TimeTravel::store_checkpoint(Checkpoint cp) {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), cp.icount,
      [](const Checkpoint& c, u64 v) { return c.icount < v; });
  if (it != ring_.end() && it->icount == cp.icount) {
    // A replay pass re-reached a boundary already in the ring. Replace the
    // entry: after a replay that diverged across older interactive stops,
    // the ring then matches the timeline the machine is now in.
    *it = std::move(cp);
    return;
  }
  auto inserted = ring_.insert(it, std::move(cp));
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += inserted->stored_bytes;
  stats_.cow_fresh_pages += inserted->mem.fresh_pages();
  while (ring_.size() > cfg_.ring) ring_.pop_front();
}

bool TimeTravel::checkpoint_now() {
  charge_checkpoint();
  Checkpoint cp = capture_checkpoint(mon_);
  if (cp.bytes.empty()) return false;
  store_checkpoint(std::move(cp));
  return true;
}

const Checkpoint* TimeTravel::newest_at_or_below(u64 ic) const {
  const Checkpoint* best = nullptr;
  for (const Checkpoint& c : ring_) {
    if (c.icount <= ic) best = &c;
  }
  return best;
}

// --------------------------------------------------------------------------
// Snapshot save/load (qVdbg.Snapshot)
// --------------------------------------------------------------------------

std::vector<u8> TimeTravel::save_state() const {
  SnapshotWriter w;
  machine().save(w);
  mon_.save(w);
  return w.finish();
}

bool TimeTravel::load_state(const std::vector<u8>& bytes) {
  const bool was_frozen = mon_.guest_frozen();
  Checkpoint cp;  // a full stream: no COW pages to adopt
  cp.bytes = bytes;
  if (!restore(cp)) return false;
  if (was_frozen && !mon_.guest_frozen()) {
    freeze_quietly(StopReason::kStep);
  }
  return true;
}

bool TimeTravel::restore(const Checkpoint& cp) {
  if (!restore_checkpoint(machine(), &mon_, cp)) return false;
  ++stats_.restores;
  return true;
}

// --------------------------------------------------------------------------
// Replay session plumbing
// --------------------------------------------------------------------------

void TimeTravel::begin_replay() {
  prev_delegate_ = mon_.debug_delegate();
  mon_.set_debug_delegate(this);
  replaying_ = true;
  replay_failed_ = false;
  held_ = false;
}

void TimeTravel::end_replay() {
  mon_.set_debug_delegate(prev_delegate_);
  prev_delegate_ = nullptr;
  replaying_ = false;
  mode_ = Mode::kIdle;
}

hw::Machine::StopReason TimeTravel::replay_pass(u64 target) {
  ++stats_.replay_passes;
  const u64 before = icount();
  const auto r = replay_to(mon_, target, cfg_.replay_budget);
  stats_.replayed_instructions += icount() - before;
  if (r == hw::Machine::StopReason::kBudget ||
      r == hw::Machine::StopReason::kShutdown ||
      r == hw::Machine::StopReason::kIdleDeadlock) {
    replay_failed_ = true;
  }
  return r;
}

void TimeTravel::hold(StopReason reason) {
  held_ = true;
  held_reason_ = reason;
  machine().external_stop();
}

void TimeTravel::freeze_quietly(StopReason reason) {
  DebugDelegate* prev = mon_.debug_delegate();
  mon_.set_debug_delegate(this);
  suppress_stop_ = true;
  mon_.freeze_guest(reason);
  suppress_stop_ = false;
  mon_.set_debug_delegate(prev);
}

// --------------------------------------------------------------------------
// DebugDelegate — replay-time stop handling
// --------------------------------------------------------------------------

void TimeTravel::on_uart_activity() {
  // Acknowledge exactly as the stub's service() would (reading IIR clears a
  // THRE indication, charge-free): a checkpoint anchored at a resume
  // still has the reply's transmit-drain events in flight, and leaving the
  // level asserted would storm the interrupt path for the whole replay.
  // RX is NOT drained: a debugger-quiet window has none, and replay must
  // not consume bytes the live stub will read after the landing.
  (void)machine().uart().io_read(2);
}

void TimeTravel::on_guest_stop(StopReason reason) {
  if (suppress_stop_) return;
  if (!replaying_) return;  // defensive: not our delegate window
  const u64 ic = icount();

  // Intermediate stops resume exactly like the stub's `c`; the resume
  // passes over a breakpoint at the stop pc.
  if (mode_ == Mode::kScan) {
    // A stop exactly at the window's end boundary belongs to this window
    // only when the boundary is a checkpoint from a newer window (the
    // freeze precedes a checkpoint taken at the same icount, e.g. a
    // resume-anchored one); when the boundary is the reverse origin itself,
    // that stop IS the origin and must not be re-recorded.
    const bool in_window =
        ic < scan_end_ || (scan_inclusive_ && ic == scan_end_);
    if (in_window) hits_.push_back({ic, reason});
    if (ic < scan_end_ && reason != StopReason::kCrash) {
      mon_.resume_guest();
    } else {
      hold(reason);  // reached the window end (or an unpassable crash)
    }
    return;
  }
  if (mode_ == Mode::kLand && ic < land_target_ &&
      reason != StopReason::kCrash) {
    mon_.resume_guest();
    return;
  }
  hold(reason);
}

// --------------------------------------------------------------------------
// Reverse execution
// --------------------------------------------------------------------------

TimeTravel::ReverseStop TimeTravel::reverse_stepi() {
  ReverseStop out;
  const u64 origin = icount();
  if (origin == 0) {
    out.outcome = ReverseOutcome::kNoHistory;
    out.icount = origin;
    return out;
  }
  const u64 target = origin - 1;
  const Checkpoint* cp = newest_at_or_below(target);
  if (!cp) {
    out.outcome = ReverseOutcome::kNoHistory;
    out.icount = origin;
    return out;
  }
  const Checkpoint snap = *cp;  // ring may mutate during replay

  begin_replay();
  mode_ = Mode::kLand;
  land_target_ = target;
  if (restore(snap)) {
    const auto r = replay_pass(target);
    if (held_) {
      out = {ReverseOutcome::kStopped, held_reason_, icount()};
    } else if (r == hw::Machine::StopReason::kInstrLimit && !replay_failed_) {
      freeze_quietly(StopReason::kStep);
      out = {ReverseOutcome::kStopped, StopReason::kStep, icount()};
    }
  }
  if (out.outcome == ReverseOutcome::kError && !mon_.guest_frozen()) {
    freeze_quietly(StopReason::kStep);  // containment: never leave it running
    out.icount = icount();
  }
  end_replay();
  return out;
}

TimeTravel::ReverseStop TimeTravel::reverse_continue() {
  ReverseStop out;
  const u64 origin = icount();

  // Candidate checkpoints strictly below the origin, newest first. Copies:
  // replay passes refresh the ring underneath us.
  std::vector<Checkpoint> cands;
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->icount < origin) cands.push_back(*it);
  }
  if (cands.empty()) {
    out.outcome = ReverseOutcome::kNoHistory;
    out.icount = origin;
    return out;
  }

  begin_replay();
  bool done = false;
  u64 window_end = origin;
  for (const Checkpoint& cp : cands) {
    // Scan pass over the window up from cp: collect every hit. The first
    // window ends at (and excludes) the origin stop; older windows end at
    // (and include) the next-newer checkpoint's boundary.
    mode_ = Mode::kScan;
    scan_end_ = window_end;
    scan_inclusive_ = window_end != origin;
    hits_.clear();
    held_ = false;
    if (!restore(cp)) {
      done = true;
      break;
    }
    // A breakpoint stops before its instruction retires, at the very
    // boundary a replay to its icount halts on: an inclusive end runs one
    // boundary further so a breakpoint there fires (the stop ends the pass).
    replay_pass(window_end + (scan_inclusive_ ? 1 : 0));
    if (replay_failed_) {
      done = true;
      break;
    }
    if (!hits_.empty()) {
      // Landing pass: restore again, replay to the LAST hit and keep that
      // stop frozen (one boundary past it, so a breakpoint hit fires; the
      // held stop ends the pass first).
      const Hit target = hits_.back();
      mode_ = Mode::kLand;
      land_target_ = target.icount;
      held_ = false;
      if (restore(cp)) {
        replay_pass(target.icount + 1);
        if (held_) {
          out = {ReverseOutcome::kStopped, held_reason_, icount()};
        }
      }
      done = true;
      break;
    }
    window_end = cp.icount;
  }
  if (!done) {
    // No hit anywhere in recorded history: land on the oldest checkpoint.
    mode_ = Mode::kIdle;
    if (restore(cands.back())) {
      freeze_quietly(StopReason::kStep);
      out = {ReverseOutcome::kAtCheckpoint, StopReason::kStep, icount()};
    }
  }
  if (out.outcome == ReverseOutcome::kError && !mon_.guest_frozen()) {
    freeze_quietly(StopReason::kStep);
    out.icount = icount();
  }
  end_replay();
  return out;
}

}  // namespace vdbg::vmm
