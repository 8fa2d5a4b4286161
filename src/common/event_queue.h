// Discrete-event timeline driving all simulated-device timing.
//
// The CPU interpreter owns the cycle counter; devices schedule callbacks at
// absolute cycle deadlines (disk completion, NIC transmit done, PIT tick,
// UART byte arrival). The machine loop fires due events between instructions
// and fast-forwards the clock across HLT.
#pragma once

#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace vdbg {

/// Handle for cancelling a scheduled event.
using EventId = u64;

class EventQueue {
 public:
  using Callback = std::function<void(Cycles now)>;

  /// Observer invoked from schedule_at() with the new event's deadline.
  /// The machine uses it to preempt a running CPU slice when a device
  /// schedules something earlier than the slice's planned end (e.g. a disk
  /// completion programmed by an OUT the CPU just executed).
  using DeadlineObserver = std::function<void(Cycles deadline)>;
  void set_deadline_observer(DeadlineObserver obs) {
    deadline_observer_ = std::move(obs);
  }

  /// Schedules `cb` to fire at absolute cycle `deadline`. Events scheduled
  /// for the same deadline fire in scheduling order. `name` is a debug
  /// label: it is only materialised when name tracing is on, so the hot
  /// scheduling path never heap-allocates for it.
  EventId schedule_at(Cycles deadline, Callback cb, std::string_view name = {});

  /// Schedules relative to `now`.
  EventId schedule_in(Cycles now, Cycles delay, Callback cb,
                      std::string_view name = {}) {
    return schedule_at(now + delay, std::move(cb), name);
  }

  /// Enables storing event names for introspection (pending_names). Off by
  /// default: names passed to schedule_* are dropped without allocating.
  void set_name_tracing(bool on) { name_tracing_ = on; }
  /// Labels of live pending events, deadline order. Entries scheduled while
  /// name tracing was off (or namelessly) appear as "?". Debug/test aid.
  std::vector<std::string> pending_names() const;

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Deadline and sequence number of a live pending event. Devices use this
  /// when serializing an in-flight operation so it can be re-armed at the
  /// same point in the timeline on restore. Empty for fired/cancelled ids.
  struct EventInfo {
    Cycles deadline;
    u64 seq;
  };
  std::optional<EventInfo> info(EventId id) const;

  /// Re-arms a restored event at its original deadline *and* original
  /// sequence number, so events restored in any order keep their original
  /// same-deadline firing order. Returns a fresh id (ids are not preserved
  /// across restore). Internal counters are advanced past `seq` so future
  /// schedule_at() calls cannot collide with restored events.
  EventId schedule_restored(Cycles deadline, u64 seq, Callback cb,
                            std::string_view name = {});

  /// Sequence-counter snapshot support. The counter must be restored along
  /// with the devices' events: a replay that only advanced it past the live
  /// events (schedule_restored) would hand *future* events different
  /// sequence numbers than the original timeline — diverging the serialized
  /// state, and the same-deadline firing order with it.
  u64 next_seq() const { return next_seq_; }
  void set_next_seq(u64 seq) { next_seq_ = seq; }

  /// Deadline of the earliest pending event, if any.
  std::optional<Cycles> next_deadline() const;

  /// Fires every event with deadline <= now, in deadline order. Callbacks may
  /// schedule further events (including ones due within the same call).
  /// Returns the number of events fired.
  int run_until(Cycles now);

  bool empty() const { return live_count_ == 0; }
  std::size_t pending() const { return live_count_; }

 private:
  struct Entry {
    Cycles deadline;
    u64 seq;
    EventId id;
    Callback cb;
    std::string name;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  DeadlineObserver deadline_observer_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<EventId> cancelled_;
  std::size_t live_count_ = 0;
  u64 next_seq_ = 0;
  EventId next_id_ = 1;
  bool name_tracing_ = false;
};

}  // namespace vdbg
