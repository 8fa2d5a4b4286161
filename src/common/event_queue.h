// Discrete-event timeline driving all simulated-device timing.
//
// The CPU interpreter owns the cycle counter; devices schedule callbacks at
// absolute cycle deadlines (disk completion, NIC transmit done, PIT tick,
// UART byte arrival). The machine loop fires due events between instructions
// and fast-forwards the clock across HLT.
//
// Storage: a slot table owns each pending event's callback (and, under name
// tracing, its label), and a binary heap orders small (deadline, seq, slot)
// entries. Each slot records where its entry sits in the heap, so cancel()
// takes the entry out of the heap at once and info() reads it in place;
// firing moves only the callback out of its slot. An EventId names a slot
// and the slot's generation, which moves on each time the slot is freed, so
// an id whose event fired or was cancelled never matches again.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace vdbg {

/// Handle for cancelling a scheduled event. Opaque and never zero; ids are
/// host-side handles, not part of any snapshot.
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
  EventId schedule_at(Cycles deadline, Callback cb,
                      std::string_view name = {}) {
    return push(deadline, next_seq_++, std::move(cb), name);
  }

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

  /// Cancels a pending event and destroys its callback. Returns false if it
  /// already fired or was already cancelled.
  bool cancel(EventId id);

  /// Deadline and sequence number of a live pending event. Devices use this
  /// when serializing an in-flight operation so it can be re-armed at the
  /// same point in the timeline on restore. Empty for fired/cancelled ids.
  struct EventInfo {
    Cycles deadline;
    u64 seq;
  };
  std::optional<EventInfo> info(EventId id) const {
    const u32 slot = find(id);
    if (slot == kNone) return std::nullopt;
    const Entry& e = heap_[slots_[slot].pos];
    return EventInfo{e.deadline, e.seq};
  }

  /// Re-arms a restored event at its original deadline *and* original
  /// sequence number, so events restored in any order keep their original
  /// same-deadline firing order. Returns a fresh id (ids are not preserved
  /// across restore). Internal counters are advanced past `seq` so future
  /// schedule_at() calls cannot collide with restored events.
  EventId schedule_restored(Cycles deadline, u64 seq, Callback cb,
                            std::string_view name = {}) {
    if (next_seq_ <= seq) next_seq_ = seq + 1;
    return push(deadline, seq, std::move(cb), name);
  }

  /// Sequence-counter snapshot support. The counter must be restored along
  /// with the devices' events: a replay that only advanced it past the live
  /// events (schedule_restored) would hand *future* events different
  /// sequence numbers than the original timeline — diverging the serialized
  /// state, and the same-deadline firing order with it.
  u64 next_seq() const { return next_seq_; }
  void set_next_seq(u64 seq) { next_seq_ = seq; }

  /// Deadline of the earliest pending event, if any.
  std::optional<Cycles> next_deadline() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().deadline;
  }

  /// Fires every event with deadline <= now, in deadline order. Callbacks may
  /// schedule further events (including ones due within the same call).
  /// Returns the number of events fired.
  int run_until(Cycles now);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

 private:
  static constexpr u32 kNone = ~u32{0};  // no slot, or no heap position

  /// Heap entry: the firing order key and the slot that owns the event.
  struct Entry {
    Cycles deadline;
    u64 seq;
    u32 slot;
  };
  /// One pending event's callback and label. `gen` moves on each time the
  /// slot is freed; `pos` is the entry's heap index, kNone when free.
  struct Slot {
    Callback cb;
    std::string name;
    u32 gen = 1;
    u32 pos = kNone;
  };
  static bool before(const Entry& a, const Entry& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.seq < b.seq;
  }

  EventId push(Cycles deadline, u64 seq, Callback cb, std::string_view name);
  /// Slot of the live event `id`, or kNone.
  u32 find(EventId id) const {
    const u32 slot = static_cast<u32>(id);
    if (slot >= slots_.size()) return kNone;
    const Slot& s = slots_[slot];
    return s.gen == (id >> 32) && s.pos != kNone ? slot : kNone;
  }
  /// Takes the entry at heap index `pos` out of the heap, frees its slot
  /// and hands back its callback.
  Callback take(u32 pos);
  void sift_up(u32 pos, const Entry& e);
  void sift_down(u32 pos, const Entry& e);
  void place(u32 pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].pos = pos;
  }

  DeadlineObserver deadline_observer_;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<u32> free_slots_;
  u64 next_seq_ = 0;
  bool name_tracing_ = false;
};

}  // namespace vdbg
