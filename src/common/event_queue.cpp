#include "common/event_queue.h"

#include <algorithm>
#include <utility>

namespace vdbg {

EventId EventQueue::push(Cycles deadline, u64 seq, Callback cb,
                         std::string_view name) {
  u32 slot;
  if (free_slots_.empty()) {
    slot = static_cast<u32>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  // The name is only materialised under tracing; a freed slot's name is
  // empty, so the common path stores nothing.
  if (name_tracing_) s.name.assign(name);
  const EventId id = (EventId{s.gen} << 32) | slot;
  heap_.emplace_back();
  sift_up(static_cast<u32>(heap_.size() - 1), Entry{deadline, seq, slot});
  if (deadline_observer_) deadline_observer_(deadline);
  return id;
}

std::vector<std::string> EventQueue::pending_names() const {
  std::vector<Entry> order(heap_);
  std::sort(order.begin(), order.end(), before);
  std::vector<std::string> out;
  out.reserve(order.size());
  for (const Entry& e : order) {
    const std::string& name = slots_[e.slot].name;
    out.push_back(name.empty() ? "?" : name);
  }
  return out;
}

bool EventQueue::cancel(EventId id) {
  const u32 slot = find(id);
  if (slot == kNone) return false;
  // The callback dies on return, after the queue is consistent again.
  const Callback dead = take(slots_[slot].pos);
  return true;
}

EventQueue::Callback EventQueue::take(u32 pos) {
  Slot& s = slots_[heap_[pos].slot];
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  s.name.clear();
  s.pos = kNone;
  if (++s.gen == 0) s.gen = 1;  // ids are never zero
  free_slots_.push_back(heap_[pos].slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The last entry fills the hole and moves whichever way it is out of
    // order.
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  return cb;
}

void EventQueue::sift_up(u32 pos, const Entry& e) {
  while (pos > 0) {
    const u32 parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventQueue::sift_down(u32 pos, const Entry& e) {
  const u32 n = static_cast<u32>(heap_.size());
  for (u32 child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

int EventQueue::run_until(Cycles now) {
  int fired = 0;
  while (!heap_.empty() && heap_.front().deadline <= now) {
    const Cycles deadline = heap_.front().deadline;
    // The callback leaves its slot before it runs: it may schedule events
    // (growing the slot table) or cancel others.
    const Callback cb = take(0);
    ++fired;
    cb(deadline);
  }
  return fired;
}

}  // namespace vdbg
