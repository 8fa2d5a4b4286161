// Unit tests for the common substrate: event queue, statistics, Internet
// checksum, hex utilities, RNG determinism and unit conversions.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/checksum.h"
#include "common/event_queue.h"
#include "common/hexdump.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace vdbg::test {
namespace {

// ---------------------------------------------------------------- events --
TEST(EventQueue, FiresInDeadlineOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(30, [&](Cycles) { fired.push_back(3); });
  q.schedule_at(10, [&](Cycles) { fired.push_back(1); });
  q.schedule_at(20, [&](Cycles) { fired.push_back(2); });
  EXPECT_EQ(q.run_until(25), 2);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.run_until(30), 1);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameDeadlineFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(10, [&, i](Cycles) { fired.push_back(i); });
  }
  q.run_until(10);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(10, [&](Cycles) { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel
  EXPECT_EQ(q.run_until(100), 0);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NamesStoredOnlyUnderTracing) {
  EventQueue q;
  // Tracing off (default): names are dropped at the scheduling boundary.
  q.schedule_at(10, [](Cycles) {}, "dropped-label");
  auto names = q.pending_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "?");

  q.set_name_tracing(true);
  q.schedule_at(5, [](Cycles) {}, "uart-rx");
  const EventId cancelled = q.schedule_at(7, [](Cycles) {}, "gone");
  q.cancel(cancelled);
  names = q.pending_names();
  ASSERT_EQ(names.size(), 2u);  // cancelled entry excluded
  EXPECT_EQ(names[0], "uart-rx");
  EXPECT_EQ(names[1], "?");  // the pre-tracing entry stays unnamed

  q.run_until(100);
  EXPECT_TRUE(q.pending_names().empty());
}

TEST(EventQueue, NextDeadlineSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule_at(5, [](Cycles) {});
  q.schedule_at(9, [](Cycles) {});
  EXPECT_EQ(q.next_deadline().value(), 5u);
  q.cancel(a);
  EXPECT_EQ(q.next_deadline().value(), 9u);
}

TEST(EventQueue, CallbackMayRescheduleItself) {
  EventQueue q;
  int count = 0;
  std::function<void(Cycles)> tick = [&](Cycles now) {
    if (++count < 5) q.schedule_at(now + 10, tick);
  };
  q.schedule_at(10, tick);
  q.run_until(100);
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, CallbackSchedulingWithinWindowFiresSamePass) {
  EventQueue q;
  bool inner = false;
  q.schedule_at(10, [&](Cycles now) {
    q.schedule_at(now + 1, [&](Cycles) { inner = true; });
  });
  q.run_until(20);
  EXPECT_TRUE(inner);
}

TEST(EventQueue, CancelledCallbackDestroyed) {
  EventQueue q;
  auto shared = std::make_shared<int>(42);
  std::weak_ptr<int> weak = shared;
  const EventId id = q.schedule_at(10, [keep = shared](Cycles) {});
  shared.reset();
  EXPECT_FALSE(weak.expired());  // held by the queue
  q.cancel(id);
  q.run_until(100);  // tombstone processed here
  EXPECT_TRUE(weak.expired());
}

TEST(EventQueue, DeadlineObserverSeesEverySchedule) {
  EventQueue q;
  std::vector<Cycles> seen;
  q.set_deadline_observer([&](Cycles d) { seen.push_back(d); });
  q.schedule_at(50, [](Cycles) {});
  q.schedule_at(10, [](Cycles) {});
  // Rescheduling from inside a callback is observed too.
  q.schedule_at(20, [&](Cycles now) {
    q.schedule_at(now + 5, [](Cycles) {});
  });
  q.run_until(30);
  EXPECT_EQ(seen, (std::vector<Cycles>{50, 10, 20, 25}));
}

TEST(EventQueue, CancelAfterFireIsANoOp) {
  EventQueue q;
  const EventId first = q.schedule_at(10, [](Cycles) {});
  q.schedule_at(20, [](Cycles) {});
  EXPECT_EQ(q.run_until(10), 1);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_deadline(), std::optional<Cycles>(20));
  EXPECT_FALSE(q.info(first).has_value());
  // An event scheduled after the first fired never answers to its id.
  const EventId third = q.schedule_at(30, [](Cycles) {});
  EXPECT_NE(third, first);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.run_until(30), 2);
  EXPECT_TRUE(q.empty());
}

// The queue against a plain vector of (deadline, seq, tag) kept sorted:
// random schedules (fresh, relative and restored with explicit seqs, many
// sharing a deadline), cancels of live, fired, cancelled and never-issued
// ids, and runs to random horizons whose callbacks cancel and schedule in
// turn. After every step the pending set, next deadline, per-id info and
// firing order must agree with the model.
TEST(EventQueue, RandomOpsMatchAReferenceModel) {
  struct Pending {
    Cycles deadline;
    u64 seq;
    int tag;
    EventId id;
  };
  // What an event's callback does when it fires: cancel one issued id,
  // then schedule one child `child_delay` later.
  struct Plan {
    std::optional<std::size_t> victim;  // index into `issued`
    std::optional<Cycles> child_delay;
    int child_tag = -1;
  };
  struct Fired {
    int tag;
    Cycles at;
    bool operator==(const Fired&) const = default;
  };

  Rng rng(28);
  EventQueue q;
  std::vector<Pending> model;  // sorted by (deadline, seq)
  u64 model_seq = 0;
  std::vector<EventId> issued;
  std::unordered_set<EventId> issued_set;
  std::vector<Plan> plans;
  std::vector<EventId> ids_by_tag;  // filled by whoever schedules the tag
  std::vector<Fired> fired;
  std::vector<bool> cancel_result;  // recorded by firing callbacks, by tag
  Cycles now = 0;
  // Coverage: callbacks that cancelled a live event, children that fired,
  // children due in the pass that scheduled them.
  int live_cancels_in_callbacks = 0, children_fired = 0, same_pass = 0;

  const auto model_insert = [&](Pending e) {
    auto it = std::upper_bound(
        model.begin(), model.end(), e, [](const Pending& a, const Pending& b) {
          return a.deadline != b.deadline ? a.deadline < b.deadline
                                          : a.seq < b.seq;
        });
    model.insert(it, e);
  };
  const auto model_cancel = [&](EventId id) {
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->id == id) {
        model.erase(it);
        return true;
      }
    }
    return false;
  };
  const auto note_issued = [&](int tag, EventId id) {
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(issued_set.insert(id).second) << "id reissued: " << id;
    issued.push_back(id);
    ids_by_tag[tag] = id;
  };
  const auto new_tag = [&](bool may_have_child) {
    const int tag = static_cast<int>(plans.size());
    Plan p;
    // Mostly recent ids, so that many victims are still pending.
    if (!issued.empty() && rng.chance(0.3)) {
      p.victim =
          issued.size() - 1 - rng.below(std::min<u64>(issued.size(), 16));
    }
    plans.push_back(p);
    ids_by_tag.push_back(0);
    cancel_result.push_back(false);
    if (may_have_child && rng.chance(0.3)) {
      plans[tag].child_delay = rng.below(4) == 0 ? 0 : rng.between(1, 40);
      plans[tag].child_tag = static_cast<int>(plans.size());
      plans.push_back(Plan{});
      ids_by_tag.push_back(0);
      cancel_result.push_back(false);
      if (rng.chance(0.3)) plans.back().victim = rng.below(issued.size() + 1);
    }
    return tag;
  };
  // The real callback; tags, plans and the victim list are fixed before
  // any callback runs, so the model can replay the same actions.
  std::function<EventQueue::Callback(int)> callback = [&](int tag) {
    return [&, tag](Cycles at) {
      fired.push_back({tag, at});
      const Plan p = plans[tag];
      if (p.victim) cancel_result[tag] = q.cancel(issued[*p.victim]);
      if (p.child_delay) {
        const EventId id =
            q.schedule_at(at + *p.child_delay, callback(p.child_tag));
        note_issued(p.child_tag, id);
      }
    };
  };
  // The model's run_until: the same firing order and the same actions.
  const auto model_run = [&](Cycles horizon) {
    std::vector<Fired> expected;
    while (!model.empty() && model.front().deadline <= horizon) {
      const Pending e = model.front();
      model.erase(model.begin());
      expected.push_back({e.tag, e.deadline});
      const Plan& p = plans[e.tag];
      if (p.victim) {
        const bool live = model_cancel(issued[*p.victim]);
        EXPECT_EQ(cancel_result[e.tag], live) << "tag " << e.tag;
        live_cancels_in_callbacks += live;
      }
      if (plans[e.tag].child_tag < 0 && e.tag > 0 &&
          plans[e.tag - 1].child_tag == e.tag) {
        ++children_fired;
      }
      if (p.child_delay) {
        same_pass += e.deadline + *p.child_delay <= horizon;
        model_insert({e.deadline + *p.child_delay, model_seq++, p.child_tag,
                      ids_by_tag[p.child_tag]});
      }
    }
    return expected;
  };
  const auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_EQ(q.pending(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
    ASSERT_EQ(q.next_seq(), model_seq);
    if (model.empty()) {
      ASSERT_FALSE(q.next_deadline().has_value());
    } else {
      ASSERT_EQ(q.next_deadline(),
                std::optional<Cycles>(model.front().deadline));
    }
    std::unordered_set<EventId> live;
    for (const Pending& e : model) {
      live.insert(e.id);
      const auto info = q.info(e.id);
      ASSERT_TRUE(info.has_value()) << "tag " << e.tag;
      ASSERT_EQ(info->deadline, e.deadline);
      ASSERT_EQ(info->seq, e.seq);
    }
    for (EventId id : issued) {
      if (!live.count(id)) {
        ASSERT_FALSE(q.info(id).has_value()) << id;
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const u64 op = rng.below(100);
    if (op < 45) {
      // A fresh event; deadlines cluster so many share one.
      const int tag = new_tag(/*may_have_child=*/true);
      const Cycles delay = rng.below(24);
      const EventId id = rng.chance(0.5)
                             ? q.schedule_at(now + delay, callback(tag))
                             : q.schedule_in(now, delay, callback(tag));
      model_insert({now + delay, model_seq++, tag, id});
      note_issued(tag, id);
    } else if (op < 55) {
      // A restored event at an explicit seq, below or past the counter,
      // never equal in (deadline, seq) to a pending one.
      const Cycles deadline = now + rng.below(24);
      u64 seq = rng.below(model_seq + 16);
      while (std::any_of(model.begin(), model.end(), [&](const Pending& e) {
        return e.deadline == deadline && e.seq == seq;
      })) {
        ++seq;
      }
      const int tag = new_tag(/*may_have_child=*/true);
      const EventId id = q.schedule_restored(deadline, seq, callback(tag));
      model_insert({deadline, seq, tag, id});
      if (model_seq <= seq) model_seq = seq + 1;
      note_issued(tag, id);
    } else if (op < 75) {
      // Cancel a live, dead (fired or cancelled) or never-issued id.
      EventId id = 0;
      const u64 kind = rng.below(3);
      if (kind == 0 && !model.empty()) {
        id = model[rng.below(model.size())].id;
      } else if (kind == 1 && !issued.empty()) {
        id = issued[rng.below(issued.size())];
      } else if (rng.chance(0.5)) {
        do {
          id = rng.next_u64();
        } while (issued_set.count(id));
      }
      EXPECT_EQ(q.cancel(id), model_cancel(id)) << "step " << step;
    } else {
      const Cycles horizon = now + rng.below(40);
      fired.clear();
      const int n = q.run_until(horizon);
      const std::vector<Fired> expected = model_run(horizon);
      ASSERT_EQ(fired, expected) << "step " << step;
      ASSERT_EQ(n, static_cast<int>(expected.size()));
      now = horizon;
    }
    check(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(issued.size(), 1000u);
  EXPECT_GT(live_cancels_in_callbacks, 10);
  EXPECT_GT(children_fired, 50);
  EXPECT_GT(same_pass, 20);
}

// ----------------------------------------------------------------- stats --
TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Histogram, PercentilesInterpolate) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(double(i));
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
  // Adding after a query re-sorts.
  h.add(1000.0);
  EXPECT_NEAR(h.percentile(100), 1000.0, 1e-9);
}

TEST(Histogram, ReservoirBoundsStorage) {
  Histogram h(64);
  for (int i = 0; i < 100'000; ++i) h.add(double(i % 1000));
  EXPECT_EQ(h.count(), 100'000u);   // every add is counted...
  EXPECT_EQ(h.stored(), 64u);       // ...but storage stays bounded
  // The reservoir is a uniform sample of a uniform stream: extreme
  // percentiles stay within the stream's range and the median lands in
  // a generous middle band.
  EXPECT_GE(h.percentile(0), 0.0);
  EXPECT_LE(h.percentile(100), 999.0);
  EXPECT_GT(h.percentile(50), 200.0);
  EXPECT_LT(h.percentile(50), 800.0);
}

TEST(Histogram, ReservoirIsDeterministic) {
  // Same stream -> same reservoir (the RNG is seeded, not ambient), so
  // replayed runs reproduce percentile summaries bit for bit.
  Histogram a(32), b(32);
  for (int i = 0; i < 10'000; ++i) {
    a.add(double(i * 7 % 977));
    b.add(double(i * 7 % 977));
  }
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
  }
}

TEST(Histogram, BelowCapacityKeepsEverySample) {
  Histogram h(1000);
  for (int i = 1; i <= 100; ++i) h.add(double(i));
  EXPECT_EQ(h.stored(), 100u);
  // With no eviction the percentiles are exact, as before the reservoir.
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
}

// -------------------------------------------------------------- checksum --
TEST(Checksum, Rfc1071KnownVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const u8 data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, VerifiesToZeroWithChecksumIncluded) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u8> data(2 * rng.between(4, 64));
    for (auto& b : data) b = static_cast<u8>(rng.next_u32());
    const u16 c = internet_checksum(data);
    // Append the checksum and verify the ones'-complement property.
    data.push_back(static_cast<u8>(c >> 8));
    data.push_back(static_cast<u8>(c));
    EXPECT_EQ(internet_checksum(data), 0u) << "trial " << trial;
  }
}

TEST(Checksum, OddLengthPadsWithZero) {
  const u8 odd[] = {0xab};
  const u8 even[] = {0xab, 0x00};
  EXPECT_EQ(internet_checksum(odd), internet_checksum(even));
}

TEST(Checksum, IncrementalMatchesOneShot) {
  Rng rng(9);
  std::vector<u8> data(128);
  for (auto& b : data) b = static_cast<u8>(rng.next_u32());
  InternetChecksum inc;
  inc.add(std::span<const u8>(data).subspan(0, 50));
  inc.add(std::span<const u8>(data).subspan(50));
  EXPECT_EQ(inc.fold(), internet_checksum(data));
}

TEST(Checksum, AnySplitMatchesOneShot) {
  Rng rng(21);
  std::vector<u8> frame(1036);  // a paper-stream frame's UDP length
  for (auto& b : frame) b = static_cast<u8>(rng.next_u32());
  const std::span<const u8> all(frame);
  const u16 want = internet_checksum(all);
  for (std::size_t i = 0; i <= all.size(); ++i) {
    InternetChecksum two;
    two.add(all.first(i));
    two.add(all.subspan(i));
    ASSERT_EQ(two.fold(), want) << "split at " << i;
    for (std::size_t j : {i, i + 1, i + 2, i + 3, i + 511, i + 512,
                          (i + all.size()) / 2}) {
      if (j > all.size()) continue;
      InternetChecksum three;
      three.add(all.first(i));
      three.add(all.subspan(i, j - i));
      three.add(all.subspan(j));
      ASSERT_EQ(three.fold(), want) << "splits at " << i << ", " << j;
    }
  }
}

TEST(Checksum, KeepsEveryCarryPastTheU32Range) {
  // 131072 words of 0xffff sum to a nonzero multiple of 0xffff, which RFC
  // 1071 folds to 0xffff (negative zero) and complements to 0.
  const std::vector<u8> ones(256 * 1024, 0xff);
  EXPECT_EQ(internet_checksum(ones), 0x0000);
  InternetChecksum halves;
  halves.add(std::span<const u8>(ones).first(128 * 1024 + 1));
  halves.add(std::span<const u8>(ones).subspan(128 * 1024 + 1));
  EXPECT_EQ(halves.fold(), 0x0000);
}

// ------------------------------------------------------------------- hex --
TEST(Hex, RoundTripRandom) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<u8> data(rng.between(0, 64));
    for (auto& b : data) b = static_cast<u8>(rng.next_u32());
    const auto s = to_hex(data);
    const auto back = from_hex(s);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
  }
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
  EXPECT_TRUE(from_hex("").has_value());       // empty ok
}

TEST(Hex, DumpFormatsOffsetsAndAscii) {
  std::vector<u8> data;
  for (int i = 0; i < 20; ++i) data.push_back(static_cast<u8>('A' + i));
  const std::string dump = hexdump(data, 0x1000);
  EXPECT_NE(dump.find("00001000"), std::string::npos);
  EXPECT_NE(dump.find("ABCDEFGH"), std::string::npos);
  EXPECT_NE(dump.find("00001010"), std::string::npos);  // second line
}

// ------------------------------------------------------------------- rng --
TEST(Rng, DeterministicPerSeed) {
  Rng a(1234), b(1234), c(999);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const u64 va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundsRespected) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const u64 v = r.between(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ----------------------------------------------------------------- units --
TEST(Units, CycleTimeRoundTrip) {
  EXPECT_EQ(seconds_to_cycles(1.0), Cycles{1260000000});
  EXPECT_DOUBLE_EQ(cycles_to_seconds(1260000000), 1.0);
  // 1 Gbps for 1 second = 125 MB moved.
  EXPECT_NEAR(bytes_per_cycles_to_mbps(125'000'000, seconds_to_cycles(1.0)),
              1000.0, 1e-6);
  EXPECT_EQ(transfer_cycles(126, 126e6), Cycles{1260});
}

}  // namespace
}  // namespace vdbg::test
