// Unified metrics registry: a directory of named counters, gauges and
// fixed-bucket histograms that components register once at wiring time.
//
// Design constraints (see DESIGN.md §9):
//  - Zero hot-path cost. Components keep counting into their own plain
//    u64 struct members exactly as before; the registry only stores
//    *pointers* to those slots plus the metadata (name, kind). No string
//    is ever touched while the simulation runs, and a build that never
//    attaches a registry pays nothing at all.
//  - Replay exactness. Counter slots live inside component state that is
//    already snapshot-save/restored, so a time-travel replay reproduces
//    them bit-identically. Slots that are *host-side* (e.g. superblock
//    cache hit counts, which are derived state dropped on restore) register
//    with replay_exact=false so comparisons can filter them out.
//  - Deterministic export. snapshot() and to_json() emit metrics in
//    registration order, which is itself deterministic wiring order.
//
// Names follow the `layer.component.metric` convention — at least three
// dot-separated [a-z0-9_]+ segments — enforced here at registration time
// and statically by vdbg_lint's metric-name checker.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace vdbg {

enum class MetricKind : u8 { kCounter, kGauge, kHistogram };

/// True when `name` matches layer.component.metric: >= 3 dot-separated
/// segments, each one or more of [a-z0-9_], no leading/trailing/empty
/// segment.
bool valid_metric_name(std::string_view name);

class MetricsRegistry {
 public:
  /// Gauges are computed on demand (ratios, queue depths); the callable
  /// must be a pure function of registered simulation state so exports
  /// stay deterministic.
  using GaugeFn = std::function<double()>;

  /// One exported metric value, captured by snapshot(). Comparable with
  /// == so tests can assert replay exactness directly.
  struct Sample {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    bool replay_exact = true;
    u64 value = 0;             // kCounter
    double number = 0.0;       // kGauge
    std::vector<u32> buckets;  // kHistogram

    bool operator==(const Sample&) const = default;
  };

  /// Registration. The pointed-to slot must outlive the registry (it is
  /// a member of a component the owner also keeps alive). Returns false
  /// and registers nothing when the name is invalid or already taken.
  bool add_counter(std::string name, const u64* slot, bool replay_exact = true);
  bool add_gauge(std::string name, GaugeFn fn, bool replay_exact = true);
  bool add_histogram(std::string name, const u32* buckets, std::size_t n,
                     bool replay_exact = true);

  /// Disabled registries export nothing (snapshot/to_json/value return
  /// empty); registration still works so wiring order is independent of
  /// the switch. The simulation hot path never consults this flag — the
  /// cost of a disabled registry is exactly zero.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::size_t size() const { return metrics_.size(); }

  /// Current value of every metric, in registration order. When
  /// `replay_exact_only` is set, host-side metrics are filtered out so
  /// the result is comparable across an original run and its replay.
  std::vector<Sample> snapshot(bool replay_exact_only = false) const;

  /// Current value of one counter or gauge by exact name (counters are
  /// widened to double). nullopt when unknown, disabled, or a histogram.
  std::optional<double> value(std::string_view name) const;

  /// Flat JSON object keyed by dotted metric name: counters as integers,
  /// gauges as doubles, histograms as bucket arrays.
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    bool replay_exact;
    const u64* slot = nullptr;       // kCounter
    GaugeFn fn;                      // kGauge
    const u32* buckets = nullptr;    // kHistogram
    std::size_t n_buckets = 0;
  };

  bool add_entry(Entry e);

  std::vector<Entry> metrics_;
  bool enabled_ = true;
};

}  // namespace vdbg
