#include "common/metrics.h"

#include <cmath>
#include <cstdio>

namespace vdbg {

bool valid_metric_name(std::string_view name) {
  int segments = 0;
  std::size_t seg_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;  // empty name or trailing dot
  return segments + 1 >= 3;
}

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
bool MetricsRegistry::add_entry(Entry e) {
  if (!valid_metric_name(e.name)) return false;
  for (const Entry& existing : metrics_) {
    if (existing.name == e.name) return false;
  }
  metrics_.push_back(std::move(e));
  return true;
}

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
bool MetricsRegistry::add_counter(std::string name, const u64* slot,
                                  bool replay_exact) {
  if (slot == nullptr) return false;
  Entry e;
  e.name = std::move(name);
  e.kind = MetricKind::kCounter;
  e.replay_exact = replay_exact;
  e.slot = slot;
  return add_entry(std::move(e));
}

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
bool MetricsRegistry::add_gauge(std::string name, GaugeFn fn,
                                bool replay_exact) {
  if (!fn) return false;
  Entry e;
  e.name = std::move(name);
  e.kind = MetricKind::kGauge;
  e.replay_exact = replay_exact;
  e.fn = std::move(fn);
  return add_entry(std::move(e));
}

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
bool MetricsRegistry::add_histogram(std::string name, const u32* buckets,
                                    std::size_t n, bool replay_exact) {
  if (buckets == nullptr || n == 0) return false;
  Entry e;
  e.name = std::move(name);
  e.kind = MetricKind::kHistogram;
  e.replay_exact = replay_exact;
  e.buckets = buckets;
  e.n_buckets = n;
  return add_entry(std::move(e));
}

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot(
    bool replay_exact_only, std::string_view prefix) const {
  ++reads_;
  std::vector<Sample> out;
  if (!enabled_) return out;
  if (prefix.empty()) out.reserve(metrics_.size());
  for (const Entry& e : metrics_) {
    if (replay_exact_only && !e.replay_exact) continue;
    if (!e.name.starts_with(prefix)) continue;
    Sample s;
    s.name = e.name;
    s.kind = e.kind;
    s.replay_exact = e.replay_exact;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = *e.slot;
        break;
      case MetricKind::kGauge:
        s.number = e.fn();
        break;
      case MetricKind::kHistogram:
        s.buckets.assign(e.buckets, e.buckets + e.n_buckets);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
std::optional<double> MetricsRegistry::value(std::string_view name) const {
  ++reads_;
  if (!enabled_) return std::nullopt;
  for (const Entry& e : metrics_) {
    if (e.name != name) continue;
    if (e.kind == MetricKind::kCounter) return double(*e.slot);
    if (e.kind == MetricKind::kGauge) return e.fn();
    return std::nullopt;  // histograms have no scalar value
  }
  return std::nullopt;
}

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

// thread:any(externally synchronized - each registry is owned by one machine and only touched by the thread driving it)
std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + s.name + "\":";
    switch (s.kind) {
      case MetricKind::kCounter:
        out += std::to_string(s.value);
        break;
      case MetricKind::kGauge:
        append_double(out, s.number);
        break;
      case MetricKind::kHistogram: {
        out += "[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i) out += ",";
          out += std::to_string(s.buckets[i]);
        }
        out += "]";
        break;
      }
    }
  }
  out += "}";
  return out;
}

}  // namespace vdbg
