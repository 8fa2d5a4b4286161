// Host-time benchmark driver for the vdbg simulator.
//
// Runs one workload for a fixed host-time window, checks the simulated
// outputs, prints every metric by name and unit, and ends with one JSON
// result line. perfbench/README.md describes the workloads and metrics.
//
//   perfbench_driver --workload paper-saturate|fleet-paced|debug-session
//                    --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every layer is measured from outside: the driver times its own calls into
// each layer's public functions, wraps the monitor's TrapHook to time VM
// exits, and reads counters through MetricsRegistry. With --trace 1 every
// other round runs traced (spans + exit timing) and the rest untraced, so
// the tracing overhead is measured in the same process; the spans and a
// per-layer summary are written to DIR at exit.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "fleet/fleet.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/platform.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"

using namespace vdbg;

namespace {

// ------------------------------------------------------------ workloads --

// paper-saturate: the headline table's three saturation points.
constexpr double kPaperOfferedMbps = 2000.0;
constexpr double kPaperWarmupS = 0.15;   // harness::SweepOptions default
constexpr double kPaperMeasureS = 0.08;  // table_headline_ratios
// The window is timed as 10 ms run_for slices. Per platform these cluster
// tightly, and the three platforms' clusters do not overlap, so the pooled
// median lands inside the LVMM cluster. 1 ms slices spread bimodally and
// let the median flip between modes.
constexpr double kPaperSliceS = 0.010;

// fleet-paced: paced LVMM machines with the flight loop armed.
constexpr unsigned kFleetMachines = 8;
constexpr unsigned kFleetThreads = 2;
constexpr double kFleetBudgetS = 0.25;  // 2 machine-seconds per fleet run
constexpr double kFleetMinMbps = 20.0;
constexpr double kFleetMaxMbps = 80.0;

// debug-session: scripted RSP rounds against a 60 Mbps stream.
constexpr double kDebugRateMbps = 60.0;
constexpr double kDebugWarmupS = 0.03;
constexpr unsigned kDebugBlock = 16;  // rounds per fixed target/gap mix
constexpr unsigned kDebugRoundsPerSession = 4 * kDebugBlock;
constexpr double kDebugMinGapS = 0.001;
constexpr double kDebugMaxGapS = 0.010;
constexpr u64 kDebugCheckpointInterval = 20'000;  // instructions
constexpr std::size_t kDebugCheckpointRing = 16;
constexpr double kDebugBpBudgetS = 2.0;      // continue-to-breakpoint limit
constexpr double kDebugResumeS = 0.001;      // 'c' left running, no stop
constexpr unsigned kDebugReverseSteps = 3;
constexpr unsigned kDebugForwardSteps = 5;

// Repetitions every run makes at least: an untimed warm-up, then enough
// that fingerprints can be compared and, traced, that both a traced and an
// untraced repetition exist.
constexpr unsigned kMinRounds = 3;

/// What one repetition of a workload is for. The warm-up lets lazy
/// process-level setup (allocator arenas, first page touches, clock ramp)
/// finish; it is checked and fingerprinted like the rest but not timed.
enum class Rep { kWarmup, kTimed, kTraced };

// --------------------------------------------------------------- inputs --

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Stratified draw: one value from each of n equal slices of [lo, hi), in
/// seeded order. Seeds change which input gets which value, and the jitter
/// inside each slice, but never the overall mix, so a run's medians do not
/// depend on the luck of the draw.
std::vector<double> stratified(Rng& rng, unsigned n, double lo, double hi) {
  std::vector<double> v(n);
  for (unsigned i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * (double(i) + rng.next_double()) / double(n);
  }
  shuffle(v, rng);
  return v;
}

// ---------------------------------------------------------------- time --

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that still has at least ten samples beyond it
/// (value and percentile), or the maximum when there are too few samples.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail10(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * double(n - 10) / double(n);
  return t;
}

// --------------------------------------------------------------- spans --

/// In-memory span log, written out at exit. Spans nest by call order on
/// the driver thread; fleet worker slices are added after the run joins.
class Tracer {
 public:
  struct Span {
    std::string name;
    u64 start_ns = 0;
    u64 end_ns = 0;
    u32 id = 0;
    u32 parent = 0;
    u32 tid = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<u32>(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.start_ns = now_ns();
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
  }
  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }
  /// Adds a finished span under the innermost open one.
  void add(std::string name, u64 start_ns, u64 end_ns, u32 tid) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<u32>(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.tid = tid;
    spans_.push_back(std::move(s));
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

Tracer g_tracer;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : on_(g_tracer.enabled()) {
    if (on_) g_tracer.begin(name);
  }
  ~SpanScope() {
    if (on_) g_tracer.end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool on_;
};

// ------------------------------------------------------ exit timing hook --

enum ExitClass : unsigned { kGp, kPf, kSoftInt, kIrq, kDebug, kOther, kNumExit };
constexpr const char* kExitName[kNumExit] = {"gp",  "pf",    "softint",
                                             "irq", "debug", "other"};

struct ExitTimes {
  std::array<u64, kNumExit> count{};
  std::array<u64, kNumExit> ns{};

  u64 total_ns() const {
    u64 t = 0;
    for (u64 v : ns) t += v;
    return t;
  }
  double ns_per_exit(unsigned k) const {
    return count[k] ? double(ns[k]) / double(count[k]) : 0.0;
  }
  ExitTimes operator-(const ExitTimes& o) const {
    ExitTimes d;
    for (unsigned k = 0; k < kNumExit; ++k) {
      d.count[k] = count[k] - o.count[k];
      d.ns[k] = ns[k] - o.ns[k];
    }
    return d;
  }
  ExitTimes& operator+=(const ExitTimes& o) {
    for (unsigned k = 0; k < kNumExit; ++k) {
      count[k] += o.count[k];
      ns[k] += o.ns[k];
    }
    return *this;
  }
};

/// Wraps the monitor's trap hook and times every VM exit by kind. Installs
/// itself on construction and puts the monitor back on destruction.
class TimedHook final : public cpu::TrapHook {
 public:
  explicit TimedHook(cpu::Cpu& cpu) : cpu_(cpu), inner_(cpu.trap_hook()) {
    if (inner_ == nullptr) throw std::logic_error("no monitor to wrap");
    cpu_.set_trap_hook(this);
  }
  ~TimedHook() override {
    if (cpu_.trap_hook() == this) cpu_.set_trap_hook(inner_);
  }
  TimedHook(const TimedHook&) = delete;
  TimedHook& operator=(const TimedHook&) = delete;

  void on_event(cpu::Cpu& cpu, const cpu::Fault& f) override {
    timed(classify(f), [&] { inner_->on_event(cpu, f); });
  }
  void on_external_interrupt(cpu::Cpu& cpu, u8 vector) override {
    timed(kIrq, [&] { inner_->on_external_interrupt(cpu, vector); });
  }

  const ExitTimes& times() const { return times_; }

 private:
  static ExitClass classify(const cpu::Fault& f) {
    if (f.kind == cpu::EventKind::kSoftInt) return kSoftInt;
    if (f.kind == cpu::EventKind::kExternal) return kIrq;
    switch (f.vector) {
      case cpu::kVecGp: return kGp;
      case cpu::kVecPf: return kPf;
      case cpu::kVecDebug:
      case cpu::kVecBreakpoint: return kDebug;
      default: return kOther;
    }
  }
  template <class F>
  void timed(ExitClass k, F&& call) {
    if (depth_ > 0) {  // a nested exit is part of the outer one's time
      call();
      return;
    }
    ++depth_;
    const u64 t0 = now_ns();
    call();
    times_.ns[k] += now_ns() - t0;
    ++times_.count[k];
    --depth_;
  }

  cpu::Cpu& cpu_;
  cpu::TrapHook* inner_;
  ExitTimes times_;
  int depth_ = 0;
};

// ------------------------------------------------------ registry counters --

enum Ctr : unsigned {
  kInstr,
  kBlockHits,
  kBlockBuilds,
  kBlockInval,
  kSbcTranslations,
  kSbcHits,
  kSbcInval,
  kTlbHits,
  kTlbMisses,
  kVtlbLookups,
  kVtlbHits,
  kCowFaults,
  kNicFrames,
  kEvents,  // EventQueue::next_seq
  kCycles,  // Machine::now
  kIdle,    // Machine::idle_cycles
  kNumCtr
};
constexpr unsigned kNumRegistryCtr = kEvents;
constexpr const char* kCtrMetric[kNumRegistryCtr] = {
    "cpu.core.instructions", "cpu.block.hits",       "cpu.block.builds",
    "cpu.block.invalidations", "cpu.sbc.translations", "cpu.sbc.hits",
    "cpu.sbc.invalidations", "cpu.tlb.hits",         "cpu.tlb.misses",
    "vmm.vtlb.lookups",      "vmm.vtlb.hits",        "mem.cow.faults",
    "hw.nic.frames_sent"};

using Counters = std::array<u64, kNumCtr>;

Counters read_counters(const MetricsRegistry& reg, hw::Machine& m) {
  Counters c{};
  for (unsigned i = 0; i < kNumRegistryCtr; ++i) {
    c[i] = static_cast<u64>(reg.value(kCtrMetric[i]).value_or(0.0));
  }
  c[kEvents] = m.events().next_seq();
  c[kCycles] = m.now();
  c[kIdle] = m.idle_cycles();
  return c;
}

void add_delta(Counters& acc, const Counters& after, const Counters& before) {
  for (unsigned i = 0; i < kNumCtr; ++i) acc[i] += after[i] - before[i];
}

/// The monitor's own per-kind exit counts (replay-exact, so part of the
/// simulated fingerprint).
std::array<u64, vmm::kNumExitKinds> monitor_exits(const MetricsRegistry& reg) {
  std::array<u64, vmm::kNumExitKinds> out{};
  for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
    const std::string name =
        "vmm.exit_" +
        std::string(vmm::exit_kind_name(static_cast<vmm::ExitKind>(k))) +
        ".count";
    out[k] = static_cast<u64>(reg.value(name).value_or(0.0));
  }
  return out;
}

// ------------------------------------------------------------ results --

class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 10) failures_.push_back(what);
  }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> failures_;
};

using Fingerprint = std::vector<std::pair<std::string, long long>>;

/// Per-layer totals over the traced rounds.
struct Layers {
  Counters ctr{};          // deltas over the forward simulation windows
  u64 sim_ns = 0;          // host time of those windows (run_for)
  ExitTimes sim_exits;     // exits inside those windows
  ExitTimes all_exits;     // every exit of the traced rounds
  u64 cow_faults = 0;
  u64 checkpoints = 0;
  u64 checkpoint_bytes = 0;
  u64 restores = 0;
  u64 replayed = 0;
  u64 packets = 0;
  u64 slices = 0;
  u64 verify_ns = 0;
  u64 verifies = 0;
  double busy_frac_sum = 0.0;
  double imbalance_sum = 0.0;
  std::map<std::string, std::vector<double>> op_us;      // debug op latency
  std::map<std::string, long long> op_sim_cycles;         // debug op sim time
  // paper-saturate: per-platform run_for / exit / residual ms, per pass.
  std::map<std::string, std::vector<double>> platform_ms;
  unsigned rounds = 0;
};

struct Result {
  // End to end, from the timed (untraced) repetitions.
  std::vector<double> round_ms;
  std::vector<double> setup_s;
  std::vector<double> op_us;
  std::vector<double> sim_rate;  // simulated s per host s, per round
  std::map<std::string, std::vector<double>> debug_op_us;  // per op kind
  // Workload-named metrics printed as text (samples, unit).
  std::map<std::string, std::pair<std::vector<double>, std::string>> named;
  // Setup split, every repetition but the warm-up.
  std::vector<double> guest_build_s;
  std::vector<double> prepare_s;
  // Traced rounds.
  std::vector<double> traced_round_ms;
  Layers layers;

  Checker check;
  std::optional<Fingerprint> fingerprint;

  void note(const std::string& name, const char* unit, double v) {
    auto& e = named[name];
    e.first.push_back(v);
    e.second = unit;
  }
  void compare_fingerprint(Fingerprint fp, const std::string& what) {
    if (!fingerprint) {
      fingerprint = std::move(fp);
      return;
    }
    check.expect(fp == *fingerprint,
                 what + ": simulated fingerprint differs from the first "
                        "repetition");
  }
};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench_out";
};

bool sink_clean(const net::PacketSink& s) {
  return s.frames() > 0 && s.parse_errors() == 0 &&
         s.checksum_errors() == 0 && s.sequence_gaps() == 0 &&
         s.content_errors() == 0;
}

std::string sink_text(const net::PacketSink& s) {
  return "frames=" + std::to_string(s.frames()) +
         " parse=" + std::to_string(s.parse_errors()) +
         " csum=" + std::to_string(s.checksum_errors()) +
         " gaps=" + std::to_string(s.sequence_gaps()) +
         " content=" + std::to_string(s.content_errors());
}

bool mailbox_healthy(const guest::MailboxStats& mb) {
  return mb.magic == guest::Mailbox::kMagicValue && mb.last_error == 0;
}

void add_exit_fingerprint(Fingerprint& fp, const std::string& prefix,
                          const std::array<u64, vmm::kNumExitKinds>& exits) {
  for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
    fp.emplace_back(
        prefix + "exits." +
            std::string(vmm::exit_kind_name(static_cast<vmm::ExitKind>(k))),
        static_cast<long long>(exits[k]));
  }
}

// ------------------------------------------------------- paper-saturate --

/// One headline-table pass: native, LVMM and hosted saturation points one
/// after another, each exactly as harness::run_point measures it, with the
/// measurement window driven as 10 ms run_for slices.
void paper_pass(Rep rep, Result& res) {
  const bool traced = rep == Rep::kTraced;
  const bool timed = rep == Rep::kTimed;
  SpanScope pass_span("headline_pass");
  const u64 t_pass = now_ns();
  double setup_ns = 0.0;
  double window_sim_s = 0.0;
  double window_host_s = 0.0;
  double build_ns = 0.0;
  double prepare_ns = 0.0;
  Fingerprint fp;
  std::array<double, 3> mbps{};
  const fleet::UnitKind kinds[3] = {fleet::UnitKind::kNative,
                                    fleet::UnitKind::kLvmm,
                                    fleet::UnitKind::kHosted};
  for (unsigned pi = 0; pi < 3; ++pi) {
    const fleet::UnitKind kind = kinds[pi];
    const std::string name(fleet::unit_kind_name(kind));
    const u64 t0 = now_ns();
    std::optional<harness::Platform> p;
    {
      SpanScope s("setup.guest_build");  // the constructor assembles the guest
      p.emplace(kind);
    }
    const u64 t1 = now_ns();
    guest::RunConfig rc;
    rc.rate_bytes_per_tick =
        static_cast<u32>(kPaperOfferedMbps * 1e6 / 8.0 / 1000.0);
    {
      SpanScope s("setup.prepare");
      p->prepare(rc);
    }
    const u64 t2 = now_ns();
    p->sink().set_payload_validator(guest::make_stream_validator(rc));
    hw::Machine& m = p->machine();
    std::optional<TimedHook> hook;
    if (traced && p->monitor() != nullptr) hook.emplace(m.cpu());
    {
      SpanScope s("setup.warmup");
      m.run_for(seconds_to_cycles(kPaperWarmupS));
    }
    const u64 t3 = now_ns();
    build_ns += double(t1 - t0);
    prepare_ns += double(t2 - t1);
    setup_ns += double(t3 - t0);

    const auto mb0 = p->mailbox();
    const Counters c0 = read_counters(p->metrics(), m);
    const ExitTimes e0 = hook ? hook->times() : ExitTimes{};
    const auto exits0 = monitor_exits(p->metrics());
    const Cycles start = m.now();
    p->sink().begin_window(start);
    const Cycles end = start + seconds_to_cycles(kPaperMeasureS);
    const Cycles slice = seconds_to_cycles(kPaperSliceS);
    u64 run_ns = 0;
    while (m.now() < end) {
      SpanScope s("run_for");
      const u64 a = now_ns();
      m.run_for(std::min<Cycles>(slice, end - m.now()));
      const u64 b = now_ns();
      run_ns += b - a;
      if (timed) res.op_us.push_back(double(b - a) / 1e3);
    }
    const Counters c1 = read_counters(p->metrics(), m);
    const auto mb = p->mailbox();
    mbps[pi] = p->sink().window_goodput_mbps(m.now());
    const double sim_s = cycles_to_seconds(m.now() - start);

    const bool crashed = p->monitor() && p->monitor()->vcpu().crashed;
    res.check.expect(mailbox_healthy(mb) && !crashed,
                     name + ": guest unhealthy (last_error=" +
                         std::to_string(mb.last_error) + ")");
    res.check.expect(sink_clean(p->sink()),
                     name + ": stream errors " + sink_text(p->sink()));

    const auto exits1 = monitor_exits(p->metrics());
    std::array<u64, vmm::kNumExitKinds> exits{};
    for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
      exits[k] = exits1[k] - exits0[k];
    }
    fp.emplace_back(name + ".mbps_milli", std::llround(mbps[pi] * 1000.0));
    fp.emplace_back(name + ".segments",
                    static_cast<long long>(mb.segments_sent -
                                           mb0.segments_sent));
    fp.emplace_back(name + ".icount",
                    static_cast<long long>(c1[kInstr] - c0[kInstr]));
    add_exit_fingerprint(fp, name + ".", exits);
    fp.emplace_back(name + ".block_builds",
                    static_cast<long long>(c1[kBlockBuilds] -
                                           c0[kBlockBuilds]));
    fp.emplace_back(name + ".sbc_translations",
                    static_cast<long long>(c1[kSbcTranslations] -
                                           c0[kSbcTranslations]));

    if (traced) {
      Layers& L = res.layers;
      add_delta(L.ctr, c1, c0);
      L.cow_faults += c1[kCowFaults] - c0[kCowFaults];
      L.sim_ns += run_ns;
      const ExitTimes e = hook ? hook->times() - e0 : ExitTimes{};
      L.sim_exits += e;
      L.all_exits += e;
      L.platform_ms[name + ".run_for_ms"].push_back(double(run_ns) / 1e6);
      L.platform_ms[name + ".exit_ms"].push_back(double(e.total_ns()) / 1e6);
      L.platform_ms[name + ".residual_ms"].push_back(
          double(run_ns - e.total_ns()) / 1e6);
    } else if (timed) {
      window_sim_s += sim_s;
      window_host_s += double(run_ns) / 1e9;
      res.note("sim_rate_" + name, "sim_s/s", sim_s / (double(run_ns) / 1e9));
    }
  }
  const double ratio_vs_hosted = mbps[1] / mbps[2];
  const double frac_of_native = mbps[1] / mbps[0];
  res.check.expect(ratio_vs_hosted > 4.0 && ratio_vs_hosted < 7.0,
                   "LVMM/hosted ratio outside the paper band (4-7x): " +
                       std::to_string(ratio_vs_hosted));
  res.check.expect(frac_of_native > 0.20 && frac_of_native < 0.33,
                   "LVMM/native fraction outside the paper band (20-33%): " +
                       std::to_string(frac_of_native));
  res.compare_fingerprint(std::move(fp), "headline pass");

  const double pass_ms = double(now_ns() - t_pass) / 1e6;
  if (rep == Rep::kWarmup) return;
  res.guest_build_s.push_back(build_ns / 1e9);
  res.prepare_s.push_back(prepare_ns / 1e9);
  if (traced) {
    res.traced_round_ms.push_back(pass_ms);
    ++res.layers.rounds;
  } else {
    res.round_ms.push_back(pass_ms);
    res.setup_s.push_back(setup_ns / 1e9);
    res.sim_rate.push_back(window_sim_s / window_host_s);
    res.note("headline_table_s", "s", pass_ms / 1e3);
    res.note("lvmm_over_hosted", "ratio", ratio_vs_hosted);
    res.note("lvmm_over_native", "ratio", frac_of_native);
  }
}

// --------------------------------------------------------- fleet-paced --

void fleet_round(Rep rep, const std::vector<double>& rates, Result& res) {
  const bool traced = rep == Rep::kTraced;
  const bool timed = rep == Rep::kTimed;
  SpanScope round_span("fleet_round");
  const u64 t0 = now_ns();
  guest::GuestImage image;
  {
    SpanScope s("setup.guest_build");
    image = guest::build_minitactix();
  }
  const u64 t1 = now_ns();

  // Declared before the hooks so the hooks go first: each one puts its
  // machine's monitor back on destruction.
  std::optional<fleet::Fleet> f;
  std::vector<std::unique_ptr<TimedHook>> hooks(kFleetMachines);
  fleet::FleetConfig fc;
  fc.machines = kFleetMachines;
  fc.threads = kFleetThreads;
  fc.kind = fleet::UnitKind::kLvmm;
  fc.run = guest::RunConfig::for_rate_mbps(rates[0]);
  fc.budget = seconds_to_cycles(kFleetBudgetS);
  fc.flight_loop = true;
  fc.health.enabled = false;
  fc.prebuilt_image = &image;
  fc.post_prepare = [&](fleet::MachineUnit& u, unsigned i) {
    // Per-machine offered rate: rewrite the run configuration before boot.
    const auto rc = guest::RunConfig::for_rate_mbps(rates[i]);
    guest::write_run_config(u.machine().mem(), rc);
    u.sink().set_payload_validator(guest::make_stream_validator(rc));
    if (traced) hooks[i] = std::make_unique<TimedHook>(u.machine().cpu());
  };
  {
    SpanScope s("setup.prepare");
    f.emplace(fc);
  }
  const u64 t2 = now_ns();
  std::vector<Counters> c0(kFleetMachines);
  for (unsigned i = 0; i < kFleetMachines; ++i) {
    c0[i] = read_counters(f->unit(i).metrics(), f->unit(i).machine());
  }

  std::vector<fleet::MachineStatus> statuses;
  {
    SpanScope s("fleet.run");
    statuses = f->run();
    // The fleet logs each worker's run_for slices in microseconds since
    // its run() started; anchor them at our own call time.
    const auto& ws = f->worker_slices();
    if (traced) {
      for (unsigned w = 0; w < ws.size(); ++w) {
        for (const auto& sl : ws[w]) {
          g_tracer.add("fleet.run_for", t2 + sl.start_us * 1000,
                       t2 + sl.end_us * 1000, w + 1);
        }
      }
    }
  }
  const u64 t3 = now_ns();

  // Per-machine busy time (sum of its run_for slices) and worker busy time.
  std::vector<double> machine_us(kFleetMachines, 0.0);
  std::vector<double> worker_us(f->worker_slices().size(), 0.0);
  u64 slices = 0;
  for (unsigned w = 0; w < f->worker_slices().size(); ++w) {
    for (const auto& sl : f->worker_slices()[w]) {
      const double us = double(sl.end_us - sl.start_us);
      machine_us[sl.machine] += us;
      worker_us[w] += us;
      ++slices;
    }
  }

  Fingerprint fp;
  Counters run_delta{};
  std::array<u64, vmm::kNumExitKinds> exits_total{};
  ExitTimes run_exits;
  u64 replayable = 0;
  u64 flight_checkpoints = 0;
  double sim_s = 0.0;
  for (unsigned i = 0; i < kFleetMachines; ++i) {
    fleet::MachineUnit& u = f->unit(i);
    const std::string tag = "m" + std::to_string(i);
    const auto& st = statuses[i];
    res.check.expect(st.done && !st.crashed &&
                         st.stop == hw::Machine::StopReason::kBudget,
                     tag + ": did not run to its budget");
    res.check.expect(mailbox_healthy(u.mailbox()),
                     tag + ": guest unhealthy (last_error=" +
                         std::to_string(u.mailbox().last_error) + ")");
    res.check.expect(sink_clean(u.sink()),
                     tag + ": stream errors " + sink_text(u.sink()));
    const Counters c1 = read_counters(u.metrics(), u.machine());
    add_delta(run_delta, c1, c0[i]);
    const auto ex = monitor_exits(u.metrics());
    for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) exits_total[k] += ex[k];
    fp.emplace_back(tag + ".icount", static_cast<long long>(st.icount));
    fp.emplace_back(tag + ".segments",
                    static_cast<long long>(u.mailbox().segments_sent));
    fp.emplace_back(tag + ".block_builds",
                    static_cast<long long>(c1[kBlockBuilds]));
    if (hooks[i]) run_exits += hooks[i]->times();
    vmm::FlightLoop* fl = u.flight_loop();
    flight_checkpoints += fl->stats().checkpoints;
    const auto w = fl->window();
    replayable += w.end_icount - w.begin_icount;
    sim_s += cycles_to_seconds(st.cycles);
  }
  add_exit_fingerprint(fp, "fleet.", exits_total);
  fp.emplace_back("fleet.flight_checkpoints",
                  static_cast<long long>(flight_checkpoints));
  fp.emplace_back("fleet.replayable_instructions",
                  static_cast<long long>(replayable));

  // Prove every machine's capture window once.
  u64 verify_ns = 0;
  u64 restores = 0;
  for (unsigned i = 0; i < kFleetMachines; ++i) {
    SpanScope s("verify_window");
    vmm::FlightLoop* fl = f->unit(i).flight_loop();
    std::string err;
    const u64 a = now_ns();
    const bool ok = fl->verify_window(&err);
    const u64 b = now_ns();
    verify_ns += b - a;
    if (timed) res.op_us.push_back(double(b - a) / 1e3);
    res.check.expect(ok, "m" + std::to_string(i) + ": verify_window: " + err);
    restores += fl->stats().replays;
  }
  const u64 t4 = now_ns();
  res.compare_fingerprint(std::move(fp), "fleet run");

  const double run_s = double(t3 - t2) / 1e9;
  const double round_ms = double(t4 - t2) / 1e6;
  if (rep == Rep::kWarmup) return;
  res.guest_build_s.push_back(double(t1 - t0) / 1e9);
  res.prepare_s.push_back(double(t2 - t1) / 1e9);
  if (traced) {
    Layers& L = res.layers;
    ++L.rounds;
    res.traced_round_ms.push_back(round_ms);
    add_delta(L.ctr, run_delta, Counters{});
    L.cow_faults += run_delta[kCowFaults];
    u64 busy_ns = 0;
    for (double us : worker_us) busy_ns += static_cast<u64>(us * 1000.0);
    L.sim_ns += busy_ns;
    L.sim_exits += run_exits;
    ExitTimes all;
    for (const auto& h : hooks) all += h->times();
    L.all_exits += all;
    L.checkpoints += flight_checkpoints;
    L.restores += restores;
    L.replayed += replayable;
    L.slices += slices;
    L.verify_ns += verify_ns;
    L.verifies += kFleetMachines;
    const double mean_busy =
        std::max(1.0, busy_ns / 1e3 / double(worker_us.size()));
    L.busy_frac_sum += (busy_ns / 1e9) / (run_s * double(worker_us.size()));
    L.imbalance_sum +=
        *std::max_element(worker_us.begin(), worker_us.end()) / mean_busy -
        1.0;
  } else {
    res.round_ms.push_back(round_ms);
    res.setup_s.push_back(double(t2 - t0) / 1e9);
    res.note("machine_busy_ms", "ms", median(machine_us) / 1e3);
    res.sim_rate.push_back(sim_s / run_s);
    res.note("fleet_sim_rate", "sim_s/s", sim_s / run_s);
    res.note("fleet_run_s", "s", run_s);
    res.note("verify_window_ms", "ms", double(verify_ns) / 1e6 / kFleetMachines);
  }
}

// -------------------------------------------------------- debug-session --

using debug::RemoteDebugger;
using StopKind = RemoteDebugger::StopKind;

struct DebugRound {
  std::string isr;  // breakpoint target
  Cycles gap = 0;   // run time after the resume
};

/// The seeded round script. Each block of kDebugBlock rounds breaks 8 times
/// in isr_nic, 7 times in isr_timer and once in a seeded isr_scsi<d> (a
/// disk completes only every few hundred simulated ms, so SCSI rounds are
/// kept rare), with one gap from each slice of [1, 10) ms, all shuffled.
std::vector<DebugRound> debug_script(u64 seed) {
  Rng rng(seed);
  std::vector<DebugRound> script;
  for (unsigned b = 0; b < kDebugRoundsPerSession / kDebugBlock; ++b) {
    std::vector<std::string> isrs(8, "isr_nic");
    isrs.resize(15, "isr_timer");
    isrs.push_back("isr_scsi" + std::to_string(rng.below(3)));
    shuffle(isrs, rng);
    const auto gaps =
        stratified(rng, kDebugBlock, kDebugMinGapS, kDebugMaxGapS);
    for (unsigned i = 0; i < kDebugBlock; ++i) {
      script.push_back({isrs[i], seconds_to_cycles(gaps[i])});
    }
  }
  return script;
}

/// One session: a fresh LVMM machine with stub and time travel, then
/// kDebugRoundsPerSession scripted rounds. Every session of a run replays
/// the same seeded script, so sessions must agree bit for bit.
void debug_session(Rep rep, const std::vector<DebugRound>& script,
                   Result& res) {
  const bool traced = rep == Rep::kTraced;
  SpanScope session_span("debug_session");
  const u64 t0 = now_ns();
  std::optional<harness::Platform> p;
  {
    SpanScope s("setup.guest_build");
    p.emplace(fleet::UnitKind::kLvmm);
  }
  const u64 t1 = now_ns();
  const auto rc = guest::RunConfig::for_rate_mbps(kDebugRateMbps);
  vmm::DebugStub* stub = nullptr;
  {
    SpanScope s("setup.prepare");
    p->prepare(rc);
    stub = p->unit().attach_stub();
  }
  const u64 t2 = now_ns();
  p->sink().set_payload_validator(guest::make_stream_validator(rc));
  hw::Machine& m = p->machine();
  vmm::TimeTravel::Config tcfg;
  tcfg.interval = kDebugCheckpointInterval;
  tcfg.ring = kDebugCheckpointRing;
  vmm::TimeTravel tt(*p->monitor(), tcfg);
  stub->set_time_travel(&tt);
  tt.register_metrics(p->metrics());
  RemoteDebugger dbg(m);
  dbg.add_symbols(p->image().kernel);
  dbg.add_symbols(p->image().app);
  std::optional<TimedHook> hook;
  if (traced) hook.emplace(m.cpu());
  {
    SpanScope s("setup.warmup");
    res.check.expect(dbg.connect(), "debugger did not connect");
    tt.enable();  // so the first round already has history to reverse into
    m.run_for(seconds_to_cycles(kDebugWarmupS));
  }
  const u64 t3 = now_ns();
  const ExitTimes e_setup = hook ? hook->times() : ExitTimes{};
  const Counters cs0 = read_counters(p->metrics(), m);
  const u64 packets0 = dbg.packets_sent();

  Counters fwd{};
  u64 gap_ns = 0;
  ExitTimes gap_exits;
  std::vector<double> gap_rate;
  std::map<std::string, std::vector<double>> op_us;
  std::map<std::string, long long> op_cycles;
  std::vector<double> round_ms;

  // Times one scripted RSP operation and checks its outcome.
  auto op = [&](const char* kind, const std::function<bool()>& call,
                const std::string& what) {
    SpanScope s(kind);
    const Cycles c0 = m.now();
    const u64 a = now_ns();
    const bool ok = call();
    const u64 b = now_ns();
    const Cycles c1 = m.now();
    op_us[kind].push_back(double(b - a) / 1e3);
    op_cycles[kind] += c1 >= c0 ? static_cast<long long>(c1 - c0)
                                : -static_cast<long long>(c0 - c1);
    res.check.expect(ok, what);
  };
  // Oracle queries are timed under their own name, outside the script.
  auto query_icount = [&]() -> u64 {
    SpanScope s("query");
    const u64 a = now_ns();
    const auto n = dbg.icount();
    op_us["query"].push_back(double(now_ns() - a) / 1e3);
    res.check.expect(n.has_value(), "qVdbg.Icount failed");
    return n.value_or(0);
  };

  for (unsigned r = 0; r < script.size(); ++r) {
    SpanScope round_span("debug_round");
    const u64 tr = now_ns();
    const std::string& isr = script[r].isr;
    const Cycles gap = script[r].gap;
    const u32 addr = dbg.lookup(isr).value_or(0);
    const std::string at = "round " + std::to_string(r) + " (" + isr + "): ";

    op("interrupt", [&] { return dbg.interrupt() == StopKind::kBreak; },
       at + "break-in did not stop");
    op("inspect", [&] { return dbg.read_registers().has_value(); },
       at + "register read failed");
    op("inspect",
       [&] {
         const auto mem = dbg.read_memory(guest::kMailboxBase, 64);
         return mem && mem->size() == 64;
       },
       at + "memory read failed");
    op("set_breakpoint", [&] { return addr != 0 && dbg.set_breakpoint(addr); },
       at + "set breakpoint failed");
    op("continue_to_bp",
       [&] {
         return dbg.continue_and_wait(seconds_to_cycles(kDebugBpBudgetS)) ==
                StopKind::kBreak;
       },
       at + "continue did not stop at the breakpoint");
    {
      SpanScope s("query");
      const u64 a = now_ns();
      const auto regs = dbg.read_registers();
      op_us["query"].push_back(double(now_ns() - a) / 1e3);
      res.check.expect(regs && regs->pc == addr,
                       at + "stopped away from the breakpoint");
    }
    for (unsigned i = 0; i < kDebugReverseSteps; ++i) {
      const u64 n0 = query_icount();
      op("reverse_stepi", [&] { return dbg.reverse_step() == StopKind::kBreak; },
         at + "reverse_stepi did not stop");
      const u64 n1 = query_icount();
      res.check.expect(n1 + 1 == n0, at + "reverse_stepi landed at " +
                                         std::to_string(n1) + ", not " +
                                         std::to_string(n0) + " - 1");
    }
    op("reverse_continue",
       [&] { return dbg.reverse_continue() == StopKind::kBreak; },
       at + "reverse_continue did not stop");
    for (unsigned i = 0; i < kDebugForwardSteps; ++i) {
      op("stepi", [&] { return dbg.step() == StopKind::kBreak; },
         at + "stepi did not stop");
    }
    op("clear_breakpoint", [&] { return dbg.clear_breakpoint(addr); },
       at + "clear breakpoint failed");
    op("resume",
       [&] {
         return dbg.continue_and_wait(seconds_to_cycles(kDebugResumeS)) ==
                StopKind::kTimeout;
       },
       at + "resume reported a stop");
    {
      SpanScope s("run_for");
      const Counters g0 = read_counters(p->metrics(), m);
      const ExitTimes ge0 = hook ? hook->times() : ExitTimes{};
      const u64 a = now_ns();
      m.run_for(gap);
      const u64 b = now_ns();
      gap_ns += b - a;
      if (hook) gap_exits += hook->times() - ge0;
      const Counters g1 = read_counters(p->metrics(), m);
      add_delta(fwd, g1, g0);
      gap_rate.push_back(cycles_to_seconds(g1[kCycles] - g0[kCycles]) /
                         (double(b - a) / 1e9));
    }
    round_ms.push_back(double(now_ns() - tr) / 1e6);
  }

  const auto mb = p->mailbox();
  res.check.expect(mailbox_healthy(mb) && !p->monitor()->vcpu().crashed,
                   "guest unhealthy after the session (last_error=" +
                       std::to_string(mb.last_error) + ", panic_pc=" +
                       std::to_string(mb.panic_pc) + ")");
  res.check.expect(p->monitor()->monitor_memory_intact(),
                   "monitor memory corrupted");
  res.check.expect(p->sink().frames() > 0 && p->sink().parse_errors() == 0 &&
                       p->sink().checksum_errors() == 0 &&
                       p->sink().content_errors() == 0,
                   "stream errors " + sink_text(p->sink()));

  const Counters cs1 = read_counters(p->metrics(), m);
  const u64 packets = dbg.packets_sent() - packets0;
  const auto& ts = tt.stats();
  Fingerprint fp;
  fp.emplace_back("icount", static_cast<long long>(cs1[kInstr]));
  fp.emplace_back("cycles", static_cast<long long>(cs1[kCycles]));
  fp.emplace_back("segments", static_cast<long long>(mb.segments_sent));
  fp.emplace_back("packets", static_cast<long long>(packets));
  add_exit_fingerprint(fp, "", monitor_exits(p->metrics()));
  fp.emplace_back("block_builds",
                  static_cast<long long>(cs1[kBlockBuilds] - cs0[kBlockBuilds]));
  fp.emplace_back("sbc_translations",
                  static_cast<long long>(cs1[kSbcTranslations] -
                                         cs0[kSbcTranslations]));
  fp.emplace_back("tt.checkpoints", static_cast<long long>(ts.checkpoints));
  fp.emplace_back("tt.restores", static_cast<long long>(ts.restores));
  fp.emplace_back("tt.replayed_instructions",
                  static_cast<long long>(ts.replayed_instructions));
  for (const auto& [kind, cyc] : op_cycles) {
    fp.emplace_back("debug." + kind + ".sim_cycles", cyc);
  }
  res.compare_fingerprint(std::move(fp), "debug session");

  if (rep == Rep::kWarmup) return;
  res.guest_build_s.push_back(double(t1 - t0) / 1e9);
  res.prepare_s.push_back(double(t2 - t1) / 1e9);
  if (traced) {
    Layers& L = res.layers;
    L.rounds += static_cast<unsigned>(script.size());
    for (double v : round_ms) res.traced_round_ms.push_back(v);
    add_delta(L.ctr, fwd, Counters{});
    L.sim_ns += gap_ns;
    L.sim_exits += gap_exits;
    L.all_exits += hook->times() - e_setup;
    L.checkpoints += ts.checkpoints;
    L.checkpoint_bytes += ts.checkpoint_bytes;
    L.restores += ts.restores;
    L.replayed += ts.replayed_instructions;
    L.packets += packets;
    for (auto& [kind, v] : op_us) {
      auto& dst = L.op_us[kind];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [kind, cyc] : op_cycles) L.op_sim_cycles[kind] += cyc;
    L.cow_faults += cs1[kCowFaults] - cs0[kCowFaults];
  } else {
    for (double v : round_ms) res.round_ms.push_back(v);
    res.setup_s.push_back(double(t3 - t0) / 1e9);
    for (const auto& [kind, v] : op_us) {
      if (kind == "query") continue;
      res.op_us.insert(res.op_us.end(), v.begin(), v.end());
      auto& dst = res.debug_op_us[kind];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    res.sim_rate.insert(res.sim_rate.end(), gap_rate.begin(), gap_rate.end());
  }
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

std::vector<Metric> end_to_end(const Result& res) {
  return {
      {"setup_s", median(res.setup_s), "s"},
      {"round_ms", median(res.round_ms), "ms"},
      {"sim_rate", median(res.sim_rate), "sim_s/s"},
      {"op_p50_us", median(res.op_us), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Result& res) {
  const Layers& L = res.layers;
  const double rounds = std::max(1u, L.rounds);
  const Counters& c = L.ctr;
  auto rate = [](u64 hits, u64 other) {
    return safe_div(double(hits), double(hits + other));
  };
  std::vector<Metric> out = {
      {"cpu.guest_mips",
       safe_div(double(c[kInstr]), double(L.sim_ns) / 1e9) / 1e6, "Minstr/s"},
      {"cpu.block.hit_rate", rate(c[kBlockHits], c[kBlockBuilds]), "frac"},
      {"cpu.block.builds", c[kBlockBuilds] / rounds, "count"},
      {"cpu.block.invalidations", c[kBlockInval] / rounds, "count"},
      {"cpu.sbc.translations", c[kSbcTranslations] / rounds, "count"},
      {"cpu.sbc.hits", c[kSbcHits] / rounds, "count"},
      {"cpu.sbc.invalidations", c[kSbcInval] / rounds, "count"},
      {"cpu.tlb.hit_rate", rate(c[kTlbHits], c[kTlbMisses]), "frac"},
      {"sim.run_for_ms", double(L.sim_ns) / 1e6 / rounds, "ms"},
      {"sim.residual_ms",
       double(L.sim_ns - L.sim_exits.total_ns()) / 1e6 / rounds, "ms"},
  };
  for (unsigned k = 0; k < kNumExit; ++k) {
    if (k == kOther) continue;
    out.push_back({std::string("vmm.exit.count.") + kExitName[k],
                   L.all_exits.count[k] / rounds, "count"});
  }
  for (unsigned k : {kGp, kPf, kSoftInt, kIrq}) {
    out.push_back({std::string("vmm.exit.host_ns.") + kExitName[k],
                   L.all_exits.ns_per_exit(k), "ns"});
  }
  out.push_back({"vmm.exit.host_share",
                 safe_div(double(L.sim_exits.total_ns()), double(L.sim_ns)),
                 "frac"});
  out.push_back(
      {"vmm.vtlb.hit_rate", safe_div(double(c[kVtlbHits]), double(c[kVtlbLookups])),
       "frac"});
  out.push_back({"hw.events_scheduled", c[kEvents] / rounds, "count"});
  out.push_back(
      {"hw.idle_frac", safe_div(double(c[kIdle]), double(c[kCycles])), "frac"});
  out.push_back({"hw.nic.frames_sent", c[kNicFrames] / rounds, "count"});
  out.push_back({"capture.checkpoints", L.checkpoints / rounds, "count"});
  out.push_back({"capture.restores", L.restores / rounds, "count"});
  out.push_back(
      {"capture.replayed_instructions", L.replayed / rounds, "count"});
  out.push_back({"mem.cow.faults", L.cow_faults / rounds, "count"});
  out.push_back({"debug.packets", L.packets / rounds, "count"});
  out.push_back({"fleet.slices", L.slices / rounds, "count"});
  out.push_back({"setup.guest_build_s", median(res.guest_build_s), "s"});
  out.push_back({"setup.prepare_s", median(res.prepare_s), "s"});
  out.push_back({"trace.overhead_frac",
                 safe_div(median(res.traced_round_ms), median(res.round_ms)) -
                     1.0,
                 "frac"});
  return out;
}

/// Layer metrics only some workloads have; printed, not in the JSON line.
std::vector<Metric> per_layer_extra(const Result& res) {
  const Layers& L = res.layers;
  const double rounds = std::max(1u, L.rounds);
  std::vector<Metric> out;
  for (unsigned k : {kDebug, kOther}) {
    if (L.all_exits.count[k] == 0) continue;
    out.push_back({std::string("vmm.exit.host_ns.") + kExitName[k],
                   L.all_exits.ns_per_exit(k), "ns"});
  }
  if (L.checkpoint_bytes) {
    out.push_back(
        {"capture.checkpoint_bytes", L.checkpoint_bytes / rounds, "bytes"});
  }
  if (L.verifies) {
    out.push_back({"capture.verify_window_ms",
                   double(L.verify_ns) / 1e6 / double(L.verifies), "ms"});
  }
  if (L.slices) {
    out.push_back({"fleet.worker_busy_frac", L.busy_frac_sum / rounds, "frac"});
    out.push_back({"fleet.worker_imbalance", L.imbalance_sum / rounds, "frac"});
  }
  for (const auto& [kind, v] : L.op_us) {
    out.push_back({"debug." + kind + ".host_us_p50", median(v), "us"});
  }
  for (const auto& [kind, cyc] : L.op_sim_cycles) {
    out.push_back({"debug." + kind + ".sim_cycles", double(cyc) / rounds,
                   "cycles"});
  }
  return out;
}

void print_metric(const Metric& m) {
  std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

/// Writes the span log (Chrome trace-event JSON) and the per-layer summary
/// (self time per span name, exit split of run_for time).
void write_trace(const Options& o, const Result& res,
                 const std::vector<Metric>& layers) {
  const std::string stem =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  std::filesystem::create_directories(o.out_dir);
  const auto& spans = g_tracer.spans();
  u64 origin = ~u64{0};
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  {
    std::ofstream js(stem + ".spans.json");
    if (!js) throw std::runtime_error("cannot write " + stem + ".spans.json");
    js << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.3f", double(s.start_ns - origin) / 1e3);
      js << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << buf;
      std::snprintf(buf, sizeof buf, "%.3f", double(s.end_ns - s.start_ns) / 1e3);
      js << ",\"dur\":" << buf << ",\"args\":{\"id\":" << s.id
         << ",\"parent\":" << s.parent << "}}";
    }
    js << "\n]}\n";
  }

  // Self time per span name: duration minus what direct children cover
  // (children on other threads, i.e. fleet worker slices, are parallel
  // work and are not subtracted).
  std::vector<u64> child_ns(spans.size() + 1, 0);
  for (const auto& s : spans) {
    if (s.parent != 0 && s.tid == spans[s.parent - 1].tid) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Agg {
    u64 count = 0;
    u64 total_ns = 0;
    u64 self_ns = 0;
  };
  std::map<std::string, Agg> agg;
  u64 top_ns = 0;
  for (const auto& s : spans) {
    Agg& a = agg[s.name];
    const u64 d = s.end_ns - s.start_ns;
    ++a.count;
    a.total_ns += d;
    a.self_ns += d - std::min(d, child_ns[s.id]);
    if (s.parent == 0) top_ns += d;
  }

  std::ofstream sum(stem + ".summary.txt");
  if (!sum) throw std::runtime_error("cannot write " + stem + ".summary.txt");
  const Layers& L = res.layers;
  char line[256];
  sum << "per-layer summary: workload " << o.workload << ", seed " << o.seed
      << ", traced rounds " << L.rounds << "\n\n";
  std::snprintf(line, sizeof line, "%-22s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  sum << line;
  for (const auto& [name, a] : agg) {
    std::snprintf(line, sizeof line, "%-22s %8llu %12.3f %12.3f\n",
                  name.c_str(), (unsigned long long)a.count,
                  double(a.total_ns) / 1e6, double(a.self_ns) / 1e6);
    sum << line;
  }
  std::snprintf(line, sizeof line, "%-22s %8s %12.3f\n", "(top-level spans)",
                "", double(top_ns) / 1e6);
  sum << line;

  sum << "\nrun_for host time split (forward simulation windows):\n";
  const double run_ms = double(L.sim_ns) / 1e6;
  double exit_ms = 0.0;
  for (unsigned k = 0; k < kNumExit; ++k) {
    const double ms = double(L.sim_exits.ns[k]) / 1e6;
    exit_ms += ms;
    std::snprintf(line, sizeof line, "  exit %-10s %10llu exits %12.3f ms\n",
                  kExitName[k], (unsigned long long)L.sim_exits.count[k], ms);
    sum << line;
  }
  std::snprintf(line, sizeof line,
                "  exits total %29.3f ms\n  residual (cpu+hw+events) %16.3f "
                "ms\n  run_for total %27.3f ms\n",
                exit_ms, run_ms - exit_ms, run_ms);
  sum << line;
  for (const auto& [name, v] : L.platform_ms) {
    std::snprintf(line, sizeof line, "  %-30s %12.3f ms (median pass)\n",
                  name.c_str(), median(v));
    sum << line;
  }
  const double traced = median(res.traced_round_ms);
  const double untraced = median(res.round_ms);
  std::snprintf(line, sizeof line,
                "\ntracing overhead: traced round %.3f ms vs untraced %.3f ms "
                "(%+.2f%%)\n",
                traced, untraced, 100.0 * (safe_div(traced, untraced) - 1.0));
  sum << line << "\nper-layer metrics:\n";
  for (const auto& m : layers) {
    std::snprintf(line, sizeof line, "  %-34s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    sum << line;
  }
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (a == "--out") {
      o.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (o.workload != "paper-saturate" && o.workload != "fleet-paced" &&
      o.workload != "debug-session") {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int run(const Options& o) {
  Result res;
  Rng rng(o.seed);
  std::vector<double> rates;
  std::vector<DebugRound> script;
  if (o.workload == "fleet-paced") {
    // The middle of each eighth of [20, 80) Mbps, in seeded order, so the
    // fleet's load mix is the same for every seed.
    for (unsigned i = 0; i < kFleetMachines; ++i) {
      rates.push_back(kFleetMinMbps + (kFleetMaxMbps - kFleetMinMbps) *
                                          (double(i) + 0.5) / kFleetMachines);
    }
    shuffle(rates, rng);
  } else if (o.workload == "debug-session") {
    script = debug_script(o.seed);
  }
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
              o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
              o.trace ? 1 : 0);
  if (!rates.empty()) {
    std::printf("fleet rates (Mbps):");
    for (double r : rates) std::printf(" %.2f", r);
    std::printf("\n");
  }

  const u64 start = now_ns();
  for (unsigned round = 0;; ++round) {
    const double elapsed = double(now_ns() - start) / 1e9;
    if (round >= kMinRounds && elapsed >= o.seconds) break;
    // Traced runs alternate untraced and traced repetitions.
    const Rep rep = round == 0                     ? Rep::kWarmup
                    : o.trace && round % 2 == 0 ? Rep::kTraced
                                                : Rep::kTimed;
    g_tracer.set_enabled(rep == Rep::kTraced);
    if (o.workload == "paper-saturate") {
      paper_pass(rep, res);
    } else if (o.workload == "fleet-paced") {
      fleet_round(rep, rates, res);
    } else {
      debug_session(rep, script, res);
    }
  }
  g_tracer.set_enabled(false);

  for (const auto& [name, v] : res.named) {
    print_metric({name, median(v.first), v.second});
  }
  for (const auto& [kind, v] : res.debug_op_us) {
    print_metric({kind + "_p50_us", median(v), "us"});
  }
  // The tail spreads too much from run to run to gate on, so it is printed
  // (with its percentile and sample count) but not in the JSON line.
  const Tail t = tail10(res.op_us);
  std::printf("metric %-34s %16.6f us (p%.2f of %zu samples)\n",
              o.workload == "debug-session" ? "debug_op_tail_us" : "op_tail_us",
              t.value, t.percentile, t.samples);
  {
    // Round-time distribution of the untraced rounds, for judging noise.
    std::vector<double> r = res.round_ms;
    std::sort(r.begin(), r.end());
    if (!r.empty()) {
      const std::size_t n = r.size();
      std::printf("rounds %zu, round_ms min %.3f q1 %.3f median %.3f q3 %.3f max %.3f\n",
                  n, r[0], r[n / 4], median(r), r[(3 * n) / 4], r[n - 1]);
    }
  }
  print_metric({"op_fail_rate",
                safe_div(double(res.check.failed()),
                         double(res.check.attempted())),
                "frac"});
  if (res.fingerprint) {
    for (const auto& [name, v] : *res.fingerprint) {
      std::printf("fingerprint %-40s %lld count\n", name.c_str(), v);
    }
  }
  for (const auto& f : res.check.failures()) {
    std::printf("check failed: %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = per_layer(res);
    for (const auto& m : per_layer_extra(res)) print_metric(m);
    write_trace(o, res, metrics);
    std::printf("trace: %s/%s-seed%llu.{spans.json,summary.txt}\n",
                o.out_dir.c_str(), o.workload.c_str(),
                (unsigned long long)o.seed);
  } else {
    metrics = end_to_end(res);
  }
  for (const auto& m : metrics) print_metric(m);

  std::string json = "{\"correct\": ";
  json += res.check.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.check.attempted());
  json += ", \"failed\": " + std::to_string(res.check.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
