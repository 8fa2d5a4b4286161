#include "fleet/multiverse.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "common/log.h"
#include "vmm/stub.h"

namespace vdbg::fleet {

// ------------------------------------------------------------ Perturbation

bool Perturbation::empty() const { return knob_count() == 0; }

unsigned Perturbation::knob_count() const {
  unsigned n = 0;
  for (Cycles d : irq_delay) n += d != 0;
  for (Cycles d : scsi_extra) n += d != 0;
  n += nic_delay != 0;
  n += nic_swap_pairs != 0;
  return n;
}

std::string Perturbation::describe() const {
  std::string out;
  auto add = [&out](const std::string& s) {
    if (!out.empty()) out.push_back(';');
    out += s;
  };
  for (unsigned i = 0; i < irq_delay.size(); ++i) {
    if (irq_delay[i] != 0) {
      add("irq" + std::to_string(i) + "+" + std::to_string(irq_delay[i]));
    }
  }
  for (unsigned i = 0; i < scsi_extra.size(); ++i) {
    if (scsi_extra[i] != 0) {
      add("scsi" + std::to_string(i) + "+" + std::to_string(scsi_extra[i]));
    }
  }
  if (nic_delay != 0) add("nic+" + std::to_string(nic_delay));
  if (nic_swap_pairs != 0) add("nicswap" + std::to_string(nic_swap_pairs));
  return out.empty() ? "none" : out;
}

namespace {

std::optional<u64> parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  u64 v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + u64(c - '0');
  }
  return v;
}

std::optional<u32> parse_hex32(const std::string& s) {
  if (s.empty() || s.size() > 8) return std::nullopt;
  u32 v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= u32(c - '0');
    else if (c >= 'a' && c <= 'f') v |= u32(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= u32(c - 'A' + 10);
    else return std::nullopt;
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

}  // namespace

std::optional<Perturbation> Perturbation::parse(const std::string& s) {
  Perturbation p;
  if (s.empty() || s == "none") return p;
  for (const std::string& part : split(s, ';')) {
    const auto plus = part.find('+');
    if (part.rfind("nicswap", 0) == 0) {
      const auto n = parse_u64(part.substr(7));
      if (!n) return std::nullopt;
      p.nic_swap_pairs = *n;
    } else if (part.rfind("nic", 0) == 0 && plus != std::string::npos) {
      const auto n = parse_u64(part.substr(plus + 1));
      if (!n) return std::nullopt;
      p.nic_delay = *n;
    } else if (part.rfind("irq", 0) == 0 && plus != std::string::npos) {
      const auto line = parse_u64(part.substr(3, plus - 3));
      const auto n = parse_u64(part.substr(plus + 1));
      if (!line || !n || *line >= p.irq_delay.size()) return std::nullopt;
      p.irq_delay[*line] = *n;
    } else if (part.rfind("scsi", 0) == 0 && plus != std::string::npos) {
      const auto disk = parse_u64(part.substr(4, plus - 4));
      const auto n = parse_u64(part.substr(plus + 1));
      if (!disk || !n || *disk >= p.scsi_extra.size()) return std::nullopt;
      p.scsi_extra[*disk] = *n;
    } else {
      return std::nullopt;
    }
  }
  return p;
}

// -------------------------------------------------------- OutcomePredicate

std::string OutcomePredicate::describe() const {
  switch (kind) {
    case Kind::kCrash: return "crash";
    case Kind::kFrozen: return "frozen";
    case Kind::kGuestExit: return "exit";
    case Kind::kMailbox: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "mailbox:%x=%x", addr, value);
      return buf;
    }
  }
  return "?";
}

std::optional<OutcomePredicate> OutcomePredicate::parse(const std::string& s) {
  OutcomePredicate p;
  if (s == "crash") return p;
  if (s == "frozen") {
    p.kind = Kind::kFrozen;
    return p;
  }
  if (s == "exit") {
    p.kind = Kind::kGuestExit;
    return p;
  }
  if (s.rfind("mailbox:", 0) == 0) {
    const auto eq = s.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const auto addr = parse_hex32(s.substr(8, eq - 8));
    const auto value = parse_hex32(s.substr(eq + 1));
    if (!addr || !value) return std::nullopt;
    p.kind = Kind::kMailbox;
    p.addr = *addr;
    p.value = *value;
    return p;
  }
  return std::nullopt;
}

namespace {

bool predicate_hit(const OutcomePredicate& pred, MachineUnit& u,
                   const MachineStatus& st) {
  using Kind = OutcomePredicate::Kind;
  switch (pred.kind) {
    case Kind::kCrash:
      return st.crashed;
    case Kind::kFrozen:
      return u.monitor() != nullptr && u.monitor()->guest_frozen();
    case Kind::kGuestExit:
      return st.stop == hw::Machine::StopReason::kGuestExit;
    case Kind::kMailbox:
      return u.machine().mem().contains(pred.addr, 4) &&
             u.machine().mem().read32(pred.addr) == pred.value;
  }
  return false;
}

/// Replay-exact samples must agree bit for bit across reruns of one
/// (checkpoint, perturbation) pair.
bool samples_identical(const std::vector<MetricsRegistry::Sample>& a,
                       const std::vector<MetricsRegistry::Sample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].kind != b[i].kind) return false;
    if (a[i].value != b[i].value) return false;
    if (a[i].number != b[i].number) return false;
    if (a[i].buckets != b[i].buckets) return false;
  }
  return true;
}

/// Stable knob numbering for ddmin: 0..15 IRQ lines, 16..23 disks, 24 NIC
/// delay, 25 NIC swaps.
constexpr unsigned kKnobScsiBase = hw::IrqPerturb::kLines;
constexpr unsigned kKnobNicDelay = kKnobScsiBase + Perturbation::kMaxDisks;
constexpr unsigned kKnobNicSwaps = kKnobNicDelay + 1;

std::vector<unsigned> active_knobs(const Perturbation& p) {
  std::vector<unsigned> out;
  for (unsigned i = 0; i < p.irq_delay.size(); ++i) {
    if (p.irq_delay[i] != 0) out.push_back(i);
  }
  for (unsigned i = 0; i < p.scsi_extra.size(); ++i) {
    if (p.scsi_extra[i] != 0) out.push_back(kKnobScsiBase + i);
  }
  if (p.nic_delay != 0) out.push_back(kKnobNicDelay);
  if (p.nic_swap_pairs != 0) out.push_back(kKnobNicSwaps);
  return out;
}

Perturbation without_knob(Perturbation p, unsigned knob) {
  if (knob < kKnobScsiBase) {
    p.irq_delay[knob] = 0;
  } else if (knob < kKnobNicDelay) {
    p.scsi_extra[knob - kKnobScsiBase] = 0;
  } else if (knob == kKnobNicDelay) {
    p.nic_delay = 0;
  } else {
    p.nic_swap_pairs = 0;
  }
  return p;
}

void apply_perturbation(const Perturbation& p, hw::Machine& m) {
  for (unsigned i = 0; i < p.irq_delay.size(); ++i) {
    m.irq_perturb().set_delay(i, p.irq_delay[i]);
  }
  for (unsigned d = 0; d < m.num_disks() && d < p.scsi_extra.size(); ++d) {
    m.disk(d).set_command_overhead_extra(p.scsi_extra[d]);
  }
  m.nic().set_wire_delay_extra(p.nic_delay);
  m.nic().set_tx_swap_pairs(p.nic_swap_pairs);
}

}  // namespace

// -------------------------------------------------------------- Multiverse

void Multiverse::Stats::add(const Stats& o) {
  forks += o.forks;
  timelines_run += o.timelines_run;
  predicate_hits += o.predicate_hits;
  trap_rounds += o.trap_rounds;
  shrink_steps += o.shrink_steps;
  verify_passes += o.verify_passes;
}

// thread:init-only(constructed on the coordinating thread before any exploration)
Multiverse::Multiverse(const vmm::Checkpoint& cp, MultiverseConfig cfg)
    : cp_(cp), cfg_(std::move(cfg)) {
  if (cp_.bytes.empty()) {
    throw std::invalid_argument("multiverse: empty checkpoint");
  }
  // Forks restore the checkpoint over whatever prepare() loaded, so the
  // image content is irrelevant — but building it once here keeps each
  // round's fleet construction cheap.
  image_ = guest::build_minitactix(cfg_.unit.build);
}

// thread:any(pure function of the rng and config)
Perturbation Multiverse::draw(Rng& rng) const {
  // Candidate knobs: the IRQ lines the machine actually wires (timer,
  // UART, NIC, the three SCSI controllers), per-disk latency, NIC timing.
  static constexpr unsigned kIrqCandidates[] = {0, 4, 5, 10, 11, 12};
  const PerturbBounds& b = cfg_.bounds;
  Perturbation p;
  for (unsigned line : kIrqCandidates) {
    if (rng.chance(b.knob_probability) && b.max_irq_delay > 0) {
      p.irq_delay[line] = rng.between(1, b.max_irq_delay);
    }
  }
  for (unsigned d = 0; d < 3; ++d) {
    if (rng.chance(b.knob_probability) && b.max_scsi_extra > 0) {
      p.scsi_extra[d] = rng.between(1, b.max_scsi_extra);
    }
  }
  if (rng.chance(b.knob_probability) && b.max_nic_delay > 0) {
    p.nic_delay = rng.between(1, b.max_nic_delay);
  }
  if (rng.chance(b.knob_probability) && b.max_nic_swaps > 0) {
    p.nic_swap_pairs = rng.between(1, b.max_nic_swaps);
  }
  if (p.empty() && b.max_irq_delay > 0) {
    // Force at least one knob so every drawn timeline diverges.
    p.irq_delay[kIrqCandidates[rng.below(std::size(kIrqCandidates))]] =
        rng.between(1, b.max_irq_delay);
  }
  return p;
}

// thread:any(each call builds a private Fleet; nothing outlives the call)
std::vector<TimelineResult> Multiverse::run_batch(
    const std::vector<Perturbation>& perturbs, const OutcomePredicate& pred) {
  if (perturbs.empty()) return {};
  FleetConfig fc;
  fc.machines = static_cast<unsigned>(perturbs.size());
  fc.threads = std::max(1u, cfg_.threads);
  fc.kind = cfg_.kind;
  fc.unit = cfg_.unit;
  fc.run = cfg_.run;
  fc.budget = cfg_.budget;
  fc.slice = cfg_.slice;
  fc.attach_stubs = false;
  fc.health.enabled = false;
  fc.prebuilt_image = &image_;
  fc.post_prepare = [this, &perturbs](MachineUnit& u, unsigned i) {
    if (!vmm::restore_checkpoint(u.machine(), u.monitor(), cp_)) {
      throw std::runtime_error("multiverse: checkpoint restore failed");
    }
    // A checkpoint taken at a debugger stop restores with the guest still
    // frozen; a forked timeline runs free from that point.
    if (u.monitor() != nullptr && u.monitor()->guest_frozen()) {
      u.monitor()->resume_guest();
    }
    apply_perturbation(perturbs[i], u.machine());
    ++stats_.forks;
  };

  Fleet fleet(fc);
  const auto statuses = fleet.run();

  std::vector<TimelineResult> out(perturbs.size());
  for (unsigned i = 0; i < perturbs.size(); ++i) {
    TimelineResult& r = out[i];
    r.perturb = perturbs[i];
    r.status = statuses[i];
    MachineUnit& u = fleet.unit(i);
    r.frozen = u.monitor() != nullptr && u.monitor()->guest_frozen();
    r.hit = predicate_hit(pred, u, statuses[i]);
    for (auto& s : u.metrics().snapshot()) {
      if (s.replay_exact) r.replay_metrics.push_back(std::move(s));
    }
    ++stats_.timelines_run;
    stats_.predicate_hits += r.hit ? 1 : 0;
  }
  return out;
}

// thread:any(runs batches on the calling thread)
std::vector<TimelineResult> Multiverse::explore(const OutcomePredicate& pred) {
  Rng rng(cfg_.seed);
  std::vector<Perturbation> perturbs;
  perturbs.push_back(Perturbation{});  // unperturbed control
  while (perturbs.size() < std::max(1u, cfg_.timelines)) {
    perturbs.push_back(draw(rng));
  }
  return run_batch(perturbs, pred);
}

// thread:any(runs batches on the calling thread)
Multiverse::TrapResult Multiverse::bug_trap(const OutcomePredicate& pred) {
  TrapResult out;
  Rng rng(cfg_.seed);

  // Control: the bug must NOT fire without perturbation, or there is no
  // timing delta to isolate.
  const auto control = run_batch({Perturbation{}}, pred);
  if (control.empty()) return out;
  if (control[0].hit) {
    out.baseline_hit = true;
    return out;
  }

  // Explore rounds of random timelines until one flips the predicate.
  std::optional<TimelineResult> failing;
  for (unsigned round = 0; round < std::max(1u, cfg_.max_rounds); ++round) {
    ++stats_.trap_rounds;
    ++out.rounds;
    std::vector<Perturbation> perturbs;
    for (unsigned i = 0; i < std::max(1u, cfg_.timelines); ++i) {
      perturbs.push_back(draw(rng));
    }
    auto results = run_batch(perturbs, pred);
    for (auto& r : results) {
      if (r.hit) {
        failing = std::move(r);
        break;
      }
    }
    if (failing) break;
  }
  if (!failing) return out;

  // Greedy ddmin to a 1-minimal delta: in each pass, try dropping every
  // active knob (one parallel batch), keep the first drop that still
  // fails, repeat until no single knob can be removed.
  Perturbation minimal = failing->perturb;
  for (;;) {
    const auto knobs = active_knobs(minimal);
    if (knobs.size() <= 1) break;
    std::vector<Perturbation> candidates;
    for (unsigned k : knobs) candidates.push_back(without_knob(minimal, k));
    stats_.shrink_steps += candidates.size();
    const auto results = run_batch(candidates, pred);
    bool shrunk = false;
    for (const auto& r : results) {
      if (r.hit) {
        minimal = r.perturb;
        shrunk = true;
        break;
      }
    }
    if (!shrunk) break;
  }

  // Verify: the minimal delta must fail twice with bit-identical
  // replay-exact metrics, and the empty delta must still pass.
  const auto verify =
      run_batch({minimal, minimal, Perturbation{}}, pred);
  out.found = true;
  out.minimal = minimal;
  out.failing = verify.empty() ? *failing : verify[0];
  if (verify.size() == 3 && verify[0].hit && verify[1].hit &&
      !verify[2].hit &&
      samples_identical(verify[0].replay_metrics, verify[1].replay_metrics)) {
    out.verified = true;
    ++stats_.verify_passes;
  }
  return out;
}

// thread:any(registry externally synchronized - owned by the caller)
void Multiverse::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("vmm.multiverse.forks", &stats_.forks,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.timelines_run", &stats_.timelines_run,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.predicate_hits", &stats_.predicate_hits,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.trap_rounds", &stats_.trap_rounds,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.shrink_steps", &stats_.shrink_steps,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.verify_passes", &stats_.verify_passes,
                  /*replay_exact=*/false);
}

// ------------------------------------------------------ MultiverseService

MultiverseService::MultiverseService(vmm::DebugStub& stub, vmm::TimeTravel& tt,
                                     MultiverseConfig cfg)
    : stub_(stub), tt_(tt), cfg_(std::move(cfg)) {
  stub_.set_query_hook(
      [this](const std::string& q) { return handle(q); });
}

MultiverseService::~MultiverseService() { stub_.set_query_hook(nullptr); }

// thread:any(registry externally synchronized - owned by the caller)
void MultiverseService::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("vmm.multiverse.forks", &stats_.forks,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.timelines_run", &stats_.timelines_run,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.predicate_hits", &stats_.predicate_hits,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.trap_rounds", &stats_.trap_rounds,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.shrink_steps", &stats_.shrink_steps,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.multiverse.verify_passes", &stats_.verify_passes,
                  /*replay_exact=*/false);
}

namespace {

const char* stop_name(hw::Machine::StopReason r) {
  using S = hw::Machine::StopReason;
  switch (r) {
    case S::kBudget: return "budget";
    case S::kShutdown: return "shutdown";
    case S::kGuestExit: return "exit";
    case S::kIdleDeadlock: return "idle";
    case S::kExternalStop: return "stop";
    case S::kInstrLimit: return "ilimit";
  }
  return "?";
}

std::string format_timelines(const std::vector<TimelineResult>& results) {
  std::string out;
  for (unsigned i = 0; i < results.size(); ++i) {
    const TimelineResult& r = results[i];
    if (!out.empty()) out.push_back('|');
    out += std::to_string(i);
    out += r.hit ? ":1:" : ":0:";
    out += r.frozen ? "frozen" : stop_name(r.status.stop);
    out += ":" + std::to_string(r.status.icount);
    out += ":" + r.perturb.describe();
  }
  return out;
}

}  // namespace

// thread:any(runs on whichever thread drives the debug stub; the service is single-client by construction)
std::optional<std::string> MultiverseService::handle(const std::string& q) {
  const bool is_fork = q.rfind("Vdbg.Fork,", 0) == 0;
  const bool is_multi = q.rfind("Vdbg.Multiverse,", 0) == 0;
  const bool is_trap = q.rfind("Vdbg.BugTrap,", 0) == 0;
  if (!is_fork && !is_multi && !is_trap) return std::nullopt;

  auto args = split(q.substr(q.find(',') + 1), ',');
  MultiverseConfig cfg = cfg_;
  OutcomePredicate pred;  // kCrash default for Fork
  std::size_t next = 0;
  if (is_multi || is_trap) {
    if (args.empty()) return "E01";
    const auto p = OutcomePredicate::parse(args[0]);
    if (!p) return "E01";
    pred = *p;
    next = 1;
  }
  if (next < args.size()) {
    const auto k = parse_u64(args[next]);
    if (!k || *k == 0 || *k > 64) return "E01";
    cfg.timelines = static_cast<unsigned>(*k);
    ++next;
  }
  if (next < args.size()) {
    const auto seed = parse_u64(args[next]);
    if (!seed) return "E01";
    cfg.seed = *seed;
    ++next;
  }
  if (is_trap && next < args.size()) {
    const auto rounds = parse_u64(args[next]);
    if (!rounds || *rounds == 0 || *rounds > 64) return "E01";
    cfg.max_rounds = static_cast<unsigned>(*rounds);
    ++next;
  }

  // Branch from exactly where the debugger stopped: checkpoint now, fork
  // from the freshest ring entry.
  if (!tt_.checkpoint_now() || tt_.checkpoints().empty()) return "E03";
  const vmm::Checkpoint& cp = tt_.checkpoints().back();

  try {
    Multiverse mv(cp, cfg);
    std::string reply;
    if (is_trap) {
      const auto trap = mv.bug_trap(pred);
      if (trap.baseline_hit) {
        reply = "baseline-hit";
      } else if (!trap.found) {
        reply = "none|rounds=" + std::to_string(trap.rounds);
      } else {
        // '|' separates fields: the minimal delta itself contains ';'.
        reply = "found|rounds=" + std::to_string(trap.rounds) +
                "|minimal=" + trap.minimal.describe() +
                "|verified=" + (trap.verified ? "1" : "0");
      }
    } else {
      reply = format_timelines(mv.explore(pred));
    }
    stats_.add(mv.stats());
    return reply;
  } catch (const std::exception& e) {
    Logger("multiverse").warn("RSP command failed: ", e.what());
    return "E03";
  }
}

}  // namespace vdbg::fleet
