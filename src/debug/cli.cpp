#include "debug/cli.h"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/hexdump.h"
#include "common/units.h"

namespace vdbg::debug {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::optional<u32> parse_hex(const std::string& s) {
  std::string body = s;
  if (body.rfind("0x", 0) == 0 || body.rfind("0X", 0) == 0) {
    body = body.substr(2);
  }
  if (body.empty() || body.size() > 8) return std::nullopt;
  u32 v = 0;
  for (char c : body) {
    const auto d = hex_digit(c);
    if (!d) return std::nullopt;
    v = (v << 4) | *d;
  }
  return v;
}

std::optional<unsigned> parse_dec(const std::string& s) {
  unsigned v = 0;
  if (s.empty()) return std::nullopt;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + unsigned(c - '0');
  }
  return v;
}

}  // namespace

std::optional<u32> DebuggerCli::parse_addr(const std::string& token) const {
  // symbol, symbol+0x10, or hex literal
  const auto plus = token.find('+');
  if (plus != std::string::npos) {
    const auto base = dbg_.lookup(token.substr(0, plus));
    const auto off = parse_hex(token.substr(plus + 1));
    if (base && off) return *base + *off;
    return std::nullopt;
  }
  if (const auto sym = dbg_.lookup(token)) return *sym;
  return parse_hex(token);
}

void DebuggerCli::cmd_help() {
  out_ << "commands:\n"
          "  run <ms> | int | c [ms] | s [n]\n"
          "  reverse-continue|rc | reverse-step|rs [n] | checkpoint\n"
          "  multiverse <k> [seed] [pred] | bugtrap <pred> [k] [seed] [rounds]\n"
          "    pred: crash | frozen | exit | mailbox:<hexaddr>=<hexval>\n"
          "  break <a> | delete <a> | watch <a> [len] | unwatch <a> [len]\n"
          "  regs | set <reg> <hex> | x <a> [len] | w32 <a> <hex>\n"
          "  disas [a] [n] | sym <name> | trace on|off|show [n]\n"
          "  profile [n|folded|start <interval>|stop] | history <metric>\n"
          "  window | status | exits | metrics [prefix] | dump | help | quit\n";
}

void DebuggerCli::cmd_regs() {
  const auto regs = dbg_.read_registers();
  if (!regs) {
    out_ << "error: cannot read registers\n";
    return;
  }
  out_ << std::hex << std::setfill('0');
  for (unsigned i = 0; i < 8; ++i) {
    out_ << (i == 7 ? "sp" : "r" + std::to_string(i)) << "="
         << std::setw(8) << regs->r[i] << (i % 4 == 3 ? "\n" : "  ");
  }
  out_ << "pc=" << std::setw(8) << regs->pc << "  ("
       << dbg_.describe(regs->pc) << ")\n"
       << "psw=" << std::setw(8) << regs->psw << std::dec
       << std::setfill(' ') << "  cpl=" << (regs->psw & 3)
       << " if=" << ((regs->psw >> 2) & 1) << "\n";
}

void DebuggerCli::cmd_dump(u32 addr, u32 len) {
  const auto mem = dbg_.read_memory(addr, len);
  if (!mem) {
    out_ << "error: cannot read memory at " << std::hex << addr << std::dec
         << "\n";
    return;
  }
  out_ << hexdump(*mem, addr);
}

void DebuggerCli::cmd_disas(u32 addr, unsigned count) {
  for (const auto& line : dbg_.disassemble(addr, count)) {
    out_ << "  " << line << "\n";
  }
}

void DebuggerCli::show_stop(RemoteDebugger::StopKind kind) {
  using K = RemoteDebugger::StopKind;
  switch (kind) {
    case K::kBreak: {
      const auto regs = dbg_.read_registers();
      out_ << "stopped";
      if (const auto wa = dbg_.watch_address()) {
        out_ << " (watchpoint at 0x" << std::hex << *wa << std::dec << ")";
      }
      if (regs) {
        out_ << " at pc=0x" << std::hex << regs->pc << std::dec << " ("
             << dbg_.describe(regs->pc) << ")";
      }
      out_ << "\n";
      return;
    }
    case K::kCrash:
      out_ << "TARGET CRASHED (monitor alive; post-mortem available)\n";
      return;
    case K::kGuestExit:
      out_ << "guest exited\n";
      return;
    case K::kTimeout:
      out_ << "running (no stop event)\n";
      return;
    case K::kError:
      out_ << "error: command refused (no history?)\n";
      return;
  }
}

bool DebuggerCli::execute(const std::string& line) {
  const auto tok = tokenize(line);
  if (tok.empty()) return true;
  const std::string& cmd = tok[0];
  auto arg_addr = [&](unsigned i) -> std::optional<u32> {
    return i < tok.size() ? parse_addr(tok[i]) : std::nullopt;
  };

  if (cmd == "quit" || cmd == "q") return false;
  if (cmd == "help" || cmd == "h") {
    cmd_help();
  } else if (cmd == "run" && tok.size() >= 2) {
    const auto ms = parse_dec(tok[1]);
    if (!ms) {
      out_ << "error: run <ms>\n";
      return true;
    }
    machine_.run_for(seconds_to_cycles(double(*ms) / 1000.0));
    out_ << "advanced " << *ms << " ms (t=" << std::fixed
         << std::setprecision(1) << cycles_to_seconds(machine_.now()) * 1000
         << " ms)\n";
  } else if (cmd == "int") {
    show_stop(dbg_.interrupt());
  } else if (cmd == "c") {
    const auto ms = tok.size() >= 2 ? parse_dec(tok[1]) : std::nullopt;
    show_stop(dbg_.continue_and_wait(
        seconds_to_cycles(double(ms.value_or(50)) / 1000.0)));
  } else if (cmd == "s") {
    const unsigned n =
        tok.size() >= 2 ? parse_dec(tok[1]).value_or(1) : 1;
    RemoteDebugger::StopKind k = RemoteDebugger::StopKind::kTimeout;
    for (unsigned i = 0; i < n; ++i) k = dbg_.step();
    show_stop(k);
  } else if (cmd == "reverse-continue" || cmd == "rc") {
    show_stop(dbg_.reverse_continue());
  } else if (cmd == "reverse-step" || cmd == "rs") {
    const unsigned n =
        tok.size() >= 2 ? parse_dec(tok[1]).value_or(1) : 1;
    RemoteDebugger::StopKind k = RemoteDebugger::StopKind::kTimeout;
    for (unsigned i = 0; i < n; ++i) {
      k = dbg_.reverse_step();
      if (k == RemoteDebugger::StopKind::kError) break;
    }
    show_stop(k);
  } else if (cmd == "checkpoint") {
    if (dbg_.take_checkpoint()) {
      const auto depth = dbg_.metric("vmm.tt.ring_depth");
      out_ << "checkpoint taken (" << u64(depth.value_or(0)) << " in ring)\n";
    } else {
      out_ << "error: no time-travel controller\n";
    }
  } else if (cmd == "multiverse") {
    const auto k = tok.size() >= 2 ? parse_dec(tok[1]) : std::nullopt;
    if (!k || *k == 0) {
      out_ << "error: multiverse <k> [seed] [pred]\n";
      return true;
    }
    const unsigned seed =
        tok.size() >= 3 ? parse_dec(tok[2]).value_or(1) : 1;
    const std::string pred = tok.size() >= 4 ? tok[3] : "";
    const auto timelines = dbg_.fork_timelines(*k, seed, pred);
    if (!timelines) {
      out_ << "error: no multiverse service attached\n";
      return true;
    }
    for (const auto& t : *timelines) {
      out_ << "  timeline " << t.index << ": " << (t.hit ? "HIT " : "ok  ")
           << t.stop << " icount=" << t.icount << " perturb=" << t.perturb
           << "\n";
    }
  } else if (cmd == "bugtrap") {
    if (tok.size() < 2) {
      out_ << "error: bugtrap <pred> [k] [seed] [rounds]\n";
      return true;
    }
    const unsigned k =
        tok.size() >= 3 ? parse_dec(tok[2]).value_or(8) : 8;
    const unsigned seed =
        tok.size() >= 4 ? parse_dec(tok[3]).value_or(1) : 1;
    const unsigned rounds =
        tok.size() >= 5 ? parse_dec(tok[4]).value_or(0) : 0;
    const auto report = dbg_.bug_trap(tok[1], k, seed, rounds);
    if (!report) {
      out_ << "error: no multiverse service attached\n";
    } else if (report->baseline_hit) {
      out_ << "bug fires without perturbation: nothing to isolate\n";
    } else if (!report->found) {
      out_ << "no failing timeline in " << report->rounds << " round(s)\n";
    } else {
      out_ << "minimal failure-flipping delta: " << report->minimal << "\n"
           << "  rounds=" << report->rounds << " verified="
           << (report->verified ? "yes (bit-identical replay)" : "NO")
           << "\n";
    }
  } else if (cmd == "break" || cmd == "b") {
    const auto a = arg_addr(1);
    if (!a) {
      out_ << "error: break <addr|sym>\n";
    } else {
      out_ << (dbg_.set_breakpoint(*a) ? "breakpoint set at 0x"
                                       : "error: cannot set at 0x")
           << std::hex << *a << std::dec << "\n";
    }
  } else if (cmd == "delete") {
    const auto a = arg_addr(1);
    if (a && dbg_.clear_breakpoint(*a)) {
      out_ << "breakpoint cleared\n";
    } else {
      out_ << "error: delete <addr|sym>\n";
    }
  } else if (cmd == "watch" || cmd == "unwatch") {
    const auto a = arg_addr(1);
    const u32 len =
        tok.size() >= 3 ? parse_hex(tok[2]).value_or(4) : 4;
    if (!a) {
      out_ << "error: " << cmd << " <addr|sym> [len]\n";
    } else if (cmd == "watch") {
      out_ << (dbg_.set_watchpoint(*a, len) ? "watchpoint set\n"
                                            : "error: cannot watch\n");
    } else {
      out_ << (dbg_.clear_watchpoint(*a, len) ? "watchpoint cleared\n"
                                              : "error: no such watch\n");
    }
  } else if (cmd == "regs" || cmd == "r") {
    cmd_regs();
  } else if (cmd == "set" && tok.size() >= 3) {
    static const std::map<std::string, unsigned> names = {
        {"r0", 0}, {"r1", 1}, {"r2", 2}, {"r3", 3}, {"r4", 4},
        {"r5", 5}, {"r6", 6}, {"r7", 7}, {"sp", 7}, {"pc", 8}, {"psw", 9}};
    const auto it = names.find(tok[1]);
    const auto v = parse_hex(tok[2]);
    if (it == names.end() || !v) {
      out_ << "error: set <reg> <hex>\n";
    } else {
      out_ << (dbg_.write_register(it->second, *v) ? "ok\n" : "error\n");
    }
  } else if (cmd == "x") {
    const auto a = arg_addr(1);
    const u32 len = tok.size() >= 3 ? parse_hex(tok[2]).value_or(64) : 64;
    if (!a) {
      out_ << "error: x <addr|sym> [len]\n";
    } else {
      cmd_dump(*a, std::min<u32>(len, 0x1000));
    }
  } else if (cmd == "w32" && tok.size() >= 3) {
    const auto a = arg_addr(1);
    const auto v = parse_hex(tok[2]);
    if (!a || !v) {
      out_ << "error: w32 <addr|sym> <hex>\n";
    } else {
      const u8 b[4] = {static_cast<u8>(*v), static_cast<u8>(*v >> 8),
                       static_cast<u8>(*v >> 16), static_cast<u8>(*v >> 24)};
      out_ << (dbg_.write_memory(*a, b) ? "ok\n" : "error\n");
    }
  } else if (cmd == "disas" || cmd == "d") {
    std::optional<u32> a = arg_addr(1);
    if (!a) {
      if (const auto regs = dbg_.read_registers()) a = regs->pc;
    }
    const unsigned n =
        tok.size() >= 3 ? parse_dec(tok[2]).value_or(6) : 6;
    if (a) {
      cmd_disas(*a & ~7u, n);
    } else {
      out_ << "error: no address\n";
    }
  } else if (cmd == "sym" && tok.size() >= 2) {
    if (const auto a = dbg_.lookup(tok[1])) {
      out_ << tok[1] << " = 0x" << std::hex << *a << std::dec << "\n";
    } else {
      out_ << "unknown symbol: " << tok[1] << "\n";
    }
  } else if (cmd == "trace" && tok.size() >= 2) {
    if (tok[1] == "on" || tok[1] == "off") {
      out_ << (dbg_.trace_enable(tok[1] == "on") ? "ok\n"
                                                 : "error: no tracer\n");
    } else if (tok[1] == "show") {
      const unsigned n =
          tok.size() >= 3 ? parse_dec(tok[2]).value_or(8) : 8;
      for (const auto& l : dbg_.fetch_trace(n)) out_ << "  " << l << "\n";
    } else {
      out_ << "error: trace on|off|show [n]\n";
    }
  } else if (cmd == "exits") {
    // vmm.exit_<kind>.{count,cycles,max_cycles} per exit kind, in enum
    // order, each kind's count before its cycles.
    const std::string family = "vmm.exit_";
    const auto stats = dbg_.metrics(family);
    if (!stats || stats->empty()) {
      out_ << "error: no exit stats\n";
    } else {
      if (const auto sbc = dbg_.metric("cpu.sbc.enabled")) {
        out_ << "  tier: " << (*sbc != 0 ? "superblock" : "interp") << "\n";
      }
      out_ << "  kind      count       cycles   mean\n";
      u64 count = 0;
      for (const auto& m : *stats) {
        const auto dot = m.name.rfind('.');
        const std::string field = m.name.substr(dot + 1);
        if (field == "count") count = u64(m.value);
        if (field != "cycles" || count == 0) continue;
        const u64 cycles = u64(m.value);
        out_ << "  " << std::left << std::setw(8)
             << m.name.substr(family.size(), dot - family.size())
             << std::right << std::setw(9) << count << std::setw(13)
             << cycles << std::setw(7) << (cycles / count) << "\n";
      }
    }
  } else if (cmd == "metrics") {
    const auto ms =
        dbg_.metrics(tok.size() >= 2 ? tok[1] : std::string());
    if (!ms) {
      out_ << "error: no metrics registry\n";
    } else if (ms->empty()) {
      out_ << "  (no matching metrics)\n";
    } else {
      for (const auto& m : *ms) {
        out_ << "  " << std::left << std::setw(36) << m.name << std::right;
        if (m.kind == 'c') {
          out_ << std::setw(14) << u64(m.value) << "\n";
        } else {
          out_ << std::setw(14) << std::fixed << std::setprecision(4)
               << m.value << std::defaultfloat << "\n";
        }
      }
    }
  } else if (cmd == "profile") {
    // profile [n] | profile folded | profile start <interval> | profile stop
    if (tok.size() >= 2 && tok[1] == "start") {
      const auto interval =
          tok.size() >= 3 ? parse_dec(tok[2]) : std::optional<unsigned>(10000);
      if (!interval || *interval == 0) {
        out_ << "error: profile start <interval>\n";
      } else if (dbg_.profile_start(*interval)) {
        out_ << "profiler armed: 1 sample per " << *interval
             << " instructions\n";
      } else {
        out_ << "error: profiler refused\n";
      }
    } else if (tok.size() >= 2 && tok[1] == "stop") {
      out_ << (dbg_.profile_stop() ? "profiler disarmed\n"
                                   : "error: profiler refused\n");
    } else if (tok.size() >= 2 && tok[1] == "folded") {
      // Folded-stack text (flamegraph input): "frame count" per line. The
      // target has no unwinder, so each sample is a one-frame stack named
      // by its symbolized PC.
      const auto prof = dbg_.profile(0xffff);
      if (!prof) {
        out_ << "error: no profiler\n";
      } else {
        for (const auto& e : *prof) {
          out_ << dbg_.describe(e.pc) << " " << e.count << "\n";
        }
      }
    } else {
      const auto n = tok.size() >= 2 ? parse_dec(tok[1])
                                     : std::optional<unsigned>(10);
      const auto prof = n ? dbg_.profile(*n) : std::nullopt;
      // Shares are of every sample taken, not of the rows fetched; the
      // count is read after the rows, so it covers them.
      const auto total =
          prof ? dbg_.metric("cpu.profile.samples") : std::nullopt;
      if (!n) {
        out_ << "error: profile [n|folded|start <interval>|stop]\n";
      } else if (!prof || !total) {
        out_ << "error: no profiler\n";
      } else if (prof->empty()) {
        out_ << "  (no samples)\n";
      } else {
        out_ << "  samples   %     pc\n";
        for (const auto& e : *prof) {
          out_ << "  " << std::setw(7) << e.count << std::setw(6)
               << std::fixed << std::setprecision(1)
               << (100.0 * double(e.count) / *total)
               << std::defaultfloat << "  0x" << std::hex << std::setw(8)
               << std::setfill('0') << e.pc << std::dec << std::setfill(' ')
               << "  " << dbg_.describe(e.pc) << "\n";
        }
      }
    }
  } else if (cmd == "history" && tok.size() >= 2) {
    const auto pts = dbg_.metrics_history(tok[1]);
    if (!pts) {
      out_ << "error: no flight loop\n";
    } else if (pts->empty()) {
      out_ << "  (metric never sampled)\n";
    } else {
      out_ << "  icount          " << tok[1] << "\n";
      for (const auto& p : *pts) {
        out_ << "  " << std::left << std::setw(14) << p.icount << std::right
             << std::setw(16) << std::fixed << std::setprecision(4) << p.value
             << std::defaultfloat << "\n";
      }
    }
  } else if (cmd == "window") {
    // Both ends come from one read, so they describe the same instant.
    const auto w = dbg_.metrics("vmm.flight.window_")
                       .value_or(std::vector<RemoteMetric>{});
    const auto begin = find_metric(w, "vmm.flight.window_begin");
    const auto len = find_metric(w, "vmm.flight.window_instructions");
    if (!begin || !len) {
      out_ << "error: no flight loop\n";
    } else {
      out_ << "replayable window: instructions " << u64(*begin) << ".."
           << u64(*begin + *len) << " (" << u64(*len) << " total)\n";
    }
  } else if (cmd == "dump") {
    const auto paths = dbg_.flight_dump();
    if (!paths) {
      out_ << "error: no flight recorder\n";
    } else {
      out_ << "flight bundle written:\n  " << paths->first << "\n  "
           << paths->second << "\n";
    }
  } else if (cmd == "status") {
    const auto health = dbg_.metrics("vmm.health.")
                            .value_or(std::vector<RemoteMetric>{});
    const auto crashed = find_metric(health, "vmm.health.guest_crashed");
    const auto intact = find_metric(health, "vmm.health.monitor_intact");
    out_ << "last stop: "
         << (dbg_.last_stop().empty() ? "(none)" : dbg_.last_stop()) << "\n"
         << "crashed:   " << (crashed.value_or(0) != 0 ? "yes" : "no") << "\n"
         << "monitor:   " << (intact.value_or(0) != 0 ? "intact" : "CORRUPT")
         << "\n";
  } else {
    out_ << "unknown command: " << cmd << " (try 'help')\n";
  }
  return true;
}

void DebuggerCli::run(std::istream& in, bool echo) {
  std::string line;
  while (std::getline(in, line)) {
    if (echo) out_ << "(vdbg) " << line << "\n";
    if (!execute(line)) break;
  }
}

}  // namespace vdbg::debug
