#include "debug/remote_debugger.h"

#include <algorithm>
#include <cstdio>

#include "common/hexdump.h"
#include "cpu/disasm.h"

namespace vdbg::debug {

namespace {

u8 checksum(const std::string& s) {
  unsigned sum = 0;
  for (char c : s) sum += static_cast<u8>(c);
  return static_cast<u8>(sum & 0xff);
}

std::string hex_u32(u32 v) {
  char buf[12];
  std::snprintf(buf, sizeof buf, "%x", v);
  return buf;
}

std::optional<u32> reg_unhex(std::string_view s) {
  auto bytes = from_hex(s);
  if (!bytes || bytes->size() != 4) return std::nullopt;
  return u32((*bytes)[0]) | (u32((*bytes)[1]) << 8) |
         (u32((*bytes)[2]) << 16) | (u32((*bytes)[3]) << 24);
}

std::string reg_hex(u32 v) {
  const u8 b[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
                   static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
  return to_hex(b);
}

constexpr Cycles kDefaultBudget = 50'000'000;  // ~40 ms of target time

/// Items of a `sep`-separated reply, empty ones included; an empty reply
/// has none.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const auto end = s.find(sep, start);
    out.push_back(s.substr(start, end == std::string::npos
                                      ? std::string::npos
                                      : end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

}  // namespace

std::optional<double> find_metric(const std::vector<RemoteMetric>& ms,
                                  std::string_view name) {
  for (const RemoteMetric& m : ms) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

RemoteDebugger::RemoteDebugger(hw::Machine& machine) : machine_(machine) {
  machine_.uart().set_tx_sink([this](u8 b) { on_rx_byte(b); });
}

void RemoteDebugger::on_rx_byte(u8 b) {
  switch (rx_state_) {
    case 0:
      if (b == '$') {
        rx_state_ = 1;
        rx_buf_.clear();
      }
      return;  // '+' / '-' acks ignored
    case 1:
      if (b == '#') {
        rx_state_ = 2;
      } else {
        rx_buf_.push_back(static_cast<char>(b));
      }
      return;
    case 2:
      rx_state_ = 3;
      return;
    case 3:
      rx_state_ = 0;
      // Checksum verification elided on the host side (lossless channel);
      // the stub-side check exercises the framing.
      rx_packets_.push_back(rx_buf_);
      return;
    default:
      rx_state_ = 0;
      return;
  }
}

void RemoteDebugger::send_frame(const std::string& payload) {
  ++packets_sent_;
  std::string wire = "$" + payload + "#";
  char buf[3];
  std::snprintf(buf, sizeof buf, "%02x", checksum(payload));
  wire += buf;
  for (char c : wire) machine_.uart().host_inject(static_cast<u8>(c));
}

std::optional<std::string> RemoteDebugger::wait_packet(Cycles budget) {
  const Cycles deadline = machine_.now() + budget;
  while (rx_packets_.empty() && machine_.now() < deadline) {
    const auto r = machine_.run_for(
        std::min<Cycles>(deadline - machine_.now(), 2'000'000));
    if (r == hw::Machine::StopReason::kGuestExit ||
        r == hw::Machine::StopReason::kShutdown ||
        r == hw::Machine::StopReason::kIdleDeadlock) {
      machine_exited_ = true;
      break;
    }
  }
  if (rx_packets_.empty()) return std::nullopt;
  std::string p = rx_packets_.front();
  rx_packets_.pop_front();
  return p;
}

std::optional<std::string> RemoteDebugger::transact(const std::string& cmd,
                                                    Cycles budget) {
  rx_packets_.clear();
  send_frame(cmd);
  return wait_packet(budget);
}

bool RemoteDebugger::connect() {
  const auto r = transact("qSupported", kDefaultBudget);
  return r && r->rfind("PacketSize", 0) == 0;
}

std::optional<TargetRegs> RemoteDebugger::read_registers() {
  const auto r = transact("g", kDefaultBudget);
  if (!r || r->size() != 10 * 8) return std::nullopt;
  TargetRegs regs;
  for (unsigned i = 0; i < 10; ++i) {
    const auto v = reg_unhex(std::string_view(*r).substr(i * 8, 8));
    if (!v) return std::nullopt;
    if (i < 8) {
      regs.r[i] = *v;
    } else if (i == 8) {
      regs.pc = *v;
    } else {
      regs.psw = *v;
    }
  }
  return regs;
}

bool RemoteDebugger::write_register(unsigned index, u32 value) {
  const auto r =
      transact("P" + hex_u32(index) + "=" + reg_hex(value), kDefaultBudget);
  return r && *r == "OK";
}

std::optional<std::vector<u8>> RemoteDebugger::read_memory(u32 addr,
                                                           u32 len) {
  std::vector<u8> out;
  out.reserve(len);
  while (len > 0) {
    const u32 chunk = std::min<u32>(len, 0x800);
    const auto r = transact("m" + hex_u32(addr) + "," + hex_u32(chunk),
                            kDefaultBudget);
    if (!r) return std::nullopt;
    const auto bytes = from_hex(*r);
    if (!bytes || bytes->size() != chunk) return std::nullopt;
    out.insert(out.end(), bytes->begin(), bytes->end());
    addr += chunk;
    len -= chunk;
  }
  return out;
}

bool RemoteDebugger::write_memory(u32 addr, std::span<const u8> data) {
  // Chunked like read_memory: the stub caps each M transaction well below
  // its PacketSize, so large downloads go out as multiple transactions.
  std::size_t done = 0;
  while (done < data.size()) {
    const u32 chunk =
        std::min<u32>(static_cast<u32>(data.size() - done), 0x800);
    const auto r = transact("M" + hex_u32(addr) + "," + hex_u32(chunk) + ":" +
                                to_hex(data.subspan(done, chunk)),
                            kDefaultBudget);
    if (!r || *r != "OK") return false;
    addr += chunk;
    done += chunk;
  }
  return true;
}

bool RemoteDebugger::set_breakpoint(u32 addr) {
  const auto r = transact("Z0," + hex_u32(addr) + ",8", kDefaultBudget);
  return r && *r == "OK";
}

bool RemoteDebugger::clear_breakpoint(u32 addr) {
  const auto r = transact("z0," + hex_u32(addr) + ",8", kDefaultBudget);
  return r && *r == "OK";
}

RemoteDebugger::StopKind RemoteDebugger::classify(
    const std::optional<std::string>& reply, bool machine_exited) {
  if (!reply) {
    return machine_exited ? StopKind::kGuestExit : StopKind::kTimeout;
  }
  if (*reply == "S0b") return StopKind::kCrash;
  return StopKind::kBreak;
}

bool RemoteDebugger::set_watchpoint(u32 addr, u32 len) {
  const auto r = transact("Z2," + hex_u32(addr) + "," + hex_u32(len),
                          kDefaultBudget);
  return r && *r == "OK";
}

bool RemoteDebugger::clear_watchpoint(u32 addr, u32 len) {
  const auto r = transact("z2," + hex_u32(addr) + "," + hex_u32(len),
                          kDefaultBudget);
  return r && *r == "OK";
}

std::optional<u32> RemoteDebugger::watch_address() const {
  const auto pos = last_stop_.find("watch:");
  if (pos == std::string::npos) return std::nullopt;
  const auto end = last_stop_.find(';', pos);
  const std::string hex = last_stop_.substr(
      pos + 6, end == std::string::npos ? std::string::npos : end - pos - 6);
  u32 v = 0;
  for (char c : hex) {
    const auto d = from_hex(std::string(1, '0') + c);
    if (!d) return std::nullopt;
    v = (v << 4) | (*d)[0];
  }
  return v;
}

bool RemoteDebugger::trace_enable(bool on) {
  const auto r = query(on ? "Vdbg.TraceOn" : "Vdbg.TraceOff");
  return r && *r == "OK";
}

std::vector<std::string> RemoteDebugger::fetch_trace(unsigned n) {
  const auto r = query("Vdbg.Trace," + hex_u32(n));
  if (!r || *r == "E01") return {};
  return split(*r, ';');
}

RemoteDebugger::StopKind RemoteDebugger::continue_and_wait(Cycles budget) {
  machine_exited_ = false;
  const auto r = transact("c", budget);
  if (r) last_stop_ = *r;
  return classify(r, machine_exited_);
}

RemoteDebugger::StopKind RemoteDebugger::step(Cycles budget) {
  machine_exited_ = false;
  const auto r = transact("s", budget);
  if (r) last_stop_ = *r;
  return classify(r, machine_exited_);
}

RemoteDebugger::StopKind RemoteDebugger::interrupt(Cycles budget) {
  machine_exited_ = false;
  rx_packets_.clear();
  machine_.uart().host_inject(u8{0x03});
  const auto r = wait_packet(budget);
  if (r) last_stop_ = *r;
  return classify(r, machine_exited_);
}

RemoteDebugger::StopKind RemoteDebugger::reverse_continue(Cycles budget) {
  machine_exited_ = false;
  const auto r = transact("bc", budget);
  if (r) last_stop_ = *r;
  if (r && !r->empty() && (*r)[0] == 'E') return StopKind::kError;
  return classify(r, machine_exited_);
}

RemoteDebugger::StopKind RemoteDebugger::reverse_step(Cycles budget) {
  machine_exited_ = false;
  const auto r = transact("bs", budget);
  if (r) last_stop_ = *r;
  if (r && !r->empty() && (*r)[0] == 'E') return StopKind::kError;
  return classify(r, machine_exited_);
}

std::optional<u64> RemoteDebugger::icount() {
  const auto n = metric("cpu.core.instructions");
  // Reject what no u64 counter can read (negative, NaN, >= 2^64) before
  // the conversion, which is undefined for such values.
  if (!n || !(*n >= 0.0 && *n < 0x1p64)) return std::nullopt;
  return static_cast<u64>(*n);
}

bool RemoteDebugger::take_checkpoint() {
  const auto r = query("Vdbg.Checkpoint");
  return r && *r == "OK";
}

bool RemoteDebugger::snapshot_save() {
  const auto r = query("Vdbg.Snapshot.Save");
  return r && *r == "OK";
}

bool RemoteDebugger::snapshot_load() {
  const auto r = query("Vdbg.Snapshot.Load");
  return r && *r == "OK";
}

std::optional<std::string> RemoteDebugger::query(const std::string& q) {
  return transact("q" + q, kDefaultBudget);
}

std::optional<std::vector<RemoteMetric>> RemoteDebugger::metrics(
    const std::string& prefix) {
  const auto r =
      query(prefix.empty() ? "Vdbg.Metrics" : "Vdbg.Metrics," + prefix);
  if (!r || r->empty() || r->rfind("E", 0) == 0) return std::nullopt;
  std::vector<RemoteMetric> out;
  if (*r == "OK") return out;  // nothing matched
  for (const std::string& item : split(*r, ';')) {
    // "name=c:<u64>" or "name=g:<double>"
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq + 2 >= item.size() ||
        (item[eq + 1] != 'c' && item[eq + 1] != 'g') ||
        item[eq + 2] != ':') {
      return std::nullopt;
    }
    RemoteMetric m;
    m.name = item.substr(0, eq);
    m.kind = item[eq + 1];
    try {
      m.value = std::stod(item.substr(eq + 3));
    } catch (...) {
      return std::nullopt;
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::optional<double> RemoteDebugger::metric(const std::string& name) {
  const auto ms = metrics(name);
  if (!ms) return std::nullopt;
  return find_metric(*ms, name);
}

std::optional<std::pair<std::string, std::string>>
RemoteDebugger::flight_dump() {
  const auto r = query("Vdbg.FlightDump");
  if (!r || r->empty() || r->rfind("E", 0) == 0) return std::nullopt;
  const auto sep = r->find(';');
  if (sep == std::string::npos) return std::nullopt;
  return std::make_pair(r->substr(0, sep), r->substr(sep + 1));
}

std::optional<std::vector<RemoteProfileEntry>> RemoteDebugger::profile(
    unsigned n) {
  char cmd[48];
  std::snprintf(cmd, sizeof cmd, "Vdbg.Profile,%x", n);
  const auto r = query(cmd);
  if (!r || r->empty() || r->rfind("E", 0) == 0) return std::nullopt;
  std::vector<RemoteProfileEntry> out;
  if (*r == "OK") return out;  // profiler attached, no samples yet
  for (const std::string& item : split(*r, ';')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return std::nullopt;
    RemoteProfileEntry e;
    try {
      e.pc = static_cast<u32>(std::stoul(item.substr(0, colon), nullptr, 16));
      e.count = std::stoull(item.substr(colon + 1));
    } catch (...) {
      return std::nullopt;
    }
    out.push_back(e);
  }
  return out;
}

bool RemoteDebugger::profile_start(u64 interval) {
  char cmd[48];
  std::snprintf(cmd, sizeof cmd, "Vdbg.Profile.Start,%llx",
                static_cast<unsigned long long>(interval));
  const auto r = query(cmd);
  return r && *r == "OK";
}

bool RemoteDebugger::profile_stop() {
  const auto r = query("Vdbg.Profile.Stop");
  return r && *r == "OK";
}

std::optional<std::vector<RemoteSeriesPoint>> RemoteDebugger::metrics_history(
    const std::string& name, unsigned n) {
  std::string cmd = "Vdbg.MetricsHistory," + name;
  if (n != 0) {
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, ",%x", n);
    cmd += suffix;
  }
  const auto r = query(cmd);
  if (!r || r->empty() || r->rfind("E", 0) == 0) return std::nullopt;
  std::vector<RemoteSeriesPoint> out;
  if (*r == "OK") return out;  // series attached, metric never sampled
  for (const std::string& item : split(*r, ';')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return std::nullopt;
    RemoteSeriesPoint p;
    try {
      p.icount = std::stoull(item.substr(0, colon));
      p.value = std::stod(item.substr(colon + 1));
    } catch (...) {
      return std::nullopt;
    }
    out.push_back(p);
  }
  return out;
}

std::optional<std::vector<RemoteTimeline>> RemoteDebugger::fork_timelines(
    unsigned k, u64 seed, const std::string& predicate) {
  std::string cmd = predicate.empty()
                        ? "Vdbg.Fork,"
                        : "Vdbg.Multiverse," + predicate + ",";
  cmd += std::to_string(k) + "," + std::to_string(seed);
  const auto r = query(cmd);
  if (!r || r->empty() || r->rfind("E", 0) == 0) return std::nullopt;
  // "<i>:<hit>:<stop>:<icount>:<perturb>|..."
  std::vector<RemoteTimeline> out;
  for (const std::string& item : split(*r, '|')) {
    const auto c1 = item.find(':');
    const auto c2 = item.find(':', c1 + 1);
    const auto c3 = item.find(':', c2 + 1);
    const auto c4 = item.find(':', c3 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos || c4 == std::string::npos) {
      return std::nullopt;
    }
    RemoteTimeline t;
    try {
      t.index = static_cast<unsigned>(std::stoul(item.substr(0, c1)));
      t.hit = item.substr(c1 + 1, c2 - c1 - 1) == "1";
      t.stop = item.substr(c2 + 1, c3 - c2 - 1);
      t.icount = std::stoull(item.substr(c3 + 1, c4 - c3 - 1));
      t.perturb = item.substr(c4 + 1);
    } catch (...) {
      return std::nullopt;
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::optional<BugTrapReport> RemoteDebugger::bug_trap(
    const std::string& predicate, unsigned k, u64 seed, unsigned rounds) {
  std::string cmd = "Vdbg.BugTrap," + predicate + "," + std::to_string(k) +
                    "," + std::to_string(seed);
  if (rounds != 0) cmd += "," + std::to_string(rounds);
  const auto r = query(cmd);
  if (!r || r->empty() || r->rfind("E", 0) == 0) return std::nullopt;
  BugTrapReport report;
  if (*r == "baseline-hit") {
    report.baseline_hit = true;
    return report;
  }
  // "found|rounds=<n>|minimal=<delta>|verified=<0/1>" or "none|rounds=<n>"
  const auto items = split(*r, '|');
  if (items[0] != "found" && items[0] != "none") return std::nullopt;
  report.found = items[0] == "found";
  for (std::size_t i = 1; i < items.size(); ++i) {
    const std::string& item = items[i];
    if (item.rfind("rounds=", 0) == 0) {
      try {
        report.rounds = static_cast<unsigned>(std::stoul(item.substr(7)));
      } catch (...) {
        return std::nullopt;
      }
    } else if (item.rfind("minimal=", 0) == 0) {
      report.minimal = item.substr(8);
    } else if (item.rfind("verified=", 0) == 0) {
      report.verified = item.substr(9) == "1";
    }
  }
  return report;
}

void RemoteDebugger::add_symbols(const vasm::Program& image) {
  for (const auto& [name, addr] : image.symbols) symbols_[name] = addr;
}

std::optional<u32> RemoteDebugger::lookup(const std::string& name) const {
  auto it = symbols_.find(name);
  if (it == symbols_.end()) return std::nullopt;
  return it->second;
}

std::string RemoteDebugger::describe(u32 addr) const {
  const std::string* best = nullptr;
  u32 best_addr = 0;
  for (const auto& [name, a] : symbols_) {
    if (a <= addr && (!best || a > best_addr)) {
      best = &name;
      best_addr = a;
    }
  }
  if (!best) return hex_u32(addr);
  if (best_addr == addr) return *best;
  char buf[80];
  std::snprintf(buf, sizeof buf, "%s+0x%x", best->c_str(), addr - best_addr);
  return buf;
}

std::vector<std::string> RemoteDebugger::disassemble(u32 addr,
                                                     unsigned count) {
  std::vector<std::string> out;
  const auto mem = read_memory(addr, count * cpu::kInstrBytes);
  if (!mem) return out;
  for (unsigned i = 0; i < count; ++i) {
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "%08x:  ",
                  addr + i * cpu::kInstrBytes);
    out.push_back(prefix +
                  cpu::disassemble(mem->data() + i * cpu::kInstrBytes));
  }
  return out;
}

}  // namespace vdbg::debug
