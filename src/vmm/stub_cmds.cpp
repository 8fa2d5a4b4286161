// Debug-stub command implementations: register and memory access,
// breakpoints/watchpoints, and the qVdbg.* query family. The wire layer and
// dispatch live in stub.cpp.
#include "vmm/stub.h"

#include <algorithm>
#include <cstdio>

#include "common/hexdump.h"
#include "vmm/flight_loop.h"
#include "vmm/flight_recorder.h"
#include "vmm/time_travel.h"

namespace vdbg::vmm {

namespace {

std::optional<u32> parse_hex_u32(std::string_view s) {
  if (s.empty() || s.size() > 8) return std::nullopt;
  u32 v = 0;
  for (char c : s) {
    auto d = hex_digit(c);
    if (!d) return std::nullopt;
    v = (v << 4) | *d;
  }
  return v;
}

/// Little-endian hex encoding of a 32-bit value (GDB register order).
std::string reg_hex(u32 v) {
  const u8 b[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
                   static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
  return to_hex(b);
}

std::optional<u32> reg_unhex(std::string_view s) {
  auto bytes = from_hex(s);
  if (!bytes || bytes->size() != 4) return std::nullopt;
  return u32((*bytes)[0]) | (u32((*bytes)[1]) << 8) |
         (u32((*bytes)[2]) << 16) | (u32((*bytes)[3]) << 24);
}

// Register file exposed over the wire: r0..r6, sp, pc, psw.
constexpr unsigned kWireRegs = 10;

/// A counter or gauge sample's value as the metric replies carry it.
std::string wire_value(const MetricsRegistry::Sample& s) {
  if (s.kind == MetricKind::kCounter) return std::to_string(s.value);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", s.number);
  return buf;
}

}  // namespace

std::string DebugStub::cmd_read_registers() {
  const auto& s = mon_.machine().cpu().state();
  std::string out;
  for (unsigned i = 0; i < 8; ++i) out += reg_hex(s.regs[i]);
  out += reg_hex(s.pc);
  out += reg_hex(s.psw);
  return out;
}

std::string DebugStub::cmd_write_registers(const std::string& hex) {
  if (hex.size() != kWireRegs * 8) return "E01";
  auto& s = mon_.machine().cpu().state();
  for (unsigned i = 0; i < kWireRegs; ++i) {
    const auto v = reg_unhex(std::string_view(hex).substr(i * 8, 8));
    if (!v) return "E01";
    if (i < 8) {
      s.regs[i] = *v;
    } else if (i == 8) {
      s.pc = *v;
    } else {
      s.psw = *v;
    }
  }
  return "OK";
}

std::string DebugStub::cmd_read_one_register(const std::string& args) {
  const auto n = parse_hex_u32(args);
  if (!n || *n >= kWireRegs) return "E01";
  const auto& s = mon_.machine().cpu().state();
  const u32 v = *n < 8 ? s.regs[*n] : (*n == 8 ? s.pc : s.psw);
  return reg_hex(v);
}

std::string DebugStub::cmd_write_one_register(const std::string& args) {
  const auto eq = args.find('=');
  if (eq == std::string::npos) return "E01";
  const auto n = parse_hex_u32(args.substr(0, eq));
  const auto v = reg_unhex(args.substr(eq + 1));
  if (!n || !v || *n >= kWireRegs) return "E01";
  auto& s = mon_.machine().cpu().state();
  if (*n < 8) {
    s.regs[*n] = *v;
  } else if (*n == 8) {
    s.pc = *v;
  } else {
    s.psw = *v;
  }
  return "OK";
}

std::string DebugStub::cmd_read_memory(const std::string& args) {
  const auto comma = args.find(',');
  if (comma == std::string::npos) return "E01";
  const auto addr = parse_hex_u32(args.substr(0, comma));
  const auto len = parse_hex_u32(args.substr(comma + 1));
  if (!addr || !len || *len > 0x1000) return "E01";
  std::vector<u8> buf(*len);
  if (!mon_.guest_read(*addr, buf)) return "E03";
  return to_hex(buf);
}

std::string DebugStub::cmd_write_memory(const std::string& args) {
  const auto comma = args.find(',');
  const auto colon = args.find(':');
  if (comma == std::string::npos || colon == std::string::npos) return "E01";
  const auto addr = parse_hex_u32(args.substr(0, comma));
  const auto len = parse_hex_u32(args.substr(comma + 1, colon - comma - 1));
  const auto bytes = from_hex(std::string_view(args).substr(colon + 1));
  if (!addr || !len || !bytes || bytes->size() != *len) return "E01";
  if (!mon_.guest_write(*addr, *bytes)) return "E03";
  return "OK";
}

std::string DebugStub::cmd_breakpoint(const std::string& args, bool insert) {
  // Format: <type>,<addr>,<kind>. Type 0 = software breakpoint, type 2 =
  // write watchpoint (kind = watched length). Both are the CPU's monitor
  // debug state; nothing is written into the guest.
  if (args.size() < 2 || args[1] != ',') return "";
  const char type = args[0];
  const auto comma = args.find(',', 2);
  const auto addr =
      parse_hex_u32(args.substr(2, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - 2));
  if (!addr) return "E01";
  auto& cpu = mon_.machine().cpu();

  if (type == '2') {
    u32 len = 4;
    if (comma != std::string::npos) {
      const auto parsed = parse_hex_u32(args.substr(comma + 1));
      if (!parsed || *parsed == 0) return "E01";
      len = *parsed;
    }
    // A range wrapping past 2^32 could never hit.
    if (insert) return cpu.arm_watchpoint(*addr, len) ? "OK" : "E01";
    return cpu.disarm_watchpoint(*addr, len) ? "OK" : "E03";
  }
  if (type != '0') return "";  // other kinds unsupported

  if (*addr & (cpu::kInstrBytes - 1)) return "E02";  // must be aligned
  const auto it = breakpoints_.find(*addr);
  if (insert) {
    if (it != breakpoints_.end()) return "OK";
    PAddr pa = 0;
    if (!mon_.guest_va_to_pa(*addr, /*write=*/false, pa)) return "E03";
    breakpoints_.emplace(*addr, pa);
    cpu.arm_breakpoint(pa);
    return "OK";
  }
  if (it == breakpoints_.end()) return "OK";
  const PAddr pa = it->second;
  breakpoints_.erase(it);
  // Another address may alias the same physical instruction.
  if (std::none_of(breakpoints_.begin(), breakpoints_.end(),
                   [pa](const auto& bp) { return bp.second == pa; })) {
    cpu.disarm_breakpoint(pa);
  }
  return "OK";
}

std::string DebugStub::cmd_query(const std::string& q) {
  if (q.rfind("Supported", 0) == 0) return "PacketSize=1000";
  if (q == "Attached") return "1";
  if (q == "Vdbg.TraceOn" || q == "Vdbg.TraceOff") {
    if (!mon_.tracer()) return "E01";
    mon_.tracer()->set_enabled(q == "Vdbg.TraceOn");
    return "OK";
  }
  if (q == "Vdbg.Checkpoint") {
    if (!tt_) return "E01";
    return tt_->checkpoint_now() ? "OK" : "E03";
  }
  if (q == "Vdbg.Snapshot.Save") {
    if (!tt_) return "E01";
    snapshot_slot_ = tt_->save_state();
    return snapshot_slot_.empty() ? "E03" : "OK";
  }
  if (q == "Vdbg.Snapshot.Load") {
    if (!tt_ || snapshot_slot_.empty()) return "E01";
    return tt_->load_state(snapshot_slot_) ? "OK" : "E03";
  }
  if (q == "Vdbg.Metrics" || q.rfind("Vdbg.Metrics,", 0) == 0) {
    std::string_view prefix;
    if (q.size() > 12) {
      prefix = std::string_view(q).substr(13);
      if (prefix.empty()) return "E01";  // "qVdbg.Metrics," with no prefix
    }
    // "name=c:<u64>" for counters, "name=g:<double>" for gauges; histogram
    // buckets do not fit the line format and are left to qVdbg.FlightDump.
    std::string out;
    for (const auto& s : metrics_.snapshot(false, prefix)) {
      if (s.kind == MetricKind::kHistogram) continue;
      if (!out.empty()) out.push_back(';');
      out += s.name;
      out += s.kind == MetricKind::kCounter ? "=c:" : "=g:";
      out += wire_value(s);
    }
    return out.empty() ? "OK" : out;
  }
  if (q == "Vdbg.FlightDump") {
    if (!flight_) return "E01";
    std::string summary, trace;
    if (!flight_->dump("rsp-request", &summary, &trace)) return "E03";
    return summary + ";" + trace;
  }
  if (q.rfind("Vdbg.Trace,", 0) == 0) {
    if (!mon_.tracer()) return "E01";
    const auto n = parse_hex_u32(q.substr(11));
    if (!n || *n > 16) return "E01";
    std::string out;
    for (const auto& e : mon_.tracer()->tail(*n)) {
      if (!out.empty()) out.push_back(';');
      out += vmm::ExitTracer::format(e);
    }
    return out;
  }
  if (q.rfind("Vdbg.Profile.Start,", 0) == 0) {
    const auto interval = parse_hex_u32(q.substr(19));
    if (!interval || *interval == 0) return "E01";
    auto& cpu = mon_.machine().cpu();
    cpu.profiler().configure(*interval, cpu.stats().instructions);
    return "OK";
  }
  if (q == "Vdbg.Profile.Stop") {
    auto& cpu = mon_.machine().cpu();
    cpu.profiler().configure(0, cpu.stats().instructions);
    return "OK";
  }
  if (q == "Vdbg.Profile" || q.rfind("Vdbg.Profile,", 0) == 0) {
    std::size_t n = 10;
    if (q.size() > 12) {
      const auto parsed = parse_hex_u32(q.substr(13));
      if (!parsed || *parsed == 0) return "E01";
      n = *parsed;
    }
    // "<hexpc>:<count>;..." hottest first; "OK" when no samples landed.
    std::string out;
    for (const auto& [pc, count] : mon_.machine().cpu().profiler().top(n)) {
      if (!out.empty()) out.push_back(';');
      char buf[32];
      std::snprintf(buf, sizeof buf, "%08x:", pc);
      out += buf;
      out += std::to_string(count);
    }
    return out.empty() ? "OK" : out;
  }
  if (q.rfind("Vdbg.MetricsHistory,", 0) == 0) {
    if (!flight_loop_) return "E01";
    std::string name = q.substr(20);
    std::size_t n = ~std::size_t{0};
    if (const auto comma = name.rfind(','); comma != std::string::npos) {
      const auto parsed = parse_hex_u32(name.substr(comma + 1));
      if (!parsed || *parsed == 0) return "E01";
      n = *parsed;
      name.resize(comma);
    }
    if (name.empty()) return "E01";
    // "<icount>:<value>;..." oldest first, trimmed from the front so the
    // reply always fits the advertised packet size.
    std::vector<std::string> fields;
    for (const auto& [icount, s] : flight_loop_->series().history(name, n)) {
      fields.push_back(std::to_string(icount) + ":" + wire_value(s));
    }
    if (fields.empty()) return "OK";
    std::size_t bytes = 0;
    std::size_t first = fields.size();
    while (first > 0 && bytes + fields[first - 1].size() + 1 < 3900) {
      bytes += fields[--first].size() + 1;
    }
    std::string out;
    for (std::size_t i = first; i < fields.size(); ++i) {
      if (!out.empty()) out.push_back(';');
      out += fields[i];
    }
    return out;
  }
  if (query_hook_) {
    if (auto reply = query_hook_(q)) return *reply;
  }
  return "";
}

}  // namespace vdbg::vmm
