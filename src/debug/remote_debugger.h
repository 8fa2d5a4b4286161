// Host-side software remote debugger (the top box of the paper's Fig. 2.1).
//
// Speaks the RSP dialect of the monitor's stub over the simulated serial
// link: the debugger's transmit side injects bytes into the target UART's
// host end, and the UART's TX sink feeds the debugger's receiver. Because
// target time only advances when the simulation runs, every synchronous
// command drives Machine::run_for in slices until the reply (or a stop
// event) arrives — which is exactly what a blocking read on a serial port
// looks like from the host's point of view.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "asm/program.h"
#include "hw/machine.h"

namespace vdbg::debug {

struct TargetRegs {
  std::array<u32, 8> r{};
  u32 pc = 0;
  u32 psw = 0;
};

/// One parsed qVdbg.ExitStats entry: monitor cycles charged to one VM-exit
/// kind ("priv", "io", "pf", "softint", "irq", "bp", "step", "other").
struct RemoteExitStat {
  std::string kind;
  u64 count = 0;
  u64 cycles = 0;
};

/// One parsed qVdbg.Metrics entry: a monitor/device counter or gauge from
/// the target-side metrics registry.
struct RemoteMetric {
  std::string name;
  char kind = 'c';  // 'c' counter, 'g' gauge
  double value = 0.0;
};

/// One parsed qVdbg.Profile entry: a hot guest PC from the deterministic
/// sampling profiler.
struct RemoteProfileEntry {
  u32 pc = 0;
  u64 count = 0;
};

/// One parsed qVdbg.MetricsHistory point: a metric's value at one
/// flight-loop series capture (icount = retired guest instructions).
struct RemoteSeriesPoint {
  u64 icount = 0;
  double value = 0.0;
};

/// One parsed qVdbg.Fork/Multiverse timeline entry: a COW fork of the
/// stopped session's state, run forward under a deterministic perturbation.
struct RemoteTimeline {
  unsigned index = 0;
  bool hit = false;      // outcome predicate fired
  std::string stop;      // "budget"/"frozen"/"exit"/"shutdown"/...
  u64 icount = 0;        // retired guest instructions at the end
  std::string perturb;   // "irq0+120;nic+80" wire format, "none" = control
};

/// Parsed qVdbg.BugTrap reply: the minimal perturbation delta that flips
/// the outcome predicate, if the trap found one.
struct BugTrapReport {
  bool found = false;
  bool baseline_hit = false;  // bug fires unperturbed: nothing to isolate
  bool verified = false;      // minimal delta replayed twice bit-identically
  unsigned rounds = 0;
  std::string minimal;        // perturbation wire format
};

class RemoteDebugger {
 public:
  /// Wires the debugger to the machine's UART. The monitor's stub must be
  /// attached on the target side.
  explicit RemoteDebugger(hw::Machine& machine);

  /// qSupported handshake; true when the stub answers.
  bool connect();

  // --- state inspection (target must be stopped for consistent results) ---
  std::optional<TargetRegs> read_registers();
  bool write_register(unsigned index, u32 value);  // 0-7=r, 8=pc, 9=psw
  std::optional<std::vector<u8>> read_memory(u32 addr, u32 len);
  bool write_memory(u32 addr, std::span<const u8> data);

  // --- breakpoints & run control ---
  bool set_breakpoint(u32 addr);
  bool clear_breakpoint(u32 addr);
  /// Write watchpoint over guest-virtual [addr, addr+len) (stub Z2; armed in
  /// the target CPU's debug state, so it costs the guest nothing until a
  /// store hits it). False for a range that wraps past 2^32.
  bool set_watchpoint(u32 addr, u32 len = 4);
  bool clear_watchpoint(u32 addr, u32 len = 4);

  enum class StopKind : u8 {
    kBreak,     // S05: breakpoint or completed step
    kCrash,     // S0b: guest crashed (monitor survived)
    kGuestExit, // machine stopped because the guest exited
    kTimeout,
    kError,     // stub replied Exx (e.g. reverse with no history)
  };
  /// Resumes the guest and runs the simulation until the stub reports a
  /// stop or `budget` cycles elapse.
  StopKind continue_and_wait(Cycles budget);
  /// Executes one guest instruction.
  StopKind step(Cycles budget = 50'000'000);
  /// Asynchronous break-in (^C): freezes the guest wherever it is.
  StopKind interrupt(Cycles budget = 50'000'000);

  // --- reverse execution (stub needs an attached TimeTravel controller) ---
  /// Runs backwards to the previous breakpoint/watchpoint hit (stub `bc`).
  StopKind reverse_continue(Cycles budget = 50'000'000);
  /// Lands exactly one retired guest instruction earlier (stub `bs`).
  StopKind reverse_step(Cycles budget = 50'000'000);
  /// Retired guest instructions at the current stop (qVdbg.Icount).
  std::optional<u64> icount();
  /// Takes a checkpoint now / counts ring entries / saves or restores the
  /// stub's host-side full-state snapshot slot.
  bool take_checkpoint();
  std::optional<u64> checkpoint_count();
  bool snapshot_save();
  bool snapshot_load();

  /// Raw payload of the most recent stop packet ("S05", "T05watch:...").
  const std::string& last_stop() const { return last_stop_; }
  /// When the last stop was a watchpoint: the watched address hit.
  std::optional<u32> watch_address() const;

  /// Custom monitor queries.
  std::optional<std::string> query(const std::string& q);
  /// Enables/disables the monitor-side VM-exit tracer (if attached).
  bool trace_enable(bool on);
  /// Fetches the most recent `n` (<=16) formatted trace events.
  std::vector<std::string> fetch_trace(unsigned n = 8);
  bool target_crashed();
  bool monitor_intact();
  /// Per-exit-kind monitor counters (qVdbg.ExitStats); nullopt when the
  /// stub does not answer or the reply is malformed.
  std::optional<std::vector<RemoteExitStat>> exit_stats();
  /// Enabled execution path, "interp" / "superblock" (qVdbg.Tier);
  /// nullopt when the stub does not answer.
  std::optional<std::string> exec_tier();
  /// Metrics snapshot (qVdbg.Metrics), optionally filtered by name prefix.
  /// Empty vector when the registry has no matching entries; nullopt when
  /// no registry is attached or the reply is malformed.
  std::optional<std::vector<RemoteMetric>> metrics(
      const std::string& prefix = "");
  /// Asks the stub to write a flight-recorder bundle (qVdbg.FlightDump).
  /// Returns {summary_path, trace_path} on success.
  std::optional<std::pair<std::string, std::string>> flight_dump();

  // --- flight loop / profiler ---
  /// Top-n hot guest PCs (qVdbg.Profile); empty when no samples landed,
  /// nullopt when the stub does not answer.
  std::optional<std::vector<RemoteProfileEntry>> profile(unsigned n = 10);
  /// (Re)arms / disarms the deterministic PC sampling profiler.
  bool profile_start(u64 interval);
  bool profile_stop();
  /// One metric's flight-loop time series, oldest first
  /// (qVdbg.MetricsHistory). `n` 0 means "as many as fit one packet".
  std::optional<std::vector<RemoteSeriesPoint>> metrics_history(
      const std::string& name, unsigned n = 0);
  /// Replayable [begin, end] retired-instruction window of the flight loop.
  std::optional<std::pair<u64, u64>> flight_window();

  // --- multiverse (stub needs an attached fleet::MultiverseService) ---
  /// Forks `k` perturbed timelines from the current stop and runs them in
  /// parallel (qVdbg.Fork, or qVdbg.Multiverse when `predicate` is given,
  /// e.g. "crash", "frozen", "exit", "mailbox:<hexaddr>=<hexvalue>").
  /// Timeline 0 is the unperturbed control.
  std::optional<std::vector<RemoteTimeline>> fork_timelines(
      unsigned k, u64 seed, const std::string& predicate = "");
  /// Runs the automatic bug trap: explore perturbed timelines until one
  /// flips `predicate`, shrink to a minimal delta, verify determinism
  /// (qVdbg.BugTrap). `rounds` 0 keeps the service default.
  std::optional<BugTrapReport> bug_trap(const std::string& predicate,
                                        unsigned k, u64 seed,
                                        unsigned rounds = 0);

  // --- symbols ---
  void add_symbols(const vasm::Program& image);
  std::optional<u32> lookup(const std::string& name) const;
  /// "isr_timer+0x10"-style description of an address.
  std::string describe(u32 addr) const;

  /// Disassembles `count` instructions at `addr` (via target memory reads).
  std::vector<std::string> disassemble(u32 addr, unsigned count);

  u64 packets_sent() const { return packets_sent_; }

 private:
  void on_rx_byte(u8 b);
  void send_frame(const std::string& payload);
  /// Runs the machine until a packet arrives; nullopt on timeout/exit.
  std::optional<std::string> wait_packet(Cycles budget);
  std::optional<std::string> transact(const std::string& cmd, Cycles budget);
  static StopKind classify(const std::optional<std::string>& reply,
                           bool machine_exited);

  hw::Machine& machine_;
  std::deque<std::string> rx_packets_;
  std::string rx_buf_;
  int rx_state_ = 0;  // 0 idle, 1 payload, 2/3 checksum
  bool machine_exited_ = false;

  std::map<std::string, u32> symbols_;
  std::string last_stop_;
  u64 packets_sent_ = 0;
};

}  // namespace vdbg::debug
