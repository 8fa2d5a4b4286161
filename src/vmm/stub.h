// Remote-debugging stub embedded in the lightweight monitor.
//
// This is the paper's "remote debugging functions" box: it receives
// debugging commands over the communication device (the UART the monitor
// owns), executes them against the guest (memory/register access,
// breakpoints, single-stepping, run control), and reports stop events — all
// without any cooperation from the OS under debug, and surviving arbitrary
// guest misbehaviour. Breakpoints, write watchpoints and steps live in the
// CPU's monitor debug state (Cpu::arm_breakpoint, Cpu::arm_watchpoint,
// Cpu::set_debug_step), never in guest memory, the guest PSW or its page
// tables, so the guest cannot see them: `m` reads back the real bytes, an
// armed watch costs the guest no cycle until it hits, and snapshots,
// checkpoints and forks carry none of it.
//
// Wire protocol: GDB remote-serial-protocol framing ($data#xx with '+'/'-'
// acks, 0x03 break-in) and the classic command set:
//   ?  g  G  p  P  m  M  c  s  Z0  z0  qSupported  qAttached  k
//   Z2,<addr>,<len> / z2  -> arm / drop a write watchpoint over guest-virtual
//                           [addr, addr+len); a hit stops with
//                           "T05watch:<addr>;" after the store retires.
//                           E01 for a range that is empty or wraps past
//                           2^32, E03 for z2 of a range not armed
// reverse execution (needs an attached TimeTravel controller):
//   bc  bs               -> reverse continue / reverse step, reply is a
//                           stop packet for the landing position
// plus custom queries:
//   qVdbg.Crashed        -> "1"/"0"
//   qVdbg.Exits          -> decimal VM-exit count
//   qVdbg.ExitStats      -> "<kind>:<count>:<cycles>;..." per exit kind
//   qVdbg.MonitorIntact  -> "1"/"0" (canary check)
//   qVdbg.Icount         -> decimal retired guest instructions
//   qVdbg.Tier           -> enabled execution path:
//                           "interp" / "superblock"
//   qVdbg.Checkpoint     -> take a checkpoint now ("OK")
//   qVdbg.Checkpoints    -> decimal checkpoints held in the ring
//   qVdbg.Snapshot.Save  -> serialise full state into the host-side slot
//   qVdbg.Snapshot.Load  -> restore the slot ("OK"/"E03")
//   qVdbg.Metrics[,pfx]  -> "name=c:<u64>;name=g:<double>;..." from the
//                           attached registry, optionally filtered to names
//                           starting with pfx (histograms are skipped; "OK"
//                           when nothing matches)
//   qVdbg.FlightDump     -> write a flight-recorder bundle, reply is
//                           "<summary_path>;<trace_path>"
//   qVdbg.Profile[,n]    -> top-n (default 10) hot guest PCs from the
//                           deterministic sampling profiler:
//                           "<hexpc>:<count>;..." sorted hottest-first
//   qVdbg.Profile.Start,<hexInterval>
//                        -> (re)arm the profiler at one sample per
//                           `interval` retired instructions ("OK")
//   qVdbg.Profile.Stop   -> disarm the profiler ("OK")
//   qVdbg.MetricsHistory,<name>[,n]
//                        -> last n (default all) flight-loop time-series
//                           points for one metric:
//                           "<icount>:<value>;..." oldest first
//   qVdbg.FlightWindow   -> "<begin_icount>:<end_icount>" instructions
//                           currently replayable from the flight loop
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include <vector>

#include "common/metrics.h"
#include "hw/uart.h"
#include "vmm/lvmm.h"

namespace vdbg::vmm {

class FlightLoop;
class FlightRecorder;
class TimeTravel;

class DebugStub final : public DebugDelegate {
 public:
  DebugStub(Lvmm& monitor, hw::Uart& uart);

  /// Registers with the monitor and the machine, enables UART interrupts.
  void attach();

  /// Attaches the time-travel controller behind the `bc`/`bs` packets and
  /// the qVdbg.Snapshot/Checkpoint queries. Pass nullptr to detach.
  void set_time_travel(TimeTravel* tt) { tt_ = tt; }

  /// Attaches the metrics registry behind qVdbg.Metrics (nullptr detaches).
  void set_metrics(const MetricsRegistry* reg) { metrics_ = reg; }
  /// Host-side extension hook for qVdbg.* queries the stub itself does not
  /// implement (the fleet layer installs the multiverse commands here).
  /// Return nullopt to fall through to the default empty reply.
  using QueryHook =
      std::function<std::optional<std::string>(const std::string&)>;
  void set_query_hook(QueryHook fn) { query_hook_ = std::move(fn); }
  /// Attaches the flight recorder behind qVdbg.FlightDump (nullptr
  /// detaches).
  void set_flight_recorder(FlightRecorder* fr) { flight_ = fr; }
  /// Attaches the continuous flight loop behind qVdbg.MetricsHistory and
  /// qVdbg.FlightWindow (nullptr detaches).
  void set_flight_loop(FlightLoop* fl) { flight_loop_ = fl; }

  // --- DebugDelegate ---
  void on_guest_stop(StopReason reason) override;
  void on_uart_activity() override;

  /// Drains RX, processes packets, pumps TX. Called from the monitor on
  /// UART interrupts and from the machine loop while the guest is frozen.
  void service();

  // --- introspection for tests ---
  bool target_stopped() const { return stopped_; }
  std::size_t breakpoint_count() const { return breakpoints_.size(); }
  u64 commands_executed() const { return commands_; }

 private:
  // Packet layer.
  void rx_byte(u8 b);
  void send_packet(const std::string& payload);
  void send_raw(char c);
  void pump_tx();

  // Command execution.
  void execute(const std::string& packet);
  std::string cmd_read_registers();
  std::string cmd_write_registers(const std::string& hex);
  std::string cmd_read_one_register(const std::string& args);
  std::string cmd_write_one_register(const std::string& args);
  std::string cmd_read_memory(const std::string& args);
  std::string cmd_write_memory(const std::string& args);
  std::string cmd_breakpoint(const std::string& args, bool insert);
  std::string cmd_query(const std::string& q);
  void do_continue();
  void do_step();
  void do_reverse(bool is_continue);
  /// Anchors a time-travel checkpoint at the stop an interactive resume
  /// leaves, so the window to the next stop is free of debugger wire
  /// traffic.
  void checkpoint_on_resume();
  void report_stop(const std::string& reply);
  /// Stop packet for a freeze: S05, S0b (crash) or T05watch:<addr>;.
  std::string stop_reply(StopReason reason) const;

  Lvmm& mon_;
  hw::Uart& uart_;

  // RSP receive state machine.
  enum class RxState { kIdle, kPayload, kCsum1, kCsum2 } rx_state_ =
      RxState::kIdle;
  std::string rx_buf_;
  u8 rx_csum_ = 0;
  char rx_csum_hi_ = 0;

  std::deque<u8> tx_queue_;

  /// addr -> physical address armed in the CPU (breakpoints are physical,
  /// like the code they stop).
  std::map<VAddr, PAddr> breakpoints_;

  TimeTravel* tt_ = nullptr;
  const MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  FlightLoop* flight_loop_ = nullptr;
  QueryHook query_hook_;
  /// Host-side slot for qVdbg.Snapshot.Save/Load.
  std::vector<u8> snapshot_slot_;

  bool stopped_ = false;  // guest frozen by us

  u64 commands_ = 0;
};

}  // namespace vdbg::vmm
