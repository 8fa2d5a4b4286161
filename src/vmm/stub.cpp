// Debug-stub wire layer: RSP framing, the receive state machine, the
// DebugDelegate callbacks and run control. Command implementations (the
// bodies behind execute()'s dispatch) live in stub_cmds.cpp.
#include "vmm/stub.h"

#include <cstdio>

#include "common/hexdump.h"
#include "vmm/time_travel.h"

namespace vdbg::vmm {

namespace {

u8 checksum(const std::string& s) {
  unsigned sum = 0;
  for (char c : s) sum += static_cast<u8>(c);
  return static_cast<u8>(sum & 0xff);
}

}  // namespace

DebugStub::DebugStub(Lvmm& monitor, hw::Uart& uart,
                     const MetricsRegistry& metrics)
    : mon_(monitor), uart_(uart), metrics_(metrics) {}

void DebugStub::attach() {
  mon_.set_debug_delegate(this);
  mon_.machine().set_frozen_service([this] { service(); });
  // Enable RX-available and TX-empty interrupts on the monitor's UART.
  uart_.io_write(1, 0x03);
}

// --------------------------------------------------------------------------
// DebugDelegate
// --------------------------------------------------------------------------

void DebugStub::on_guest_stop(StopReason reason) {
  stopped_ = true;
  report_stop(stop_reply(reason));
}

std::string DebugStub::stop_reply(StopReason reason) const {
  switch (reason) {
    case StopReason::kCrash:
      return "S0b";
    case StopReason::kWatchpoint: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "T05watch:%x;",
                    mon_.machine().cpu().last_watch_hit().va);
      return buf;
    }
    default:  // breakpoint, completed step, break-in
      return "S05";
  }
}

void DebugStub::on_uart_activity() { service(); }

// --------------------------------------------------------------------------
// Packet layer
// --------------------------------------------------------------------------

void DebugStub::service() {
  // Acknowledge the pending interrupt source (reading IIR clears a THRE
  // indication; without this the transmit-empty level would storm).
  (void)uart_.io_read(2);
  // Drain RX through the UART register interface, as target firmware would.
  while (uart_.io_read(5) & 0x01) {  // LSR.DR
    mon_.charge(mon_.config().costs.stub_per_byte);
    rx_byte(static_cast<u8>(uart_.io_read(0)));
  }
  pump_tx();
}

void DebugStub::rx_byte(u8 b) {
  if (b == 0x03 && rx_state_ == RxState::kIdle) {  // break-in
    if (!mon_.guest_frozen()) {
      stopped_ = true;
      mon_.freeze_guest(DebugDelegate::StopReason::kBreakpoint);
      // freeze_guest() reported S05 via on_guest_stop.
    }
    return;
  }
  // '$' always begins a fresh packet, whatever state line noise left the
  // receiver in — the standard resynchronisation rule for RSP stubs.
  if (b == '$') {
    rx_state_ = RxState::kPayload;
    rx_buf_.clear();
    return;
  }
  switch (rx_state_) {
    case RxState::kIdle:
      return;
    case RxState::kPayload:
      if (b == '#') {
        rx_state_ = RxState::kCsum1;
      } else {
        rx_buf_.push_back(static_cast<char>(b));
      }
      return;
    case RxState::kCsum1:
      rx_csum_hi_ = static_cast<char>(b);
      rx_state_ = RxState::kCsum2;
      return;
    case RxState::kCsum2: {
      rx_state_ = RxState::kIdle;
      const auto hi = hex_digit(rx_csum_hi_);
      const auto lo = hex_digit(static_cast<char>(b));
      if (!hi || !lo ||
          static_cast<u8>((*hi << 4) | *lo) != checksum(rx_buf_)) {
        send_raw('-');
        return;
      }
      send_raw('+');
      execute(rx_buf_);
      return;
    }
  }
}

void DebugStub::send_raw(char c) {
  tx_queue_.push_back(static_cast<u8>(c));
  pump_tx();
}

void DebugStub::send_packet(const std::string& payload) {
  tx_queue_.push_back('$');
  for (char c : payload) tx_queue_.push_back(static_cast<u8>(c));
  tx_queue_.push_back('#');
  char buf[3];
  std::snprintf(buf, sizeof buf, "%02x", checksum(payload));
  tx_queue_.push_back(static_cast<u8>(buf[0]));
  tx_queue_.push_back(static_cast<u8>(buf[1]));
  pump_tx();
}

void DebugStub::pump_tx() {
  while (!tx_queue_.empty() && (uart_.io_read(5) & 0x20)) {  // LSR.THRE
    mon_.charge(mon_.config().costs.stub_per_byte);
    uart_.io_write(0, tx_queue_.front());
    tx_queue_.pop_front();
  }
}

void DebugStub::report_stop(const std::string& reply) { send_packet(reply); }

// --------------------------------------------------------------------------
// Command dispatch and run control
// --------------------------------------------------------------------------

void DebugStub::execute(const std::string& p) {
  ++commands_;
  mon_.charge(mon_.config().costs.stub_per_command);
  if (p.empty()) {
    send_packet("");
    return;
  }
  const std::string args = p.substr(1);
  switch (p[0]) {
    case '?':
      send_packet(stopped_ ? (mon_.vcpu().crashed ? "S0b" : "S05")
                           : "OK");
      return;
    case 'g':
      send_packet(cmd_read_registers());
      return;
    case 'G':
      send_packet(cmd_write_registers(args));
      return;
    case 'p':
      send_packet(cmd_read_one_register(args));
      return;
    case 'P':
      send_packet(cmd_write_one_register(args));
      return;
    case 'm':
      send_packet(cmd_read_memory(args));
      return;
    case 'M':
      send_packet(cmd_write_memory(args));
      return;
    case 'c':
      do_continue();
      return;
    case 's':
      do_step();
      return;
    case 'b':
      if (args == "c" || args == "s") {
        do_reverse(args == "c");
        return;
      }
      send_packet("");  // other b-packets unsupported
      return;
    case 'Z':
    case 'z':
      send_packet(cmd_breakpoint(args, p[0] == 'Z'));
      return;
    case 'q':
      send_packet(cmd_query(args));
      return;
    case 'H':
      send_packet("OK");
      return;
    case 'k':
      send_packet("OK");
      return;
    default:
      send_packet("");  // unsupported
      return;
  }
}

void DebugStub::do_continue() {
  if (!stopped_) return;  // spurious
  stopped_ = false;
  checkpoint_on_resume();
  mon_.resume_guest();
}

void DebugStub::checkpoint_on_resume() {
  // Anchor a checkpoint at the stop every interactive resume leaves: the
  // stretch to the next stop then holds no debugger wire traffic, and a
  // replay resumes the checkpoint exactly as this resume does, so reverse
  // execution from the next stop lands faithfully.
  if (tt_ && tt_->enabled()) tt_->checkpoint_now();
}

void DebugStub::do_step() {
  if (!stopped_) return;
  stopped_ = false;
  checkpoint_on_resume();
  mon_.machine().cpu().set_debug_step(true);
  mon_.resume_guest();
}

void DebugStub::do_reverse(bool is_continue) {
  if (!tt_ || !stopped_) {
    send_packet("E01");
    return;
  }
  const auto r = is_continue ? tt_->reverse_continue() : tt_->reverse_stepi();
  if (r.outcome == TimeTravel::ReverseOutcome::kNoHistory ||
      r.outcome == TimeTravel::ReverseOutcome::kError) {
    // Still frozen (at the original position for kNoHistory; wherever
    // error containment froze it otherwise).
    send_packet("E01");
    return;
  }
  // Landed frozen somewhere in the past: report it like a live stop.
  stopped_ = true;
  send_packet(stop_reply(r.reason));
}

}  // namespace vdbg::vmm
