// Architectural fault/event descriptor passed between the interpreter, the
// MMU and (under a VMM) the trap hook.
#pragma once

#include "common/types.h"
#include "cpu/isa.h"

namespace vdbg::cpu {

/// How the event was produced. A VMM needs the distinction: software INT n
/// honours the guest gate's DPL, hardware exceptions do not.
enum class EventKind : u8 {
  kException,  // fault raised by instruction execution (#GP, #PF, ...)
  kSoftInt,    // INT n instruction
  kExternal,   // interrupt request from the PIC
  kMonitor,    // the monitor's own debug state fired (Cpu::arm_breakpoint,
               // Cpu::arm_watchpoint, Cpu::set_debug_step): never the
               // guest's to see, so it reaches only a trap hook
};

/// Error code of a monitor #DB raised by a watched store (Fault::watch), in
/// the role of DR6's B0-B3 bits; a step request's #DB carries 0.
inline constexpr u32 kDbWatchHit = 1;

struct Fault {
  u8 vector = 0;
  u32 errcode = 0;
  VAddr cr2 = 0;  // faulting address; meaningful for #PF only
  EventKind kind = EventKind::kException;

  static Fault gp(u32 err = 0) { return {kVecGp, err, 0, EventKind::kException}; }
  static Fault ud() { return {kVecUndefined, 0, 0, EventKind::kException}; }
  static Fault de() { return {kVecDivide, 0, 0, EventKind::kException}; }
  static Fault bp() { return {kVecBreakpoint, 0, 0, EventKind::kException}; }
  static Fault db() { return {kVecDebug, 0, 0, EventKind::kException}; }
  static Fault pf(VAddr va, u32 err) {
    return {kVecPf, err, va, EventKind::kException};
  }
  static Fault soft(u8 vector) { return {vector, 0, 0, EventKind::kSoftInt}; }
  /// Monitor-owned #BP (armed breakpoint) or #DB (step request).
  static Fault monitor(u8 vector) {
    return {vector, 0, 0, EventKind::kMonitor};
  }
  /// Monitor-owned #DB after a store that hit an armed watch range.
  static Fault watch() {
    return {kVecDebug, kDbWatchHit, 0, EventKind::kMonitor};
  }
};

}  // namespace vdbg::cpu
