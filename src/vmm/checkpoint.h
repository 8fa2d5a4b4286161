// Checkpoint capture, restore and muted replay: the one engine under time
// travel (TimeTravel), continuous capture (FlightLoop) and multiverse forks.
//
// A checkpoint is the whole deterministic machine plus its monitor at one
// retired-instruction boundary. A capture is always a delta: the memory
// image is shared copy-on-write as a CowPages table, and the checksummed
// snapshot stream replaces the PhysMem section with an external-contents
// sentinel, so a capture pays only for the pages dirtied since the previous
// one. A full stream (TimeTravel::save_state, qVdbg.Snapshot) is a
// checkpoint with no pages.
//
// Nothing here charges simulated cycles. TimeTravel charges its checkpoint
// before it captures; the flight loop is an observer and charges nothing.
#pragma once

#include <vector>

#include "cpu/phys_mem.h"
#include "hw/machine.h"

namespace vdbg::vmm {

class Lvmm;

struct Checkpoint {
  u64 icount = 0;      // retired instructions at capture time
  Cycles cycles = 0;   // simulated time at capture time
  /// Snapshot stream. When `mem` holds pages, the PhysMem section is an
  /// external-contents sentinel and `mem` carries the actual pages.
  std::vector<u8> bytes;
  /// COW page-table capture (empty for a full stream). Copying a
  /// Checkpoint retains the shared chunks — cheap.
  cpu::CowPages mem;
  /// Marginal bytes this checkpoint keeps alive: stream size plus the
  /// freshly-dirtied frames and chunks and the sparse chunk index (what it
  /// shares with older captures is not re-counted).
  u64 stored_bytes = 0;
};

/// Captures the machine and monitor at the current position as a delta
/// checkpoint.
Checkpoint capture_checkpoint(Lvmm& mon);

/// Restores `cp` into an identically configured machine (and monitor, when
/// non-null), adopting its COW pages first when it has any: the one routine
/// that reads a stream into a machine.
bool restore_checkpoint(hw::Machine& m, Lvmm* mon, const Checkpoint& cp);

/// Re-runs forward to `target` retired instructions with the UART and NIC
/// host sinks muted, so replayed output is not delivered twice. A guest
/// frozen at a debugger stop resumes first, exactly as the stub's `c` would
/// (passing once over a breakpoint at the stop pc); the guest's diag-port
/// exit, which re-fires during replay, is cleared each time. Returns the
/// final stop reason.
hw::Machine::StopReason replay_to(Lvmm& mon, u64 target, Cycles budget);

}  // namespace vdbg::vmm
