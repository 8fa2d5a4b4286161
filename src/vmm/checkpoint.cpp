#include "vmm/checkpoint.h"

#include "vmm/lvmm.h"

namespace vdbg::vmm {

Checkpoint capture_checkpoint(Lvmm& mon) {
  hw::Machine& m = mon.machine();
  Checkpoint cp;
  cp.icount = m.cpu().stats().instructions;
  cp.cycles = m.now();
  cp.mem = m.mem().capture_cow();
  SnapshotWriter w;
  m.save(w, /*external_mem=*/true);
  mon.save(w);
  cp.bytes = w.finish();
  cp.stored_bytes = cp.bytes.size() + cp.mem.retained_bytes();
  return cp;
}

bool restore_checkpoint(hw::Machine& m, Lvmm* mon, const Checkpoint& cp) {
  SnapshotReader r(cp.bytes);
  // Nothing is applied until the stream fits this machine and monitor, so a
  // rejected restore leaves both exactly as they were.
  if (!m.fits(r) || (mon != nullptr && !mon->fits(r))) return false;
  // Adopt the COW image before walking the stream: the stream's PhysMem
  // section is an external-contents sentinel, and the monitor's restore
  // may consult guest memory.
  if (!cp.mem.empty() && !m.mem().adopt_cow(cp.mem)) return false;
  if (!m.restore(r)) return false;
  return mon == nullptr || mon->restore(r);
}

hw::Machine::StopReason replay_to(Lvmm& mon, u64 target, Cycles budget) {
  using Stop = hw::Machine::StopReason;
  hw::Machine& m = mon.machine();
  m.uart().set_tx_muted(true);
  m.nic().set_wire_muted(true);
  if (mon.guest_frozen() && m.cpu().stats().instructions < target) {
    mon.resume_guest();
  }
  Stop r = m.run_to_instruction(target, budget);
  while (r == Stop::kGuestExit) {
    // The original timeline continued past the exit, so clear the latch.
    m.clear_guest_exit();
    r = m.run_to_instruction(target, budget);
  }
  m.uart().set_tx_muted(false);
  m.nic().set_wire_muted(false);
  return r;
}

}  // namespace vdbg::vmm
