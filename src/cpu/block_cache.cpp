#include "cpu/block_cache.h"

#include <algorithm>

namespace vdbg::cpu {

CachedBlock* BlockCache::build(PAddr pa, PhysMem& mem,
                               std::span<const PAddr> stops, u64& builds,
                               u64& invals) {
  CachedBlock& slot = slot_for(pa);
  const u64 version = mem.page_version(pa >> kPageBits);
  if (slot.valid && slot.pa == pa && slot.version != version) {
    ++invals;  // page retired since decode (its code was written)
  }

  // (Re)decode forward from `pa`. Blocks never cross a page boundary so a
  // single page version covers the whole block, and in-page offsets make the
  // virtual and physical instruction streams advance in lockstep.
  const PAddr page_end = (pa & ~PAddr{kPageMask}) + kPageSize;
  u16 n = 0;
  PAddr p = pa;
  while (n < kMaxBlockInstrs && p + kInstrBytes <= page_end &&
         mem.contains(p, kInstrBytes)) {
    if (std::find(stops.begin(), stops.end(), p) != stops.end()) break;
    u8 bytes[kInstrBytes];
    mem.read_block(p, bytes);
    if (!opcode_valid(bytes[0])) break;
    slot.instrs[n] = Instr::decode(bytes);
    const bool term = is_block_terminator(slot.instrs[n].op);
    ++n;
    p += kInstrBytes;
    if (term) break;
  }
  if (n == 0) {
    slot.valid = false;
    return nullptr;
  }
  mem.mark_code(pa, u32(n) * kInstrBytes);
  slot.pa = pa;
  slot.version = version;
  slot.count = n;
  slot.hot = 0;
  slot.falls_through = !is_block_terminator(slot.instrs[n - 1].op);
  slot.valid = true;
  ++builds;
  return &slot;
}

void BlockCache::invalidate_all(u64& invals) {
  for (auto& b : blocks_) {
    if (b.valid) {
      b.valid = false;
      ++invals;
    }
  }
}

}  // namespace vdbg::cpu
