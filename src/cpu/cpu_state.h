// Architectural register state of the VX32 CPU.
#pragma once

#include <array>

#include "common/types.h"
#include "cpu/isa.h"

namespace vdbg::cpu {

struct CpuState {
  std::array<u32, kNumGprs> regs{};
  u32 pc = 0;
  u32 psw = 0;  // see Psw bit layout in isa.h
  std::array<u32, kNumCrs> cr{};
  u32 idt_base = 0;   // virtual address of the gate table
  u32 idt_count = 0;  // number of gates

  // --- PSW accessors ---
  u8 cpl() const { return static_cast<u8>(psw & Psw::kCplMask); }
  void set_cpl(u8 ring) { psw = (psw & ~Psw::kCplMask) | (ring & Psw::kCplMask); }
  bool intr_enabled() const { return psw & Psw::kIf; }
  void set_if(bool on) { psw = on ? (psw | Psw::kIf) : (psw & ~Psw::kIf); }
  bool trap_flag() const { return psw & Psw::kTf; }
  void set_tf(bool on) { psw = on ? (psw | Psw::kTf) : (psw & ~Psw::kTf); }

  bool flag_z() const { return psw & Psw::kZ; }
  bool flag_n() const { return psw & Psw::kN; }
  bool flag_c() const { return psw & Psw::kC; }
  bool flag_v() const { return psw & Psw::kV; }
  void set_flags(bool z, bool n, bool c, bool v) {
    psw &= ~Psw::kFlagsMask;
    if (z) psw |= Psw::kZ;
    if (n) psw |= Psw::kN;
    if (c) psw |= Psw::kC;
    if (v) psw |= Psw::kV;
  }

  bool paging_enabled() const { return cr[kCr0] & kCr0PgBit; }

  u32 sp() const { return regs[kSp]; }
};

}  // namespace vdbg::cpu
