#include "guest/minitactix.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "asm/assembler.h"
#include "cpu/mmu.h"
#include "guest/layout.h"
#include "hw/diag_port.h"
#include "hw/nic.h"
#include "hw/pic.h"
#include "hw/pit.h"
#include "hw/scsi_disk.h"

namespace vdbg::guest {

using vasm::Assembler;
using vasm::l;
using cpu::Reg;
using cpu::kR0;
using cpu::kR1;
using cpu::kR2;
using cpu::kR3;
using cpu::kR4;
using cpu::kR5;
using cpu::kR6;
using cpu::kSp;

namespace {

// Packet buffer layout: 2 bytes of padding so that the UDP payload (which
// begins at Ethernet+42) lands 4-byte aligned. The template variable in the
// kernel image uses the same layout so it can be copied with word ops.
//   pb+0..1   padding
//   pb+2      Ethernet header          (frame handed to the NIC = pb+2)
//   pb+16     IPv4 header  (total len at +18, checksum at +26)
//   pb+36     UDP header   (len at +40, checksum at +42)
//   pb+44     sequence word (payload starts here)
//   pb+48     payload data
constexpr u32 kPad = 2;
constexpr u32 kOffIpTotal = kPad + 16;   // 18
constexpr u32 kOffIpCsum = kPad + 24;    // 26
constexpr u32 kOffUdpLen = kPad + 38;    // 40
constexpr u32 kOffUdpCsum = kPad + 40;   // 42
constexpr u32 kOffSeq = kPad + 42;       // 44
constexpr u32 kOffData = kPad + 46;      // 48
constexpr u32 kTmplBytes = kPad + net::kAllHeaderBytes;  // 44

constexpr u32 kPswIf = cpu::Psw::kIf;

u16 scsi_port(unsigned d, u16 off) {
  return static_cast<u16>(hw::kScsiBase0 + d * hw::kScsiPortStride + off);
}
u16 nic_port(u16 off) { return static_cast<u16>(hw::kNicBase + off); }

/// Emits the interrupt-descriptor table as image data. Must match the
/// handler labels emitted by the kernel builder.
void emit_idt(Assembler& a) {
  a.align(8);
  a.label("idt");
  auto gate = [&](const std::string& handler, u8 dpl) {
    a.data_ref(l(handler));
    a.data32(cpu::Gate{0, true, dpl, /*target_ring=*/0}.pack_flags());
  };
  for (u32 v = 0; v < kIdtEntries; ++v) {
    if (v <= 14) {
      gate("panic_v" + std::to_string(v), 0);
    } else if (v < 0x20) {
      gate("panic_generic", 0);
    } else if (v == kVecTimer) {
      gate("isr_timer", 0);
    } else if (v == kVecNic) {
      gate("isr_nic", 0);
    } else if (v >= kVecScsi0 && v < kVecScsi0 + 3) {
      gate("isr_scsi" + std::to_string(v - kVecScsi0), 0);
    } else if (v >= 0x28 && v < 0x30) {
      gate("isr_spurious_s", 0);
    } else if (v >= 0x20 && v < 0x28) {
      gate("isr_spurious_m", 0);  // includes the UART vector: guest masks IRQ4
    } else if (v == kVecSyscall) {
      gate("isr_syscall", 3);
    } else {
      gate("panic_generic", 0);
    }
  }
}

void emit_pic_init(Assembler& a) {
  a.label("pic_init");
  auto outb = [&](u16 port, u32 v) {
    a.movi(kR0, u32{v});
    a.out(port, kR0);
  };
  outb(0x20, 0x11);  // ICW1 master
  outb(0x21, 0x20);  // ICW2: vectors 0x20-0x27
  outb(0x21, 0x04);  // ICW3: slave on IRQ2
  outb(0x21, 0x01);  // ICW4
  outb(0xa0, 0x11);  // ICW1 slave
  outb(0xa1, 0x28);  // ICW2: vectors 0x28-0x2f
  outb(0xa1, 0x02);  // ICW3: cascade identity
  outb(0xa1, 0x01);  // ICW4
  outb(0x21, 0xda);  // OCW1 master: unmask IRQ0 (PIT), IRQ2 (cascade), IRQ5 (NIC)
  outb(0xa1, 0xe3);  // OCW1 slave: unmask IRQ10-12 (SCSI)
  a.ret();
}

void emit_pit_init(Assembler& a) {
  a.label("pit_init");
  a.movi(kR0, u32{0x34});  // ch0, lobyte/hibyte, mode 2
  a.out(0x43, kR0);
  a.movi(kR0, u32{0xa9});  // divisor 1193 -> 1000.15 Hz tick
  a.out(0x40, kR0);
  a.movi(kR0, u32{0x04});
  a.out(0x40, kR0);
  a.ret();
}

void emit_nic_init(Assembler& a) {
  a.label("nic_init");
  a.movi(kR0, u32{kNicRingBase});
  a.out(nic_port(0x00), kR0);
  a.movi(kR0, u32{kNicRingSize});
  a.out(nic_port(0x04), kR0);
  // Receive ring: 16 fixed 2 KiB buffers (the control channel).
  a.movi(kR0, u32{kNicRxRingBase});
  a.out(nic_port(0x20), kR0);
  a.movi(kR0, u32{kNicRxRingSize});
  a.out(nic_port(0x24), kR0);
  a.movi(kR0, u32{0});
  a.label("nic_rx_desc_loop");
  a.mov(kR1, kR0);
  a.shli(kR1, kR1, 4);
  a.addi(kR1, kR1, u32{kNicRxRingBase});
  a.mov(kR2, kR0);
  a.shli(kR2, kR2, 11);
  a.addi(kR2, kR2, u32{kNicRxBufBase});
  a.st32(kR1, 0, kR2);  // buffer
  a.movi(kR2, u32{2048});
  a.st32(kR1, 4, kR2);  // capacity
  a.addi(kR0, kR0, u32{1});
  a.cmpi(kR0, u32{kNicRxRingSize});
  a.jb(l("nic_rx_desc_loop"));
  a.movi(kR0, u32{3});  // IMR: tx-complete + rx interrupts
  a.out(nic_port(0x14), kR0);
  a.ret();
}

/// Builds identity page tables for the guest's 56 MiB, with a null guard
/// page, user access to the mailbox and to the application's code/stack,
/// then enables paging.
void emit_paging_init(Assembler& a) {
  a.label("paging_init");
  // Page-directory entries 0..13 -> the 14 page tables.
  a.movi(kR0, u32{0});
  a.label("pg_pd_loop");
  a.mov(kR1, kR0);
  a.shli(kR1, kR1, 12);
  a.addi(kR1, kR1, u32{kPageTables});
  a.ori(kR1, kR1, u32{cpu::Pte::kP | cpu::Pte::kW | cpu::Pte::kU});
  a.mov(kR2, kR0);
  a.shli(kR2, kR2, 2);
  a.addi(kR2, kR2, u32{kPageDir});
  a.st32(kR2, 0, kR1);
  a.addi(kR0, kR0, u32{1});
  a.cmpi(kR0, u32{14});
  a.jb(l("pg_pd_loop"));

  // PTEs: identity map, supervisor read/write.
  a.movi(kR0, u32{0});
  a.label("pg_pt_loop");
  a.mov(kR1, kR0);
  a.shli(kR1, kR1, 12);
  a.ori(kR1, kR1, u32{cpu::Pte::kP | cpu::Pte::kW});
  a.mov(kR2, kR0);
  a.shli(kR2, kR2, 2);
  a.addi(kR2, kR2, u32{kPageTables});
  a.st32(kR2, 0, kR1);
  a.addi(kR0, kR0, u32{1});
  a.cmpi(kR0, u32{kGuestMemBytes >> 12});
  a.jb(l("pg_pt_loop"));

  // Null guard: virtual page 0 not present.
  a.movi(kR1, u32{0});
  a.movi(kR2, u32{kPageTables});
  a.st32(kR2, 0, kR1);
  // Mailbox page: user-readable/writable (the app reads ticks and config).
  a.movi(kR1, u32{kMailboxBase | cpu::Pte::kP | cpu::Pte::kW | cpu::Pte::kU});
  a.st32(kR2, 4, kR1);

  // Application code pages (16) and stack pages (16): user.
  auto user_range = [&](u32 first_page, u32 count, const std::string& tag) {
    a.movi(kR0, u32{0});
    a.label("pg_user_" + tag);
    a.movi(kR1, u32{first_page});
    a.add(kR1, kR1, kR0);
    a.shli(kR1, kR1, 12);
    a.ori(kR1, kR1, u32{cpu::Pte::kP | cpu::Pte::kW | cpu::Pte::kU});
    a.mov(kR2, kR0);
    a.shli(kR2, kR2, 2);
    a.addi(kR2, kR2, u32{kPageTables + first_page * 4});
    a.st32(kR2, 0, kR1);
    a.addi(kR0, kR0, u32{1});
    a.cmpi(kR0, u32{count});
    a.jb(l("pg_user_" + tag));
  };
  user_range(kAppBase >> 12, 16, "code");
  user_range((kAppStackTop >> 12) - 16, 16, "stack");

  a.movi(kR1, u32{kPageDir});
  a.mov_to_cr(cpu::kCr3, kR1);
  a.movi(kR1, u32{cpu::kCr0PgBit});
  a.mov_to_cr(cpu::kCr0, kR1);
  a.ret();
}

/// Boot-time network precomputation: patches the configured segment size
/// into the header template (IP total length, UDP length), computes the IP
/// header checksum, and precomputes the constant part of the UDP checksum
/// (pseudo-header + UDP header) in little-endian word space.
void emit_net_precompute(Assembler& a) {
  a.label("net_precompute");
  a.movi(kR4, l("tmpl"));
  a.movi(kR5, u32{kMailboxBase});
  a.ld32(kR0, kR5, i32(Mailbox::kSegmentBytes));
  a.addi(kR1, kR0, u32{12});  // udp_len = 8 hdr + 4 seq + seg
  a.addi(kR2, kR1, u32{20});  // ip_total
  // Big-endian stores of the two length fields.
  a.shri(kR3, kR2, 8);
  a.st8(kR4, i32(kOffIpTotal), kR3);
  a.st8(kR4, i32(kOffIpTotal + 1), kR2);
  a.shri(kR3, kR1, 8);
  a.st8(kR4, i32(kOffUdpLen), kR3);
  a.st8(kR4, i32(kOffUdpLen + 1), kR1);

  // IP header checksum: ones'-complement sum of the 10 header words,
  // computed in LE word space (stored LE16 == correct BE wire bytes).
  a.movi(kR0, u32{0});
  a.mov(kR2, kR4);
  a.addi(kR2, kR2, u32{kPad + net::kEthHeaderBytes});
  a.mov(kR3, kR2);
  a.addi(kR3, kR3, u32{net::kIpHeaderBytes});
  a.label("npc_ip_loop");
  a.ld16(kR6, kR2, 0);
  a.add(kR0, kR0, kR6);
  a.addi(kR2, kR2, u32{2});
  a.cmp(kR2, kR3);
  a.jb(l("npc_ip_loop"));
  a.shri(kR6, kR0, 16);
  a.andi(kR0, kR0, u32{0xffff});
  a.add(kR0, kR0, kR6);
  a.shri(kR6, kR0, 16);
  a.andi(kR0, kR0, u32{0xffff});
  a.add(kR0, kR0, kR6);
  a.xori(kR0, kR0, u32{0xffff});
  a.st16(kR4, i32(kOffIpCsum), kR0);

  // csum_const = LE-space sum of: src/dst IP (4 words), the zero|proto
  // word (0x1100 in LE space), the two UDP port words, and the UDP length
  // twice (pseudo-header copy + real header field), byte-swapped.
  a.movi(kR0, u32{0x1100});
  for (u32 off : {kPad + 26u, kPad + 28u, kPad + 30u, kPad + 32u,  // IPs
                  kPad + 34u, kPad + 36u}) {                        // ports
    a.ld16(kR6, kR4, i32(off));
    a.add(kR0, kR0, kR6);
  }
  // r1 still holds udp_len; swap16 it and add twice.
  a.shri(kR2, kR1, 8);
  a.andi(kR3, kR1, u32{0xff});
  a.shli(kR3, kR3, 8);
  a.or_(kR2, kR2, kR3);
  a.add(kR0, kR0, kR2);
  a.add(kR0, kR0, kR2);
  a.movi(kR1, l("csum_const"));
  a.st32(kR1, 0, kR0);
  a.ret();
}

/// Per-disk read issue: argument r2 = chunk index. Clobbers r0, r1, r3.
void emit_issue_read(Assembler& a, unsigned d) {
  a.label("issue_read" + std::to_string(d));
  // disk_busy[d] = 1
  a.movi(kR0, u32{1});
  a.movi(kR1, l("disk_busy", i32(d * 4)));
  a.st32(kR1, 0, kR0);
  // q = chunk / 3; slot = q & 1; idx = d*2 + slot
  a.movi(kR1, u32{3});
  a.divu(kR0, kR2, kR1);  // q
  a.mov(kR3, kR0);
  a.andi(kR3, kR3, u32{1});
  a.addi(kR3, kR3, u32{d * 2});  // idx
  // fill_chunk[d] = chunk; fill_idx[d] = idx
  a.movi(kR1, l("fill_chunk", i32(d * 4)));
  a.st32(kR1, 0, kR2);
  a.movi(kR1, l("fill_idx", i32(d * 4)));
  a.st32(kR1, 0, kR3);
  // lba = (q % 2048) * sectors_per_chunk
  a.andi(kR0, kR0, u32{2047});
  a.movi(kR1, l("sectors_per_chunk"));
  a.ld32(kR1, kR1, 0);
  a.mul(kR0, kR0, kR1);
  // request block
  a.movi(kR1, u32{kScsiReqBase + d * hw::kScsiRequestBytes});
  a.st32(kR1, 0, kR0);          // lba
  a.movi(kR0, l("sectors_per_chunk"));
  a.ld32(kR0, kR0, 0);
  a.st32(kR1, 4, kR0);          // sector count
  a.movi(kR0, u32{kMailboxBase});
  a.ld32(kR0, kR0, i32(Mailbox::kChunkBytes));
  a.mul(kR0, kR0, kR3);
  a.addi(kR0, kR0, u32{kDiskBufBase});
  a.st32(kR1, 8, kR0);          // destination
  a.movi(kR0, u32{0});
  a.st32(kR1, 12, kR0);         // status
  // program the controller: REQ_ADDR then DOORBELL
  a.movi(kR0, u32{kScsiReqBase + d * hw::kScsiRequestBytes});
  a.out(scsi_port(d, 0x00), kR0);
  a.movi(kR0, u32{1});
  a.out(scsi_port(d, 0x04), kR0);
  a.ret();
}

/// r1 = disk, r2 = chunk. Clobbers r0, r3.
void emit_issue_dispatch(Assembler& a) {
  a.label("issue_read_dispatch");
  a.cmpi(kR1, u32{0});
  a.jnz(l("ird_1"));
  a.call(l("issue_read0"));
  a.ret();
  a.label("ird_1");
  a.cmpi(kR1, u32{1});
  a.jnz(l("ird_2"));
  a.call(l("issue_read1"));
  a.ret();
  a.label("ird_2");
  a.call(l("issue_read2"));
  a.ret();
}

void emit_timer_isr(Assembler& a) {
  a.label("isr_timer");
  a.push(kR0);
  a.push(kR1);
  a.movi(kR1, u32{kMailboxBase});
  // Optional latency instrumentation: timestamp ISR entry from the TSC port.
  a.ld32(kR0, kR1, i32(Mailbox::kRunFlags));
  a.andi(kR0, kR0, u32{Mailbox::kFlagMeasureLatency});
  a.jz(l("isr_timer_count"));
  a.in(kR0, hw::kDiagTscPort);
  a.st32(kR1, i32(Mailbox::kLastTickTsc), kR0);
  a.label("isr_timer_count");
  a.ld32(kR0, kR1, i32(Mailbox::kTicks));
  a.addi(kR0, kR0, u32{1});
  a.st32(kR1, i32(Mailbox::kTicks), kR0);
  a.movi(kR0, u32{0x20});
  a.out(0x20, kR0);  // EOI master
  a.pop(kR1);
  a.pop(kR0);
  a.iret();
}

void emit_spurious_isrs(Assembler& a) {
  a.label("isr_spurious_m");
  a.push(kR0);
  a.movi(kR0, u32{0x20});
  a.out(0x20, kR0);
  a.pop(kR0);
  a.iret();

  a.label("isr_spurious_s");
  a.push(kR0);
  a.movi(kR0, u32{0x20});
  a.out(0xa0, kR0);
  a.out(0x20, kR0);
  a.pop(kR0);
  a.iret();
}

void emit_nic_isr(Assembler& a) {
  a.label("isr_nic");
  a.push(kR0);
  a.push(kR1);
  a.push(kR2);
  a.push(kR3);
  a.push(kR4);
  a.movi(kR1, l("tx_head"));
  a.ld32(kR2, kR1, 0);            // old shadow
  a.in(kR0, nic_port(0x0c));      // HEAD
  a.st32(kR1, 0, kR0);
  a.sub(kR0, kR0, kR2);           // completions since last interrupt
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR2, kR1, i32(Mailbox::kTxCompletions));
  a.add(kR2, kR2, kR0);
  a.st32(kR1, i32(Mailbox::kTxCompletions), kR2);

  // --- control channel: consume received datagrams ---
  a.in(kR0, nic_port(0x28));  // RX_HEAD
  a.movi(kR1, l("rx_tail"));
  a.ld32(kR2, kR1, 0);
  a.label("nic_rx_loop");
  a.cmp(kR2, kR0);
  a.jz(l("nic_rx_done"));
  a.andi(kR3, kR2, u32{kNicRxRingSize - 1});
  a.shli(kR3, kR3, 4);
  a.addi(kR3, kR3, u32{kNicRxRingBase});
  a.ld32(kR3, kR3, 0);  // buffer address
  // Frame layout: Ethernet+IP+UDP headers (42) then [pad16][magic][cmd][arg]
  // so the control words are 4-byte aligned at +44/+48/+52.
  a.ld32(kR4, kR3, 44);
  a.cmpi(kR4, u32{kCtrlMagic});
  a.jnz(l("nic_rx_skip"));
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR4, kR3, 48);  // cmd
  a.st32(kR1, i32(Mailbox::kLastCtrlCmd), kR4);
  a.cmpi(kR4, u32{kCtrlCmdSetRate});
  a.jnz(l("nic_rx_not_rate"));
  a.ld32(kR4, kR3, 52);
  a.st32(kR1, i32(Mailbox::kRateBytesPerTick), kR4);
  a.label("nic_rx_not_rate");
  a.ld32(kR4, kR3, 52);  // arg
  a.st32(kR1, i32(Mailbox::kLastCtrlArg), kR4);
  a.ld32(kR4, kR1, i32(Mailbox::kCtrlRequests));
  a.addi(kR4, kR4, u32{1});
  a.st32(kR1, i32(Mailbox::kCtrlRequests), kR4);
  a.movi(kR1, l("rx_tail"));
  a.label("nic_rx_skip");
  a.addi(kR2, kR2, u32{1});
  a.jmp(l("nic_rx_loop"));
  a.label("nic_rx_done");
  a.st32(kR1, 0, kR2);
  a.out(nic_port(0x2c), kR2);  // recycle descriptors

  a.movi(kR0, u32{1});
  a.out(nic_port(0x10), kR0);     // ack ISR
  a.movi(kR0, u32{0x20});
  a.out(0x20, kR0);               // EOI master
  a.pop(kR4);
  a.pop(kR3);
  a.pop(kR2);
  a.pop(kR1);
  a.pop(kR0);
  a.iret();
}

void emit_scsi_isr(Assembler& a, unsigned d) {
  const std::string sd = std::to_string(d);
  a.label("isr_scsi" + sd);
  a.push(kR0);
  a.push(kR1);
  a.push(kR2);
  a.push(kR3);
  a.movi(kR0, u32{1});
  a.out(scsi_port(d, 0x08), kR0);  // ack / deassert
  a.in(kR0, scsi_port(d, 0x0c));   // status
  a.cmpi(kR0, u32{0});
  a.jz(l("scsi_ok" + sd));
  a.movi(kR1, u32{kMailboxBase});
  a.ori(kR0, kR0, u32{0x100});
  a.st32(kR1, i32(Mailbox::kLastError), kR0);
  a.label("scsi_ok" + sd);
  // ready_chunk[fill_idx[d]] = fill_chunk[d]
  a.movi(kR1, l("fill_idx", i32(d * 4)));
  a.ld32(kR0, kR1, 0);
  a.movi(kR1, l("fill_chunk", i32(d * 4)));
  a.ld32(kR2, kR1, 0);
  a.shli(kR0, kR0, 2);
  a.addi(kR0, kR0, l("ready_chunk"));
  a.st32(kR0, 0, kR2);
  // disk_busy[d] = 0
  a.movi(kR0, u32{0});
  a.movi(kR1, l("disk_busy", i32(d * 4)));
  a.st32(kR1, 0, kR0);
  // mailbox.disk_reads++
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR0, kR1, i32(Mailbox::kDiskReads));
  a.addi(kR0, kR0, u32{1});
  a.st32(kR1, i32(Mailbox::kDiskReads), kR0);
  // deferred request?
  a.movi(kR1, l("deferred", i32(d * 4)));
  a.ld32(kR2, kR1, 0);
  a.cmpi(kR2, u32{0xffffffff});
  a.jz(l("scsi_nodef" + sd));
  a.movi(kR0, u32{0xffffffff});
  a.st32(kR1, 0, kR0);
  a.call(l("issue_read" + sd));  // r2 = chunk
  a.label("scsi_nodef" + sd);
  a.movi(kR0, u32{0x20});
  a.out(0xa0, kR0);  // EOI slave
  a.out(0x20, kR0);  // EOI master
  a.pop(kR3);
  a.pop(kR2);
  a.pop(kR1);
  a.pop(kR0);
  a.iret();
}

void emit_panic(Assembler& a) {
  for (u32 v = 0; v <= 14; ++v) {
    a.label("panic_v" + std::to_string(v));
    a.movi(kR0, u32{v});
    a.jmp(l("panic_common"));
  }
  a.label("panic_generic");
  a.movi(kR0, u32{0xff});
  a.label("panic_common");
  a.movi(kR1, u32{kMailboxBase});
  a.st32(kR1, i32(Mailbox::kLastError), kR0);
  a.ld32(kR2, kSp, 4);  // frame: [sp]=err, [sp+4]=pc
  a.st32(kR1, i32(Mailbox::kPanicPc), kR2);
  a.movi(kR0, u32{kExitPanic});
  a.out(hw::kDiagExitPort, kR0);
  a.label("panic_loop");
  a.hlt();
  a.jmp(l("panic_loop"));
}

void emit_syscall(Assembler& a, const BuildConfig& cfg) {
  a.label("isr_syscall");
  a.push(kR1);
  a.push(kR2);
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR2, kR1, i32(Mailbox::kSyscalls));
  a.addi(kR2, kR2, u32{1});
  a.st32(kR1, i32(Mailbox::kSyscalls), kR2);
  a.pop(kR2);
  a.pop(kR1);
  a.cmpi(kR0, u32{kSysSend});
  a.jz(l("sys_send"));
  a.cmpi(kR0, u32{kSysWait});
  a.jz(l("sys_wait"));
  a.cmpi(kR0, u32{kSysExit});
  a.jz(l("sys_exit"));
  a.movi(kR0, u32{0xffffffff});
  a.iret();

  a.label("sys_wait");
  a.sti();
  a.hlt();
  a.movi(kR0, u32{0});
  a.iret();

  a.label("sys_exit");
  a.out(hw::kDiagExitPort, kR1);
  a.label("sys_exit_loop");
  a.hlt();
  a.jmp(l("sys_exit_loop"));

  // ---------------- sys_send ----------------
  a.label("sys_send");
  a.push(kR1);
  a.push(kR2);
  a.push(kR3);
  a.push(kR4);
  a.push(kR5);
  a.push(kR6);
  a.sti();  // the copy/checksum phase runs with interrupts enabled

  // c = send_chunk; d = c%3; idx = d*2 + (c/3)&1
  a.movi(kR1, l("send_chunk"));
  a.ld32(kR4, kR1, 0);  // r4 = c
  a.movi(kR1, u32{3});
  a.remu(kR2, kR4, kR1);  // r2 = d
  a.divu(kR3, kR4, kR1);
  a.andi(kR3, kR3, u32{1});
  a.shli(kR0, kR2, 1);
  a.add(kR3, kR3, kR0);  // r3 = idx

  // ready_chunk[idx] == c ?
  a.shli(kR0, kR3, 2);
  a.addi(kR0, kR0, l("ready_chunk"));
  a.ld32(kR1, kR0, 0);
  a.cmp(kR1, kR4);
  a.jnz(l("send_underrun"));

  // src = disk_buf_base + idx*chunk_bytes + send_off
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR5, kR1, i32(Mailbox::kChunkBytes));
  a.mul(kR5, kR5, kR3);
  a.addi(kR5, kR5, u32{kDiskBufBase});
  a.movi(kR1, l("send_off"));
  a.ld32(kR0, kR1, 0);
  a.add(kR5, kR5, kR0);  // r5 = src

  // ring space: tail - head_shadow < size - 8
  a.movi(kR1, l("tx_tail"));
  a.ld32(kR6, kR1, 0);  // r6 = tail
  a.movi(kR1, l("tx_head"));
  a.ld32(kR0, kR1, 0);
  a.sub(kR0, kR6, kR0);
  a.cmpi(kR0, u32{kNicRingSize - 8});
  a.jae(l("send_ring_full"));

  // pb = pkt_pool + (tail % ring)*pkt_bytes
  a.andi(kR0, kR6, u32{kNicRingSize - 1});
  a.shli(kR0, kR0, 11);
  a.addi(kR0, kR0, u32{kPktPoolBase});
  a.mov(kR2, kR0);  // r2 = pb

  // copy header template (44 bytes incl. padding) with word ops
  a.movi(kR3, l("tmpl"));
  for (u32 k = 0; k < kTmplBytes; k += 4) {
    a.ld32(kR1, kR3, i32(k));
    a.st32(kR2, i32(k), kR1);
  }

  // sequence word at pb+kOffSeq; increment mailbox.seq
  a.movi(kR3, u32{kMailboxBase});
  a.ld32(kR1, kR3, i32(Mailbox::kSeq));
  a.st32(kR2, i32(kOffSeq), kR1);
  a.addi(kR1, kR1, u32{1});
  a.st32(kR3, i32(Mailbox::kSeq), kR1);

  // r4 = segment bytes from here on (chunk index is reloaded later)
  a.ld32(kR4, kR3, i32(Mailbox::kSegmentBytes));

  // payload copy: dst pb+kOffData, src r5, len r4 (skipped by kFlagNoCopy)
  a.ld32(kR1, kR3, i32(Mailbox::kRunFlags));
  a.andi(kR1, kR1, u32{Mailbox::kFlagNoCopy});
  a.jnz(l("send_skip_copy"));
  a.mov(kR0, kR2);
  a.addi(kR0, kR0, u32{kOffData});
  a.add(kR1, kR0, kR4);  // end
  a.label("send_copy_loop");
  for (unsigned u = 0; u < cfg.copy_unroll; ++u) {
    a.ld32(kR3, kR5, i32(u * 4));
    a.st32(kR0, i32(u * 4), kR3);
  }
  a.addi(kR5, kR5, u32{cfg.copy_unroll * 4});
  a.addi(kR0, kR0, u32{cfg.copy_unroll * 4});
  a.cmp(kR0, kR1);
  a.jb(l("send_copy_loop"));
  a.label("send_skip_copy");

  // UDP checksum: s = csum_const + sum of LE16 words over [pb+kOffSeq,
  // pb+kOffData+seg). Skipped when offloading (flag or no-copy).
  a.movi(kR3, u32{kMailboxBase});
  a.ld32(kR1, kR3, i32(Mailbox::kRunFlags));
  a.andi(kR1, kR1,
         u32{Mailbox::kFlagOffloadChecksum | Mailbox::kFlagNoCopy});
  a.jnz(l("send_offload"));
  a.movi(kR1, l("csum_const"));
  a.ld32(kR0, kR1, 0);
  a.mov(kR1, kR2);
  a.addi(kR1, kR1, u32{kOffSeq});
  a.add(kR5, kR1, kR4);
  a.addi(kR5, kR5, u32{kOffData - kOffSeq});  // end = pb+kOffData+seg
  a.label("send_csum_loop");
  for (unsigned u = 0; u < cfg.checksum_unroll; ++u) {
    a.ld16(kR3, kR1, i32(u * 2));
    a.add(kR0, kR0, kR3);
  }
  a.addi(kR1, kR1, u32{cfg.checksum_unroll * 2});
  a.cmp(kR1, kR5);
  a.jb(l("send_csum_loop"));
  a.shri(kR3, kR0, 16);
  a.andi(kR0, kR0, u32{0xffff});
  a.add(kR0, kR0, kR3);
  a.shri(kR3, kR0, 16);
  a.andi(kR0, kR0, u32{0xffff});
  a.add(kR0, kR0, kR3);
  a.xori(kR0, kR0, u32{0xffff});
  a.jnz(l("send_csum_store"));
  a.movi(kR0, u32{0xffff});  // RFC 768: transmit 0 as 0xffff
  a.label("send_csum_store");
  a.st16(kR2, i32(kOffUdpCsum), kR0);
  a.jmp(l("send_desc"));
  a.label("send_offload");
  a.movi(kR0, u32{0});
  a.st16(kR2, i32(kOffUdpCsum), kR0);

  // NIC descriptor at ring_base + (tail % ring)*16
  a.label("send_desc");
  a.andi(kR0, kR6, u32{kNicRingSize - 1});
  a.shli(kR0, kR0, 4);
  a.addi(kR0, kR0, u32{kNicRingBase});
  a.mov(kR1, kR2);
  a.addi(kR1, kR1, u32{kPad});  // frame = pb+2
  a.st32(kR0, 0, kR1);
  a.addi(kR1, kR4, u32{net::kAllHeaderBytes + 4});  // len = 46+seg
  a.st32(kR0, 4, kR1);
  // flags: IRQ-on-complete, plus checksum offload bit when configured
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR3, kR1, i32(Mailbox::kRunFlags));
  a.andi(kR3, kR3, u32{Mailbox::kFlagOffloadChecksum | Mailbox::kFlagNoCopy});
  a.cmpi(kR3, u32{0});
  a.jz(l("send_flags_plain"));
  a.movi(kR3, u32{hw::NicDescFlags::kIrqOnComplete |
                  hw::NicDescFlags::kChecksumOffload});
  a.jmp(l("send_flags_done"));
  a.label("send_flags_plain");
  a.movi(kR3, u32{hw::NicDescFlags::kIrqOnComplete});
  a.label("send_flags_done");
  a.st32(kR0, 8, kR3);
  a.movi(kR3, u32{0});
  a.st32(kR0, 12, kR3);

  // ---- critical section ----
  a.cli();
  a.addi(kR6, kR6, u32{1});
  a.movi(kR1, l("tx_tail"));
  a.st32(kR1, 0, kR6);
  a.out(nic_port(0x08), kR6);  // doorbell

  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR0, kR1, i32(Mailbox::kSegmentsSent));
  a.addi(kR0, kR0, u32{1});
  a.st32(kR1, i32(Mailbox::kSegmentsSent), kR0);
  a.ld32(kR3, kR1, i32(Mailbox::kBytesSentLo));
  a.add(kR3, kR3, kR4);
  a.st32(kR1, i32(Mailbox::kBytesSentLo), kR3);
  // stop_after?
  a.ld32(kR3, kR1, i32(Mailbox::kStopAfterSegments));
  a.cmpi(kR3, u32{0});
  a.jz(l("send_no_stop"));
  a.cmp(kR0, kR3);
  a.jb(l("send_no_stop"));
  a.movi(kR0, u32{kExitDone});
  a.out(hw::kDiagExitPort, kR0);
  a.jmp(l("sys_exit_loop"));  // park: the run is complete
  a.label("send_no_stop");

  // advance position; on chunk completion retire the buffer + refill
  a.movi(kR1, l("send_off"));
  a.ld32(kR0, kR1, 0);
  a.add(kR0, kR0, kR4);
  a.movi(kR3, u32{kMailboxBase});
  a.ld32(kR3, kR3, i32(Mailbox::kChunkBytes));
  a.cmp(kR0, kR3);
  a.jb(l("send_store_off"));
  // chunk finished
  a.movi(kR0, u32{0});
  a.st32(kR1, 0, kR0);  // send_off = 0
  a.movi(kR1, l("send_chunk"));
  a.ld32(kR4, kR1, 0);  // r4 = c again
  a.movi(kR3, u32{3});
  a.remu(kR5, kR4, kR3);  // d
  a.divu(kR0, kR4, kR3);
  a.andi(kR0, kR0, u32{1});
  a.shli(kR3, kR5, 1);
  a.add(kR0, kR0, kR3);  // idx
  a.shli(kR0, kR0, 2);
  a.addi(kR0, kR0, l("ready_chunk"));
  a.movi(kR3, u32{0xffffffff});
  a.st32(kR0, 0, kR3);
  a.addi(kR0, kR4, u32{1});
  a.st32(kR1, 0, kR0);  // send_chunk = c+1
  a.addi(kR2, kR4, u32{6});  // refill chunk = c+6 (same disk, same slot)
  a.shli(kR0, kR5, 2);
  a.addi(kR0, kR0, l("disk_busy"));
  a.ld32(kR3, kR0, 0);
  a.cmpi(kR3, u32{0});
  a.jz(l("send_refill_now"));
  a.shli(kR0, kR5, 2);
  a.addi(kR0, kR0, l("deferred"));
  a.st32(kR0, 0, kR2);
  a.jmp(l("send_done_ok"));
  a.label("send_refill_now");
  a.mov(kR1, kR5);
  a.call(l("issue_read_dispatch"));
  a.jmp(l("send_done_ok"));
  a.label("send_store_off");
  a.st32(kR1, 0, kR0);

  a.label("send_done_ok");
  a.pop(kR6);
  a.pop(kR5);
  a.pop(kR4);
  a.pop(kR3);
  a.pop(kR2);
  a.pop(kR1);
  a.movi(kR0, u32{0});
  a.iret();

  a.label("send_underrun");
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR0, kR1, i32(Mailbox::kUnderruns));
  a.addi(kR0, kR0, u32{1});
  a.st32(kR1, i32(Mailbox::kUnderruns), kR0);
  a.pop(kR6);
  a.pop(kR5);
  a.pop(kR4);
  a.pop(kR3);
  a.pop(kR2);
  a.pop(kR1);
  a.movi(kR0, u32{1});
  a.iret();

  a.label("send_ring_full");
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR0, kR1, i32(Mailbox::kRingFull));
  a.addi(kR0, kR0, u32{1});
  a.st32(kR1, i32(Mailbox::kRingFull), kR0);
  a.pop(kR6);
  a.pop(kR5);
  a.pop(kR4);
  a.pop(kR3);
  a.pop(kR2);
  a.pop(kR1);
  a.movi(kR0, u32{2});
  a.iret();
}

void emit_entry(Assembler& a) {
  a.label("entry");
  a.movi(kSp, u32{kKernelStackTop});
  a.call(l("pic_init"));
  a.call(l("pit_init"));
  a.call(l("nic_init"));
  a.call(l("net_precompute"));
  a.call(l("paging_init"));
  // Ring-transition stack (the TSS.esp0 analogue).
  a.movi(kR0, u32{kIntrStackTop});
  a.mov_to_cr(cpu::kCrMonitorSp, kR0);
  a.movi(kR0, l("idt"));
  a.lidt(kR0, kIdtEntries);

  // sectors_per_chunk = chunk_bytes / 512
  a.movi(kR1, u32{kMailboxBase});
  a.ld32(kR0, kR1, i32(Mailbox::kChunkBytes));
  a.shri(kR0, kR0, 9);
  a.movi(kR1, l("sectors_per_chunk"));
  a.st32(kR1, 0, kR0);

  // ready_chunk[0..5] = -1
  a.movi(kR0, u32{0xffffffff});
  a.movi(kR1, l("ready_chunk"));
  for (u32 i = 0; i < 6; ++i) a.st32(kR1, i32(i * 4), kR0);

  // prime the pipeline: read chunks 0..2 now, defer 3..5
  for (u32 d = 0; d < 3; ++d) {
    a.movi(kR2, u32{d});
    a.call(l("issue_read" + std::to_string(d)));
    a.movi(kR0, u32{d + 3});
    a.movi(kR1, l("deferred", i32(d * 4)));
    a.st32(kR1, 0, kR0);
  }

  // boot complete
  a.movi(kR0, u32{Mailbox::kMagicValue});
  a.movi(kR1, u32{kMailboxBase});
  a.st32(kR1, i32(Mailbox::kMagic), kR0);
  a.sti();

  // drop to the user-mode application via IRET
  a.movi(kR0, u32{kAppStackTop});
  a.push(kR0);
  a.movi(kR0, u32{u32{cpu::kRing3} | kPswIf});
  a.push(kR0);
  a.movi(kR0, u32{kAppBase});
  a.push(kR0);
  a.movi(kR0, u32{0});
  a.push(kR0);
  a.iret();
}

void emit_data(Assembler& a, const BuildConfig& cfg) {
  a.align(8);
  a.word_var("tx_tail");
  a.word_var("tx_head");
  a.word_var("rx_tail");
  a.word_var("send_chunk");
  a.word_var("send_off");
  a.word_var("csum_const");
  a.word_var("sectors_per_chunk");
  a.align(4);
  a.label("ready_chunk");
  a.reserve(6 * 4);
  a.label("disk_busy");
  a.reserve(3 * 4);
  a.label("fill_chunk");
  a.reserve(3 * 4);
  a.label("fill_idx");
  a.reserve(3 * 4);
  a.label("deferred");
  a.reserve(3 * 4);
  a.align(4);
  a.label("tmpl");
  a.data8(0);
  a.data8(0);
  for (u8 b : net::build_header_template(cfg.flow)) a.data8(b);
  a.align(4);
}

vasm::Program build_app() {
  Assembler a(kAppBase);
  // r4 = last seen tick, r5 = token bucket (data bytes), r6 = mailbox
  a.label("app_entry");
  a.movi(kR6, u32{kMailboxBase});
  a.ld32(kR4, kR6, i32(Mailbox::kTicks));
  a.movi(kR5, u32{0});

  a.label("app_loop");
  a.ld32(kR0, kR6, i32(Mailbox::kTicks));
  a.cmp(kR0, kR4);
  a.jz(l("app_no_tick"));
  a.sub(kR1, kR0, kR4);
  a.mov(kR4, kR0);
  a.ld32(kR2, kR6, i32(Mailbox::kRateBytesPerTick));
  a.mul(kR1, kR1, kR2);
  a.add(kR5, kR5, kR1);
  // burst cap: 8 ticks worth
  a.shli(kR2, kR2, 3);
  a.cmp(kR5, kR2);
  a.jbe(l("app_no_tick"));
  a.mov(kR5, kR2);
  a.label("app_no_tick");

  a.ld32(kR2, kR6, i32(Mailbox::kSegmentBytes));
  a.cmp(kR5, kR2);
  a.jb(l("app_wait"));
  a.movi(kR0, u32{kSysSend});
  a.int_(kVecSyscall);
  a.cmpi(kR0, u32{0});
  a.jnz(l("app_wait"));
  a.ld32(kR2, kR6, i32(Mailbox::kSegmentBytes));
  a.sub(kR5, kR5, kR2);
  a.jmp(l("app_loop"));

  a.label("app_wait");
  a.ld32(kR0, kR6, i32(Mailbox::kHeartbeat));
  a.addi(kR0, kR0, u32{1});
  a.st32(kR6, i32(Mailbox::kHeartbeat), kR0);
  a.movi(kR0, u32{kSysWait});
  a.int_(kVecSyscall);
  a.jmp(l("app_loop"));

  return a.finalize();
}

}  // namespace

net::FlowSpec BuildConfig::default_flow() {
  net::FlowSpec f;
  f.src_mac = {0x02, 0x12, 0x34, 0x56, 0x78, 0x9a};
  f.dst_mac = {0x02, 0xab, 0xcd, 0xef, 0x01, 0x23};
  f.src_ip = 0xc0a80a02;  // 192.168.10.2
  f.dst_ip = 0xc0a80a01;  // 192.168.10.1
  f.src_port = 5004;
  f.dst_port = 5004;
  return f;
}

RunConfig RunConfig::for_rate_mbps(double mbps) {
  RunConfig rc;
  // One tick is ~1 ms (PIT divisor 1193): data bytes per tick.
  rc.rate_bytes_per_tick = static_cast<u32>(mbps * 1e6 / 8.0 / 1000.0);
  return rc;
}

GuestImage build_minitactix(const BuildConfig& cfg) {
  if (cfg.copy_unroll == 0 || cfg.checksum_unroll == 0) {
    throw std::invalid_argument("unroll factors must be nonzero");
  }
  Assembler k(kKernelBase);
  emit_entry(k);
  emit_pic_init(k);
  emit_pit_init(k);
  emit_nic_init(k);
  emit_net_precompute(k);
  emit_paging_init(k);
  for (unsigned d = 0; d < 3; ++d) emit_issue_read(k, d);
  emit_issue_dispatch(k);
  emit_timer_isr(k);
  emit_spurious_isrs(k);
  emit_nic_isr(k);
  for (unsigned d = 0; d < 3; ++d) emit_scsi_isr(k, d);
  emit_syscall(k, cfg);
  emit_panic(k);
  emit_idt(k);
  emit_data(k, cfg);

  GuestImage img;
  img.kernel = k.finalize();
  img.app = build_app();
  return img;
}

void write_run_config(cpu::PhysMem& mem, const RunConfig& rc) {
  // 16 = default copy unroll stride; also keeps (segment+4) a multiple of
  // the default checksum stride (4 bytes).
  if (rc.segment_bytes == 0 || rc.segment_bytes % 16 != 0) {
    throw std::invalid_argument(
        "segment_bytes must be a nonzero multiple of 16");
  }
  if (rc.chunk_bytes == 0 || rc.chunk_bytes % rc.segment_bytes != 0) {
    throw std::invalid_argument("chunk_bytes must be a multiple of segment_bytes");
  }
  if (rc.chunk_bytes % hw::kSectorBytes != 0) {
    throw std::invalid_argument("chunk_bytes must be sector-aligned");
  }
  if (rc.segment_bytes + net::kAllHeaderBytes + 4 + kPad > kPktBufBytes) {
    throw std::invalid_argument("segment too large for the packet buffers");
  }
  mem.write32(kMailboxBase + Mailbox::kRateBytesPerTick,
              rc.rate_bytes_per_tick);
  mem.write32(kMailboxBase + Mailbox::kSegmentBytes, rc.segment_bytes);
  mem.write32(kMailboxBase + Mailbox::kChunkBytes, rc.chunk_bytes);
  mem.write32(kMailboxBase + Mailbox::kRunFlags, rc.run_flags);
  mem.write32(kMailboxBase + Mailbox::kStopAfterSegments,
              rc.stop_after_segments);
}

MailboxStats read_mailbox(const cpu::PhysMem& mem) {
  MailboxStats s;
  s.magic = mem.read32(kMailboxBase + Mailbox::kMagic);
  s.ticks = mem.read32(kMailboxBase + Mailbox::kTicks);
  s.segments_sent = mem.read32(kMailboxBase + Mailbox::kSegmentsSent);
  s.bytes_sent = mem.read32(kMailboxBase + Mailbox::kBytesSentLo);
  s.disk_reads = mem.read32(kMailboxBase + Mailbox::kDiskReads);
  s.tx_completions = mem.read32(kMailboxBase + Mailbox::kTxCompletions);
  s.underruns = mem.read32(kMailboxBase + Mailbox::kUnderruns);
  s.ring_full = mem.read32(kMailboxBase + Mailbox::kRingFull);
  s.seq = mem.read32(kMailboxBase + Mailbox::kSeq);
  s.syscalls = mem.read32(kMailboxBase + Mailbox::kSyscalls);
  s.last_error = mem.read32(kMailboxBase + Mailbox::kLastError);
  s.panic_pc = mem.read32(kMailboxBase + Mailbox::kPanicPc);
  s.heartbeat = mem.read32(kMailboxBase + Mailbox::kHeartbeat);
  s.last_tick_tsc_value = mem.read32(kMailboxBase + Mailbox::kLastTickTsc);
  s.ctrl_requests = mem.read32(kMailboxBase + Mailbox::kCtrlRequests);
  s.last_ctrl_cmd = mem.read32(kMailboxBase + Mailbox::kLastCtrlCmd);
  s.last_ctrl_arg = mem.read32(kMailboxBase + Mailbox::kLastCtrlArg);
  return s;
}

std::vector<u8> build_control_frame(u32 cmd, u32 arg,
                                    const net::FlowSpec& reverse_flow) {
  // Requests travel "back" toward the appliance: swap the flow endpoints.
  net::FlowSpec f;
  f.src_mac = reverse_flow.dst_mac;
  f.dst_mac = reverse_flow.src_mac;
  f.src_ip = reverse_flow.dst_ip;
  f.dst_ip = reverse_flow.src_ip;
  f.src_port = reverse_flow.dst_port;
  f.dst_port = reverse_flow.src_port;
  std::vector<u8> payload(14, 0);
  auto put32 = [&](u32 off, u32 v) {
    payload[off] = static_cast<u8>(v);
    payload[off + 1] = static_cast<u8>(v >> 8);
    payload[off + 2] = static_cast<u8>(v >> 16);
    payload[off + 3] = static_cast<u8>(v >> 24);
  };
  put32(2, kCtrlMagic);
  put32(6, cmd);
  put32(10, arg);
  return net::build_frame(f, payload);
}

net::PacketSink::Validator make_stream_validator(const RunConfig& rc) {
  const u32 seg = rc.segment_bytes;
  const u32 chunk = rc.chunk_bytes;
  return [seg, chunk](u32 seq, std::span<const u8> body) {
    if (body.size() != seg) return false;
    const u64 stream_off = u64(seq) * seg;
    const u32 chunk_idx = static_cast<u32>(stream_off / chunk);
    const u32 off_in_chunk = static_cast<u32>(stream_off % chunk);
    const unsigned disk = chunk_idx % 3;
    const u32 stripe = (chunk_idx / 3) % 2048;
    u32 lba = stripe * (chunk / hw::kSectorBytes) +
              off_in_chunk / hw::kSectorBytes;
    // The segment starts mid-sector unless segment_bytes is a multiple of
    // the sector size; compare it piece by piece up to each sector edge.
    u32 sector_off = off_in_chunk % hw::kSectorBytes;
    std::array<u8, hw::kSectorBytes> expect;
    for (std::size_t done = 0; done < body.size(); ++lba, sector_off = 0) {
      const std::size_t n = std::min<std::size_t>(
          hw::kSectorBytes - sector_off, body.size() - done);
      const std::span<u8> piece(expect.data(), n);
      hw::ScsiDisk::fill_pattern(disk, lba, sector_off, piece);
      if (!std::equal(piece.begin(), piece.end(), body.begin() + done)) {
        return false;
      }
      done += n;
    }
    return true;
  };
}

}  // namespace vdbg::guest
