// Device-model unit tests: port router, PIC pair, PIT, UART, SCSI disks,
// NIC and the diagnostic port, each driven through its register interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "hw/diag_port.h"
#include "hw/io_bus.h"
#include "hw/machine.h"
#include "hw/nic.h"
#include "hw/pic.h"
#include "hw/pit.h"
#include "hw/scsi_disk.h"
#include "hw/uart.h"
#include "net/udp.h"

namespace vdbg::test {
namespace {

using namespace hw;

// ------------------------------------------------------------- io router --
struct CountingDev final : IoDevice {
  u32 io_read(u16 offset) override {
    last_read = offset;
    return 0x11110000u | offset;
  }
  void io_write(u16 offset, u32 value) override {
    last_write = offset;
    last_value = value;
  }
  u16 last_read = 0xffff, last_write = 0xffff;
  u32 last_value = 0;
};

TEST(PortRouter, RoutesWithRelativeOffsets) {
  PortRouter r;
  CountingDev a, b;
  r.map(0x100, 0x10, &a);
  r.map(0x200, 0x10, &b);
  EXPECT_EQ(r.io_read(0x105), 0x11110005u);
  EXPECT_EQ(a.last_read, 5);
  r.io_write(0x20f, 42);
  EXPECT_EQ(b.last_write, 0xf);
  EXPECT_EQ(b.last_value, 42u);
}

TEST(PortRouter, UnmappedPortsFloat) {
  PortRouter r;
  EXPECT_EQ(r.io_read(0x555), 0xffffffffu);
  r.io_write(0x555, 1);  // dropped, no crash
}

TEST(PortRouter, RejectsOverlaps) {
  PortRouter r;
  CountingDev a, b;
  r.map(0x100, 0x10, &a);
  EXPECT_THROW(r.map(0x10f, 0x10, &b), std::invalid_argument);
  EXPECT_THROW(r.map(0x0f8, 0x10, &b), std::invalid_argument);
  r.map(0x110, 0x10, &b);  // adjacent is fine
}

TEST(PortRouter, DeviceAtFindsOwner) {
  PortRouter r;
  CountingDev a;
  r.map(0x100, 0x10, &a);
  EXPECT_EQ(r.device_at(0x100), &a);
  EXPECT_EQ(r.device_at(0x10f), &a);
  EXPECT_EQ(r.device_at(0x110), nullptr);
}

// ------------------------------------------------------------------- pic --
struct PicRig {
  PicRig() {
    // Standard ICW sequence, offsets 0x20/0x28, all unmasked.
    auto& m = pic.master_ports();
    auto& s = pic.slave_ports();
    m.io_write(0, 0x11);
    m.io_write(1, 0x20);
    m.io_write(1, 0x04);
    m.io_write(1, 0x01);
    s.io_write(0, 0x11);
    s.io_write(1, 0x28);
    s.io_write(1, 0x02);
    s.io_write(1, 0x01);
    m.io_write(1, 0x00);
    s.io_write(1, 0x00);
  }
  Pic pic;
};

TEST(Pic, LevelInterruptDeliversProgrammedVector) {
  PicRig rig;
  EXPECT_FALSE(rig.pic.intr_asserted());
  rig.pic.set_irq_level(5, true);
  ASSERT_TRUE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.pic.acknowledge(), 0x25);
  // Level still asserted but in-service blocks re-delivery until EOI.
  EXPECT_FALSE(rig.pic.intr_asserted());
  rig.pic.set_irq_level(5, false);
  rig.pic.master_ports().io_write(0, 0x20);  // EOI
  EXPECT_FALSE(rig.pic.intr_asserted());
}

TEST(Pic, EdgePulseLatchesUntilAck) {
  PicRig rig;
  rig.pic.pulse_irq(0);
  ASSERT_TRUE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.pic.acknowledge(), 0x20);
  rig.pic.master_ports().io_write(0, 0x20);
  EXPECT_FALSE(rig.pic.intr_asserted());  // pulse consumed
}

TEST(Pic, PriorityLowestIrqWins) {
  PicRig rig;
  rig.pic.pulse_irq(5);
  rig.pic.pulse_irq(0);
  EXPECT_EQ(rig.pic.acknowledge(), 0x20);  // IRQ0 first
  rig.pic.master_ports().io_write(0, 0x20);
  EXPECT_EQ(rig.pic.acknowledge(), 0x25);
}

TEST(Pic, InServiceBlocksLowerPriorityUntilEoi) {
  PicRig rig;
  rig.pic.pulse_irq(3);
  EXPECT_EQ(rig.pic.acknowledge(), 0x23);
  rig.pic.pulse_irq(5);  // lower priority than in-service 3
  EXPECT_FALSE(rig.pic.intr_asserted());
  rig.pic.pulse_irq(1);  // higher priority preempts
  EXPECT_TRUE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.pic.acknowledge(), 0x21);
  rig.pic.master_ports().io_write(0, 0x20);  // EOI IRQ1
  rig.pic.master_ports().io_write(0, 0x20);  // EOI IRQ3
  EXPECT_EQ(rig.pic.acknowledge(), 0x25);
}

TEST(Pic, MaskSuppressesDelivery) {
  PicRig rig;
  rig.pic.master_ports().io_write(1, 1u << 5);  // mask IRQ5
  rig.pic.set_irq_level(5, true);
  EXPECT_FALSE(rig.pic.intr_asserted());
  rig.pic.master_ports().io_write(1, 0x00);  // unmask
  EXPECT_TRUE(rig.pic.intr_asserted());
}

TEST(Pic, CascadeDeliversSlaveVectors) {
  PicRig rig;
  rig.pic.set_irq_level(10, true);
  ASSERT_TRUE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.pic.acknowledge(), 0x2a);
  // Slave EOI then master EOI, classic order.
  rig.pic.set_irq_level(10, false);
  rig.pic.slave_ports().io_write(0, 0x20);
  rig.pic.master_ports().io_write(0, 0x20);
  EXPECT_FALSE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.pic.isr(false), 0);
  EXPECT_EQ(rig.pic.isr(true), 0);
}

TEST(Pic, SpecificEoiClearsNamedIrq) {
  PicRig rig;
  rig.pic.pulse_irq(4);
  rig.pic.acknowledge();
  EXPECT_EQ(rig.pic.isr(false), 1u << 4);
  rig.pic.master_ports().io_write(0, 0x60 | 4);
  EXPECT_EQ(rig.pic.isr(false), 0);
}

TEST(Pic, Ocw3SelectsIsrOrIrrReadback) {
  PicRig rig;
  rig.pic.set_irq_level(2, true);  // cascade line, but readable in IRR
  rig.pic.master_ports().io_write(0, 0x0a);  // read IRR
  EXPECT_TRUE(rig.pic.master_ports().io_read(0) & (1u << 2));
  rig.pic.master_ports().io_write(0, 0x0b);  // read ISR
  EXPECT_EQ(rig.pic.master_ports().io_read(0), 0u);
}

TEST(Pic, MasksReadableOnDataPort) {
  PicRig rig;
  rig.pic.master_ports().io_write(1, 0xa5);
  EXPECT_EQ(rig.pic.master_ports().io_read(1), 0xa5u);
}

// ---------------------------------------------------------------- pit ----
struct TickRig : Clock {
  TickRig() : pit(eq, *this, pic) {}
  Cycles now() const override { return t; }
  void advance(Cycles d) {
    t += d;
    eq.run_until(t);
  }
  EventQueue eq;
  Pic pic;  // default construction: offsets 0x20/0x28, masked
  Cycles t = 0;
  Pit pit;
};

TEST(Pit, ProgrammedDivisorSetsTickRate) {
  TickRig rig;
  rig.pit.io_write(3, 0x34);  // control: ch0 lo/hi mode 2
  rig.pit.io_write(0, 0xa9);  // 1193 -> ~1 kHz
  rig.pit.io_write(0, 0x04);
  EXPECT_TRUE(rig.pit.running());
  EXPECT_EQ(rig.pit.divisor(), 1193u);
  rig.advance(seconds_to_cycles(0.1));
  EXPECT_NEAR(double(rig.pit.ticks_fired()), 100.0, 2.0);
}

TEST(Pit, ReprogrammingChangesRate) {
  TickRig rig;
  rig.pit.io_write(3, 0x34);
  rig.pit.io_write(0, 0xa9);
  rig.pit.io_write(0, 0x04);
  rig.advance(seconds_to_cycles(0.01));
  const u64 before = rig.pit.ticks_fired();
  rig.pit.io_write(3, 0x34);  // 2386 -> ~500 Hz
  rig.pit.io_write(0, 0x52);
  rig.pit.io_write(0, 0x09);
  rig.advance(seconds_to_cycles(0.1));
  EXPECT_NEAR(double(rig.pit.ticks_fired() - before), 50.0, 2.0);
}

TEST(Pit, ZeroDivisorMeans65536) {
  TickRig rig;
  rig.pit.io_write(3, 0x34);
  rig.pit.io_write(0, 0x00);
  rig.pit.io_write(0, 0x00);
  EXPECT_EQ(rig.pit.divisor(), 0x10000u);
}

TEST(Pit, PulsesIrq0) {
  TickRig rig;
  // Unmask IRQ0 on the default-constructed PIC.
  rig.pic.master_ports().io_write(1, 0xfe);
  rig.pit.io_write(3, 0x34);
  rig.pit.io_write(0, 0xa9);
  rig.pit.io_write(0, 0x04);
  rig.advance(seconds_to_cycles(0.002));
  EXPECT_TRUE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.pic.acknowledge(), rig.pic.vector_offset(false) + 0);
}

// ---------------------------------------------------------------- uart ---
struct UartRig : Clock {
  UartRig() : uart(eq, *this, pic, Uart::Config{100, 16}) {
    pic.master_ports().io_write(1, static_cast<u8>(~(1u << kUartIrq)));
    uart.set_tx_sink([this](u8 b) { host_rx.push_back(b); });
  }
  Cycles now() const override { return t; }
  void advance(Cycles d) {
    t += d;
    eq.run_until(t);
  }
  EventQueue eq;
  Pic pic;
  Cycles t = 0;
  Uart uart;
  std::vector<u8> host_rx;
};

TEST(Uart, TransmitSerialisesBytesToHost) {
  UartRig rig;
  rig.uart.io_write(0, 'h');
  rig.uart.io_write(0, 'i');
  EXPECT_TRUE(rig.host_rx.empty());  // still serialising
  rig.advance(250);
  EXPECT_EQ(rig.host_rx.size(), 2u);
  EXPECT_EQ(rig.host_rx[0], 'h');
  EXPECT_EQ(rig.host_rx[1], 'i');
}

TEST(Uart, ReceivePathRaisesIrqWhenEnabled) {
  UartRig rig;
  rig.uart.host_inject(u8{'x'});
  EXPECT_FALSE(rig.pic.intr_asserted());  // IER off
  rig.uart.io_write(1, 0x01);
  EXPECT_TRUE(rig.pic.intr_asserted());
  EXPECT_TRUE(rig.uart.io_read(5) & 0x01);  // LSR.DR
  EXPECT_EQ(rig.uart.io_read(0), 'x');
  EXPECT_FALSE(rig.uart.io_read(5) & 0x01);
  // Draining RBR deasserts.
  rig.pic.acknowledge();  // take it off the line for good measure
}

TEST(Uart, LsrThreReflectsFifoSpace) {
  UartRig rig;
  EXPECT_TRUE(rig.uart.io_read(5) & 0x20);  // THRE: room
  EXPECT_TRUE(rig.uart.io_read(5) & 0x40);  // TEMT: idle
  // First byte moves straight into the shift register; 16 more fill the
  // FIFO completely.
  for (int i = 0; i < 17; ++i) rig.uart.io_write(0, u8(i));
  EXPECT_FALSE(rig.uart.io_read(5) & 0x20);  // FIFO full
  rig.advance(100 * 18);
  EXPECT_TRUE(rig.uart.io_read(5) & 0x40);
  EXPECT_EQ(rig.host_rx.size(), 17u);
}

TEST(Uart, OverflowingTxFifoDropsBytes) {
  UartRig rig;
  for (int i = 0; i < 40; ++i) rig.uart.io_write(0, u8(i));
  rig.advance(100 * 50);
  // 16 FIFO + 1 in the shift register survive.
  EXPECT_EQ(rig.host_rx.size(), 17u);
}

TEST(Uart, ThreInterruptFiresOnceDrained) {
  UartRig rig;
  rig.uart.io_write(1, 0x02);  // THRE interrupt only
  rig.uart.io_write(0, 'a');
  rig.advance(250);
  EXPECT_TRUE(rig.pic.intr_asserted());
  EXPECT_EQ(rig.uart.io_read(2), 0x02u);  // IIR: THRE source, read clears
  EXPECT_FALSE(rig.pic.intr_asserted());
}

TEST(Uart, StringInjectQueuesAll) {
  UartRig rig;
  rig.uart.host_inject(std::string_view("$g#67"));
  std::string got;
  while (rig.uart.io_read(5) & 1) {
    got.push_back(static_cast<char>(rig.uart.io_read(0)));
  }
  EXPECT_EQ(got, "$g#67");
}

// ---------------------------------------------------------------- scsi ---
struct ScsiRig : Clock {
  ScsiRig()
      : mem(16 * 1024 * 1024),
        disk(0, eq, *this, pic, kScsiIrq0, mem, ScsiDisk::Config{}) {
    pic.slave_ports().io_write(1, 0x00);
    pic.master_ports().io_write(1, 0x00);
  }
  Cycles now() const override { return t; }
  void advance(Cycles d) {
    t += d;
    eq.run_until(t);
  }
  void request(u32 lba, u32 sectors, u32 dest, PAddr block = 0x1000,
               u16 doorbell = 0x04) {
    mem.write32(block + 0, lba);
    mem.write32(block + 4, sectors);
    mem.write32(block + 8, dest);
    mem.write32(block + 12, 0xffffffff);
    disk.io_write(0x00, block);
    disk.io_write(doorbell, 1);
  }
  /// Submits a request and runs it to completion, then acks it.
  void transfer(u32 lba, u32 sectors, u32 buf, bool is_write = false) {
    request(lba, sectors, buf, 0x1000, is_write ? 0x10 : 0x04);
    advance(seconds_to_cycles(0.01));
    ASSERT_FALSE(disk.busy());
    ASSERT_EQ(disk.io_read(0x0c), u32{ScsiDisk::kOk});
    disk.io_write(0x08, 1);
  }
  std::vector<u8> memory(u32 a, u32 len) const {
    std::vector<u8> out(len);
    mem.read_block(a, out);
    return out;
  }
  std::vector<u8> medium(u32 lba, u32 len) const {
    std::vector<u8> out(len);
    disk.read_medium(lba, out);
    return out;
  }
  EventQueue eq;
  Pic pic;
  cpu::PhysMem mem;
  Cycles t = 0;
  ScsiDisk disk;
};

TEST(Scsi, ReadDeliversDeterministicPattern) {
  ScsiRig rig;
  rig.request(100, 4, 0x8000);
  EXPECT_TRUE(rig.disk.busy());
  rig.advance(seconds_to_cycles(0.01));
  EXPECT_FALSE(rig.disk.busy());
  EXPECT_EQ(rig.disk.io_read(0x08), 1u);  // completion pending
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kOk});
  EXPECT_EQ(rig.mem.read32(0x1000 + 12), u32{ScsiDisk::kOk});
  // Content matches the generator at every probed offset.
  for (u32 off : {0u, 1u, 511u, 512u, 2047u}) {
    EXPECT_EQ(rig.mem.read8(0x8000 + off),
              ScsiDisk::pattern_byte(0, 100 + off / 512, off % 512));
  }
  EXPECT_TRUE(rig.pic.intr_asserted());
  rig.disk.io_write(0x08, 1);  // ack deasserts
  EXPECT_FALSE(rig.pic.intr_asserted());
}

TEST(Scsi, TransferTimeMatchesChannelRate) {
  ScsiRig rig;
  const u32 sectors = 4096;  // 2 MiB
  rig.request(0, sectors, 0x100000);
  // At 160 MB/s, 2 MiB takes ~13.1 ms plus command overhead.
  rig.advance(seconds_to_cycles(0.0130));
  EXPECT_TRUE(rig.disk.busy());
  rig.advance(seconds_to_cycles(0.0005));
  EXPECT_FALSE(rig.disk.busy());
}

TEST(Scsi, RejectsBadRequests) {
  ScsiRig rig;
  rig.request(0, 0, 0x8000);  // zero length
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kBadRequest});
  rig.disk.io_write(0x08, 1);
  rig.request(0xffffffff, 4, 0x8000);  // LBA beyond capacity
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kBadRequest});
  rig.request(0, 4, 0x8001);  // unaligned destination
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kBadRequest});
}

TEST(Scsi, RejectsDmaBeyondRamAndIntoProtected) {
  ScsiRig rig;
  rig.request(0, 4, 0xfff000);  // partially beyond 16 MiB RAM? in range...
  rig.advance(seconds_to_cycles(0.01));
  rig.disk.io_write(0x08, 1);
  rig.request(0, 64, 0xfff000);  // 32 KiB from 0xfff000 exceeds 16 MiB
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kDmaError});
  rig.mem.add_protected_range(0x200000, 0x1000);
  rig.request(0, 4, 0x200000);
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kDmaError});
}

TEST(Scsi, DoorbellWhileBusyReportsBusy) {
  ScsiRig rig;
  rig.request(0, 4, 0x8000);
  rig.disk.io_write(0x04, 1);  // second doorbell mid-flight
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kBusy});
  rig.advance(seconds_to_cycles(0.01));
  EXPECT_EQ(rig.disk.io_read(0x0c), u32{ScsiDisk::kOk});  // original done
}

TEST(Scsi, FillPatternMatchesPatternByteAcrossSectorEdges) {
  const u32 near_end = ScsiDisk::Config{}.capacity_sectors - 3;
  constexpr u32 kMaxLen = 3 * kSectorBytes;
  constexpr u8 kCanary = 0xa5;
  std::vector<u8> buf(kMaxLen + 16);
  const auto check = [&](unsigned disk, u32 lba, u32 first, u32 len) {
    std::fill(buf.begin(), buf.end(), kCanary);
    ScsiDisk::fill_pattern(disk, lba, first, std::span<u8>(buf.data(), len));
    for (u32 i = 0; i < len; ++i) {
      const u32 pos = first + i;
      const u8 want = ScsiDisk::pattern_byte(disk, lba + pos / kSectorBytes,
                                             pos % kSectorBytes);
      if (buf[i] != want) {
        ADD_FAILURE() << "disk " << disk << " lba " << lba << " first "
                      << first << " len " << len << ": byte " << i;
        return false;
      }
    }
    for (u32 i = len; i < len + 16; ++i) {
      if (buf[i] != kCanary) {
        ADD_FAILURE() << "wrote past len " << len << " at first " << first;
        return false;
      }
    }
    return true;
  };
  for (unsigned disk : {0u, 1u, 2u}) {
    for (u32 lba : {0u, 77u, near_end}) {
      // Every start offset, with lengths that stop just short of, at and
      // just past each of the next sector edges.
      for (u32 first = 0; first < kSectorBytes; ++first) {
        const u32 edge = kSectorBytes - first;
        for (u32 len : {0u, 1u, edge - 1, edge, edge + 1, edge + 511,
                        edge + kSectorBytes, edge + kSectorBytes + 1,
                        kMaxLen}) {
          if (!check(disk, lba, first, len)) return;
        }
      }
      // Every length, from a few start offsets.
      for (u32 first : {0u, 1u, 255u, 511u}) {
        for (u32 len = 0; len <= kMaxLen; ++len) {
          if (!check(disk, lba, first, len)) return;
        }
      }
    }
  }
}

TEST(Scsi, ReadAcrossPagesWithOverlaySectorsMatchesMedium) {
  ScsiRig rig;
  const u32 lba = 1000, sectors = 20;
  const u32 dest = 0x20ffc;  // 4-byte aligned, straddles three page edges
  const u32 bytes = sectors * kSectorBytes;
  // The guest writes the first, a middle and the last sector of the range.
  for (u32 s : {0u, 9u, sectors - 1}) {
    std::vector<u8> data(kSectorBytes);
    for (u32 i = 0; i < kSectorBytes; ++i) data[i] = static_cast<u8>(s * 7 + i);
    rig.mem.write_block(0x100000, data);
    rig.transfer(lba + s, 1, 0x100000, /*is_write=*/true);
  }
  ASSERT_EQ(rig.disk.sectors_written(), 3u);
  std::vector<u8> fence(bytes + 8, 0x5a);
  rig.mem.write_block(dest - 4, fence);

  rig.transfer(lba, sectors, dest);
  EXPECT_EQ(rig.memory(dest, bytes), rig.medium(lba, bytes));
  EXPECT_EQ(rig.mem.read8(dest + 9 * kSectorBytes + 3), u8{9 * 7 + 3})
      << "an overlay sector reached guest memory";
  EXPECT_EQ(rig.mem.read32(dest - 4), 0x5a5a5a5au);
  EXPECT_EQ(rig.mem.read32(dest + bytes), 0x5a5a5a5au);
}

TEST(Scsi, ReadOverCapturedPagesCopiesOnWriteLikeWriteBlock) {
  const u32 lba = 40, sectors = 14;
  const u32 dest = 0x40800;  // pages 0x40..0x42; 0x42 is never written
  const u32 bytes = sectors * kSectorBytes;
  const auto prime = [&](ScsiRig& rig) {
    std::vector<u8> before(2 * cpu::kPageSize, 0x33);
    rig.mem.write_block(0x40000, before);
    return rig.mem.capture_cow();
  };

  ScsiRig dma;
  const cpu::CowPages capture = prime(dma);
  dma.request(lba, sectors, dest);  // writes the request block first
  const u64 faults = dma.mem.cow_faults();
  dma.advance(seconds_to_cycles(0.01));
  ASSERT_EQ(dma.disk.io_read(0x0c), u32{ScsiDisk::kOk});
  const u64 dma_faults = dma.mem.cow_faults() - faults;

  ScsiRig copy;
  const cpu::CowPages copy_capture = prime(copy);
  const u64 copy_before = copy.mem.cow_faults();
  copy.mem.write_block(dest, copy.medium(lba, bytes));
  EXPECT_EQ(dma_faults, copy.mem.cow_faults() - copy_before);
  EXPECT_EQ(dma_faults, 3u);

  EXPECT_EQ(dma.memory(dest, bytes), dma.medium(lba, bytes));
  // The capture still holds the bytes from before the transfer.
  cpu::PhysMem seen(dma.mem.size());
  ASSERT_TRUE(seen.adopt_cow(capture));
  std::vector<u8> kept(3 * cpu::kPageSize);
  seen.read_block(0x40000, kept);
  std::vector<u8> want(3 * cpu::kPageSize, 0);
  std::fill_n(want.begin(), 2 * cpu::kPageSize, u8{0x33});
  EXPECT_EQ(kept, want);
}

TEST(Scsi, ReadOverDecodedCodeRetiresThatPageOnly) {
  ScsiRig rig;
  const u32 dest = 0x50000, sectors = 16;  // pages 0x50 and 0x51
  rig.mem.mark_code(0x50000 + 0x200, 64);  // inside the transfer
  rig.mem.mark_code(0x52000 + 0x40, 64);   // just past it
  const u64 in = rig.mem.page_version(0x50);
  const u64 clean = rig.mem.page_version(0x51);
  const u64 out = rig.mem.page_version(0x52);
  rig.transfer(7, sectors, dest);
  EXPECT_EQ(rig.mem.page_version(0x50), in + 1);
  EXPECT_EQ(rig.mem.page_version(0x51), clean);
  EXPECT_EQ(rig.mem.page_version(0x52), out);
}

// ----------------------------------------------------------------- nic ---
struct NicRig : Clock {
  NicRig() : mem(8 * 1024 * 1024), nic(eq, *this, pic, mem, Nic::Config{}) {
    pic.master_ports().io_write(1, 0x00);
    nic.set_wire_sink([this](std::span<const u8> f, Cycles) {
      frames.emplace_back(f.begin(), f.end());
    });
    nic.io_write(0x00, kRing);
    nic.io_write(0x04, 8);
    nic.io_write(0x14, 1);  // IMR
  }
  Cycles now() const override { return t; }
  void advance(Cycles d) {
    t += d;
    eq.run_until(t);
  }
  void put_desc(u32 index, u32 buf, u32 len, u32 flags) {
    const PAddr da = kRing + (index % 8) * kNicDescBytes;
    mem.write32(da + 0, buf);
    mem.write32(da + 4, len);
    mem.write32(da + 8, flags);
    mem.write32(da + 12, 0);
  }
  u32 desc_status(u32 index) const {
    return mem.read32(kRing + (index % 8) * kNicDescBytes + 12);
  }

  static constexpr PAddr kRing = 0x4000;
  EventQueue eq;
  Pic pic;
  cpu::PhysMem mem;
  Cycles t = 0;
  Nic nic;
  std::vector<std::vector<u8>> frames;
};

TEST(Nic, TransmitsQueuedFramesInOrder) {
  NicRig rig;
  for (u32 i = 0; i < 3; ++i) {
    for (u32 j = 0; j < 64; ++j) {
      rig.mem.write8(0x8000 + i * 64 + j, static_cast<u8>(i * 100 + j));
    }
    rig.put_desc(i, 0x8000 + i * 64, 64, NicDescFlags::kIrqOnComplete);
  }
  rig.nic.io_write(0x08, 3);  // tail doorbell
  rig.advance(seconds_to_cycles(0.001));
  ASSERT_EQ(rig.frames.size(), 3u);
  EXPECT_EQ(rig.frames[1][0], 100);
  EXPECT_EQ(rig.nic.io_read(0x0c), 3u);  // head
  EXPECT_EQ(rig.desc_status(0), 1u);
  EXPECT_TRUE(rig.pic.intr_asserted());
  rig.nic.io_write(0x10, 1);  // ISR ack
  EXPECT_FALSE(rig.pic.intr_asserted());
}

TEST(Nic, LineRatePacesTransmission) {
  NicRig rig;
  // A 1250-byte frame ~ (1250+24)*8 bits at 1 Gbps = ~10.2 us.
  rig.put_desc(0, 0x8000, 1250, 0);
  rig.nic.io_write(0x08, 1);
  rig.advance(seconds_to_cycles(9e-6));
  EXPECT_TRUE(rig.frames.empty());
  rig.advance(seconds_to_cycles(2e-6));
  EXPECT_EQ(rig.frames.size(), 1u);
}

TEST(Nic, RingWrapsWithFreeRunningIndices) {
  NicRig rig;
  u32 tail = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      rig.put_desc(tail, 0x8000, 64, 0);
      ++tail;
    }
    rig.nic.io_write(0x08, tail);
    rig.advance(seconds_to_cycles(0.001));
  }
  EXPECT_EQ(rig.frames.size(), 20u);
  EXPECT_EQ(rig.nic.io_read(0x0c), 20u);
}

TEST(Nic, BadDescriptorCompletesWithErrorAndContinues) {
  NicRig rig;
  rig.put_desc(0, 0x7f00000, 64, 0);  // buffer out of range
  rig.put_desc(1, 0x8000, 64, NicDescFlags::kIrqOnComplete);
  rig.nic.io_write(0x08, 2);
  rig.advance(seconds_to_cycles(0.001));
  EXPECT_EQ(rig.desc_status(0), 2u);
  EXPECT_EQ(rig.desc_status(1), 1u);
  EXPECT_EQ(rig.frames.size(), 1u);
  EXPECT_EQ(rig.nic.errors(), 1u);
  EXPECT_TRUE(rig.nic.io_read(0x10) & 2u);  // error bit latched in ISR
}

TEST(Nic, ZeroLengthRejected) {
  NicRig rig;
  rig.put_desc(0, 0x8000, 0, 0);
  rig.nic.io_write(0x08, 1);
  rig.advance(seconds_to_cycles(0.001));
  EXPECT_EQ(rig.desc_status(0), 2u);
}

net::FlowSpec test_flow() {
  net::FlowSpec f;
  f.src_mac = {1, 2, 3, 4, 5, 6};
  f.dst_mac = {7, 8, 9, 10, 11, 12};
  f.src_ip = 0x0a000001;
  f.dst_ip = 0x0a000002;
  f.src_port = 1000;
  f.dst_port = 2000;
  return f;
}

TEST(Nic, ChecksumOffloadFixesUdpChecksum) {
  NicRig rig;
  // Build a UDP frame with a ZERO checksum, ask the NIC to offload.
  net::FlowSpec flow = test_flow();
  std::vector<u8> payload(64, 0xab);
  auto frame = net::build_frame(flow, payload);
  frame[net::kEthHeaderBytes + net::kIpHeaderBytes + 6] = 0;  // zap checksum
  frame[net::kEthHeaderBytes + net::kIpHeaderBytes + 7] = 0;
  rig.mem.write_block(0x8000, frame);
  rig.put_desc(0, 0x8000, static_cast<u32>(frame.size()),
               NicDescFlags::kChecksumOffload);
  rig.nic.io_write(0x08, 1);
  rig.advance(seconds_to_cycles(0.001));
  ASSERT_EQ(rig.frames.size(), 1u);
  const auto parsed = net::parse_frame(rig.frames[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->udp_checksum_present);
  EXPECT_TRUE(parsed->udp_checksum_ok);
}

// ---------------------------------------------------------------- diag ---
TEST(DiagPort, CollectsTextValuesAndExit) {
  DiagPort d;
  for (char c : std::string("ok")) d.io_write(0x09, static_cast<u8>(c));
  d.io_write(0x10, 42);
  u32 exit_code = 0;
  d.set_exit_fn([&](u32 v) { exit_code = v; });
  d.io_write(0x14, 0x600d);
  EXPECT_EQ(d.text(), "ok");
  EXPECT_EQ(d.values(), (std::vector<u32>{42}));
  EXPECT_EQ(exit_code, 0x600du);
  d.set_host_value(7);
  EXPECT_EQ(d.io_read(0x10), 7u);
}

}  // namespace
}  // namespace vdbg::test
