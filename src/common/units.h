// Unit conversions between simulated cycles, wall time and data rates.
#pragma once

#include "common/types.h"

namespace vdbg {

/// Clock frequency of the simulated CPU. The paper's testbed is a 1.26 GHz
/// Pentium III; every rate/load computation in the harness uses this value.
inline constexpr double kCpuHz = 1.26e9;

inline constexpr u64 kKiB = 1024;
inline constexpr u64 kMiB = 1024 * 1024;

/// Converts a duration in seconds to simulated cycles (rounded down).
constexpr Cycles seconds_to_cycles(double seconds) {
  return static_cast<Cycles>(seconds * kCpuHz);
}

/// Converts simulated cycles to seconds.
constexpr double cycles_to_seconds(Cycles c) {
  return static_cast<double>(c) / kCpuHz;
}

/// Converts bytes moved over a cycle span to megabits per second.
constexpr double bytes_per_cycles_to_mbps(u64 bytes, Cycles span) {
  if (span == 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / 1e6 / cycles_to_seconds(span);
}

/// Number of cycles a device needs to move `bytes` at `bytes_per_sec`.
constexpr Cycles transfer_cycles(u64 bytes, double bytes_per_sec) {
  return static_cast<Cycles>(static_cast<double>(bytes) / bytes_per_sec *
                             kCpuHz);
}

}  // namespace vdbg
