#include "harness/platform.h"

#include <unistd.h>

#include <cstdlib>
#include <string>

namespace vdbg::harness {

std::string_view platform_name(PlatformKind k) {
  switch (k) {
    case PlatformKind::kNative: return "real-hardware";
    case PlatformKind::kLvmm: return "lvmm";
    case PlatformKind::kHosted: return "vmware-ws4-like";
  }
  return "?";
}

Platform::Platform(PlatformKind kind) : Platform(kind, PlatformOptions{}) {}

Platform::Platform(PlatformKind kind, const PlatformOptions& opts)
    : unit_(kind, opts) {}

void Platform::prepare(const guest::RunConfig& rc) {
  unit_.prepare(rc);

  // CI post-mortem hook: with VDBG_FLIGHT_DIR set, every guest crash under
  // the monitor writes a flight-recorder bundle into that directory.
  // Read once during single-threaded harness setup; nothing ever setenvs.
  if (const char* dir = std::getenv("VDBG_FLIGHT_DIR")) {  // NOLINT(concurrency-mt-unsafe)
    unit_.arm_flight_recorder(dir, "flight-" + std::to_string(getpid()));
  }
}

}  // namespace vdbg::harness
