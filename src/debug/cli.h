// Command-line front end for the remote debugger: the interactive tool a
// developer would actually sit at (the "software remote debugger" box of
// the paper's Fig. 2.1). Scriptable: commands come from any istream and
// output goes to any ostream, so sessions are testable and replayable.
//
// Commands (see `help`):
//   run <ms>                advance the target by simulated milliseconds
//   int                     break in (^C)
//   c [ms]                  continue, waiting up to ms for a stop
//   s [n]                   single-step n instructions
//   break <addr|sym>        set / clear software breakpoints
//   delete <addr|sym>
//   watch <addr|sym> [len]  set / clear write watchpoints
//   unwatch <addr|sym> [len]
//   regs                    dump registers (with symbolised pc)
//   set <reg> <hex>         write a register (r0..r7/sp, pc, psw)
//   x <addr|sym> [len]      hex dump of target memory
//   w32 <addr|sym> <hex>    write one 32-bit word
//   disas [addr|sym] [n]    disassemble (default: at pc)
//   sym <name>              resolve a symbol
//   trace on|off|show [n]   VM-exit tracer control
//   status                  stop state, crash flag, monitor canary
//   quit
#pragma once

#include <iosfwd>
#include <string>

#include "debug/remote_debugger.h"

namespace vdbg::debug {

class DebuggerCli {
 public:
  DebuggerCli(RemoteDebugger& dbg, hw::Machine& machine, std::ostream& out)
      : dbg_(dbg), machine_(machine), out_(out) {}

  /// Executes one command line. Returns false when the session should end
  /// ("quit"/EOF sentinel), true otherwise. Unknown commands print an error
  /// but keep the session alive.
  bool execute(const std::string& line);

  /// Reads commands from `in` until EOF or quit; echoes prompts when
  /// `echo` is set (useful for transcript-style demo output).
  void run(std::istream& in, bool echo = false);

 private:
  /// Parses "0x..."/hex literals or symbol names (with +offset).
  std::optional<u32> parse_addr(const std::string& token) const;
  void cmd_help();
  void cmd_regs();
  void cmd_dump(u32 addr, u32 len);
  void cmd_disas(u32 addr, unsigned count);
  void show_stop(RemoteDebugger::StopKind kind);

  RemoteDebugger& dbg_;
  hw::Machine& machine_;
  std::ostream& out_;
};

}  // namespace vdbg::debug
