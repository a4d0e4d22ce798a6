// A breakpoint debugger built on /proc — the "sophisticated debugger" the
// interface was designed to facilitate. Demonstrates:
//  * breakpoints planted with address-space writes (BPT, the approved
//    1-byte breakpoint instruction), fielded as FLTBPT faults — "machine
//    faults are not used for inter-process communication and cannot be
//    intercepted or held by a process; stop-on-fault is the preferred
//    method for fielding breakpoints";
//  * conditional breakpoints evaluated debugger-side, the workload for
//    which "breakpoints per second is a realistic measure of performance";
//  * symbol tables located at run time through PIOCOPENM, without
//    pathnames;
//  * single-stepping via PRSTEP/FLTTRACE and data watchpoints via the
//    proposed watchpoint facility;
//  * the ability to grab and debug an existing process (which the paper
//    notes sdb gained when rewritten over /proc).
#ifndef SVR4PROC_TOOLS_DEBUGGER_H_
#define SVR4PROC_TOOLS_DEBUGGER_H_

#include <functional>
#include <map>
#include <string>

#include "svr4proc/isa/aout.h"
#include "svr4proc/tools/proclib.h"

namespace svr4 {

class Debugger {
 public:
  struct StopInfo {
    enum Kind { kBreakpoint, kWatchpoint, kSignal, kFault, kSyscall, kExited };
    Kind kind = kExited;
    uint32_t addr = 0;      // breakpoint/watchpoint address
    int what = 0;           // signal, fault, or syscall number
    std::string symbol;     // nearest symbol for addr, if known
    PrStatus status;        // full status at the stop
    int exit_status = 0;    // valid when kind == kExited
  };

  // Condition evaluated by the debugger at a conditional breakpoint; the
  // target resumes silently when it returns false.
  using Condition = std::function<bool(const PrStatus&)>;

  Debugger(Kernel& k, Proc* controller) : kernel_(&k), controller_(controller) {}

  // Grabs an existing process (it is stopped) and loads its symbol table
  // through PIOCOPENM.
  Result<void> Attach(Pid pid);
  // Lifts breakpoints, clears tracing, and sets the process running.
  Result<void> Detach();

  bool attached() const { return handle_.has_value(); }
  ProcHandle& handle() { return *handle_; }
  const Aout& symbols() const { return symbols_; }

  // --- symbols ---
  Result<uint32_t> Lookup(const std::string& name) const;
  std::string SymbolAt(uint32_t addr) const;

  // --- breakpoints ---
  Result<void> SetBreakpoint(uint32_t addr);
  Result<void> SetBreakpoint(const std::string& symbol);
  Result<void> SetConditionalBreakpoint(uint32_t addr, Condition cond);
  Result<void> ClearBreakpoint(uint32_t addr);

  // --- watchpoints ---
  Result<void> WatchVariable(const std::string& symbol, uint32_t size, int wflags);
  Result<void> UnwatchVariable(const std::string& symbol);

  // --- execution ---
  // Resumes until the next reportable stop (breakpoint whose condition
  // holds, watchpoint, signal, fault) or exit. Unsatisfied conditional
  // breakpoints are stepped over transparently.
  Result<StopInfo> Continue();
  // Executes exactly one instruction.
  Result<PrStatus> StepInstruction();

  // --- forced syscall execution ---
  // "A debugger can force a process to execute system calls on the
  // debugger's behalf without the process's knowledge or consent." Plants a
  // SYS instruction at the stopped pc (COW-safe), loads the argument
  // registers, runs to the syscall exit stop, collects the result, and
  // restores everything. The target must be stopped on an event of
  // interest; it is left stopped exactly where it was.
  Result<uint32_t> InjectSyscall(int num, const std::vector<uint32_t>& args);

  // --- data access by symbol ---
  Result<uint32_t> ReadWord(const std::string& symbol_or_empty, uint32_t addr = 0);
  Result<void> WriteWord(const std::string& symbol_or_empty, uint32_t value,
                         uint32_t addr = 0);

  // Disassembles `count` instructions starting at addr.
  Result<std::string> Disassemble(uint32_t addr, int count);

  uint64_t breakpoint_evaluations() const { return bp_evaluations_; }

 private:
  struct Breakpoint {
    uint8_t saved_byte = 0;
    Condition cond;  // empty: unconditional
  };

  Result<void> LiftAll();
  // Steps over the breakpoint at the current pc (lift, single-step, replant).
  Result<void> StepOverBreakpoint(uint32_t addr);
  StopInfo Classify(const PrStatus& st);

  Kernel* kernel_;
  Proc* controller_;
  std::optional<ProcHandle> handle_;
  Aout symbols_;
  std::map<uint32_t, Breakpoint> breakpoints_;
  uint64_t bp_evaluations_ = 0;
};

}  // namespace svr4

#endif  // SVR4PROC_TOOLS_DEBUGGER_H_
