// truss(1): traces the execution of a process, "producing a symbolic report
// of the system calls it executes, the faults it encounters and the signals
// it receives". Built on syscall entry/exit interception through /proc;
// optionally follows child processes via inherit-on-fork.
#ifndef SVR4PROC_TOOLS_TRUSS_H_
#define SVR4PROC_TOOLS_TRUSS_H_

#include <map>
#include <string>
#include <vector>

#include "svr4proc/tools/proclib.h"

namespace svr4 {

// Renders a control audit ring snapshot (PIOCAUDIT / /proc2/<pid>/ctlaudit)
// as a symbolic report, one line per record: operation, caller, lwp,
// result, tick. The observability counterpart of the syscall trace.
std::string FormatCtlAudit(const PrCtlAudit& a);

struct TrussOptions {
  bool follow_fork = false;   // -f: trace children as they are created
  bool counts_only = false;   // -c: summary table instead of a line per call
  SysSet filter{};            // -t: trace only these syscalls (empty: all)
  uint64_t max_events = 100000;  // safety valve
};

class Truss {
 public:
  // In-process form (wraps the kernel in an owned LocalProcIo) and the
  // transport-generic form: a Truss over procd's RemoteProcIo traces
  // processes on a remote kernel with the same code paths.
  Truss(Kernel& k, Proc* caller, TrussOptions opts = {});
  Truss(ProcIo& io, TrussOptions opts = {});

  // Traces the process until it (and, with -f, all its traced descendants)
  // exits. The report accumulates in report().
  Result<void> Trace(Pid pid);

  // "truss can be applied to running processes or used to start up commands
  // to be traced": spawns the command with tracing armed before it executes
  // its first instruction, then traces it to completion.
  Result<void> TraceCommand(const std::string& path, const std::vector<std::string>& argv,
                            const Creds& creds = Creds::Root());

  const std::string& report() const { return report_; }
  const std::map<int, uint64_t>& syscall_counts() const { return counts_; }
  uint64_t events() const { return events_; }

  // Formats the -c style summary table. When the kernel metrics registry
  // was armed for the trace, each row carries count, error count, and
  // average/max entry->exit latency in ticks, computed as registry deltas
  // across the trace window; otherwise it falls back to truss's own event
  // counts.
  std::string CountsTable() const;

 private:
  // Applies the tracing sets to a newly grabbed process.
  Result<void> Arm(ProcHandle& h);
  // Handles one stop of one tracee; may add new tracees (fork exits).
  Result<void> HandleStop(ProcHandle& h);
  void Emit(Pid pid, const std::string& line);

  std::unique_ptr<ProcIo> owned_io_;
  ProcIo* io_;
  TrussOptions opts_;
  std::map<Pid, ProcHandle> tracees_;
  std::string report_;
  std::map<int, uint64_t> counts_;
  uint64_t events_ = 0;
  // Registry snapshots bracketing the trace, for the -c latency columns.
  PrKstat kstat_base_;
  PrKstat kstat_end_;
  bool kstat_valid_ = false;
};

}  // namespace svr4

#endif  // SVR4PROC_TOOLS_TRUSS_H_
