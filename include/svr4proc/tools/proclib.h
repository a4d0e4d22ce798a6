// proclib: a typed controlling-process library over the flat /proc
// interface. Debuggers, ps, truss, and the examples are built on this; it
// plays the role of the libproc layer that grew around SVR4 /proc.
#ifndef SVR4PROC_TOOLS_PROCLIB_H_
#define SVR4PROC_TOOLS_PROCLIB_H_

#include <memory>
#include <string>
#include <vector>

#include "svr4proc/kernel/kernel.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/procfs/types.h"
#include "svr4proc/tools/procio.h"

namespace svr4 {

// A parsed /proc2/<pid>/trace (or /proc2/kernel/trace) snapshot.
struct PrTrace {
  KtSnapHeader hdr{};
  std::vector<KtRec> recs;
};

// A controlling process's grip on one target process: an open descriptor on
// /proc/<pid> plus typed wrappers for the PIOC* operations.
class ProcHandle {
 public:
  // Opens /proc/<pid>. oflags O_RDWR for control, O_RDONLY for inspection,
  // O_RDWR|O_EXCL for exclusive control. The in-process form wraps the
  // kernel in an owned LocalProcIo; the ProcIo form works over any
  // transport (procd's RemoteProcIo included) and must outlive the handle.
  static Result<ProcHandle> Grab(Kernel& k, Proc* controller, Pid pid,
                                 int oflags = O_RDWR);
  static Result<ProcHandle> Grab(ProcIo& io, Pid pid, int oflags = O_RDWR);

  ProcHandle(ProcHandle&& o) noexcept;
  ProcHandle& operator=(ProcHandle&& o) noexcept;
  ProcHandle(const ProcHandle&) = delete;
  ProcHandle& operator=(const ProcHandle&) = delete;
  ~ProcHandle();

  void Close();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  Pid pid() const { return pid_; }

  // --- status & control ---
  Result<PrStatus> Status();
  Result<void> Stop();                    // direct to stop and wait
  Result<void> WaitStop();                // wait for a stop
  Result<void> Run(const PrRun& r = {});  // resume
  Result<void> RunClearSig();
  Result<void> RunClearFault();
  Result<void> Step();  // PRSTEP: execute one instruction and stop

  // --- events of interest ---
  Result<void> SetSigTrace(const SigSet& s);
  Result<SigSet> GetSigTrace();
  Result<void> SetFltTrace(const FltSet& f);
  Result<FltSet> GetFltTrace();
  Result<void> SetSysEntry(const SysSet& s);
  Result<SysSet> GetSysEntry();
  Result<void> SetSysExit(const SysSet& s);
  Result<SysSet> GetSysExit();

  // --- signals ---
  Result<void> Kill(int sig);
  Result<void> Unkill(int sig);
  Result<void> SetCurSig(const SigInfo& info);
  Result<void> ClearCurSig();
  Result<void> ClearCurFault();
  Result<SigSet> GetHold();
  Result<void> SetHold(const SigSet& s);
  Result<std::vector<SigAction>> GetActions();

  // --- modes ---
  Result<void> SetInheritOnFork(bool on);
  Result<void> SetRunOnLastClose(bool on);

  // --- registers ---
  Result<Regs> GetRegs();
  Result<void> SetRegs(const Regs& r);
  Result<FpRegs> GetFpRegs();
  Result<void> SetFpRegs(const FpRegs& r);

  // --- address space ---
  Result<int64_t> ReadMem(uint32_t vaddr, void* buf, uint64_t n);
  Result<int64_t> WriteMem(uint32_t vaddr, const void* buf, uint64_t n);
  Result<std::vector<PrMapEntry>> GetMap();
  // Read-only descriptor for the object mapped at vaddr (the executable
  // when use_exe): symbol tables without pathnames.
  Result<int> OpenMappedObject(bool use_exe, uint32_t vaddr = 0);

  // --- identity / accounting ---
  Result<PrPsinfo> Psinfo();
  Result<PrCred> Cred();
  Result<PrUsage> Usage();
  Result<PrVmStats> VmStats();
  Result<PrCtlAudit> Audit();  // the control audit ring (PIOCAUDIT)
  Result<PrKstat> Kstat();     // kernel-wide metrics registry (PIOCKSTAT)
  // Bulk ps info for the whole population: PIOCPSALL in windows of 1024
  // rows. One window (up to 1024 processes) is one operation whose buffer
  // becomes the result. A larger population reserves the result once, at
  // twice the first window, and copies each window into it from the one
  // window buffer, which every PIOCPSALL refills in place: two windows
  // allocate exactly the window and the result, on any transport. The
  // handle's own target is just the descriptor the requests ride on.
  Result<std::vector<PrPsinfo>> PsinfoAll();
  // The target's slice of the kernel event ring, read from
  // /proc2/<pid>/trace. Works on zombies, and keeps working after the
  // target is reaped as long as records survive in the ring.
  Result<PrTrace> Trace();
  Result<void> Nice(int delta);

  // --- profiling (PIOCPROF / /proc2/<pid>/prof) ---
  // Arms the deterministic pc sampler: one sample per 2^period_log2 user
  // instructions. Disarm keeps the accumulated buckets readable.
  Result<void> SetProf(int period_log2);
  Result<void> ClearProf();
  // The accumulated samples as folded-stack text ("name;0xPC count"
  // lines), ready for standard flamegraph tooling.
  Result<std::string> Prof();

  // --- proposed extensions ---
  Result<void> SetWatch(const PrWatch& w);
  Result<void> ClearWatch(uint32_t vaddr);
  Result<std::vector<PrWatch>> GetWatches();
  Result<PrPageData> PageData(bool clear);
  Result<PrLwpIds> LwpIds();

  // The transport this handle rides on; local_kernel()/local_proc() are
  // null when it is remote.
  ProcIo& io() { return *io_; }

 private:
  ProcHandle(std::unique_ptr<ProcIo> owned, ProcIo* io, Pid pid, int fd)
      : owned_io_(std::move(owned)), io_(io), pid_(pid), fd_(fd) {}

  Result<int32_t> Io(uint32_t op, void* arg);

  std::unique_ptr<ProcIo> owned_io_;
  ProcIo* io_ = nullptr;
  Pid pid_ = 0;
  int fd_ = -1;
};

// Reads and parses a binary trace-snapshot file (/proc2/kernel/trace or
// /proc2/<pid>/trace). An empty file — ring never armed — parses as an
// empty snapshot, not an error.
Result<PrTrace> ReadTraceFile(Kernel& k, Proc* caller, const std::string& path);
Result<PrTrace> ReadTraceFile(ProcIo& io, const std::string& path);

// Reads a whole text file over any ProcIo transport.
Result<std::string> ReadTextFile(ProcIo& io, const std::string& path);

// The procd span/stats registry (/proc2/kernel/procd) over any transport —
// local reads and RemoteProcIo reads return the same text.
Result<std::string> ProcdStats(ProcIo& io);

// Checks that every line of a metrics-style text (/proc2/kernel/metrics,
// /proc2/kernel/procd) has the `key value...` shape: a newline-terminated
// line whose first token is an identifier (optionally `name[tag]`) followed
// by at least one value token. On failure *bad_line gets the offender.
// Tools use this as a format canary so renderer drift fails loudly.
bool ValidateMetricsText(const std::string& text, std::string* bad_line = nullptr);

}  // namespace svr4

#endif  // SVR4PROC_TOOLS_PROCLIB_H_
