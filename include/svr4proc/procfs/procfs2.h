// The proposed hierarchical process file system (the paper's "Proposed
// Restructuring"), mounted at /proc2 alongside the flat /proc.
//
// Each process is a directory of status and control files. "Process state
// is interrogated by read(2) operations applied to appropriate read-only
// status files and process control is effected by structured messages
// written to write-only control files." Batched messages — "several control
// operations in a single write" — are supported, which T-CTL benchmarks.
// Per-lwp subdirectories expose the threads of control sharing the address
// space, "a natural structure in which to present the relationship between
// a process and the individual threads-of-control".
//
// Layout. Each counted file is one row of the /proc file table (flat.cc):
// its name, its access (the mode below, and the only open modes it takes),
// whether it lives in an lwp directory, and its data source. A status file
// is the read(2) face of the PIOC* query named beside it: its reads run
// that query, so the query's zombie rule is the file's.
//   /proc2/<pid>/as       read/write  the address space (offset = vaddr)
//   /proc2/<pid>/ctl      write-only  control message stream
//   /proc2/<pid>/status   read-only   PrStatus (PIOCSTATUS)
//   /proc2/<pid>/psinfo   read-only   PrPsinfo (PIOCPSINFO)
//   /proc2/<pid>/map      read-only   PrMapEntry[]
//   /proc2/<pid>/cred     read-only   PrCred (PIOCCRED)
//   /proc2/<pid>/sigact   read-only   SigAction[128] (PIOCACTION)
//   /proc2/<pid>/usage    read-only   PrUsage (PIOCUSAGE)
//   /proc2/<pid>/ctlaudit read-only   PrCtlAudit, the control audit ring
//                                     (PIOCAUDIT)
//   /proc2/<pid>/trace    read-only   the event ring filtered to <pid>
//   /proc2/<pid>/prof     read-only   folded-stack profiler dump
//   /proc2/<pid>/lwp/<n>/lwpstatus    read-only   PrLwpStatus
//   /proc2/<pid>/lwp/<n>/lwpctl       write-only  per-lwp control messages
//   /proc2/kernel/{faults,trace,metrics,psall,cpus,procd}   read-only,
//                                     process-independent introspection
//
// Every file under /proc2/<pid>, lwp files included, is a counted /proc
// file: its descriptors open, validate, poll and close through the
// kernel's /proc open ledger (Kernel::PrLedger*), exactly like the flat
// /proc/<pid> file's, so O_EXCL, run-on-last-close and invalidation by a
// set-id exec apply to each of them.
//
// Control semantics are defined once, in the shared op table (procfs/ctl.h);
// this front-end only parses the message framing. Note PCRUN's 8-byte wire
// form (u32 flags + u32 vaddr) cannot carry the signal/fault sets, so
// PRSTRACE/PRSHOLD/PRSFAULT in a PCRUN message are rejected with EINVAL —
// send the sets as separate PCSTRACE/PCSHOLD/PCSFAULT messages.
#ifndef SVR4PROC_PROCFS_PROCFS2_H_
#define SVR4PROC_PROCFS_PROCFS2_H_

#include <string>

#include "svr4proc/fs/vnode.h"
#include "svr4proc/kernel/kernel.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

// Control message codes written to ctl/lwpctl files. Each message is a
// 4-byte code followed by its fixed-size operand.
enum PrCtl : int32_t {
  PCNULL = 0,    // no-op (padding)
  PCSTOP = 1,    // direct to stop and wait for it
  PCDSTOP = 2,   // direct to stop, do not wait
  PCWSTOP = 3,   // wait for the process to stop
  PCRUN = 4,     // u32 flags, u32 vaddr: make runnable (PrRunFlag subset)
  PCSTRACE = 5,  // SigSet: set traced signals
  PCSFAULT = 6,  // FltSet: set traced faults
  PCSENTRY = 7,  // SysSet: set traced syscall entries
  PCSEXIT = 8,   // SysSet: set traced syscall exits
  PCSHOLD = 9,   // SigSet: set held signals
  PCKILL = 10,   // i32: send a signal
  PCUNKILL = 11, // i32: delete a pending signal
  PCSSIG = 12,   // SigInfo: set the current signal
  PCCSIG = 13,   // clear the current signal
  PCCFAULT = 14, // clear the current fault
  PCSREG = 15,   // Regs: set registers
  PCSFPREG = 16, // FpRegs: set FP registers
  PCNICE = 17,   // i32: adjust priority
  PCSET = 18,    // u32: set mode flags (PR_FORK | PR_RLC)
  PCUNSET = 19,  // u32: clear mode flags
  PCWATCH = 20,  // PrWatch: set or clear a watchpoint
};

// Bytes of operand following each code; -1 for unknown codes. Derived from
// the shared op table in procfs/ctl.h, not a hand-maintained switch.
int PrCtlOperandSize(int32_t code);

// Mounts the hierarchical process file system at /proc2.
Result<void> MountProcFs2(Kernel& k, const std::string& path = "/proc2");

}  // namespace svr4

#endif  // SVR4PROC_PROCFS_PROCFS2_H_
