// ps(1) implemented over /proc, exactly as the paper describes: "read the
// /proc directory, open each process file in turn, issue the PIOCPSINFO
// request, close the file, and print the result ... Because all the
// information for a process is obtained in a single operation, each line of
// ps output is a true snapshot of the process."
#ifndef SVR4PROC_TOOLS_PS_H_
#define SVR4PROC_TOOLS_PS_H_

#include <string>
#include <vector>

#include "svr4proc/kernel/kernel.h"
#include "svr4proc/procfs/types.h"
#include "svr4proc/tools/procio.h"

namespace svr4 {

struct PsOptions {
  bool full = false;  // -f: add PPID, STIME, ARGS
};

// One PIOCPSINFO snapshot per visible process. Opens are read-only, so
// "the opens always succeed and no interference is created for controlling
// and controlled processes" (when the caller is privileged). Enumerates the
// directory with the chunked-readdir cursor, so the walk is O(live procs)
// even over a huge population. Each function has a transport-generic ProcIo
// form — ps against a remote procd is the same code — and the historical
// in-process form.
Result<std::vector<PrPsinfo>> PsSnapshot(ProcIo& io);
Result<std::vector<PrPsinfo>> PsSnapshot(Kernel& k, Proc* caller);

// The bulk path: PIOCPSALL on a single handle, in windows of 1024 rows
// chained by pr_next_pid (ProcHandle::PsinfoAll). A population that fits
// one window is one operation, and that window's buffer is the result,
// never copied; a larger one copies each window into a result reserved
// once, and a process born or reaped between windows may be missed or
// shift the rows. Over procd the snapshot allocates what it does locally.
// At 10^5+ processes this is the only shape that keeps ps O(n) — the
// per-pid loop pays open+ioctl+close per process.
Result<std::vector<PrPsinfo>> PsSnapshotAll(ProcIo& io, Pid handle_pid);
Result<std::vector<PrPsinfo>> PsSnapshotAll(Kernel& k, Proc* caller);

// Formats the classic listing.
Result<std::string> PsFormat(ProcIo& io, const PsOptions& opts = {});
Result<std::string> PsFormat(Kernel& k, Proc* caller, const PsOptions& opts = {});

// Renders Figure 1 of the paper: "ls -l /proc".
Result<std::string> LsProc(ProcIo& io);
Result<std::string> LsProc(Kernel& k, Proc* caller);

}  // namespace svr4

#endif  // SVR4PROC_TOOLS_PS_H_
