// The unified /proc control-plane core.
//
// Both front-ends of the process file system — the flat SVR4 PIOC* ioctl
// family and the hierarchical write(2) ctl-message stream — expose the same
// process model, and historically each encoded its operations in its own
// switch against the Kernel::Pr* primitives. This header replaces both with
// one declarative table: one row per operation, carrying the flat code, the
// hierarchical code, the canonical name, operand type, the operand's size in
// each encoding, access class (read-only vs writable descriptor), zombie
// semantics, lwp scope, blocking behaviour, and privilege predicate — and
// exactly one handler. flat.cc and hier.cc are thin marshalling shims over
// this table, and procd sizes remote ioctl frames from it, so an operation's
// behaviour, operand size, error codes, and permission rules cannot diverge
// between encodings or across the wire.
//
// Blocking rows (PCSTOP, PCWSTOP) split into "directive now, wait later":
// CtlDispatchOp runs the row's checks, appends the audit record, and issues
// the directive for every caller; then a controller that may block waits in
// Kernel::PrWaitStop, while one that defers waits (a procd peer) is handed
// the stop-wait to park on (Proc::deferred_wait).
//
// Adding a control operation means adding one row (and, for a new code, the
// enum value in types.h or procfs2.h); the table-completeness test asserts
// every code is covered exactly once.
#ifndef SVR4PROC_PROCFS_CTL_H_
#define SVR4PROC_PROCFS_CTL_H_

#include <span>

#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {

// The canonical in-memory operand type a handler receives. The ioctl
// front-end passes the caller's host pointer through; the ctl-message
// front-end decodes the fixed-size wire operand into this type first.
enum class CtlArgKind : uint8_t {
  kNone,     // no operand
  kInt,      // int32_t (signal number, nice delta)
  kFlags,    // uint32_t mode-flag word (PR_FORK | PR_RLC)
  kSigSet,   // SigSet
  kFltSet,   // FltSet
  kSysSet,   // SysSet
  kSigInfo,  // SigInfo
  kRegs,     // Regs
  kFpRegs,   // FpRegs
  kRun,      // PrRun (wire form: u32 flags + u32 vaddr)
  kWatch,    // PrWatch
  kVaddr,    // flat-only: uint32_t virtual address (PIOCOPENM)
  kOut,      // flat-only query: host pointer the handler fills in
  kOutArray, // flat-only query filling an array whose length comes from the
             // live target; a null operand asks for that element count
};

struct CtlCtx {
  Kernel* k = nullptr;
  Proc* p = nullptr;            // target process
  Lwp* lwp = nullptr;           // non-null: lwp-scoped dispatch (lwpctl)
  Proc* caller = nullptr;       // controlling process, if known
  bool native_caller = false;   // host-driven controller (may issue blocking ops)
  bool fd_writable = false;     // descriptor carries the write right
};

using CtlHandler = Result<int32_t> (*)(CtlCtx&, void* arg);
// Extra privilege predicate evaluated before the handler (e.g. PCNICE:
// raising priority needs the super-user).
using CtlPrivCheck = Result<void> (*)(const CtlCtx&, const void* arg);

// One row: the complete declarative description of a control operation.
struct CtlOp {
  const char* name;       // canonical name, recorded in the audit ring
  uint32_t pioc;          // flat PIOC* code; 0 = no flat encoding
  int32_t pc;             // hierarchical PC* code; -1 = no ctl encoding
  CtlArgKind arg;         // operand type the handler receives
  int16_t operand_size;   // ctl-message operand bytes; -1 when pc < 0
  int32_t flat_size;      // flat operand bytes, in or out by `arg` (per
                          // element for kOutArray); -1 when pioc == 0 or
                          // the operand holds host memory (no byte copy)
  bool read_only;         // permitted on a read-only descriptor (=> not audited)
  bool zombie_ok;         // still answers once the process is a zombie
  bool lwp_scope;         // honors an lwp-granular target (lwpctl)
  bool blocking;          // waits for a stop; needs a native controller
  bool status_out;        // flat: optional PrStatus out-parameter on success
  bool flat_optional;     // flat: a null operand is allowed
  int32_t alias_pc;       // >= 0: flat-only code that marshals to this PC row
  uint32_t alias_operand; //       ... with this fixed operand
  CtlPrivCheck priv;      // extra privilege predicate; nullptr = none
  CtlHandler handler;     // nullptr only on pure alias rows
};

// The table and its indexes.
std::span<const CtlOp> CtlOpTable();
const CtlOp* FindCtlOpByPioc(uint32_t pioc);
const CtlOp* FindCtlOpByPc(int32_t pc);

// A flat operand's bytes in each direction, as a remote ioctl frame carries
// them (in_len, out_cap): in-operands are copied to the handler, out-operands
// back. Direction comes from the row's arg kind (status_out rows return a
// PrStatus); a kOutArray row names one element, and the server takes the
// element count from the live target.
struct CtlFlatBytes {
  uint32_t in = 0;
  uint32_t out = 0;
};
CtlFlatBytes CtlFlatOperand(const CtlOp& op);

// Whether a frame's operand sizes are ones the row takes: exactly its
// operand, or none at all where the operand is optional. An unknown code
// (nullptr) takes none; a host-memory operand (flat_size < 0) takes nothing.
bool CtlFlatSizesOk(const CtlOp* op, uint32_t in, uint32_t out);

// Flat front-end entry point: looks up the PIOC* row, applies the flat
// marshalling quirks (null-operand PIOCSSIG clears, mode-code aliases,
// optional PrStatus out-parameter), and dispatches. ctx.fd_writable must
// reflect the descriptor; unknown codes keep the historical errno order
// (EBADF on a read-only fd, ENOENT on a zombie, else EINVAL).
Result<int32_t> CtlDispatchPioc(CtlCtx& ctx, uint32_t code, void* arg);

// Status-file entry point, the read(2) face of a flat query (a kOut row):
// runs the PIOC* row through CtlDispatchOp, so its checks and zombie rule
// hold, into a stack buffer, and serves the bytes of its flat_size-byte
// result that lie at `off` and after.
Result<int64_t> CtlReadPioc(CtlCtx& ctx, uint32_t code, uint64_t off, std::span<uint8_t> buf);

// Hierarchical front-end entry point: walks a ctl-message stream (4-byte
// code + fixed-size operand per message), decoding each operand to its
// canonical type and dispatching. Messages already executed keep their
// effect if a later one fails. lwp non-null scopes lwp-capable operations.
// caller is the descriptor's opener, null once it is gone; only a native
// caller may send blocking messages. For a caller that defers waits, the
// walk ends after a blocking message and returns the bytes consumed up to
// and including it.
Result<int64_t> RunCtlStream(Kernel& k, Proc* p, Lwp* lwp, std::span<const uint8_t> buf,
                             Proc* caller);

// The shared core: runs the access checks encoded in the row (write right,
// zombie state, native-caller requirement, privilege predicate), invokes
// the handler, and appends an audit record for control operations. A
// blocking row's handler is its directive (PCSTOP stops, PCWSTOP has none);
// once it succeeded, the caller waits in Kernel::PrWaitStop, or, if it
// defers waits, gets the target in Proc::deferred_wait and returns at once.
// Front-ends reach it via the entry points.
Result<int32_t> CtlDispatchOp(CtlCtx& ctx, const CtlOp& op, void* arg);

}  // namespace svr4

#endif  // SVR4PROC_PROCFS_CTL_H_
