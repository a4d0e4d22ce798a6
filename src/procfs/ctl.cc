// The unified /proc control-plane core: the declarative operation table,
// one handler per operation, the shared dispatcher with its access checks
// and audit ring, and the two front-end entry points (PIOC* ioctl codes,
// ctl-message streams). See ctl.h for the design.
#include "svr4proc/procfs/ctl.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "svr4proc/isa/blocks.h"
#include "svr4proc/procfs/procfs.h"

namespace svr4 {

RunArgs ToRunArgs(const PrRun& r) {
  RunArgs a;
  a.clear_sig = r.pr_flags & PRCSIG;
  a.clear_fault = r.pr_flags & PRCFAULT;
  a.set_trace = r.pr_flags & PRSTRACE;
  a.trace = r.pr_trace;
  a.set_hold = r.pr_flags & PRSHOLD;
  a.hold = r.pr_hold;
  a.set_fault = r.pr_flags & PRSFAULT;
  a.fault = r.pr_fault;
  a.set_vaddr = r.pr_flags & PRSVADDR;
  a.vaddr = r.pr_vaddr;
  a.step = r.pr_flags & PRSTEP;
  a.abort = r.pr_flags & PRSABORT;
  a.stop = r.pr_flags & PRSTOP;
  return a;
}

PrCtlAudit BuildPrCtlAudit(const Proc* p) {
  PrCtlAudit a;
  const TraceState& t = p->trace;
  if (t.audit == nullptr) {
    return a;  // ring never allocated: no control op has run
  }
  a.pr_total = t.audit_total;
  uint64_t n = std::min<uint64_t>(t.audit_total, kCtlAuditCap);
  a.pr_n = static_cast<uint32_t>(n);
  uint64_t start = t.audit_total - n;
  for (uint64_t i = 0; i < n; ++i) {
    a.pr_rec[i] = (*t.audit)[(start + i) % kCtlAuditCap];
  }
  return a;
}

namespace {

// --- Handlers: exactly one per operation -----------------------------------

// PCWSTOP's directive: none (the wait half runs in CtlDispatchOp).
Result<int32_t> OpNull(CtlCtx&, void*) { return 0; }

// PCSTOP's and PCDSTOP's directive.
Result<int32_t> OpStop(CtlCtx& c, void*) {
  if (c.lwp != nullptr) {
    SVR4_RETURN_IF_ERROR(c.k->PrStopLwp(c.lwp));
  } else {
    SVR4_RETURN_IF_ERROR(c.k->PrStop(c.p));
  }
  return 0;
}

Result<int32_t> OpRun(CtlCtx& c, void* arg) {
  PrRun run;
  if (arg != nullptr) {
    run = *static_cast<PrRun*>(arg);
  }
  RunArgs a = ToRunArgs(run);
  if (c.lwp != nullptr) {
    SVR4_RETURN_IF_ERROR(c.k->PrRunLwp(c.lwp, a));
  } else {
    SVR4_RETURN_IF_ERROR(c.k->PrRun(c.p, a));
  }
  return 0;
}

Result<int32_t> OpSetSigTrace(CtlCtx& c, void* arg) {
  c.p->trace.sigtrace = *static_cast<SigSet*>(arg);
  return 0;
}

Result<int32_t> OpGetSigTrace(CtlCtx& c, void* arg) {
  *static_cast<SigSet*>(arg) = c.p->trace.sigtrace;
  return 0;
}

Result<int32_t> OpSetFltTrace(CtlCtx& c, void* arg) {
  c.p->trace.flttrace = *static_cast<FltSet*>(arg);
  return 0;
}

Result<int32_t> OpGetFltTrace(CtlCtx& c, void* arg) {
  *static_cast<FltSet*>(arg) = c.p->trace.flttrace;
  return 0;
}

Result<int32_t> OpSetSysEntry(CtlCtx& c, void* arg) {
  c.p->trace.sysentry = *static_cast<SysSet*>(arg);
  return 0;
}

Result<int32_t> OpGetSysEntry(CtlCtx& c, void* arg) {
  *static_cast<SysSet*>(arg) = c.p->trace.sysentry;
  return 0;
}

Result<int32_t> OpSetSysExit(CtlCtx& c, void* arg) {
  c.p->trace.sysexit = *static_cast<SysSet*>(arg);
  return 0;
}

Result<int32_t> OpGetSysExit(CtlCtx& c, void* arg) {
  *static_cast<SysSet*>(arg) = c.p->trace.sysexit;
  return 0;
}

Result<int32_t> OpSetHold(CtlCtx& c, void* arg) {
  SigSet hold = *static_cast<SigSet*>(arg);
  hold.Remove(SIGKILL);  // SIGKILL and SIGSTOP can never be held
  hold.Remove(SIGSTOP);
  c.p->sig.hold = hold;
  return 0;
}

Result<int32_t> OpGetHold(CtlCtx& c, void* arg) {
  *static_cast<SigSet*>(arg) = c.p->sig.hold;
  return 0;
}

Result<int32_t> OpKill(CtlCtx& c, void* arg) {
  SVR4_RETURN_IF_ERROR(c.k->PrKill(c.p, *static_cast<int*>(arg)));
  return 0;
}

Result<int32_t> OpUnkill(CtlCtx& c, void* arg) {
  SVR4_RETURN_IF_ERROR(c.k->PrUnkill(c.p, *static_cast<int*>(arg)));
  return 0;
}

Result<int32_t> OpSetSig(CtlCtx& c, void* arg) {
  const SigInfo& info = *static_cast<SigInfo*>(arg);
  SVR4_RETURN_IF_ERROR(c.k->PrSetSig(c.p, info.si_signo, info));
  return 0;
}

Result<int32_t> OpClearSig(CtlCtx& c, void*) {
  SVR4_RETURN_IF_ERROR(c.k->PrSetSig(c.p, 0, SigInfo{}));
  return 0;
}

Result<int32_t> OpClearFault(CtlCtx& c, void*) {
  c.p->trace.cur_fault = 0;
  return 0;
}

// lwp-scoped register ops fall back to the representative lwp at process
// scope, as the flat interface always did.
Lwp* ScopedLwp(CtlCtx& c) {
  return c.lwp != nullptr ? c.lwp : c.p->RepresentativeLwp();
}

Result<int32_t> OpSetRegs(CtlCtx& c, void* arg) {
  Lwp* l = ScopedLwp(c);
  if (l == nullptr) {
    return Errno::kENOENT;
  }
  l->regs = *static_cast<Regs*>(arg);
  return 0;
}

Result<int32_t> OpGetRegs(CtlCtx& c, void* arg) {
  Lwp* l = ScopedLwp(c);
  if (l == nullptr) {
    return Errno::kENOENT;
  }
  *static_cast<Regs*>(arg) = l->regs;
  return 0;
}

Result<int32_t> OpSetFpRegs(CtlCtx& c, void* arg) {
  Lwp* l = ScopedLwp(c);
  if (l == nullptr) {
    return Errno::kENOENT;
  }
  l->fpregs = *static_cast<FpRegs*>(arg);
  return 0;
}

Result<int32_t> OpGetFpRegs(CtlCtx& c, void* arg) {
  Lwp* l = ScopedLwp(c);
  if (l == nullptr) {
    return Errno::kENOENT;
  }
  *static_cast<FpRegs*>(arg) = l->fpregs;
  return 0;
}

// Unified privilege rule (historically duplicated, with drift, between
// PIOCNICE and PCNICE): lowering the nice value — raising priority — needs
// super-user credentials on the *calling* process; an anonymous caller can
// only cede priority.
Result<void> NicePriv(const CtlCtx& c, const void* arg) {
  int delta = *static_cast<const int*>(arg);
  if (delta < 0 && (c.caller == nullptr || !c.caller->creds.IsSuper())) {
    return Errno::kEPERM;
  }
  return Result<void>::Ok();
}

Result<int32_t> OpNice(CtlCtx& c, void* arg) {
  int delta = *static_cast<int*>(arg);
  c.p->nice = std::clamp(c.p->nice + delta, 0, 39);
  return 0;
}

Result<int32_t> OpSetModes(CtlCtx& c, void* arg) {
  uint32_t flags = *static_cast<uint32_t*>(arg);
  if (flags & PR_FORK) {
    c.p->trace.inherit_on_fork = true;
  }
  if (flags & PR_RLC) {
    c.p->trace.run_on_last_close = true;
  }
  return 0;
}

Result<int32_t> OpClearModes(CtlCtx& c, void* arg) {
  uint32_t flags = *static_cast<uint32_t*>(arg);
  if (flags & PR_FORK) {
    c.p->trace.inherit_on_fork = false;
  }
  if (flags & PR_RLC) {
    c.p->trace.run_on_last_close = false;
  }
  return 0;
}

Result<int32_t> OpWatch(CtlCtx& c, void* arg) {
  if (!c.p->as) {
    return Errno::kEINVAL;
  }
  const auto& w = *static_cast<PrWatch*>(arg);
  if (w.pr_wflags == 0) {
    SVR4_RETURN_IF_ERROR(c.p->as->ClearWatch(w.pr_vaddr));
    return 0;
  }
  SVR4_RETURN_IF_ERROR(c.p->as->AddWatch(Watch{w.pr_vaddr, w.pr_size, w.pr_wflags}));
  return 0;
}

// --- Flat-only query handlers ----------------------------------------------

Result<int32_t> OpStatus(CtlCtx& c, void* arg) {
  *static_cast<PrStatus*>(arg) = BuildPrStatus(*c.k, c.p);
  return 0;
}

Result<int32_t> OpMaxSig(CtlCtx&, void* arg) {
  *static_cast<int*>(arg) = SigSet::kMaxMember;
  return 0;
}

Result<int32_t> OpActions(CtlCtx& c, void* arg) {
  auto* actions = static_cast<SigAction*>(arg);
  for (int s = 1; s <= SigSet::kMaxMember; ++s) {
    actions[s - 1] = c.p->sig.Action(s);
  }
  return 0;
}

Result<int32_t> OpNMap(CtlCtx& c, void* arg) {
  *static_cast<int*>(arg) = static_cast<int>(BuildPrMap(c.p).size());
  return 0;
}

Result<int32_t> OpMap(CtlCtx& c, void* arg) {
  auto maps = BuildPrMap(c.p);
  if (arg == nullptr) {
    return static_cast<int32_t>(maps.size() + 1);  // entries, with the terminator
  }
  auto* out = static_cast<PrMapEntry*>(arg);
  for (size_t i = 0; i < maps.size(); ++i) {
    out[i] = maps[i];
  }
  out[maps.size()] = PrMapEntry{};  // zero-filled terminator
  return 0;
}

Result<int32_t> OpOpenMapped(CtlCtx& c, void* arg) {
  bool use_exe = arg == nullptr;
  uint32_t vaddr = use_exe ? 0 : *static_cast<uint32_t*>(arg);
  return ProcOpenMappedObject(*c.k, c.caller, c.p, use_exe, vaddr);
}

Result<int32_t> OpCred(CtlCtx& c, void* arg) {
  *static_cast<PrCred*>(arg) = BuildPrCred(c.p);
  return 0;
}

Result<int32_t> OpGroups(CtlCtx& c, void* arg) {
  auto* out = static_cast<Gid*>(arg);
  size_t n = std::min<size_t>(c.p->creds.groups.size(), PRNGROUPS);
  for (size_t i = 0; i < n; ++i) {
    out[i] = c.p->creds.groups[i];
  }
  return static_cast<int32_t>(n);
}

Result<int32_t> OpPsinfo(CtlCtx& c, void* arg) {
  *static_cast<PrPsinfo*>(arg) = BuildPrPsinfo(*c.k, c.p);
  return 0;
}

Result<int32_t> OpGetProcRaw(CtlCtx& c, void* arg) {
  // Deprecated: exposes the raw proc structure.
  Proc* p = c.p;
  auto* raw = static_cast<PrRawProc*>(arg);
  raw->p_pid = p->pid;
  raw->p_ppid = p->ppid;
  raw->p_pgrp = p->pgrp;
  raw->p_stat = p->state == Proc::State::kZombie ? 5 : 1;
  raw->p_uid = p->creds.ruid;
  raw->p_nice = static_cast<uint32_t>(p->nice);
  raw->p_nlwp = static_cast<uint32_t>(p->lwps.size());
  uint64_t low = 0;
  for (int s = 1; s <= 64; ++s) {
    if (p->sig.pending.Has(s)) {
      low |= uint64_t{1} << (s - 1);
    }
  }
  raw->p_sig_pending_low = low;
  return 0;
}

Result<int32_t> OpGetUserRaw(CtlCtx& c, void* arg) {
  // Deprecated: exposes the user area.
  Proc* p = c.p;
  auto* raw = static_cast<PrRawUser*>(arg);
  raw->u_nofiles = static_cast<uint32_t>(p->fds.size());
  raw->u_cmask = p->umask;
  std::snprintf(raw->u_comm, PRFNSZ, "%s", p->name.c_str());
  std::snprintf(raw->u_psargs, PRARGSZ, "%s", p->psargs.c_str());
  raw->u_utime = p->utime;
  raw->u_stime = p->stime;
  return 0;
}

Result<int32_t> OpUsage(CtlCtx& c, void* arg) {
  *static_cast<PrUsage*>(arg) = BuildPrUsage(*c.k, c.p);
  return 0;
}

Result<int32_t> OpVmStats(CtlCtx& c, void* arg) {
  if (!c.p->as) {
    return Errno::kEINVAL;  // zombie: no address space
  }
  auto* out = static_cast<PrVmStats*>(arg);
  const VmCounters& vc = c.p->as->counters();
  out->pr_tlb_hits = vc.tlb_hits;
  out->pr_tlb_misses = vc.tlb_misses;
  out->pr_slow_lookups = vc.slow_lookups;
  out->pr_tlb_flushes = vc.tlb_flushes;
  out->pr_instructions = c.k->counters().instructions;
  if (const BlockCache* bc = c.p->as->blocks_if()) {
    const BlockStats& bs = bc->stats();
    out->pr_bb_built = bs.built;
    out->pr_bb_hits = bs.hits;
    out->pr_bb_misses = bs.misses;
    out->pr_bb_invalidations = bs.invalidations;
    out->pr_bb_fallbacks = bs.fallback_steps;
  }
  return 0;
}

Result<int32_t> OpNWatch(CtlCtx& c, void* arg) {
  *static_cast<int*>(arg) = c.p->as ? static_cast<int>(c.p->as->Watches().size()) : 0;
  return 0;
}

Result<int32_t> OpGetWatches(CtlCtx& c, void* arg) {
  if (!c.p->as) {
    return Errno::kEINVAL;
  }
  if (arg == nullptr) {
    return static_cast<int32_t>(c.p->as->Watches().size());
  }
  auto* out = static_cast<PrWatch*>(arg);
  int i = 0;
  for (const auto& w : c.p->as->Watches()) {
    out[i].pr_vaddr = w.vaddr;
    out[i].pr_size = w.size;
    out[i].pr_wflags = w.wflags;
    ++i;
  }
  return i;
}

Result<int32_t> OpPageData(CtlCtx& c, void* arg) {
  if (!c.p->as) {
    return Errno::kEINVAL;
  }
  auto* pd = static_cast<PrPageData*>(arg);
  pd->segs = c.p->as->SamplePageData(pd->clear);
  return 0;
}

Result<int32_t> OpLwpIds(CtlCtx& c, void* arg) {
  auto* out = static_cast<PrLwpIds*>(arg);
  out->n = 0;
  for (const auto& l : c.p->lwps) {
    if (l->state != LwpState::kDead && out->n < PRNLWPIDS) {
      out->ids[out->n++] = l->lwpid;
    }
  }
  return 0;
}

Result<int32_t> OpAudit(CtlCtx& c, void* arg) {
  *static_cast<PrCtlAudit*>(arg) = BuildPrCtlAudit(c.p);
  return 0;
}

Result<int32_t> OpKstat(CtlCtx& c, void* arg) {
  // Kernel-wide: the target process is only the handle the caller used.
  *static_cast<PrKstat*>(arg) = BuildPrKstat(*c.k);
  return 0;
}

Result<int32_t> OpPsAll(CtlCtx& c, void* arg) {
  // Kernel-wide bulk snapshot: one descriptor, one operation, ps info for
  // the whole population in ascending pid order (zombies included — they
  // are exactly what ps must still show).
  auto* all = static_cast<PrPsAll*>(arg);
  all->pr_procs.clear();
  all->pr_next_pid = -1;
  // Window operands (both default to "everything"): start the scan at
  // pr_start_pid and stop after pr_limit records, reporting the resume
  // pid — at 10^6 processes a caller pages through in bounded memory.
  Pid start = std::max<Pid>(all->pr_start_pid, 0);
  size_t limit = all->pr_limit == 0 ? static_cast<size_t>(-1)
                                    : static_cast<size_t>(all->pr_limit);
  all->pr_procs.reserve(std::min(limit, c.k->ProcCount()));
  // Each row is built in place: emplace_back initializes the new element
  // from the conversion's return value, so BuildPrPsinfo writes straight
  // into the window, not into a temporary that is then copied.
  struct InPlaceRow {
    Kernel* k;
    Proc* p;
    operator PrPsinfo() const { return BuildPrPsinfo(*k, p); }
  };
  for (Pid pid = c.k->NextAllocatedPid(start); pid >= 0;
       pid = c.k->NextAllocatedPid(pid + 1)) {
    Proc* p = c.k->FindProc(pid);
    if (p == nullptr) {
      continue;
    }
    if (all->pr_procs.size() >= limit) {
      all->pr_next_pid = pid;  // first pid NOT included: the resume point
      break;
    }
    all->pr_procs.emplace_back(InPlaceRow{c.k, p});
  }
  return static_cast<int32_t>(all->pr_procs.size());
}

Result<int32_t> OpProf(CtlCtx& c, void* arg) {
  // Arm (value >= 0: sample every 2^value retired instructions) or disarm
  // (value < 0) the deterministic pc sampler. The dump is read back from
  // /proc2/<pid>/prof as folded-stack text.
  int v = *static_cast<int*>(arg);
  auto r = c.k->SetProfiling(c.p, v);
  if (!r.ok()) {
    return r.error();
  }
  return 0;
}

// --- The table --------------------------------------------------------------

constexpr int32_t kNoPc = -1;
constexpr uint32_t kNoPioc = 0;
constexpr int32_t kNoFlat = -1;

// Field order: name, pioc, pc, arg, operand_size, flat_size, read_only,
// zombie_ok, lwp_scope, blocking, status_out, flat_optional, alias_pc,
// alias_operand, priv, handler.
constexpr CtlOp kCtlOps[] = {
    // Control operations, shared by both encodings. Dual rows carry the
    // canonical PC* name so either front-end leaves the same audit trail.
    {"PCNULL", kNoPioc, PCNULL, CtlArgKind::kNone, 0, kNoFlat,
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpNull},
    {"PCSTOP", PIOCSTOP, PCSTOP, CtlArgKind::kNone, 0, sizeof(PrStatus),
     false, false, true, true, true, true, kNoPc, 0, nullptr, OpStop},
    {"PCDSTOP", kNoPioc, PCDSTOP, CtlArgKind::kNone, 0, kNoFlat,
     false, false, true, false, false, false, kNoPc, 0, nullptr, OpStop},
    {"PCWSTOP", PIOCWSTOP, PCWSTOP, CtlArgKind::kNone, 0, sizeof(PrStatus),
     false, false, false, true, true, true, kNoPc, 0, nullptr, OpNull},
    {"PCRUN", PIOCRUN, PCRUN, CtlArgKind::kRun, 8, sizeof(PrRun),
     false, false, true, false, false, true, kNoPc, 0, nullptr, OpRun},
    {"PCSTRACE", PIOCSTRACE, PCSTRACE, CtlArgKind::kSigSet, sizeof(SigSet), sizeof(SigSet),
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpSetSigTrace},
    {"PCSFAULT", PIOCSFAULT, PCSFAULT, CtlArgKind::kFltSet, sizeof(FltSet), sizeof(FltSet),
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpSetFltTrace},
    {"PCSENTRY", PIOCSENTRY, PCSENTRY, CtlArgKind::kSysSet, sizeof(SysSet), sizeof(SysSet),
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpSetSysEntry},
    {"PCSEXIT", PIOCSEXIT, PCSEXIT, CtlArgKind::kSysSet, sizeof(SysSet), sizeof(SysSet),
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpSetSysExit},
    {"PCSHOLD", PIOCSHOLD, PCSHOLD, CtlArgKind::kSigSet, sizeof(SigSet), sizeof(SigSet),
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpSetHold},
    {"PCKILL", PIOCKILL, PCKILL, CtlArgKind::kInt, 4, 4,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpKill},
    {"PCUNKILL", PIOCUNKILL, PCUNKILL, CtlArgKind::kInt, 4, 4,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpUnkill},
    // A null flat siginfo clears the current signal (PCCSIG).
    {"PCSSIG", PIOCSSIG, PCSSIG, CtlArgKind::kSigInfo, sizeof(SigInfo), sizeof(SigInfo),
     false, false, false, false, false, true, kNoPc, 0, nullptr, OpSetSig},
    {"PCCSIG", kNoPioc, PCCSIG, CtlArgKind::kNone, 0, kNoFlat,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpClearSig},
    {"PCCFAULT", PIOCCFAULT, PCCFAULT, CtlArgKind::kNone, 0, 0,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpClearFault},
    {"PCSREG", PIOCSREG, PCSREG, CtlArgKind::kRegs, sizeof(Regs), sizeof(Regs),
     false, false, true, false, false, false, kNoPc, 0, nullptr, OpSetRegs},
    {"PCSFPREG", PIOCSFPREG, PCSFPREG, CtlArgKind::kFpRegs, sizeof(FpRegs), sizeof(FpRegs),
     false, false, true, false, false, false, kNoPc, 0, nullptr, OpSetFpRegs},
    {"PCNICE", PIOCNICE, PCNICE, CtlArgKind::kInt, 4, 4,
     false, false, false, false, false, false, kNoPc, 0, NicePriv, OpNice},
    {"PCSET", kNoPioc, PCSET, CtlArgKind::kFlags, 4, kNoFlat,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpSetModes},
    {"PCUNSET", kNoPioc, PCUNSET, CtlArgKind::kFlags, 4, kNoFlat,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpClearModes},
    {"PCWATCH", PIOCSWATCH, PCWATCH, CtlArgKind::kWatch, sizeof(PrWatch), sizeof(PrWatch),
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpWatch},

    // Flat mode codes: pure aliases marshalling to PCSET/PCUNSET with a
    // fixed operand, so the mode semantics exist in exactly one handler.
    {"PIOCSFORK", PIOCSFORK, kNoPc, CtlArgKind::kNone, -1, 0,
     false, false, false, false, false, false, PCSET, PR_FORK, nullptr, nullptr},
    {"PIOCRFORK", PIOCRFORK, kNoPc, CtlArgKind::kNone, -1, 0,
     false, false, false, false, false, false, PCUNSET, PR_FORK, nullptr, nullptr},
    {"PIOCSRLC", PIOCSRLC, kNoPc, CtlArgKind::kNone, -1, 0,
     false, false, false, false, false, false, PCSET, PR_RLC, nullptr, nullptr},
    {"PIOCRRLC", PIOCRRLC, kNoPc, CtlArgKind::kNone, -1, 0,
     false, false, false, false, false, false, PCUNSET, PR_RLC, nullptr, nullptr},

    // Flat-only queries: status interrogation travels over ioctl in the
    // flat interface and over read(2) of status files in the hierarchy.
    {"PIOCSTATUS", PIOCSTATUS, kNoPc, CtlArgKind::kOut, -1, sizeof(PrStatus),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpStatus},
    {"PIOCGTRACE", PIOCGTRACE, kNoPc, CtlArgKind::kOut, -1, sizeof(SigSet),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetSigTrace},
    {"PIOCGHOLD", PIOCGHOLD, kNoPc, CtlArgKind::kOut, -1, sizeof(SigSet),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetHold},
    {"PIOCMAXSIG", PIOCMAXSIG, kNoPc, CtlArgKind::kOut, -1, sizeof(int),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpMaxSig},
    {"PIOCACTION", PIOCACTION, kNoPc, CtlArgKind::kOut, -1,
     SigSet::kMaxMember * sizeof(SigAction),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpActions},
    {"PIOCGFAULT", PIOCGFAULT, kNoPc, CtlArgKind::kOut, -1, sizeof(FltSet),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetFltTrace},
    {"PIOCGENTRY", PIOCGENTRY, kNoPc, CtlArgKind::kOut, -1, sizeof(SysSet),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetSysEntry},
    {"PIOCGEXIT", PIOCGEXIT, kNoPc, CtlArgKind::kOut, -1, sizeof(SysSet),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetSysExit},
    {"PIOCGREG", PIOCGREG, kNoPc, CtlArgKind::kOut, -1, sizeof(Regs),
     true, false, true, false, false, false, kNoPc, 0, nullptr, OpGetRegs},
    {"PIOCGFPREG", PIOCGFPREG, kNoPc, CtlArgKind::kOut, -1, sizeof(FpRegs),
     true, false, true, false, false, false, kNoPc, 0, nullptr, OpGetFpRegs},
    {"PIOCNMAP", PIOCNMAP, kNoPc, CtlArgKind::kOut, -1, sizeof(int),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpNMap},
    {"PIOCMAP", PIOCMAP, kNoPc, CtlArgKind::kOutArray, -1, sizeof(PrMapEntry),
     true, false, false, false, false, true, kNoPc, 0, nullptr, OpMap},
    // A null vaddr opens the executable itself.
    {"PIOCOPENM", PIOCOPENM, kNoPc, CtlArgKind::kVaddr, -1, sizeof(uint32_t),
     true, false, false, false, false, true, kNoPc, 0, nullptr, OpOpenMapped},
    {"PIOCCRED", PIOCCRED, kNoPc, CtlArgKind::kOut, -1, sizeof(PrCred),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpCred},
    {"PIOCGROUPS", PIOCGROUPS, kNoPc, CtlArgKind::kOut, -1, PRNGROUPS * sizeof(Gid),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpGroups},
    {"PIOCPSINFO", PIOCPSINFO, kNoPc, CtlArgKind::kOut, -1, sizeof(PrPsinfo),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpPsinfo},
    {"PIOCGETPR", PIOCGETPR, kNoPc, CtlArgKind::kOut, -1, sizeof(PrRawProc),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetProcRaw},
    {"PIOCGETU", PIOCGETU, kNoPc, CtlArgKind::kOut, -1, sizeof(PrRawUser),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpGetUserRaw},
    {"PIOCUSAGE", PIOCUSAGE, kNoPc, CtlArgKind::kOut, -1, sizeof(PrUsage),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpUsage},
    {"PIOCNWATCH", PIOCNWATCH, kNoPc, CtlArgKind::kOut, -1, sizeof(int),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpNWatch},
    {"PIOCGWATCH", PIOCGWATCH, kNoPc, CtlArgKind::kOutArray, -1, sizeof(PrWatch),
     true, false, false, false, false, true, kNoPc, 0, nullptr, OpGetWatches},
    {"PIOCPAGEDATA", PIOCPAGEDATA, kNoPc, CtlArgKind::kOut, -1, kNoFlat,
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpPageData},
    {"PIOCLWPIDS", PIOCLWPIDS, kNoPc, CtlArgKind::kOut, -1, sizeof(PrLwpIds),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpLwpIds},
    {"PIOCVMSTATS", PIOCVMSTATS, kNoPc, CtlArgKind::kOut, -1, sizeof(PrVmStats),
     true, false, false, false, false, false, kNoPc, 0, nullptr, OpVmStats},
    {"PIOCAUDIT", PIOCAUDIT, kNoPc, CtlArgKind::kOut, -1, sizeof(PrCtlAudit),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpAudit},
    {"PIOCKSTAT", PIOCKSTAT, kNoPc, CtlArgKind::kOut, -1, sizeof(PrKstat),
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpKstat},
    {"PIOCPSALL", PIOCPSALL, kNoPc, CtlArgKind::kOut, -1, kNoFlat,
     true, true, false, false, false, false, kNoPc, 0, nullptr, OpPsAll},
    {"PIOCPROF", PIOCPROF, kNoPc, CtlArgKind::kInt, 4, 4,
     false, false, false, false, false, false, kNoPc, 0, nullptr, OpProf},
};

// A row with a ctl-message code takes a fixed-size operand whose wire form
// is its in-memory bytes, or none; RunCtlStream copies each into one buffer
// of the largest size. (kRun's 8-byte wire form has its own decode.)
constexpr size_t kCtlMsgOperandMax = [] {
  size_t n = 0;
  for (const CtlOp& op : kCtlOps) {
    n = std::max(n, op.operand_size > 0 ? static_cast<size_t>(op.operand_size) : 0);
  }
  return n;
}();

// The largest fixed-size query result: CtlReadPioc reads a query into a
// stack buffer of this size.
constexpr size_t kCtlQueryMax = [] {
  size_t n = 0;
  for (const CtlOp& op : kCtlOps) {
    n = std::max(n, op.arg == CtlArgKind::kOut && op.flat_size > 0
                        ? static_cast<size_t>(op.flat_size) : 0);
  }
  return n;
}();
static_assert(std::ranges::all_of(kCtlOps, [](const CtlOp& op) {
  return op.pc == kNoPc || (op.operand_size >= 0 && op.arg != CtlArgKind::kVaddr &&
                            op.arg != CtlArgKind::kOut && op.arg != CtlArgKind::kOutArray);
}));

// Both code spaces are dense — PIOC codes are kPiocBase|1..48, PC codes
// 0..20 — so the indexes are direct-addressed arrays: dispatch stays on
// par with the switch statements the table replaced.
constexpr int kPiocSlots = 64;
constexpr int kPcSlots = 32;

struct CtlIndex {
  const CtlOp* by_pioc[kPiocSlots] = {};
  const CtlOp* by_pc[kPcSlots] = {};
};

const CtlIndex& Index() {
  static const auto* index = [] {
    auto* x = new CtlIndex();
    for (const CtlOp& op : kCtlOps) {
      if (op.pioc != kNoPioc) {
        x->by_pioc[op.pioc & 0xFF] = &op;
      }
      if (op.pc != kNoPc) {
        x->by_pc[op.pc] = &op;
      }
    }
    return x;
  }();
  return *index;
}

void AppendAudit(const CtlCtx& ctx, const CtlOp& op, const Result<int32_t>& r) {
  TraceState& t = ctx.p->trace;
  if (t.audit == nullptr) {
    // Lazily allocated: most of a large population is never controlled, so
    // paying 2.5KB of ring per proc up front would dominate Proc's footprint.
    t.audit = std::make_unique<std::array<CtlAuditRec, kCtlAuditCap>>();
  }
  CtlAuditRec& rec = (*t.audit)[t.audit_total % kCtlAuditCap];
  std::strncpy(rec.pr_op, op.name, sizeof(rec.pr_op) - 1);  // NUL-pads the slot
  rec.pr_op[sizeof(rec.pr_op) - 1] = '\0';
  rec.pr_caller = ctx.caller != nullptr ? ctx.caller->pid : 0;
  rec.pr_lwpid = ctx.lwp != nullptr ? ctx.lwp->lwpid : 0;
  rec.pr_errno = r.ok() ? 0 : static_cast<int32_t>(r.error());
  rec.pr_tick = ctx.k->Ticks();
  ++t.audit_total;
}

Result<int32_t> RunChecksAndHandler(CtlCtx& ctx, const CtlOp& op, void* arg) {
  if (!op.read_only && !ctx.fd_writable) {
    return Errno::kEBADF;  // control operations need the write right
  }
  if (ctx.p->state == Proc::State::kZombie && !op.zombie_ok) {
    return Errno::kENOENT;  // a zombie has status but no context
  }
  if (op.blocking && !ctx.native_caller) {
    return Errno::kEINVAL;  // blocking operations need a native controller
  }
  if (op.priv != nullptr) {
    SVR4_RETURN_IF_ERROR(op.priv(ctx, arg));
  }
  return op.handler(ctx, arg);
}

}  // namespace

std::span<const CtlOp> CtlOpTable() { return kCtlOps; }

const CtlOp* FindCtlOpByPioc(uint32_t pioc) {
  if ((pioc & ~0xFFu) != kPiocBase || (pioc & 0xFF) >= kPiocSlots) {
    return nullptr;
  }
  return Index().by_pioc[pioc & 0xFF];
}

const CtlOp* FindCtlOpByPc(int32_t pc) {
  if (pc < 0 || pc >= kPcSlots) {
    return nullptr;
  }
  return Index().by_pc[pc];
}

int PrCtlOperandSize(int32_t code) {
  const CtlOp* op = FindCtlOpByPc(code);
  return op == nullptr ? -1 : op->operand_size;
}

CtlFlatBytes CtlFlatOperand(const CtlOp& op) {
  auto n = static_cast<uint32_t>(std::max(op.flat_size, 0));
  bool out = op.arg == CtlArgKind::kOut || op.arg == CtlArgKind::kOutArray || op.status_out;
  return out ? CtlFlatBytes{0, n} : CtlFlatBytes{n, 0};
}

bool CtlFlatSizesOk(const CtlOp* op, uint32_t in, uint32_t out) {
  if (op == nullptr) {
    return in == 0 && out == 0;
  }
  if (op->flat_size < 0) {
    return false;
  }
  CtlFlatBytes want = CtlFlatOperand(*op);
  return (in == want.in && out == want.out) ||
         (op->flat_optional && in == 0 && out == 0);
}

Result<int32_t> CtlDispatchOp(CtlCtx& ctx, const CtlOp& op, void* arg) {
  auto r = RunChecksAndHandler(ctx, op, arg);
  if (!op.read_only) {
    AppendAudit(ctx, op, r);
  }
  if (r.ok() && op.blocking) {
    // Directive now, wait later. The checks passed, so the caller is a
    // native controller.
    if (ctx.caller->defers_waits) {
      ctx.caller->deferred_wait = ctx.p->pid;
    } else {
      SVR4_RETURN_IF_ERROR(ctx.k->PrWaitStop(ctx.p));
    }
  }
  return r;
}

Result<int32_t> CtlDispatchPioc(CtlCtx& ctx, uint32_t code, void* arg) {
  const CtlOp* op = FindCtlOpByPioc(code);
  if (op == nullptr) {
    // Unknown codes keep the historical errno order: they are treated as
    // control-class with no zombie semantics.
    if (!ctx.fd_writable) {
      return Errno::kEBADF;
    }
    if (ctx.p->state == Proc::State::kZombie) {
      return Errno::kENOENT;
    }
    return Errno::kEINVAL;
  }
  if (code == PIOCSSIG && arg == nullptr) {
    op = FindCtlOpByPc(PCCSIG);  // a null siginfo clears the current signal
  }
  uint32_t fixed = op->alias_operand;
  if (op->alias_pc != kNoPc) {
    op = FindCtlOpByPc(op->alias_pc);
    arg = &fixed;
  }
  auto r = CtlDispatchOp(ctx, *op, arg);
  if (r.ok() && op->status_out && arg != nullptr) {
    *static_cast<PrStatus*>(arg) = BuildPrStatus(*ctx.k, ctx.p);
  }
  return r;
}

Result<int64_t> CtlReadPioc(CtlCtx& ctx, uint32_t code, uint64_t off, std::span<uint8_t> buf) {
  const CtlOp* op = FindCtlOpByPioc(code);
  if (op == nullptr || op->arg != CtlArgKind::kOut || op->flat_size <= 0) {
    return Errno::kEINVAL;  // not a fixed-size query
  }
  // Zeroed first, so no stale stack byte is served through a result's
  // padding.
  alignas(std::max_align_t) uint8_t out[kCtlQueryMax];
  std::memset(out, 0, static_cast<size_t>(op->flat_size));
  auto r = CtlDispatchOp(ctx, *op, out);
  if (!r.ok()) {
    return r.error();
  }
  return PrServe(out, static_cast<size_t>(op->flat_size), off, buf);
}

Result<int64_t> RunCtlStream(Kernel& k, Proc* p, Lwp* lwp, std::span<const uint8_t> buf,
                             Proc* caller) {
  CtlCtx ctx;
  ctx.k = &k;
  ctx.p = p;
  ctx.lwp = lwp;
  ctx.caller = caller;
  ctx.native_caller = caller != nullptr && caller->native;
  ctx.fd_writable = true;  // ctl files are write-only by construction

  size_t pos = 0;
  while (pos + 4 <= buf.size()) {
    int32_t code;
    std::memcpy(&code, buf.data() + pos, 4);
    const CtlOp* op = FindCtlOpByPc(code);
    if (op == nullptr ||
        pos + 4 + static_cast<size_t>(op->operand_size) > buf.size()) {
      return Errno::kEINVAL;
    }
    const uint8_t* wire = buf.data() + pos + 4;

    Result<int32_t> r = Errno::kEINVAL;
    if (op->arg == CtlArgKind::kRun) {
      PrRun run;
      std::memcpy(&run.pr_flags, wire, 4);
      std::memcpy(&run.pr_vaddr, wire + 4, 4);
      // The 8-byte wire form cannot carry the signal/fault sets; honoring
      // a set-flag here would install an *empty* set. Reject explicitly
      // (the sets travel as separate PCSTRACE/PCSHOLD/PCSFAULT messages)
      // instead of silently masking, which this encoding once did.
      if (run.pr_flags & (PRSTRACE | PRSHOLD | PRSFAULT)) {
        return Errno::kEINVAL;
      }
      r = CtlDispatchOp(ctx, *op, &run);
    } else {
      // Every other operand is its in-memory bytes; a row that takes none
      // hands its handler none.
      alignas(std::max_align_t) uint8_t operand[kCtlMsgOperandMax];
      std::memcpy(operand, wire, static_cast<size_t>(op->operand_size));
      r = CtlDispatchOp(ctx, *op, op->operand_size != 0 ? operand : nullptr);
    }
    if (!r.ok()) {
      // Messages already executed keep their effect.
      return r.error();
    }
    pos += 4 + static_cast<size_t>(op->operand_size);
    if (op->blocking && caller->defers_waits) {
      // The caller parks on the stop-wait and writes the rest afterwards.
      return static_cast<int64_t>(pos);
    }
  }
  if (pos != buf.size()) {
    return Errno::kEINVAL;  // trailing garbage
  }
  return static_cast<int64_t>(buf.size());
}

}  // namespace svr4
