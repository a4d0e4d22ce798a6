// Builders translating kernel process state into the proc(4) structures.
// These present "a complete and consistent process model as independent as
// possible of internal system implementation details."
#include <algorithm>
#include <cstring>
#include <string_view>

#include "svr4proc/kernel/kernel.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/kernel/syscall.h"
#include "svr4proc/procfs/types.h"

namespace svr4 {
namespace {

void CopyStr(char* dst, size_t cap, std::string_view src) {
  size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = 0;
}

// An lwp's stop flags and the stop it reports, the same in PrStatus (for
// the representative lwp) and PrLwpStatus: PR_STEP while the trace bit is
// set; PR_STOPPED, PR_ISTOP and why/what when stopped; PR_ASLEEP when
// stopped out of an interruptible sleep or still in one; and the system
// call it is in.
template <typename Status>
void FillLwpStop(Status& st, const Lwp* l) {
  if (l->regs.psr & kPsrT) {
    st.pr_flags |= PR_STEP;
  }
  if (l->state == LwpState::kStopped) {
    st.pr_flags |= PR_STOPPED;
    if (l->istop) {
      st.pr_flags |= PR_ISTOP;
    }
    st.pr_why = l->stop_why;
    st.pr_what = l->stop_what;
    if (l->stopped_while_asleep) {
      st.pr_flags |= PR_ASLEEP;
    }
  } else if (l->state == LwpState::kSleeping && l->sleep.interruptible) {
    st.pr_flags |= PR_ASLEEP;
  }
  if (l->in_syscall) {
    st.pr_syscall = l->cur_syscall;
  }
}

}  // namespace

PrStatus BuildPrStatus(Kernel& k, Proc* p) {
  PrStatus st;
  st.pr_pid = p->pid;
  st.pr_ppid = p->ppid;
  st.pr_pgrp = p->pgrp;
  st.pr_sid = p->sid;
  st.pr_utime = p->utime;
  st.pr_stime = p->stime;
  st.pr_cutime = p->cutime;
  st.pr_cstime = p->cstime;
  CopyStr(st.pr_clname, PRCLSZ, "TS");
  st.pr_cursig = static_cast<uint16_t>(p->sig.cursig);
  st.pr_sigpend = p->sig.pending;
  st.pr_sighold = p->sig.hold;
  uint32_t nlwp = 0;
  for (const auto& l : p->lwps) {
    if (l->state != LwpState::kDead) {
      ++nlwp;
    }
  }
  st.pr_nlwp = nlwp;
  if (const Lwp* rl = p->RepresentativeLwp()) {
    st.pr_cpuid = static_cast<uint32_t>(rl->cpu);
  }

  if (p->system_proc) {
    st.pr_flags |= PR_ISSYS;
  }
  if (p->trace.inherit_on_fork) {
    st.pr_flags |= PR_FORK;
  }
  if (p->trace.run_on_last_close) {
    st.pr_flags |= PR_RLC;
  }
  if (p->pt_traced) {
    st.pr_flags |= PR_PTRACE;
  }
  if (p->trace.dstop_pending) {
    st.pr_flags |= PR_DSTOP;
  }

  Lwp* l = p->RepresentativeLwp();
  if (l != nullptr) {
    st.pr_lwpid = static_cast<uint16_t>(l->lwpid);
    st.pr_reg = l->regs;
    FillLwpStop(st, l);
    if (l->state == LwpState::kStopped && l->stop_why == PR_FAULTED) {
      st.pr_info.si_code = p->trace.cur_fault;
      st.pr_info.si_addr = p->trace.cur_fault_addr;
    } else if (l->state == LwpState::kStopped && l->stop_why == PR_SIGNALLED) {
      st.pr_info = p->sig.cursig_info;
    }
    if (l->in_syscall) {
      st.pr_nsysarg = static_cast<uint16_t>(SyscallNargs(l->cur_syscall));
      for (int i = 0; i < 6; ++i) {
        st.pr_sysarg[i] = l->sysargs[i];
      }
    }
    if (p->as) {
      uint32_t instr = 0;
      auto n = p->as->PrRead(l->regs.pc,
                             std::span<uint8_t>(reinterpret_cast<uint8_t*>(&instr), 4));
      if (n.ok() && *n > 0) {
        st.pr_instr = instr;
      } else {
        st.pr_flags |= PR_PCINVAL;
      }
    } else {
      st.pr_flags |= PR_PCINVAL;
    }
  }
  (void)k;
  return st;
}

PrPsinfo BuildPrPsinfo(Kernel& k, Proc* p) {
  PrPsinfo ps;
  ps.pr_pid = p->pid;
  ps.pr_ppid = p->ppid;
  ps.pr_pgrp = p->pgrp;
  ps.pr_sid = p->sid;
  ps.pr_uid = p->creds.ruid;
  ps.pr_gid = p->creds.rgid;
  ps.pr_nice = static_cast<char>(p->nice);
  ps.pr_start = p->start_tick;
  ps.pr_time = p->utime + p->stime;
  CopyStr(ps.pr_clname, PRCLSZ, "TS");
  CopyStr(ps.pr_fname, PRFNSZ, p->name);
  CopyStr(ps.pr_psargs, PRARGSZ, p->psargs);
  uint16_t nlwp = 0;
  for (const auto& l : p->lwps) {
    if (l->state != LwpState::kDead) {
      ++nlwp;
    }
  }
  ps.pr_nlwp = nlwp;

  if (p->state == Proc::State::kZombie) {
    ps.pr_state = 'Z';
    ps.pr_zomb = 1;
  } else {
    const Lwp* l = p->RepresentativeLwp();
    if (l == nullptr) {
      ps.pr_state = p->native || p->system_proc ? 'S' : 'R';
    } else {
      switch (l->state) {
        case LwpState::kRunning:
          ps.pr_state = 'R';
          break;
        case LwpState::kSleeping:
          ps.pr_state = 'S';
          break;
        case LwpState::kStopped:
          ps.pr_state = 'T';
          break;
        case LwpState::kDead:
          ps.pr_state = 'Z';
          break;
      }
      if (l->in_syscall) {
        ps.pr_syscall = l->cur_syscall;
      }
      ps.pr_cpuid = static_cast<uint16_t>(l->cpu);
    }
  }
  if (p->as) {
    ps.pr_size = p->as->VirtualSize() / kPageSize;
    ps.pr_rssize = p->as->ResidentPages();
  }
  (void)k;
  return ps;
}

PrCred BuildPrCred(const Proc* p) {
  PrCred c;
  c.pr_euid = p->creds.euid;
  c.pr_ruid = p->creds.ruid;
  c.pr_suid = p->creds.suid;
  c.pr_egid = p->creds.egid;
  c.pr_rgid = p->creds.rgid;
  c.pr_sgid = p->creds.sgid;
  c.pr_ngroups = static_cast<uint32_t>(std::min<size_t>(p->creds.groups.size(), PRNGROUPS));
  for (uint32_t i = 0; i < c.pr_ngroups; ++i) {
    c.pr_groups[i] = p->creds.groups[i];
  }
  return c;
}

PrUsage BuildPrUsage(const Kernel& k, const Proc* p) {
  PrUsage u;
  u.pr_tstamp = k.Ticks();
  u.pr_create = p->start_tick;
  u.pr_rtime = k.Ticks() - p->start_tick;
  u.pr_utime = p->utime;
  u.pr_stime = p->stime;
  // Fault counts live in the address space; the bases fold in counts from
  // address spaces the process has already discarded (exec replaces the
  // image, exit drops it before the zombie is interrogated).
  u.pr_minf = p->minflt_base;
  u.pr_majf = p->majflt_base;
  if (p->as) {
    u.pr_minf += p->as->counters().minor_faults;
    u.pr_majf += p->as->counters().major_faults;
  }
  u.pr_nsig = p->nsignals;
  u.pr_sysc = p->nsyscalls;
  u.pr_ioch = p->ioch;
  return u;
}

// The array bounds in the PrKstat ABI must track the kernel enums; a new
// KtEvent or syscall past the bound would silently vanish from snapshots.
static_assert(kPrKstatEvents >= kKtEventCount, "PrKstat event array too small");
static_assert(kPrKstatSyscalls >= kKtMaxSyscall, "PrKstat syscall array too small");

PrKstat BuildPrKstat(const Kernel& k) {
  PrKstat ks;
  ks.pr_ticks = k.Ticks();
  ks.pr_instructions = k.counters().instructions;
  ks.pr_timer_events = k.counters().timer_events;
  ks.pr_reaps = k.counters().reaps;
  const KTrace& kt = k.ktrace();
  ks.pr_ring_on = kt.ring_on() ? 1 : 0;
  ks.pr_metrics_on = kt.metrics_on() ? 1 : 0;
  ks.pr_trace_total = kt.total();
  ks.pr_trace_dropped = kt.dropped();
  for (uint32_t e = 0; e < kKtEventCount; ++e) {
    ks.pr_events[e] = kt.event_count(static_cast<KtEvent>(e));
  }
  for (int s = 0; s < kKtMaxSyscall; ++s) {
    const KtSyscallStat& st = kt.syscall_stat(s);
    ks.pr_sys[s].pr_calls = st.calls;
    ks.pr_sys[s].pr_errors = st.errors;
    ks.pr_sys[s].pr_latsum = st.lat.sum;
    ks.pr_sys[s].pr_latmax = st.lat.max;
  }
  ks.pr_stop_wait_count = kt.stop_wait().count;
  ks.pr_stop_wait_sum = kt.stop_wait().sum;
  ks.pr_stop_wait_max = kt.stop_wait().max;
  for (int c = 0; c < kKtMaxCpus; ++c) {
    const KtHist& rw = kt.runq_wait(c);
    ks.pr_runq_wait_count += rw.count;
    ks.pr_runq_wait_sum += rw.sum;
    ks.pr_runq_wait_max = std::max(ks.pr_runq_wait_max, rw.max);
    const KtHist& sl = kt.steal_lat(c);
    ks.pr_steal_count += sl.count;
    ks.pr_steal_sum += sl.sum;
    ks.pr_steal_max = std::max(ks.pr_steal_max, sl.max);
  }
  return ks;
}

std::vector<PrMapEntry> BuildPrMap(const Proc* p) {
  std::vector<PrMapEntry> out;
  if (!p->as) {
    return out;
  }
  for (const auto& m : p->as->Maps()) {
    PrMapEntry e;
    e.pr_vaddr = m.vaddr;
    e.pr_size = m.size;
    e.pr_off = m.offset;
    e.pr_mflags = m.flags;
    e.pr_pagesize = kPageSize;
    CopyStr(e.pr_mapname, PRMAPNMSZ, m.name);
    out.push_back(e);
  }
  return out;
}

PrLwpStatus BuildPrLwpStatus(const Proc* p, const Lwp* l) {
  PrLwpStatus st;
  st.pr_lwpid = static_cast<uint16_t>(l->lwpid);
  st.pr_reg = l->regs;
  st.pr_fpreg = l->fpregs;
  st.pr_cursig = static_cast<uint16_t>(p->sig.cursig);
  FillLwpStop(st, l);
  return st;
}

}  // namespace svr4
