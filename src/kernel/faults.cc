// Fault injection, the seeded chaos scheduler, and the kernel-wide
// invariant checker. Everything here is test machinery in the sense that
// production runs never arm it, but it lives in the kernel proper because
// the injection sites and the invariants are statements about kernel
// structure, not about any one test.
#include "svr4proc/kernel/faults.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "svr4proc/kernel/kernel.h"
#include "svr4proc/kernel/ktrace.h"

namespace svr4 {

const char* FaultSiteName(FaultSite s) {
  switch (s) {
    case FaultSite::kCopyin: return "COPYIN";
    case FaultSite::kCopyout: return "COPYOUT";
    case FaultSite::kVmMap: return "VM_MAP";
    case FaultSite::kVmGrow: return "VM_GROW";
    case FaultSite::kVfsResolve: return "VFS_RESOLVE";
    case FaultSite::kVnodeRead: return "VNODE_READ";
    case FaultSite::kVnodeWrite: return "VNODE_WRITE";
    case FaultSite::kTlbFlush: return "TLB_FLUSH";
    case FaultSite::kSpuriousWakeup: return "SPURIOUS_WAKEUP";
    case FaultSite::kDelayedStop: return "DELAYED_STOP";
    case FaultSite::kIpiDelay: return "IPI_DELAY";
    case FaultSite::kPeerDisconnect: return "PEER_DISCONNECT";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    // Decorrelate sites that share a seed by folding the site index in.
    state_[i].rng =
        plan_.rule(static_cast<FaultSite>(i)).seed + 0x9E3779B97F4A7C15ull * (i + 1);
  }
}

bool FaultInjector::Fire(FaultSite s) {
  const FaultRule& r = plan_.rule(s);
  SiteState& st = state_[static_cast<int>(s)];
  ++st.evals;
  if (r.num == 0 || r.den == 0 || st.fires >= r.max_hits) {
    return false;
  }
  if (SplitMix64(st.rng) % r.den >= r.num) {
    return false;
  }
  ++st.fires;
  if (kt_ != nullptr) {
    // pid 0: injection sites are kernel-wide seams, not per-process events.
    kt_->Emit(KtEvent::kFaultInject, 0, 0, static_cast<uint32_t>(s),
              static_cast<uint32_t>(st.fires));
  }
  return true;
}

uint64_t FaultInjector::Draw(FaultSite s, uint64_t n) {
  return SplitMix64(state_[static_cast<int>(s)].rng) % n;
}

std::string FaultInjector::Describe() const {
  std::string out = "faults: armed\n";
  for (int i = 0; i < kFaultSiteCount; ++i) {
    FaultSite s = static_cast<FaultSite>(i);
    const FaultRule& r = plan_.rule(s);
    if (r.num == 0) {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "site=%s seed=%llu prob=%u/%u max_hits=%llu evals=%llu fires=%llu\n",
                  FaultSiteName(s), static_cast<unsigned long long>(r.seed), r.num, r.den,
                  static_cast<unsigned long long>(r.max_hits),
                  static_cast<unsigned long long>(state_[i].evals),
                  static_cast<unsigned long long>(state_[i].fires));
    out += line;
  }
  return out;
}

// --- Kernel integration ------------------------------------------------------

void Kernel::SetFaultPlan(const FaultPlan& plan) {
  finj_ = std::make_unique<FaultInjector>(plan);
  finj_->SetKtrace(&kt_);
  vfs_.SetFaultInjector(finj_.get());
  for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    if (p->as) {
      p->as->SetFaultInjector(finj_.get());
    }
  }
}

void Kernel::ClearFaultPlan() {
  vfs_.SetFaultInjector(nullptr);
  for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    if (p->as) {
      p->as->SetFaultInjector(nullptr);
    }
  }
  finj_.reset();
}

void Kernel::SetChaosScheduler(uint64_t seed) {
  chaos_ = true;
  chaos_rng_ = seed ^ 0xC4A05E7B9D2F1683ull;
}

void Kernel::ClearChaosScheduler() { chaos_ = false; }

uint64_t Kernel::ChaosNext() { return SplitMix64(chaos_rng_); }

// PRNG-driven choice among every runnable lwp, replacing the round-robin
// rotation. The run-queue cursor is advanced past the pick so switching
// chaos off mid-run resumes fair rotation from the last chaotic choice.
// On a multi-CPU kernel the scheduler first draws which CPU fires this
// quantum (reported through *cpu_out), then picks chaotically within that
// CPU's queue — so chaos explores cross-CPU interleavings too. The CPU
// draw only happens when ncpus > 1, keeping uniprocessor chaos streams
// bit-identical to the pre-SMP kernel.
Lwp* Kernel::PickNextChaos(int* cpu_out) {
  int cpu = 0;
  if (smp_.ncpus() > 1) {
    cpu = static_cast<int>(ChaosNext() % static_cast<uint64_t>(smp_.ncpus()));
  }
  CpuState& c = smp_.cpu(cpu);
  if (c.runq_next == nullptr) {
    // The drawn CPU idles this quantum; steal like the fair scheduler so
    // chaos never starves a runnable lwp behind an empty queue.
    Lwp* stolen = StealFor(cpu);
    if (stolen == nullptr) {
      return nullptr;
    }
    *cpu_out = cpu;
    return stolen;
  }
  // Walk the circle once from the cursor: a deterministic ordering of the
  // runnable set, so one seed replays the same schedule.
  std::vector<Lwp*> runnable;
  Lwp* l = c.runq_next;
  do {
    runnable.push_back(l);
    l = l->q_next;
  } while (l != c.runq_next);
  Lwp* pick = runnable[ChaosNext() % runnable.size()];
  c.runq_next = pick->q_next;
  *cpu_out = cpu;
  return pick;
}

// --- Invariant checker -------------------------------------------------------

namespace {

std::string Violation(Pid pid, const char* what, long long got, long long want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "pid %d: %s (got %lld, want %lld)", pid, what, got, want);
  return buf;
}

}  // namespace

std::vector<std::string> Kernel::CheckInvariants() {
  std::vector<std::string> v;

  // Recount /proc descriptor references from every descriptor table, split
  // by generation: a descriptor whose pr_gen matches the target's current
  // generation is live; a mismatched one was invalidated by a set-id exec
  // and must be accounted in the stale ledger instead.
  struct Counts {
    int total = 0;
    int writable = 0;
    int stale_total = 0;
    int stale_writable = 0;
  };
  std::unordered_map<Pid, Counts> seen_counts;
  std::unordered_set<const OpenFile*> seen;  // dup/fork share one OpenFile
  for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    for (auto& of : p->fds) {
      if (!of || !of->vp) {
        continue;
      }
      int32_t target = of->vp->PrCountedTarget();
      if (target < 0) {
        continue;
      }
      if (!seen.insert(of.get()).second) {
        continue;
      }
      Proc* tp = FindProc(target);
      if (tp == nullptr) {
        continue;  // target reaped; its ledger went with it
      }
      if (of->pr_ident != 0 && of->pr_ident != tp->ident) {
        // The descriptor's process died and its pid was reused: the
        // descriptor names nobody, and the successor's ledger never
        // counted it.
        continue;
      }
      Counts& c = seen_counts[target];
      if (of->pr_gen == tp->trace.gen) {
        ++c.total;
        c.writable += of->writable ? 1 : 0;
      } else {
        ++c.stale_total;
        c.stale_writable += of->writable ? 1 : 0;
      }
    }
  }

  // Process-table coherence: the intrusive all-procs list, the pid hash,
  // the allocation bitmap and nprocs_ must all agree.
  {
    size_t list_len = 0;
    for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
      ++list_len;
      if (FindProc(p->pid) != p) {
        v.push_back(Violation(p->pid, "pid hash does not resolve to proc", 0, 1));
      }
    }
    if (list_len != nprocs_) {
      v.push_back(Violation(0, "all-procs list length != nprocs_",
                            static_cast<long long>(list_len),
                            static_cast<long long>(nprocs_)));
    }
    // The summary holds one bit per bitmap word, set iff the word is
    // nonzero; recompute it in the popcount pass.
    size_t popcount = 0;
    std::vector<uint64_t> summary((pid_bitmap_.size() + 63) / 64, 0);
    for (size_t w = 0; w < pid_bitmap_.size(); ++w) {
      popcount += static_cast<size_t>(std::popcount(pid_bitmap_[w]));
      if (pid_bitmap_[w] != 0) {
        summary[w / 64] |= 1ull << (w % 64);
      }
    }
    if (popcount != nprocs_) {
      v.push_back(Violation(0, "pid bitmap popcount != nprocs_",
                            static_cast<long long>(popcount),
                            static_cast<long long>(nprocs_)));
    }
    if (summary.size() != pid_summary_.size()) {
      v.push_back(Violation(0, "pid summary words != bitmap words / 64",
                            static_cast<long long>(pid_summary_.size()),
                            static_cast<long long>(summary.size())));
    } else {
      for (size_t i = 0; i < summary.size(); ++i) {
        if (summary[i] != pid_summary_[i]) {
          // The pid named is the first of the 4096 this summary word covers.
          v.push_back(Violation(static_cast<Pid>(i * 4096), "pid summary disagrees with bitmap",
                                static_cast<long long>(pid_summary_[i]),
                                static_cast<long long>(summary[i])));
        }
      }
    }
    // Each per-CPU run queue is a closed circle whose members all claim
    // membership, are homed on that CPU, and appear on no other queue.
    std::unordered_set<const Lwp*> on_some_queue;
    for (int ci = 0; ci < smp_.ncpus(); ++ci) {
      const CpuState& cs = smp_.cpu(ci);
      size_t circle = 0;
      if (cs.runq_next != nullptr) {
        Lwp* l = cs.runq_next;
        do {
          ++circle;
          if (l->q_where != Lwp::kQRun) {
            v.push_back(Violation(l->proc->pid, "runq member not marked kQRun",
                                  l->lwpid, 0));
            break;
          }
          if (l->cpu != ci) {
            v.push_back(Violation(l->proc->pid, "runq member homed on other cpu",
                                  l->cpu, ci));
            break;
          }
          if (!on_some_queue.insert(l).second) {
            v.push_back(
                Violation(l->proc->pid, "lwp on two run queues", l->lwpid, 0));
            break;
          }
          l = l->q_next;
        } while (l != cs.runq_next && circle <= cs.runq_len);
      }
      if (circle != cs.runq_len) {
        v.push_back(Violation(0, "run-queue circle length != runq_len",
                              static_cast<long long>(circle),
                              static_cast<long long>(cs.runq_len)));
      }
    }
    // Cross-CPU interrupt conservation: every IPI charged to a sender is
    // either acknowledged by its target or still pending there.
    uint64_t acked = 0;
    for (int ci = 0; ci < smp_.ncpus(); ++ci) {
      acked += smp_.cpu(ci).stats.ipis_received;
    }
    if (smp_.TotalIpisSent() != acked + smp_.TotalIpisPending()) {
      v.push_back(Violation(0, "IPI conservation (sent != received + pending)",
                            static_cast<long long>(smp_.TotalIpisSent()),
                            static_cast<long long>(acked + smp_.TotalIpisPending())));
    }
  }

  for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    const Pid pid = p->pid;
    const TraceState& t = p->trace;

    // Children-list coherence: every entry in a proc's children list names
    // it as parent, both in the intrusive link and in ppid.
    for (Proc* q = p->pt_first_child; q != nullptr; q = q->pt_sib_next) {
      if (q->pt_parent != p) {
        v.push_back(Violation(q->pid, "child link does not name parent", 0, pid));
      }
      if (q->ppid != p->pid) {
        v.push_back(Violation(q->pid, "child ppid != parent pid", q->ppid, p->pid));
      }
      if (q->pt_sib_next != nullptr && q->pt_sib_next->pt_sib_prev != q) {
        v.push_back(Violation(q->pid, "sibling list links inconsistent", 0, 1));
      }
    }

    // Open-count balance and conservation against the recount.
    if (t.writable_opens < 0) {
      v.push_back(Violation(pid, "writable_opens negative", t.writable_opens, 0));
    }
    if (t.total_opens < t.writable_opens) {
      v.push_back(Violation(pid, "total_opens < writable_opens", t.total_opens,
                            t.writable_opens));
    }
    if (t.stale_writable_opens < 0) {
      v.push_back(
          Violation(pid, "stale_writable_opens negative", t.stale_writable_opens, 0));
    }
    if (t.stale_total_opens < t.stale_writable_opens) {
      v.push_back(Violation(pid, "stale_total_opens < stale_writable_opens",
                            t.stale_total_opens, t.stale_writable_opens));
    }
    Counts c;
    auto it = seen_counts.find(pid);
    if (it != seen_counts.end()) {
      c = it->second;
    }
    if (c.total != t.total_opens) {
      v.push_back(Violation(pid, "total_opens conservation", t.total_opens, c.total));
    }
    if (c.writable != t.writable_opens) {
      v.push_back(
          Violation(pid, "writable_opens conservation", t.writable_opens, c.writable));
    }
    if (c.stale_total != t.stale_total_opens) {
      v.push_back(Violation(pid, "stale_total_opens conservation", t.stale_total_opens,
                            c.stale_total));
    }

    // An exclusive holder must itself be one of the writable opens.
    if (t.excl && t.writable_opens < 1) {
      v.push_back(Violation(pid, "excl set with no writable open", t.writable_opens, 1));
    }

    // Audit-ring monotonicity: the total never regresses across checks, and
    // the retained records carry non-decreasing completion ticks, none from
    // the future. Watermarks key on the birth identity, not the pid, so a
    // reused pid starts from its own zero. The ring is allocated lazily:
    // a null ring with a non-zero total is itself a violation.
    uint64_t& mark = audit_watermark_[p->ident];
    if (t.audit_total < mark) {
      v.push_back(Violation(pid, "audit_total regressed",
                            static_cast<long long>(t.audit_total),
                            static_cast<long long>(mark)));
    }
    mark = t.audit_total;
    // Zombies are exempt: exit releases the ring (keeping the totals) so a
    // dead proc's footprint shrinks to the reap record.
    if (t.audit_total > 0 && t.audit == nullptr &&
        p->state != Proc::State::kZombie) {
      v.push_back(Violation(pid, "audit total with no ring allocated",
                            static_cast<long long>(t.audit_total), 0));
    }
    if (t.audit != nullptr) {
      uint64_t kept = std::min<uint64_t>(t.audit_total, kCtlAuditCap);
      uint64_t first = t.audit_total - kept;
      uint64_t prev_tick = 0;
      for (uint64_t i = 0; i < kept; ++i) {
        const CtlAuditRec& rec = (*t.audit)[(first + i) % kCtlAuditCap];
        if (rec.pr_tick < prev_tick) {
          v.push_back(Violation(pid, "audit ring ticks out of order",
                                static_cast<long long>(rec.pr_tick),
                                static_cast<long long>(prev_tick)));
          break;
        }
        if (rec.pr_tick > ticks_) {
          v.push_back(Violation(pid, "audit record from the future",
                                static_cast<long long>(rec.pr_tick),
                                static_cast<long long>(ticks_)));
          break;
        }
        prev_tick = rec.pr_tick;
      }
    }

    // Address-space page counts: ps rows read them without a walk, so they
    // must equal the walk.
    if (p->as) {
      AddressSpace::PageCounts walk = p->as->CountPages();
      if (p->as->VirtualSize() != walk.virtual_pages * kPageSize) {
        v.push_back(Violation(pid, "virtual size != mapping walk", p->as->VirtualSize(),
                              walk.virtual_pages * kPageSize));
      }
      if (p->as->ResidentPages() != walk.resident_pages) {
        v.push_back(Violation(pid, "resident pages != frame walk", p->as->ResidentPages(),
                              walk.resident_pages));
      }
    }

    // Lifecycle and scheduler coherence.
    if (p->state == Proc::State::kZombie) {
      if (p->as) {
        v.push_back(Violation(pid, "zombie retains an address space", 1, 0));
      }
      for (const auto& l : p->lwps) {
        if (l->state != LwpState::kDead) {
          v.push_back(Violation(pid, "zombie with a live lwp", l->lwpid, 0));
        }
      }
    }
    for (const auto& l : p->lwps) {
      // A runnable lwp must be schedulable: PickNext only considers active
      // non-native, non-system processes, so a kRunning lwp anywhere else
      // would spin forever unscheduled.
      if (l->state == LwpState::kRunning &&
          (p->state != Proc::State::kActive || p->system_proc)) {
        v.push_back(Violation(pid, "runnable lwp is unschedulable", l->lwpid, 0));
      }
      // A sleeper with no channel and no wake tick can never be woken.
      if (l->state == LwpState::kSleeping && l->sleep.chan == nullptr &&
          l->sleep.wake_tick == 0) {
        v.push_back(Violation(pid, "sleeping lwp has no wake source", l->lwpid, 0));
      }
      if (l->istop && l->state != LwpState::kStopped) {
        v.push_back(Violation(pid, "istop on a non-stopped lwp", l->lwpid, 0));
      }
      if (l->stopped_while_asleep && l->state != LwpState::kStopped) {
        v.push_back(
            Violation(pid, "stopped_while_asleep on a non-stopped lwp", l->lwpid, 0));
      }
      // Scheduler-queue membership mirrors the state machine exactly.
      bool should_run_q = l->state == LwpState::kRunning &&
                          p->state == Proc::State::kActive && !p->native &&
                          !p->system_proc;
      bool should_sleep_q =
          l->state == LwpState::kSleeping && l->sleep.chan != nullptr;
      uint8_t want_q = should_run_q ? Lwp::kQRun
                       : should_sleep_q ? Lwp::kQSleep
                                        : Lwp::kQNone;
      if (l->q_where != want_q) {
        v.push_back(Violation(pid, "lwp queue membership mismatch", l->q_where,
                              want_q));
      }
    }
  }
  return v;
}

}  // namespace svr4
