// Trace ring and metrics registry. See ktrace.h for the design; this file
// is only the snapshot serializer and the text rendering — emission is all
// in the header-inlined gates plus Emit() below.
#include "svr4proc/kernel/ktrace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/syscall.h"

namespace svr4 {

const char* KtEventName(KtEvent e) {
  switch (e) {
    case KtEvent::kNone: return "none";
    case KtEvent::kSchedSwitch: return "sched_switch";
    case KtEvent::kStop: return "stop";
    case KtEvent::kRun: return "run";
    case KtEvent::kSignalPost: return "signal_post";
    case KtEvent::kSignalDeliver: return "signal_deliver";
    case KtEvent::kFault: return "fault";
    case KtEvent::kSyscallEntry: return "syscall_entry";
    case KtEvent::kSyscallExit: return "syscall_exit";
    case KtEvent::kCowBreak: return "cow_break";
    case KtEvent::kTlbFlush: return "tlb_flush";
    case KtEvent::kFork: return "fork";
    case KtEvent::kExec: return "exec";
    case KtEvent::kExit: return "exit";
    case KtEvent::kProcOpen: return "proc_open";
    case KtEvent::kProcClose: return "proc_close";
    case KtEvent::kFaultInject: return "fault_inject";
    case KtEvent::kIpi: return "ipi";
  }
  return "?";
}

KTrace::KTrace(const uint64_t* tick_src, const int* cpu_src, size_t cap)
    : tick_(tick_src), cpu_(cpu_src), ring_(cap == 0 ? 1 : cap) {}

void KTrace::Emit(KtEvent e, int32_t pid, int32_t lwpid, uint32_t a0, uint32_t a1) {
  if (!armed_) {
    return;
  }
  uint32_t code = static_cast<uint32_t>(e);
  if (code >= kKtEventCount) {
    code = 0;
    e = KtEvent::kNone;
  }
  if (metrics_on_) {
    ++events_[code];
    if (e == KtEvent::kSyscallExit) {
      // a0 carries syscall | errno<<16, a1 the entry->exit latency; fold
      // them into the per-syscall stats here so every exit site stays a
      // one-line Emit.
      uint32_t num = a0 & 0xFFFFu;
      if (num < static_cast<uint32_t>(kKtMaxSyscall)) {
        KtSyscallStat& s = sys_[num];
        ++s.calls;
        if ((a0 >> 16) != 0) {
          ++s.errors;
        }
        s.lat.Record(a1);
      }
    } else if (e == KtEvent::kSchedSwitch) {
      runq_depth_.Record(a1);
    }
  }
  if (ring_on_) {
    KtRec& r = ring_[total_ % ring_.size()];
    r.kt_tick = *tick_;
    r.kt_pid = pid;
    r.kt_lwpid = lwpid;
    r.kt_event = code;
    r.kt_a0 = a0;
    r.kt_a1 = a1;
    r.kt_cpu = cpu_ != nullptr ? static_cast<uint32_t>(*cpu_) : 0;
    ++total_;
  }
}

std::vector<uint8_t> KTrace::Snapshot(int32_t pid_filter) const {
  if (total_ == 0) {
    return {};
  }
  uint64_t kept = std::min<uint64_t>(total_, ring_.size());
  uint64_t first = total_ - kept;
  std::vector<KtRec> recs;
  recs.reserve(kept);
  for (uint64_t i = 0; i < kept; ++i) {
    const KtRec& r = ring_[(first + i) % ring_.size()];
    if (pid_filter >= 0 && r.kt_pid != pid_filter) {
      continue;
    }
    recs.push_back(r);
  }
  KtSnapHeader h{};
  h.kt_magic = kKtMagic;
  h.kt_version = kKtVersion;
  h.kt_recsize = sizeof(KtRec);
  h.kt_nrec = static_cast<uint32_t>(recs.size());
  h.kt_total = total_;
  h.kt_dropped = total_ - kept;
  std::vector<uint8_t> out(sizeof(h) + recs.size() * sizeof(KtRec));
  std::memcpy(out.data(), &h, sizeof(h));
  if (!recs.empty()) {
    std::memcpy(out.data() + sizeof(h), recs.data(), recs.size() * sizeof(KtRec));
  }
  return out;
}

void KtHist::Render(std::string& out, const char* name, const std::string& tag) const {
  char line[192];
  std::snprintf(line, sizeof(line), "hist %s%s count=%llu sum=%llu max=%llu mean=%.1f", name,
                tag.c_str(), static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum), static_cast<unsigned long long>(max),
                Mean());
  out += line;
  for (size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] != 0) {
      std::snprintf(line, sizeof(line), " b%zu:%llu", i,
                    static_cast<unsigned long long>(bucket[i]));
      out += line;
    }
  }
  out += '\n';
}

std::string KTrace::MetricsText(const FaultInjector* finj) const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "ktrace ring=%s metrics=%s cap=%zu total=%llu dropped=%llu\n",
                ring_on_ ? "on" : "off", metrics_on_ ? "on" : "off", ring_.size(),
                static_cast<unsigned long long>(total_),
                static_cast<unsigned long long>(dropped()));
  out += line;
  for (uint32_t i = 1; i < kKtEventCount; ++i) {
    if (events_[i] == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "counter event[%s] %llu\n",
                  KtEventName(static_cast<KtEvent>(i)),
                  static_cast<unsigned long long>(events_[i]));
    out += line;
  }
  for (int n = 0; n < kKtMaxSyscall; ++n) {
    const KtSyscallStat& s = sys_[n];
    if (s.calls == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "counter syscall[%s] calls=%llu errors=%llu\n",
                  std::string(SyscallName(n)).c_str(),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<unsigned long long>(s.errors));
    out += line;
    s.lat.Render(out, "syscall_lat[", std::string(SyscallName(n)) + "]");
  }
  stop_wait_.Render(out, "stop_wait", "");
  runq_depth_.Render(out, "runq_depth", "");
  for (int c = 0; c < kKtMaxCpus; ++c) {
    if (runq_wait_[c].count != 0) {
      runq_wait_[c].Render(out, "runq_wait[cpu", std::to_string(c) + "]");
    }
  }
  for (int c = 0; c < kKtMaxCpus; ++c) {
    if (steal_lat_[c].count != 0) {
      steal_lat_[c].Render(out, "steal_lat[cpu", std::to_string(c) + "]");
    }
  }
  if (finj != nullptr) {
    // The injector's per-site counters have exactly one home (FaultInjector
    // itself); both /proc2/kernel/faults and this registry render from it.
    for (int i = 0; i < kFaultSiteCount; ++i) {
      FaultSite s = static_cast<FaultSite>(i);
      if (finj->evals(s) == 0 && finj->fires(s) == 0) {
        continue;
      }
      std::snprintf(line, sizeof(line), "counter fault_site[%s] evals=%llu fires=%llu\n",
                    FaultSiteName(s), static_cast<unsigned long long>(finj->evals(s)),
                    static_cast<unsigned long long>(finj->fires(s)));
      out += line;
    }
  }
  return out;
}

}  // namespace svr4
