// kstat: samples the kernel event-trace ring and metrics registry through
// /proc itself — PIOCKSTAT for the structured registry snapshot,
// /proc2/kernel/metrics for the text rendering, and /proc2/kernel/trace for
// the raw event ring. The kernel's own observability travels over the same
// filesystem interface a debugger uses for processes.
#include <cstdio>
#include <string>

#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

using namespace svr4;

namespace {

// The format canary: any /proc2/kernel/{metrics,procd} line that drifts
// from the `key value` grammar makes this tool fail, so renderer changes
// that would break downstream parsers are caught by the smoke run.
int ValidateOrDie(const char* what, const std::string& text) {
  std::string bad;
  if (!ValidateMetricsText(text, &bad)) {
    std::fprintf(stderr, "kstat: malformed %s line: \"%s\"\n", what, bad.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  Sim sim;
  // Arm both layers: the ring records individual events, the registry
  // aggregates counters and latency histograms.
  sim.kernel().SetTracing(/*ring=*/true, /*metrics=*/true);

  // Workload: a parent forks a syscall-happy child and waits for it.
  (void)sim.InstallProgram("/bin/forker", R"(
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_wait
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r8, 50
loop: ldi r0, SYS_getpid
      sys
      ldi r5, 1
      sub r8, r5
      cmpi r8, 0
      jnz loop
      ldi r0, SYS_exit
      ldi r1, 7
      sys
  )");
  auto pid = sim.Start("/bin/forker");
  (void)sim.kernel().RunToExit(*pid);

  // --- PIOCKSTAT: the structured registry snapshot -------------------------
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(),
                             sim.kernel().init_proc()->pid, O_RDONLY);
  auto ks = *h.Kstat();
  std::printf("kstat @ tick %llu: %llu instructions, %llu trace records "
              "(%llu dropped)\n",
              static_cast<unsigned long long>(ks.pr_ticks),
              static_cast<unsigned long long>(ks.pr_instructions),
              static_cast<unsigned long long>(ks.pr_trace_total),
              static_cast<unsigned long long>(ks.pr_trace_dropped));

  std::printf("\nevents:\n");
  for (uint32_t e = 0; e < kKtEventCount; ++e) {
    if (ks.pr_events[e] != 0) {
      std::printf("  %-16s %8llu\n", KtEventName(static_cast<KtEvent>(e)),
                  static_cast<unsigned long long>(ks.pr_events[e]));
    }
  }

  std::printf("\nsyscalls:             calls   errors  avg(ticks)\n");
  for (int s = 0; s < kPrKstatSyscalls; ++s) {
    const PrKstatSys& st = ks.pr_sys[s];
    if (st.pr_calls == 0) {
      continue;
    }
    std::printf("  %-16s %8llu %8llu %11.1f\n",
                std::string(SyscallName(s)).c_str(),
                static_cast<unsigned long long>(st.pr_calls),
                static_cast<unsigned long long>(st.pr_errors),
                static_cast<double>(st.pr_latsum) / static_cast<double>(st.pr_calls));
  }

  // --- Scheduler wait accounting (aggregated over CPUs) --------------------
  std::printf("\nscheduler waits:        count  avg(ticks)  max(ticks)\n");
  struct WaitRow {
    const char* name;
    unsigned long long count, sum, max;
  } wait_rows[] = {
      {"stop_wait", ks.pr_stop_wait_count, ks.pr_stop_wait_sum, ks.pr_stop_wait_max},
      {"runq_wait", ks.pr_runq_wait_count, ks.pr_runq_wait_sum, ks.pr_runq_wait_max},
      {"steal", ks.pr_steal_count, ks.pr_steal_sum, ks.pr_steal_max},
  };
  for (const WaitRow& w : wait_rows) {
    std::printf("  %-16s %8llu %11.1f %11llu\n", w.name, w.count,
                w.count != 0 ? static_cast<double>(w.sum) / static_cast<double>(w.count)
                             : 0.0,
                w.max);
  }

  // --- The event ring, read back as a file ---------------------------------
  auto t = *ReadTraceFile(sim.kernel(), sim.controller(), "/proc2/kernel/trace");
  std::printf("\nlast events of %u in the ring:\n", t.hdr.kt_nrec);
  size_t first = t.recs.size() > 12 ? t.recs.size() - 12 : 0;
  for (size_t i = first; i < t.recs.size(); ++i) {
    const KtRec& r = t.recs[i];
    std::printf("  tick=%-6llu pid=%-3d %-14s a0=0x%x a1=0x%x\n",
                static_cast<unsigned long long>(r.kt_tick), r.kt_pid,
                KtEventName(static_cast<KtEvent>(r.kt_event)), r.kt_a0, r.kt_a1);
  }

  // --- The registry, rendered as text by the kernel ------------------------
  LocalProcIo lio(sim.kernel(), sim.controller());
  auto metrics = *ReadTextFile(lio, "/proc2/kernel/metrics");
  if (int rc = ValidateOrDie("/proc2/kernel/metrics", metrics)) {
    return rc;
  }
  std::printf("\n/proc2/kernel/metrics (first 1024 of %zu bytes):\n%.1024s",
              metrics.size(), metrics.c_str());

  // --- Bulk population snapshot (PIOCPSALL) --------------------------------
  // One operation returns psinfo for every process in the system; at large
  // populations this replaces the open/PIOCPSINFO/close loop ps(1) runs.
  auto all = *h.PsinfoAll();
  int active = 0, zombies = 0;
  for (const PrPsinfo& ps : all) {
    if (ps.pr_state == 'Z') {
      ++zombies;
    } else {
      ++active;
    }
  }
  std::printf("\npopulation (PIOCPSALL): %zu processes, %d active, %d zombie\n",
              all.size(), active, zombies);

  // --- Block-engine counters (PIOCVMSTATS) ---------------------------------
  // The predecoded-block engine runs with tracing still armed; its cache
  // counters show up both per-process (PIOCVMSTATS) and kernel-wide (the
  // bb_* lines of /proc2/kernel/metrics, including bb_slots, the cache
  // slots allocated across live address spaces).
  // The spinner never exits: in free-running SMP mode a Step executes
  // thousands of instructions, and the sections below (PIOCVMSTATS,
  // PIOCPROF, /proc2/<pid>/prof) need the process alive to interrogate.
  (void)sim.InstallProgram("/bin/spin", R"(
loop: addi r1, 1
      jmp loop
  )");
  auto spin = sim.Start("/bin/spin");
  auto hs = *ProcHandle::Grab(sim.kernel(), sim.controller(), *spin, O_RDWR);
  for (int i = 0; i < 2000; ++i) {
    sim.kernel().Step();
  }
  auto vs = *hs.VmStats();
  std::printf("\nblock engine (pid %d): built=%llu hits=%llu misses=%llu "
              "invalidations=%llu fallbacks=%llu\n",
              *spin, static_cast<unsigned long long>(vs.pr_bb_built),
              static_cast<unsigned long long>(vs.pr_bb_hits),
              static_cast<unsigned long long>(vs.pr_bb_misses),
              static_cast<unsigned long long>(vs.pr_bb_invalidations),
              static_cast<unsigned long long>(vs.pr_bb_fallbacks));
  constexpr char kSlotsKey[] = "\nbb_slots ";
  auto engine = *ReadTextFile(lio, "/proc2/kernel/metrics");
  size_t at = engine.find(kSlotsKey);
  if (at == std::string::npos) {
    std::fprintf(stderr, "kstat: /proc2/kernel/metrics has no bb_slots line\n");
    return 1;
  }
  at += sizeof(kSlotsKey) - 1;
  std::printf("block cache slots (all address spaces): %s\n",
              engine.substr(at, engine.find('\n', at) - at).c_str());

  // --- The sampling profiler (PIOCPROF / /proc2/<pid>/prof) ----------------
  // Arm a 1-per-16-instruction pc sampler on the spinner, let it run, and
  // read the folded-stack dump back through the filesystem. Piping these
  // lines into flamegraph.pl is the whole flamegraph recipe.
  if (!hs.SetProf(/*period_log2=*/4).ok()) {
    std::fprintf(stderr, "kstat: PIOCPROF failed\n");
    return 1;
  }
  for (int i = 0; i < 2000; ++i) {
    sim.kernel().Step();
  }
  auto folded = *hs.Prof();
  std::printf("\nprofile of pid %d (folded stacks, 1/16 instructions):\n%s",
              *spin, folded.c_str());

  // --- procd RPC spans (/proc2/kernel/procd) -------------------------------
  // Attach a procd peer, arm spans, run a few remote operations, and read
  // the span registry back both ways: over the wire (kStats RPC) and as a
  // local /proc2 file. The two renders come from the same registry.
  ProcdServer srv(sim.kernel());
  srv.EnableSpans(true);
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto rh = ProcHandle::Grab(rio, sim.kernel().init_proc()->pid, O_RDONLY);
  if (rh.ok()) {
    (void)rh->Status();
    (void)rh->Psinfo();
    (void)rh->Kstat();
  }
  auto span_text = rio.ProcdStats();
  if (!span_text.ok()) {
    std::fprintf(stderr, "kstat: kStats RPC failed\n");
    return 1;
  }
  if (int rc = ValidateOrDie("/proc2/kernel/procd", *span_text)) {
    return rc;
  }
  std::printf("\n/proc2/kernel/procd:\n%s", span_text->c_str());
  return 0;
}
