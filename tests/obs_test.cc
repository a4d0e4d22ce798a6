// End-to-end latency attribution (observability PR): procd RPC spans, the
// deterministic sampling profiler (PIOCPROF / /proc2/<pid>/prof), and
// scheduler wait accounting. Also the format contracts: every line of
// /proc2/kernel/metrics and /proc2/kernel/procd parses as `key value`, and
// the arming contracts: profiler+spans armed vs disarmed leaves a 20-seed
// chaos sweep snapshot-identical, the same sweep replays identically under
// the interpreter and the block engine, and remote reads match local reads
// byte for byte.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kSpin[] = R"(
loop: ldi r0, SYS_getpid
      sys
      addi r1, 1
      jmp loop
)";

constexpr char kBurst[] = R"(
      ldi r0, SYS_getpid
      sys
      ldi r0, SYS_write
      ldi r1, 1
      ldi r2, msg
      ldi r3, 6
      sys
      ldi r0, SYS_open
      ldi r1, nopath
      ldi r2, O_RDONLY
      ldi r3, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
      .data
msg:  .asciz "chaos\n"
nopath: .asciz "/no/such"
)";

FaultPlan LowRatePlan(uint64_t seed) {
  FaultPlan plan;
  for (int i = 0; i < kFaultSiteCount; ++i) {
    plan.Arm(static_cast<FaultSite>(i),
             FaultRule{seed, /*num=*/1, /*den=*/16, /*max_hits=*/8});
  }
  return plan;
}

Pid StartSpin(Sim& sim) {
  EXPECT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  auto pid = sim.Start("/bin/spin");
  EXPECT_TRUE(pid.ok());
  return pid.ok() ? *pid : -1;
}

// Total samples in a folded-stack dump (sum of the trailing counts).
uint64_t FoldedTotal(const std::string& text) {
  uint64_t total = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      break;
    }
    size_t sp = text.rfind(' ', nl);
    if (sp != std::string::npos && sp > pos) {
      total += std::strtoull(text.c_str() + sp + 1, nullptr, 10);
    }
    pos = nl + 1;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Golden parse: every metrics line is `key value`, under both CPU counts,
// with chaos faults armed (fault_site lines included).
// ---------------------------------------------------------------------------

TEST(ObsGoldenParse, MetricsFormatStableAcrossCpusAndFaults) {
  for (int ncpus : {1, 4}) {
    Sim sim;
    sim.kernel().SetNumCpus(ncpus);
    sim.kernel().SetTracing(/*ring=*/true, /*metrics=*/true);
    sim.kernel().SetFaultPlan(LowRatePlan(42));
    EXPECT_TRUE(sim.InstallProgram("/bin/prog", kBurst).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(sim.Start("/bin/prog").ok());
    }
    for (int i = 0; i < 400; ++i) {
      sim.kernel().Step();
    }
    LocalProcIo io(sim.kernel(), sim.controller());
    auto text = ReadTextFile(io, "/proc2/kernel/metrics");
    ASSERT_TRUE(text.ok());
    ASSERT_FALSE(text->empty());
    std::string bad;
    EXPECT_TRUE(ValidateMetricsText(*text, &bad))
        << "ncpus=" << ncpus << ": malformed metrics line: \"" << bad << "\"";
    // The registry rendered something beyond the header.
    EXPECT_NE(text->find("counter "), std::string::npos);
    EXPECT_NE(text->find("hist "), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The sampling profiler.
// ---------------------------------------------------------------------------

TEST(ObsProfiler, ArmsSamplesAndDumpsFoldedStacks) {
  Sim sim;
  Pid pid = StartSpin(sim);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, O_RDWR);
  ASSERT_TRUE(h.ok());
  // Period 0: one sample per instruction — sample count must equal the
  // instructions the process retires while armed.
  ASSERT_TRUE(h->SetProf(0).ok());
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  auto st = h->Status();
  ASSERT_TRUE(st.ok());
  auto folded = h->Prof();
  ASSERT_TRUE(folded.ok());
  ASSERT_FALSE(folded->empty());
  EXPECT_EQ(FoldedTotal(*folded), st->pr_utime)
      << "period 2^0 means every retired instruction is a sample";
  // Folded-stack shape: every line is "spin;0xPC N".
  EXPECT_EQ(folded->compare(0, 7, "spin;0x"), 0) << folded->substr(0, 32);

  // Disarm keeps the buckets readable; re-arm resets them.
  ASSERT_TRUE(h->ClearProf().ok());
  auto kept = h->Prof();
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, *folded) << "disarm must freeze, not clear, the buckets";
  ASSERT_TRUE(h->SetProf(4).ok());
  auto reset = h->Prof();
  ASSERT_TRUE(reset.ok());
  EXPECT_TRUE(reset->empty()) << "re-arming starts a fresh accumulation";

  // Period sanity: >30 is rejected.
  EXPECT_FALSE(h->SetProf(31).ok());
}

TEST(ObsProfiler, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Sim sim;
    Pid pid = StartSpin(sim);
    auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, O_RDWR);
    EXPECT_TRUE(h.ok());
    EXPECT_TRUE(h->SetProf(2).ok());
    for (int i = 0; i < 300; ++i) {
      sim.kernel().Step();
    }
    auto folded = h->Prof();
    EXPECT_TRUE(folded.ok());
    return folded.ok() ? *folded : std::string();
  };
  std::string a = run();
  std::string b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "instruction-count-driven sampling must be deterministic";
}

TEST(ObsProfiler, SampleTotalsMatchAcrossEngines) {
  // The interpreter samples at exact pcs, the block engine at block-entry
  // pcs — bucket granularity differs by design, but the sample *count* is
  // driven by retired instructions and must agree.
  auto run = [](ExecEngine e) {
    Sim sim;
    sim.kernel().SetExecEngine(e);
    Pid pid = StartSpin(sim);
    auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, O_RDWR);
    EXPECT_TRUE(h.ok());
    EXPECT_TRUE(h->SetProf(3).ok());
    for (int i = 0; i < 300; ++i) {
      sim.kernel().Step();
    }
    auto folded = h->Prof();
    EXPECT_TRUE(folded.ok());
    return FoldedTotal(folded.ok() ? *folded : std::string());
  };
  uint64_t interp = run(ExecEngine::kInterp);
  uint64_t blocks = run(ExecEngine::kAuto);
  EXPECT_NE(interp, 0u);
  EXPECT_EQ(interp, blocks);
}

TEST(ObsProfiler, RemoteReadsMatchLocalByteForByte) {
  Sim sim;
  Pid pid = StartSpin(sim);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), pid, O_RDWR);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->SetProf(2).ok());
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  // Remote PIOCPROF round-trips too (disarm, then re-enable local state).
  auto rh = ProcHandle::Grab(rio, pid, O_RDWR);
  ASSERT_TRUE(rh.ok());
  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/prof", pid);
  auto local = ReadTextFile(h->io(), path);
  auto remote = ReadTextFile(rio, path);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(remote.ok());
  ASSERT_FALSE(local->empty());
  EXPECT_EQ(*local, *remote);
  EXPECT_TRUE(rh->ClearProf().ok()) << "PIOCPROF must work over the wire";
}

// ---------------------------------------------------------------------------
// Scheduler wait accounting.
// ---------------------------------------------------------------------------

TEST(ObsWaitAccounting, RunqWaitsRecordedAndAggregatedIntoKstat) {
  Sim sim;
  sim.kernel().SetTracing(/*ring=*/false, /*metrics=*/true);
  EXPECT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  // More runnable processes than CPUs: every dispatch of a waiting lwp
  // harvests a nonzero enqueue->dispatch wait.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(),
                            sim.kernel().init_proc()->pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  auto ks = h->Kstat();
  ASSERT_TRUE(ks.ok());
  EXPECT_GT(ks->pr_runq_wait_count, 0u);
  EXPECT_GT(ks->pr_runq_wait_sum, 0u) << "4 runnable on 1 cpu must wait";
  EXPECT_GE(ks->pr_runq_wait_max, 1u);

  // The per-CPU histogram shows up in the text registry, and the kstat
  // aggregate equals the per-CPU sums (single home, two renderings).
  LocalProcIo io(sim.kernel(), sim.controller());
  auto text = ReadTextFile(io, "/proc2/kernel/metrics");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("hist runq_wait[cpu0]"), std::string::npos);
  uint64_t count = 0, sum = 0;
  const KTrace& kt = sim.kernel().ktrace();
  for (int c = 0; c < kKtMaxCpus; ++c) {
    count += kt.runq_wait(c).count;
    sum += kt.runq_wait(c).sum;
  }
  EXPECT_EQ(ks->pr_runq_wait_count, count);
  EXPECT_EQ(ks->pr_runq_wait_sum, sum);
}

TEST(ObsWaitAccounting, DisarmedRecordsNothing) {
  Sim sim;
  EXPECT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  const KTrace& kt = sim.kernel().ktrace();
  for (int c = 0; c < kKtMaxCpus; ++c) {
    EXPECT_EQ(kt.runq_wait(c).count, 0u);
    EXPECT_EQ(kt.steal_lat(c).count, 0u);
  }
}

// ---------------------------------------------------------------------------
// procd RPC spans.
// ---------------------------------------------------------------------------

TEST(ObsProcdSpans, CountersAlwaysOnAndRemoteTextMatchesLocalFile) {
  Sim sim;
  EXPECT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  auto pid = sim.Start("/bin/spin");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto h = ProcHandle::Grab(rio, *pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Status().ok());
  ASSERT_TRUE(h->Psinfo().ok());

  // Spans disarmed: the dequeue-time counters still advance, and the text
  // fetched over the wire (kStats) is byte-identical to an immediately
  // following local read of /proc2/kernel/procd — the ordering contract.
  auto remote = rio.ProcdStats();
  ASSERT_TRUE(remote.ok());
  LocalProcIo lio(sim.kernel(), sim.controller());
  auto local = ProcdStats(lio);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*remote, *local);

  std::string bad;
  EXPECT_TRUE(ValidateMetricsText(*remote, &bad)) << "bad line: \"" << bad << "\"";
  EXPECT_NE(remote->find("counter procd_op[ioctl] count="), std::string::npos);
  EXPECT_NE(remote->find("counter procd_op[stats] count=1"), std::string::npos)
      << "the kStats frame counts itself (dequeue-time accounting)";
  EXPECT_NE(remote->find("counter procd_peer["), std::string::npos);
  EXPECT_NE(remote->find("pump_rounds="), std::string::npos);
  EXPECT_EQ(remote->find("hist procd_lat_ns"), std::string::npos)
      << "no latency histograms while spans are disarmed";

  const ProcdServer::OpSpan& span = srv.op_span(PdOp::kIoctl);
  EXPECT_GT(span.count, 0u);
  EXPECT_EQ(span.lat_ns.count, 0u);
}

// A /proc2/kernel file read in several read(2) calls is one rendering. Over
// procd each kRead frame is counted before the file renders, so a text made
// afresh for every read grew under its reader, and the tail the next read
// served from the longer text tore the lines it split.
TEST(Pr2KernelFile, RemoteStatsReadsAreOneRenderingEach) {
  Sim sim;
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  for (int i = 0; i < 400; ++i) {
    auto text = ProcdStats(rio);
    ASSERT_TRUE(text.ok());
    std::string bad;
    ASSERT_TRUE(ValidateMetricsText(*text, &bad)) << "read " << i << ": bad line \"" << bad << "\"";
  }
}

TEST(ObsProcdSpans, ArmedSpansRecordLatencyAndParks) {
  Sim sim;
  EXPECT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  auto pid = sim.Start("/bin/spin");
  ASSERT_TRUE(pid.ok());
  ProcdServer srv(sim.kernel());
  srv.EnableSpans(true);
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  auto h = ProcHandle::Grab(rio, *pid, O_RDWR);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Status().ok());
  // A blocking op that parks: PIOCSTOP stops the target, the wait half
  // parks until the pump's Step drives the lwp to its stop.
  ASSERT_TRUE(h->Stop().ok());
  ASSERT_TRUE(h->Run().ok());

  const ProcdServer::OpSpan& ioctl_span = srv.op_span(PdOp::kIoctl);
  EXPECT_GT(ioctl_span.count, 0u);
  EXPECT_GT(ioctl_span.lat_ns.count, 0u) << "armed spans record reply latency";
  EXPECT_GT(ioctl_span.bytes.count, 0u);
  EXPECT_GT(ioctl_span.parks, 0u) << "the PIOCSTOP wait half parked";
  EXPECT_GT(ioctl_span.park_ticks.count, 0u);

  auto text = rio.ProcdStats();
  ASSERT_TRUE(text.ok());
  std::string bad;
  EXPECT_TRUE(ValidateMetricsText(*text, &bad)) << "bad line: \"" << bad << "\"";
  EXPECT_NE(text->find("hist procd_lat_ns[ioctl]"), std::string::npos);
  EXPECT_NE(text->find("hist procd_park_ticks[ioctl]"), std::string::npos);
  EXPECT_NE(text->find("hist procd_parked_peers"), std::string::npos);
}

TEST(ObsProcdSpans, FileReadsProcdOffWithoutAServer) {
  Sim sim;
  LocalProcIo io(sim.kernel(), sim.controller());
  auto text = ProcdStats(io);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "procd off\n");
  // The off text still parses (tools' canary must not trip on it).
  EXPECT_TRUE(ValidateMetricsText(*text));
}

// ---------------------------------------------------------------------------
// The arming contract: spans + profiler armed vs disarmed is
// snapshot-identical over a 20-seed chaos sweep.
// ---------------------------------------------------------------------------

// ticks, instructions, console output: the whole observable outcome. Then
// the quanta each engine ran (quanta_interp, quanta_blocks). With no engine
// given, the run keeps the one SVR4PROC_EXEC_ENGINE selects.
std::tuple<uint64_t, uint64_t, std::string, uint64_t, uint64_t> ObsChaosRun(
    uint64_t seed, bool armed, std::optional<ExecEngine> engine = std::nullopt) {
  Sim sim;
  if (engine) {
    sim.kernel().SetExecEngine(*engine);
  }
  EXPECT_TRUE(sim.InstallProgram("/bin/prog", kBurst).ok());
  auto pid = sim.Start("/bin/prog");
  EXPECT_TRUE(pid.ok());
  // Both runs carry a procd peer and issue the same RPC before the run, so
  // the only difference is the arming itself. The RPC happens before the
  // fault plan is armed — the plan includes kPeerDisconnect, which would
  // otherwise chaos-kill the peer mid-handshake.
  ProcdServer srv(sim.kernel());
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  if (armed) {
    srv.EnableSpans(true);
    sim.kernel().SetTracing(/*ring=*/true, /*metrics=*/true);
    EXPECT_TRUE(sim.kernel().SetProfiling(sim.kernel().FindProc(*pid), 2).ok());
  }
  auto h = ProcHandle::Grab(rio, *pid, O_RDONLY);
  EXPECT_TRUE(h.ok());
  if (h.ok()) {
    EXPECT_TRUE(h->Status().ok());
  }
  sim.kernel().SetFaultPlan(LowRatePlan(seed));
  sim.kernel().SetChaosScheduler(seed);
  sim.kernel().RunUntil(
      [&]() { return sim.kernel().FindProc(*pid) == nullptr; }, 400'000);
  EXPECT_TRUE(sim.kernel().CheckInvariants().empty());
  const KernelCounters& kc = sim.kernel().counters();
  return {sim.kernel().Ticks(), kc.instructions, sim.ConsoleOutput(), kc.quanta_interp,
          kc.quanta_blocks};
}

TEST(ObsNeutral, TwentySeedChaosSweepIdenticalArmedVsDisarmed) {
  for (uint64_t seed = 701; seed <= 720; ++seed) {
    auto plain = ObsChaosRun(seed, /*armed=*/false);
    auto armed = ObsChaosRun(seed, /*armed=*/true);
    EXPECT_EQ(std::get<0>(plain), std::get<0>(armed))
        << "seed " << seed << ": ticks diverged";
    EXPECT_EQ(std::get<1>(plain), std::get<1>(armed))
        << "seed " << seed << ": instruction count diverged";
    EXPECT_EQ(std::get<2>(plain), std::get<2>(armed))
        << "seed " << seed << ": console output diverged";
  }
}

// Fault injection and chaos hook the one quantum loop, not a separate
// interpreter loop, so the same sweep runs the block engine and must replay
// seed for seed what the interpreter does, armed or not.
TEST(EngineChaos, TwentySeedChaosSweepIdenticalUnderInterpAndBlocks) {
  for (uint64_t seed = 701; seed <= 720; ++seed) {
    for (bool armed : {false, true}) {
      auto interp = ObsChaosRun(seed, armed, ExecEngine::kInterp);
      auto blocks = ObsChaosRun(seed, armed, ExecEngine::kAuto);
      const std::string where =
          "seed " + std::to_string(seed) + (armed ? " armed" : " disarmed") + ": ";
      EXPECT_EQ(std::get<0>(interp), std::get<0>(blocks)) << where << "ticks diverged";
      EXPECT_EQ(std::get<1>(interp), std::get<1>(blocks))
          << where << "instruction count diverged";
      EXPECT_EQ(std::get<2>(interp), std::get<2>(blocks)) << where << "console output diverged";
      EXPECT_EQ(std::get<4>(interp), 0u) << where << "the interpreter pin ran block quanta";
      EXPECT_GT(std::get<4>(blocks), 0u) << where << "chaos quanta never ran the block engine";
      EXPECT_EQ(std::get<3>(blocks), 0u) << where << "chaos quanta fell back to the interpreter";
    }
  }
}

}  // namespace
}  // namespace svr4
