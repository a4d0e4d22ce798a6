// T-PROCD: the /proc2 network daemon under load. Measures control
// operations per second and whole-population psall snapshot reads per
// second with 1k and 10k simulated concurrent peers (snapshots also at
// 2k), each peer a native controller process holding real /proc
// descriptors. A pump round visits only the peers with work (the ready
// and parked lists), so the idle
// population should cost an op almost nothing: the 10k rows stay close to
// the 1k rows, and what gap remains is per-peer state falling out of cache
// (each op touches a different peer), not a scan.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_json.h"

#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"

using namespace svr4;

namespace {

constexpr int kTargets = 16;  // traced processes shared by all peers

struct System {
  std::unique_ptr<Sim> sim;
  std::unique_ptr<ProcdServer> srv;
  std::vector<std::unique_ptr<RemoteProcIo>> peers;
  std::vector<int> fds;  // per peer: an open /proc descriptor on a target
};

// Building a population (a native controller process and an open /proc
// descriptor per peer) costs more than a short measurement, so systems are
// built once per population size and shared by every benchmark repetition.
System& GetSystem(int npeers) {
  static std::map<int, std::unique_ptr<System>> cache;
  auto it = cache.find(npeers);
  if (it != cache.end()) {
    return *it->second;
  }
  auto sys = std::make_unique<System>();
  sys->sim = std::make_unique<Sim>();
  std::vector<Pid> targets;
  for (int i = 0; i < kTargets; ++i) {
    targets.push_back(
        sys->sim->kernel().CreateNativeProc(Creds::Root(), "worker")->pid);
  }
  sys->srv = std::make_unique<ProcdServer>(sys->sim->kernel());
  // Spans on: the dequeue->reply quantiles below separate an op's service
  // time from the rest of its round trip.
  sys->srv->EnableSpans(true);
  for (int i = 0; i < npeers; ++i) {
    auto rio =
        std::make_unique<RemoteProcIo>(sys->srv->Connect(Creds::Root()));
    char path[32];
    std::snprintf(path, sizeof(path), "/proc/%05d",
                  targets[static_cast<size_t>(i) % targets.size()]);
    auto fd = rio->Open(path, O_RDONLY);
    sys->fds.push_back(fd.ok() ? *fd : -1);
    sys->peers.push_back(std::move(rio));
  }
  auto& ref = *sys;
  cache[npeers] = std::move(sys);
  return ref;
}

// Control operations: one PIOCSTATUS per iteration, round-robin across the
// whole peer population so every op touches a different peer's state.
void BM_ProcdCtlOps(benchmark::State& state) {
  System& sys = GetSystem(static_cast<int>(state.range(0)));
  PrStatus st;
  uint64_t ops = 0;
  size_t i = 0;
  for (auto _ : state) {
    size_t p = i++ % sys.peers.size();
    benchmark::DoNotOptimize(
        sys.peers[p]->Ioctl(sys.fds[p], PIOCSTATUS, &st).ok());
    ++ops;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));  // ctl ops/sec
  state.counters["peers"] = static_cast<double>(state.range(0));
  // Per-op latency attribution from the server's span histograms: the p50
  // and p99 of dequeue->reply for the ioctl op, in host nanoseconds. Log2
  // buckets bound each quantile to within 2x — enough to tell a per-op
  // cost that grows with the population from one that does not.
  const ProcdServer::OpSpan& span = sys.srv->op_span(PdOp::kIoctl);
  state.counters["ioctl_p50_ns"] = static_cast<double>(span.lat_ns.Quantile(0.50));
  state.counters["ioctl_p99_ns"] = static_cast<double>(span.lat_ns.Quantile(0.99));
}
BENCHMARK(BM_ProcdCtlOps)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMicrosecond);

// Whole-population snapshots: one windowed PIOCPSALL scan per iteration,
// issued by a rotating peer. items_per_second is snapshot reads/sec.
// Windows per snapshot: one at 1k peers, two at 2k (like the ~2026 rows
// of the perfbench `remote` workload), ten at 10k.
void BM_ProcdPsallSnapshot(benchmark::State& state) {
  System& sys = GetSystem(static_cast<int>(state.range(0)));
  uint64_t snaps = 0;
  uint64_t lines = 0;
  size_t i = 0;
  for (auto _ : state) {
    size_t p = i++ % sys.peers.size();
    auto snap = PsSnapshotAll(*sys.peers[p], 1);
    lines += snap.ok() ? snap->size() : 0;
    benchmark::DoNotOptimize(lines);
    ++snaps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(snaps));  // snapshot reads/sec
  state.counters["peers"] = static_cast<double>(state.range(0));
  state.counters["rows_per_snapshot"] =
      snaps != 0 ? static_cast<double>(lines) / static_cast<double>(snaps) : 0;
  const ProcdServer::OpSpan& span = sys.srv->op_span(PdOp::kPsall);
  state.counters["psall_p50_ns"] = static_cast<double>(span.lat_ns.Quantile(0.50));
  state.counters["psall_p99_ns"] = static_cast<double>(span.lat_ns.Quantile(0.99));
}
BENCHMARK(BM_ProcdPsallSnapshot)
    ->Arg(1'000)
    ->Arg(2'000)
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SVR4_BENCH_MAIN("tbl_procd")
