// T-PS: "the PIOCPSINFO operation returns everything that ps might want to
// display about a process ... Because all the information for a process is
// obtained in a single operation, each line of ps output is a true snapshot."
// Compares the one-operation snapshot with a ptrace-era style extraction
// that assembles the same record from many small operations.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdlib>
#include <vector>

#include "bench_json.h"

#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"

using namespace svr4;

namespace {

std::unique_ptr<Sim> MakeSystem(int nprocs) {
  auto sim = std::make_unique<Sim>();
  (void)sim->InstallProgram("/bin/worker", R"(
loop: ldi r0, SYS_getpid
      sys
      jmp loop
  )");
  for (int i = 0; i < nprocs; ++i) {
    (void)sim->kernel().Spawn("/bin/worker", {"worker"}, Creds::Root());
  }
  for (int i = 0; i < 100; ++i) {
    sim->kernel().Step();
  }
  return sim;
}

// One PIOCPSINFO per process: the paper's ps.
void BM_PsOneOpPerProcess(benchmark::State& state) {
  auto sim = MakeSystem(static_cast<int>(state.range(0)));
  uint64_t ops = 0;
  for (auto _ : state) {
    auto snap = PsSnapshot(sim->kernel(), sim->controller());
    ops += snap->size();  // one control operation per line
    benchmark::DoNotOptimize(snap->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));  // lines == ops here
  state.counters["ctl_ops_per_line"] = 1;
}
BENCHMARK(BM_PsOneOpPerProcess)->Arg(8)->Arg(32)->Arg(128);

// Assembling the same line from piecemeal operations (credentials, map for
// the size, registers, raw proc structure) — what a ps without PIOCPSINFO
// would have to do, with no snapshot consistency.
void BM_PsPiecemeal(benchmark::State& state) {
  auto sim = MakeSystem(static_cast<int>(state.range(0)));
  uint64_t ops = 0;
  uint64_t lines = 0;
  for (auto _ : state) {
    auto ents = sim->kernel().ReadDir(sim->controller(), "/proc");
    for (const auto& e : *ents) {
      Pid pid = static_cast<Pid>(std::strtol(e.name.c_str(), nullptr, 10));
      auto h = ProcHandle::Grab(sim->kernel(), sim->controller(), pid, O_RDONLY);
      if (!h.ok()) {
        continue;
      }
      PrRawProc raw;
      (void)sim->kernel().Ioctl(sim->controller(), h->fd(), PIOCGETPR, &raw);
      PrRawUser u;
      (void)sim->kernel().Ioctl(sim->controller(), h->fd(), PIOCGETU, &u);
      auto cred = h->Cred();
      auto maps = h->GetMap();  // to total up the size
      auto usage = h->Usage();
      benchmark::DoNotOptimize(raw.p_pid);
      benchmark::DoNotOptimize(cred->pr_ruid);
      benchmark::DoNotOptimize(maps->size());
      benchmark::DoNotOptimize(usage->pr_utime);
      ops += 6;  // six operations (incl. PIOCNMAP inside GetMap) per line
      ++lines;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(lines));  // compare per-line rates
  state.counters["ctl_ops_per_line"] = 6;
}
BENCHMARK(BM_PsPiecemeal)->Arg(8)->Arg(32)->Arg(128);

// --- Scale axis: per-process snapshot cost vs population size ----------------
// Populations are built from native processes (host-driven, no address
// space): what the scale axis measures is table and snapshot machinery, not
// simulated execution. items_per_second is the per-line rate — flat across
// the axis when lookup, readdir, and snapshot are all O(1) per process.
// The bulk rows' second argument, when 1, builds the population from exec'd
// pause() loops instead, so every row also reports an address space's sizes.

std::unique_ptr<Sim> MakeSystemForPopulation(bool address_spaces) {
  auto sim = std::make_unique<Sim>();
  if (address_spaces) {
    (void)sim->InstallProgram("/bin/sleeper", R"(
top:  ldi r0, SYS_pause
      sys
      jmp top
  )");
  }
  return sim;
}

void AddPopulation(Sim& sim, int nprocs, bool address_spaces) {
  if (!address_spaces) {
    for (int i = 0; i < nprocs; ++i) {
      (void)sim.kernel().CreateNativeProc(Creds::Root(), "worker");
    }
    return;
  }
  for (int i = 0; i < nprocs; ++i) {
    (void)sim.Start("/bin/sleeper");
  }
  // Each sleeper reaches pause() in its first quantum.
  for (int i = 0; i < 2 * nprocs; ++i) {
    sim.kernel().Step();
  }
}

std::unique_ptr<Sim> MakePopulation(int nprocs, bool address_spaces = false) {
  auto sim = MakeSystemForPopulation(address_spaces);
  AddPopulation(*sim, nprocs, address_spaces);
  return sim;
}

std::vector<int64_t> ScaleSizes() {
  std::vector<int64_t> sizes = {1'000, 10'000, 100'000};
  // The 10^6 point takes minutes on the per-pid path; opt in explicitly.
  if (std::getenv("SVR4PROC_BENCH_HUGE") != nullptr) {
    sizes.push_back(1'000'000);
  }
  return sizes;
}

void ScaleArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : ScaleSizes()) {
    b->Arg(n);
  }
  b->Unit(benchmark::kMillisecond);
}

// The paper's ps loop at scale: chunked readdir, then one open + PIOCPSINFO
// + close per process.
void BM_PsOneOpPerProcessScale(benchmark::State& state) {
  auto sim = MakePopulation(static_cast<int>(state.range(0)));
  uint64_t lines = 0;
  for (auto _ : state) {
    auto snap = PsSnapshot(sim->kernel(), sim->controller());
    lines += snap->size();
    benchmark::DoNotOptimize(snap->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(lines));
}
BENCHMARK(BM_PsOneOpPerProcessScale)->Apply(ScaleArgs);

// The bulk path: one PIOCPSALL window per 1024 rows returns the whole
// population.
void BM_PsBulkSnapshot(benchmark::State& state) {
  auto sim = MakePopulation(static_cast<int>(state.range(0)), state.range(1) != 0);
  uint64_t lines = 0;
  for (auto _ : state) {
    auto snap = PsSnapshotAll(sim->kernel(), sim->controller());
    lines += snap->size();
    benchmark::DoNotOptimize(snap->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(lines));
}
void BulkArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : ScaleSizes()) {
    b->Args({n, 0});
  }
  // Rows with address spaces, at a population that fits one window.
  b->Args({1'000, 1});
  b->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_PsBulkSnapshot)->Apply(BulkArgs);

// Heap bytes per process: malloc's own count of bytes in use (mallinfo2,
// arena and mmapped chunks) before and after adding 10^4 native controllers
// (second argument 0) or exec'd pause() sleepers (1) to a booted system,
// divided by the population. The time is the population's set-up. A
// per-process table that goes inline in Proc, or one every process
// allocates, shows here.
size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

void BM_ProcBytesScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool address_spaces = state.range(1) != 0;
  double bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = MakeSystemForPopulation(address_spaces);
    const size_t before = HeapInUse();
    state.ResumeTiming();
    AddPopulation(*sim, n, address_spaces);
    state.PauseTiming();
    bytes = static_cast<double>(HeapInUse() - before) / n;
    sim.reset();
    state.ResumeTiming();
  }
  state.counters["heap_bytes_per_proc"] = bytes;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ProcBytesScale)
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

SVR4_BENCH_MAIN("tbl_ps_snapshot")
