// T-EXEC: raw simulated-execution throughput. Every instruction pays the
// MMU: an opcode/operand fetch plus any data access, all translated by the
// VM layer. The software TLB turns those per-access mapping lookups into a
// direct-mapped cache probe; this benchmark measures instructions/sec with
// the TLB on vs. off (runtime knob), and /proc bulk-read bandwidth the same
// way, so perf regressions on either path are visible in one place. The
// throughput and footprint rows also report what each execution layer cost
// per million instructions: quanta, block entries, interpreter fallback
// steps and TLB misses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_json.h"
#include "block_ring.h"

#include "svr4proc/isa/blocks.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

using namespace svr4;

namespace {

// Load/store-heavy loop: every iteration fetches 7 instructions and touches
// memory twice, exercising both the exec and data translation paths.
constexpr char kComputeLoop[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      ldw r6, [r4]
      add r7, r6
      jmp loop
      .data
var:  .word 0
)";

struct ExecSystem {
  std::unique_ptr<Sim> sim;
  Pid pid = 0;
};

// A freshly exec'd test program has only a handful of mappings; a realistic
// SVR4 process carries dozens (text, data, bss, stack, shared-library
// segments). Pad the address space so the per-access mapping lookup pays its
// real-world cost in the TLB-off baseline.
constexpr int kExtraMappings = 32;

ExecSystem MakeSystem(bool tlb_on) {
  ExecSystem s;
  s.sim = std::make_unique<Sim>();
  (void)*s.sim->InstallProgram("/bin/loop", kComputeLoop);
  s.pid = *s.sim->Start("/bin/loop");
  Proc* p = s.sim->kernel().FindProc(s.pid);
  for (int i = 0; i < kExtraMappings; ++i) {
    (void)p->as->Map(0x40000000u + static_cast<uint32_t>(i) * 2 * kPageSize, kPageSize, MA_READ,
                     std::make_shared<AnonObject>(), 0, "lib");
  }
  p->as->SetTlbEnabled(tlb_on);
  return s;
}

// What one measured run cost each execution layer: quanta (the quantum
// loop), block entries (bb_hits + bb_misses, one cache probe per block the
// executor enters), interpreter fallback steps and TLB misses.
struct LayerCounts {
  uint64_t instructions = 0;
  uint64_t quanta = 0;
  uint64_t bb_entries = 0;
  uint64_t fallbacks = 0;
  uint64_t tlb_misses = 0;
};

LayerCounts TakeLayerCounts(const Kernel& k, const AddressSpace& as) {
  LayerCounts c;
  c.instructions = k.counters().instructions;
  c.quanta = k.counters().quanta_interp + k.counters().quanta_blocks;
  if (const BlockCache* bc = as.blocks_if()) {
    c.bb_entries = bc->stats().hits + bc->stats().misses;
    c.fallbacks = bc->stats().fallback_steps;
  }
  c.tlb_misses = as.counters().tlb_misses;
  return c;
}

// Reports each layer's count between two snapshots per million retired
// instructions, beside the row's items_per_second.
void ReportLayers(benchmark::State& state, const LayerCounts& a, const LayerCounts& b) {
  const double per = 1e6 / static_cast<double>(std::max<uint64_t>(b.instructions - a.instructions, 1));
  state.counters["quanta_per_Minsn"] = static_cast<double>(b.quanta - a.quanta) * per;
  state.counters["bb_entries_per_Minsn"] = static_cast<double>(b.bb_entries - a.bb_entries) * per;
  state.counters["fallbacks_per_Minsn"] = static_cast<double>(b.fallbacks - a.fallbacks) * per;
  state.counters["tlb_misses_per_Minsn"] = static_cast<double>(b.tlb_misses - a.tlb_misses) * per;
}

// range(0): 1 = TLB on, 0 = TLB off.
// range(1): tracing — 0 = disarmed (compiled in, gates cold: the
// zero-cost-when-off claim), 1 = event ring armed, 2 = ring + metrics
// registry. The trace-overhead table in EXPERIMENTS.md compares the three.
// range(2): execution engine — 0 = interpreter pinned, 1 = predecoded-block
// engine pinned. The pin holds with tracing armed too: events are emitted
// from cold paths both engines share, so the /1/{1,2}/1 rows measure armed
// tracing on the block engine (CI's obs-overhead job holds them to 0.85x of
// the disarmed /1/0/1 row).
void BM_ExecThroughput(benchmark::State& state) {
  const bool tlb_on = state.range(0) != 0;
  const int trace_mode = static_cast<int>(state.range(1));
  const bool blocks = state.range(2) != 0;
  auto s = MakeSystem(tlb_on);
  Kernel& k = s.sim->kernel();
  k.SetExecEngine(blocks ? ExecEngine::kAuto : ExecEngine::kInterp);
  k.SetTracing(/*ring=*/trace_mode >= 1, /*metrics=*/trace_mode >= 2);
  const AddressSpace& as = *k.FindProc(s.pid)->as;
  const LayerCounts before = TakeLayerCounts(k, as);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      k.Step();
    }
  }
  const LayerCounts after = TakeLayerCounts(k, as);
  state.SetItemsProcessed(static_cast<int64_t>(after.instructions - before.instructions));
  ReportLayers(state, before, after);
  std::string label = tlb_on ? "tlb=on" : "tlb=off";
  label += trace_mode == 0 ? " trace=off" : trace_mode == 1 ? " trace=ring"
                                                            : " trace=ring+hist";
  label += blocks ? " engine=blocks" : " engine=interp";
  state.SetLabel(label);

  Proc* p = k.FindProc(s.pid);
  const VmCounters& c = p->as->counters();
  state.counters["tlb_hits"] = static_cast<double>(c.tlb_hits);
  state.counters["tlb_misses"] = static_cast<double>(c.tlb_misses);
  state.counters["slow_lookups"] = static_cast<double>(c.slow_lookups);
  // Engine mode travels into the JSON both via the metric name (the third
  // Args dimension) and as an explicit counter.
  state.counters["engine_blocks"] = blocks ? 1 : 0;
  if (const BlockCache* bc = p->as->blocks_if()) {
    const BlockStats& bs = bc->stats();
    state.counters["bb_built"] = static_cast<double>(bs.built);
    state.counters["bb_hits"] = static_cast<double>(bs.hits);
    state.counters["bb_misses"] = static_cast<double>(bs.misses);
    state.counters["bb_fallbacks"] = static_cast<double>(bs.fallback_steps);
    if (blocks && tlb_on && bs.hits < bs.misses) {
      state.SkipWithError("block cache not serving the hot loop: hits "
                          "should dwarf misses in steady state");
    }
  } else if (blocks && tlb_on) {
    state.SkipWithError("block engine pinned but no block cache exists");
  }
  if (tlb_on) {
    // Counter non-regression: a steady-state tight loop must run out of the
    // TLB. If hits stop dwarfing misses + slow lookups, the cache broke.
    if (c.tlb_hits < 10 * (c.tlb_misses + c.slow_lookups)) {
      state.SkipWithError("TLB hit rate regressed: the hot loop is not "
                          "running out of the translation cache");
    }
  } else {
    if (c.tlb_hits != 0) {
      state.SkipWithError("TLB disabled but hits were counted");
    }
  }
}
BENCHMARK(BM_ExecThroughput)
    ->Args({1, 0, 0})
    ->Args({1, 0, 1})
    ->Args({0, 0, 0})
    ->Args({1, 1, 0})
    ->Args({1, 2, 0})
    ->Args({1, 1, 1})
    ->Args({1, 2, 1});

// range(0): blocks in the ring, block engine pinned. The per-address-space
// block cache has to grow to the ring's footprint: with a table too small
// for it every lap re-decodes, and the hits-vs-misses guard fails (CI's
// engine-differential job asserts hits >= 20x misses). Sixteen warm-up laps
// run before the clock starts and the counters are taken after them, so
// the row measures the steady state, not the table's growth.
void BM_ExecFootprint(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  Sim sim;
  (void)*sim.InstallProgram("/bin/ring", BlockRing(blocks));
  const Pid pid = *sim.Start("/bin/ring");
  Kernel& k = sim.kernel();
  k.SetExecEngine(ExecEngine::kAuto);
  while (k.counters().instructions < 16 * 3 * static_cast<uint64_t>(blocks)) {
    k.Step();
  }
  const BlockCache* bc = k.FindProc(pid)->as->blocks_if();
  if (bc == nullptr) {
    state.SkipWithError("block engine pinned but no block cache exists");
    return;
  }
  const BlockStats warm = bc->stats();
  const AddressSpace& as = *k.FindProc(pid)->as;
  const LayerCounts before = TakeLayerCounts(k, as);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      k.Step();
    }
  }
  const LayerCounts after = TakeLayerCounts(k, as);
  state.SetItemsProcessed(static_cast<int64_t>(after.instructions - before.instructions));
  ReportLayers(state, before, after);
  const BlockStats& bs = bc->stats();
  const uint64_t hits = bs.hits - warm.hits;
  const uint64_t misses = bs.misses - warm.misses;
  state.counters["bb_built"] = static_cast<double>(bs.built - warm.built);
  state.counters["bb_hits"] = static_cast<double>(hits);
  state.counters["bb_misses"] = static_cast<double>(misses);
  state.counters["bb_slots"] = static_cast<double>(bc->slot_count());
  if (hits < misses) {
    state.SkipWithError("block cache not serving the hot loop: hits "
                        "should dwarf misses in steady state");
  }
}
BENCHMARK(BM_ExecFootprint)->Arg(1024);

// range(0): 0 = profiler disarmed (the zero-cost claim: the user step's
// sampling branch is compiled in but never taken), 1 = armed at 1 sample
// per 2^8 instructions. CI's obs-overhead job asserts the disarmed row
// tracks the BM_ExecThroughput/1/0/0 baseline.
void BM_ExecProfiler(benchmark::State& state) {
  const bool armed = state.range(0) != 0;
  auto s = MakeSystem(/*tlb_on=*/true);
  Kernel& k = s.sim->kernel();
  k.SetExecEngine(ExecEngine::kInterp);
  if (armed) {
    Proc* p = k.FindProc(s.pid);
    if (!k.SetProfiling(p, /*period_log2=*/8).ok()) {
      state.SkipWithError("PIOCPROF arming failed");
      return;
    }
  }
  const uint64_t before = k.counters().instructions;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      k.Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(k.counters().instructions - before));
  state.SetLabel(armed ? "prof=on" : "prof=off");
  if (armed) {
    Proc* p = k.FindProc(s.pid);
    state.counters["prof_samples"] =
        p != nullptr && p->prof != nullptr ? static_cast<double>(p->prof->samples) : 0;
  }
}
BENCHMARK(BM_ExecProfiler)->Arg(0)->Arg(1);

// /proc bulk read with the target's TLB knob (PrRead shares the single-
// resolve copy loop; the knob shows the slow path alone).
void BM_ProcBulkRead(benchmark::State& state) {
  const bool tlb_on = state.range(1) != 0;
  Sim sim;
  auto img = *sim.InstallProgram("/bin/holder", R"(
spin: jmp spin
      .bss
buf:  .space 262144
  )");
  Pid pid = *sim.Start("/bin/holder");
  sim.kernel().FindProc(pid)->as->SetTlbEnabled(tlb_on);
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), pid);
  uint32_t addr = *img.SymbolValue("buf");
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(size);
  for (auto _ : state) {
    auto n = h.ReadMem(addr, buf.data(), buf.size());
    benchmark::DoNotOptimize(*n);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
  state.SetLabel(tlb_on ? "tlb=on" : "tlb=off");
}
BENCHMARK(BM_ProcBulkRead)->Args({65536, 1})->Args({65536, 0})->Args({262144, 1});

}  // namespace

SVR4_BENCH_MAIN("tbl_exec_throughput")
