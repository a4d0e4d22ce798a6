// A performance monitor built on the proposed extensions: the resource
// usage interface (PIOCUSAGE) and the page data interface, "whereby a
// performance monitor can sample page-level referenced and modified
// information for a process on intervals at will."
#include <cstdio>

#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

using namespace svr4;

int main() {
  Sim sim;
  // A worker with phased behaviour: a syscall-heavy phase, then a
  // memory-heavy phase sweeping a large bss buffer.
  (void)sim.InstallProgram("/bin/worker", R"(
      ; phase 1: 200 getpid calls
      ldi r8, 200
p1:   ldi r0, SYS_getpid
      sys
      ldi r5, 1
      sub r8, r5
      cmpi r8, 0
      jnz p1
      ; phase 2: sweep a 64K buffer forever
p2:   ldi r4, buf
      ldi r8, 16384       ; words
sweep:
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      addi r4, 4
      ldi r6, 1
      sub r8, r6
      cmpi r8, 0
      jnz sweep
      jmp p2
      .bss
buf:  .space 65536
  )");
  auto pid = sim.Start("/bin/worker");
  auto h = *ProcHandle::Grab(sim.kernel(), sim.controller(), *pid);

  std::printf("%-8s %10s %10s %8s %8s %10s\n", "sample", "utime", "stime", "sysc",
              "faults", "dirty-pages");
  PrUsage prev{};
  for (int sample = 1; sample <= 6; ++sample) {
    // Let the target run one interval of the virtual clock between samples.
    // The interval is in ticks, not scheduler steps: a free-running SMP step
    // runs a chunk of up to 16384 instructions where a deterministic one
    // runs a 64-instruction quantum.
    const uint64_t until = sim.kernel().Ticks() + 1'280'000;
    sim.kernel().RunUntil([&] { return sim.kernel().Ticks() >= until; });
    auto u = *h.Usage();
    auto pd = *h.PageData(/*clear=*/true);  // sample and reset ref/mod bits
    int dirty = 0;
    for (const auto& seg : pd.segs) {
      for (uint8_t pg : seg.pg) {
        if (pg & PG_MODIFIED) {
          ++dirty;
        }
      }
    }
    std::printf("%-8d %10llu %10llu %8llu %8llu %10d\n", sample,
                static_cast<unsigned long long>(u.pr_utime - prev.pr_utime),
                static_cast<unsigned long long>(u.pr_stime - prev.pr_stime),
                static_cast<unsigned long long>(u.pr_sysc - prev.pr_sysc),
                static_cast<unsigned long long>(u.pr_minf - prev.pr_minf), dirty);
    prev = u;
  }
  std::printf("\n(phase 1 shows syscall counts; phase 2 shows the dirty-page\n"
              " working set of the sweep — all sampled without stopping the\n"
              " process or altering its behaviour)\n");
  return 0;
}
