// The block-engine footprint program, shared by tbl_exec_throughput's
// BM_ExecFootprint rows and the block-engine tests, so both run the same
// text.
#ifndef SVR4PROC_BENCH_BLOCK_RING_H_
#define SVR4PROC_BENCH_BLOCK_RING_H_

#include <cstdio>
#include <string>

namespace svr4 {

// A ring of `blocks` three-instruction basic blocks (addi, xor, jmp to the
// next), each run once per lap: the code footprint of the largest programs
// in the perfbench population, taken past them to 1024 blocks.
inline std::string BlockRing(int blocks) {
  std::string s = "loop:\n";
  char next[16];
  char block[128];
  for (int i = 0; i < blocks; ++i) {
    std::snprintf(next, sizeof(next), "b%d", i + 1);
    std::snprintf(block, sizeof(block), "b%d: addi r%d, %d\n      xor r%d, r%d\n      jmp %s\n", i,
                  1 + i % 5, 1 + i % 97, 1 + (i + 2) % 5, 1 + (i + 3) % 5,
                  i + 1 == blocks ? "loop" : next);
    s += block;
  }
  return s;
}

}  // namespace svr4

#endif  // SVR4PROC_BENCH_BLOCK_RING_H_
