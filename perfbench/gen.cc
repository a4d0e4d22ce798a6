#include "gen.h"

#include <cstdio>
#include <string>

namespace perfbench {
namespace {

std::string Fmt(const char* fmt, long a = 0, long b = 0, long c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// Straight-line register arithmetic over r1..r7 (never divides, so it
// cannot fault).
std::string AluBody(Rng& rng, int n) {
  static const char* kOps[] = {"add", "sub", "xor", "and", "or", "mul", "mov"};
  std::string s;
  for (int i = 0; i < n; ++i) {
    const char* op = kOps[rng.Range(0, 6)];
    const long rd = rng.Range(1, 7);
    const long rs = rng.Range(1, 7);
    s += std::string("      ") + op + Fmt(" r%ld, r%ld\n", rd, rs);
  }
  return s;
}

std::string AluProgram(Rng& rng) {
  const long a = rng.Range(1, 1000);
  const long b = rng.Range(1, 1000);
  std::string s = Fmt("      ldi r1, %ld\n      ldi r2, %ld\n", a, b);
  s += "loop:\n" + AluBody(rng, static_cast<int>(rng.Range(12, 16)));
  s += "      addi r8, 1\n      jmp loop\n";
  return s;
}

// Walks a working set of `pages` pages, touching two words in each: below,
// at, and above the 64-entry TLB reach.
std::string LoadStoreProgram(uint32_t pages) {
  constexpr uint32_t kPerPage = 2;
  constexpr uint32_t stride = 4096 / kPerPage;
  std::string s;
  s += "      ldi r7, 1\n";
  s += "outer: ldi r4, buf\n";
  s += Fmt("      ldi r6, %ld\n", pages * kPerPage);
  s += "inner: ldw r5, [r4]\n";
  s += "      addi r5, 1\n";
  s += "      stw r5, [r4]\n";
  s += Fmt("      addi r4, %ld\n", stride);
  s += "      sub r6, r7\n";
  s += "      cmpi r6, 0\n";
  s += "      jnz inner\n";
  s += "      jmp outer\n";
  s += "      .bss\n";
  s += Fmt("buf:  .space %ld\n", pages * 4096);
  return s;
}

// A ring of `blocks` tiny basic blocks: the code footprint is sized around
// the 512-slot block cache.
std::string CodeProgram(Rng& rng, uint32_t blocks) {
  std::string s = "loop:\n";
  for (uint32_t i = 0; i < blocks; ++i) {
    const long r = rng.Range(1, 6);
    const long imm = rng.Range(1, 99);
    const long rd = rng.Range(1, 6);
    const long rs = rng.Range(1, 6);
    s += Fmt("b%ld:   addi r%ld, %ld\n", i, r, imm);
    s += Fmt("      xor r%ld, r%ld\n", rd, rs);
    s += i + 1 == blocks ? std::string("      jmp loop\n") : Fmt("      jmp b%ld\n", i + 1);
  }
  return s;
}

const char* kCheapSyscalls[] = {"SYS_getpid", "SYS_time", "SYS_getuid", "SYS_getppid"};

std::string SyscallProgram(Rng& rng, const char* syscall) {
  std::string s = "      ldi r7, 1\nloop:\n";
  s += Fmt("      ldi r9, %ld\n", rng.Range(4, 6));
  s += "burst:\n";
  s += std::string("      ldi r0, ") + syscall + "\n      sys\n";
  s += "      sub r9, r7\n      cmpi r9, 0\n      jnz burst\n";
  s += AluBody(rng, static_cast<int>(rng.Range(20, 28)));
  s += "      jmp loop\n";
  return s;
}

std::string ChurnChild(uint32_t work, uint32_t status) {
  std::string s = "      ldi r7, 1\n";
  s += Fmt("      ldi r8, %ld\n", work);
  s += "spin: sub r8, r7\n      cmpi r8, 0\n      jnz spin\n";
  s += Fmt("      ldi r0, SYS_exit\n      ldi r1, %ld\n      sys\n", status);
  return s;
}

// fork + exec + exit + wait, once per child program, forever. The wait
// status is checked in the program itself (exit code in bits 8..15).
std::string ChurnParent(const std::vector<Program>& children,
                        const std::vector<uint32_t>& statuses) {
  std::string s = Fmt("      ldi r%ld, 0\n      ldi r%ld, 0\ntop:\n", kChurnGoodReg, kChurnBadReg);
  std::string tail = "      .data\n";
  std::string kids;
  for (size_t i = 0; i < children.size(); ++i) {
    long n = static_cast<long>(i);
    s += "      ldi r0, SYS_fork\n      sys\n      cmpi r0, 0\n";
    s += Fmt("      jz c%ld\n", n);
    s += "      ldi r0, SYS_wait\n      sys\n";
    s += Fmt("      cmpi r1, %ld\n", static_cast<long>(statuses[i]) << 8);
    s += Fmt("      jnz bad%ld\n      addi r%ld, 1\n", n, kChurnGoodReg);
    s += Fmt("      jmp next%ld\nbad%ld: addi r%ld, 1\n", n, n, kChurnBadReg);
    s += Fmt("next%ld:\n", n);
    kids += Fmt("c%ld:   ldi r0, SYS_exec\n", n);
    kids += Fmt("      ldi r1, p%ld\n      ldi r2, 0\n      sys\n", n);
    kids += "      ldi r0, SYS_exit\n      ldi r1, 255\n      sys\n";
    tail += Fmt("p%ld:   .asciz \"", n) + children[i].path + "\"\n";
  }
  s += "      jmp top\n" + kids + tail;
  return s;
}

// The conditional-breakpoint target: the breakpoint sits on `loop`, and the
// counter `var` (mirrored in r5 at the breakpoint) advances once per pass.
std::string BreakpointProgram(Rng& rng) {
  std::string s = "loop: ldi r4, var\n      ldw r5, [r4]\n      addi r5, 1\n      stw r5, [r4]\n";
  for (uint32_t i = rng.Range(4, 6); i > 0; --i) {
    const long r = rng.Range(1, 3);
    const long imm = rng.Range(1, 50);
    s += Fmt("      addi r%ld, %ld\n", r, imm);
  }
  s += "      jmp loop\n      .data\nvar:  .word 0\n";
  return s;
}

}  // namespace

Population MakePopulation(uint64_t seed) {
  Rng rng(seed);
  Population pop;
  auto add = [&](ProgKind kind, std::string source) {
    Program p;
    p.path = "/bin/p" + std::to_string(pop.runnable.size());
    p.source = std::move(source);
    p.kind = kind;
    pop.runnable.push_back(std::move(p));
  };
  for (int i = 0; i < 3; ++i) {
    add(ProgKind::kAlu, AluProgram(rng));
  }
  // Working sets of ~0.25x, ~0.75x, ~1.5x and ~4x the TLB reach.
  const uint32_t kPages[][2] = {{14, 18}, {44, 52}, {92, 100}, {248, 264}};
  for (const auto& range : kPages) {
    add(ProgKind::kLoadStore, LoadStoreProgram(rng.Range(range[0], range[1])));
  }
  const uint32_t kBlocks[][2] = {{240, 272}, {496, 528}, {752, 784}};
  for (const auto& range : kBlocks) {
    add(ProgKind::kCode, CodeProgram(rng, rng.Range(range[0], range[1])));
  }
  for (int i = 0; i < 3; ++i) {
    add(ProgKind::kSyscalls, SyscallProgram(rng, kCheapSyscalls[i]));
  }
  std::vector<uint32_t> statuses;
  for (int i = 0; i < 4; ++i) {
    uint32_t status = 1 + static_cast<uint32_t>(i) * 50 + rng.Range(0, 49);
    statuses.push_back(status);
    pop.churn_children.push_back(
        {"/bin/churn" + std::to_string(i), ChurnChild(rng.Range(180, 220), status),
         ProgKind::kChurn});
  }
  add(ProgKind::kChurn, ChurnParent(pop.churn_children, statuses));
  for (int i = 0; i < 2; ++i) {
    add(ProgKind::kBreakpoint, BreakpointProgram(rng));
  }
  pop.sleeper = {"/bin/sleeper", "top:  ldi r0, SYS_pause\n      sys\n      jmp top\n",
                 ProgKind::kAlu};
  for (int i = 0; i < 4; ++i) {
    TrussProgram t;
    t.path = "/bin/truss" + std::to_string(i);
    t.syscalls = 12 + 2 * static_cast<uint64_t>(i);
    for (uint64_t c = 0; c < t.syscalls; ++c) {
      t.source += std::string("      ldi r0, ") + kCheapSyscalls[rng.Range(0, 3)] + "\n      sys\n";
      t.source += AluBody(rng, static_cast<int>(rng.Range(2, 4)));
    }
    t.source += "      ldi r0, SYS_exit\n      ldi r1, 0\n      sys\n";
    ++t.syscalls;  // the exit
    pop.truss.push_back(std::move(t));
  }
  return pop;
}

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kBpFlat:
      return "bp_flat";
    case OpKind::kBpBatched:
      return "bp_batched";
    case OpKind::kStatus:
      return "status";
    case OpKind::kPsinfo:
      return "psinfo";
    case OpKind::kPs:
      return "ps";
    case OpKind::kTruss:
      return "truss";
  }
  return "?";
}

Op OpStream::Next() {
  // Per 100 ops: 46 breakpoint cycles (half flat, half batched), 36 status
  // and psinfo polls, 12 ps snapshots, 6 truss -c sessions. The weights are
  // an arbitrary choice, not a measured usage mix; they decide how many
  // samples each op class gets, and the headline latencies weigh the
  // classes equally whatever their share.
  uint32_t r = rng_.Range(0, 99);
  Op op;
  if (r < 46) {
    op.kind = (r & 1) != 0 ? OpKind::kBpBatched : OpKind::kBpFlat;
  } else if (r < 82) {
    op.kind = (r & 1) != 0 ? OpKind::kPsinfo : OpKind::kStatus;
  } else if (r < 94) {
    op.kind = OpKind::kPs;
  } else {
    op.kind = OpKind::kTruss;
  }
  op.target = static_cast<uint32_t>(rng_.Next() >> 8);
  op.tool = turn_++ % tools_;
  return op;
}

}  // namespace perfbench
