// Seeded inputs of the benchmark: the simulated programs of the population
// and the closed-loop operation schedule. Everything here is a pure function
// of the seed, so one seed always yields the same programs and the same
// operation stream.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: the repository's seed-stream generator of choice.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  uint32_t Range(uint32_t lo, uint32_t hi) {
    return lo + static_cast<uint32_t>(Next() % (uint64_t{hi} - lo + 1));
  }

 private:
  uint64_t s_;
};

enum class ProgKind { kAlu, kLoadStore, kCode, kSyscalls, kChurn, kBreakpoint };

struct Program {
  std::string path;
  std::string source;
  ProgKind kind = ProgKind::kAlu;
};

// A program whose exact syscall count is known: truss -c must report it.
struct TrussProgram {
  std::string path;
  std::string source;
  uint64_t syscalls = 0;  // including the final exit
};

struct Population {
  std::vector<Program> runnable;       // started at set-up; always runnable
  std::vector<Program> churn_children; // exec'd by the churn parent
  Program sleeper;                     // started kSleepers times; pause()s
  std::vector<TrussProgram> truss;     // traced by truss -c sessions
};

inline constexpr int kSleepers = 1000;

// Symbols the benchmark relies on in the generated sources.
inline constexpr char kBreakpointSymbol[] = "loop";
// The churn parent counts children that exited with their generated status
// in r10 and children that did not in r11.
inline constexpr int kChurnGoodReg = 10;
inline constexpr int kChurnBadReg = 11;

Population MakePopulation(uint64_t seed);

// --- Operation schedule -------------------------------------------------------

enum class OpKind { kBpFlat, kBpBatched, kStatus, kPsinfo, kPs, kTruss };
inline constexpr int kOpKinds = 6;
const char* OpKindName(OpKind k);

struct Op {
  OpKind kind = OpKind::kStatus;
  uint32_t target = 0;  // index into the tool's target list for this kind
  uint32_t tool = 0;    // which active client issues the op
};

// The infinite closed-loop operation stream of the debug and remote
// workloads: op kinds in fixed proportions, targets and order from the seed.
class OpStream {
 public:
  OpStream(uint64_t seed, uint32_t tools) : rng_(seed ^ 0x6F70735F6D6978ull), tools_(tools) {}
  Op Next();

 private:
  Rng rng_;
  uint32_t tools_;
  uint32_t turn_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
