// Predecoded basic-block execution engine for the virtual ISA.
//
// The decode-dispatch interpreter (CpuStep) pays an instruction fetch, a
// length check, and operand extraction on every instruction. This engine
// decodes each straight-line block once — terminated by any control
// transfer, syscall, trapping instruction, or a length/page cap — into an
// array of predecoded operands, and executes blocks with threaded-code
// dispatch (computed goto where the compiler supports it, a dense jump-table
// switch otherwise). Architectural behaviour is byte-identical to CpuStep:
// the same faults at the same pc with the same register and flag effects.
//
// The executor chains: a block that ends without a trap continues straight
// into the block cached at the new pc, so one call runs a whole user run.
// It returns to its caller only on a trap, at the end of the budget, when
// the next block is not cached or is stale (the caller's Get then builds
// it), or when the caller's yield flag is raised.
//
// Validity is generation-based: a block records the owning AddressSpace's
// code generation (AddressSpace::CodeGen()) at build time and is dropped the
// moment the generations disagree. The generation advances on every mapping
// or protection change, COW break, watchpoint change, TLB flush, and on any
// store into an executable mapping — so a planted breakpoint, a /proc text
// write, or self-modifying code can never execute out of a stale block. The
// executor checks the generation at every chain step and re-checks it after
// every store it performs, so code that patches an instruction *later in its
// own block* or in the next block observes the new bytes exactly as the
// interpreter would.
//
// Each address space sizes its own cache by the code it runs: a direct-
// mapped table of kBlockCacheMinSlots slots on the first lookup, doubled
// (up to kBlockCacheMaxSlots) whenever more valid blocks have been evicted
// by a different start pc since the last resize than the table has slots.
// A process that runs a handful of blocks holds a 1 KiB table; one whose
// hot code outgrows the table stops thrashing it. Blocks are a pure cache,
// so the size changes only the counters, never what executes.
//
// The engine never runs when per-instruction observation is required: the
// kernel's user step falls back to the interpreter, one instruction at a
// time, whenever the trace bit is set, watchpoints are active, or the
// software TLB is disabled. Fault injection, chaos scheduling and event
// tracing hook the kernel's one quantum loop on cold paths, so arming them
// leaves the block engine running.
#ifndef SVR4PROC_ISA_BLOCKS_H_
#define SVR4PROC_ISA_BLOCKS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "svr4proc/isa/cpu.h"
#include "svr4proc/isa/isa.h"

namespace svr4 {

class AddressSpace;

// One predecoded instruction: operands extracted, lengths resolved, no
// byte-level work left at execution time. 12 bytes, array-of-structs.
struct PInstr {
  uint8_t kind = B_ILL;  // BKind dispatch index (isa.h)
  uint8_t rd = 0;        // destination register / fp register
  uint8_t rs = 0;        // source register / fp register
  uint8_t len = 1;       // encoded length in bytes
  uint32_t imm = 0;      // imm32, branch target, sign-extended off16,
                         // or fimm[] index for fldi
  uint32_t pc = 0;       // virtual address of this instruction
};

struct Block {
  uint32_t start = 0;  // pc of the first instruction
  uint32_t gen = 0;    // AddressSpace::CodeGen() at build time
  std::vector<PInstr> code;
  std::vector<double> fimm;  // fldi payloads, indexed by PInstr::imm
};

// Per-address-space engine counters, exposed through PIOCVMSTATS and
// aggregated into /proc2/kernel/metrics.
struct BlockStats {
  uint64_t built = 0;          // blocks (re)decoded
  uint64_t hits = 0;           // lookups served by a valid cached block
  uint64_t misses = 0;         // lookups with no block cached at that pc
  uint64_t invalidations = 0;  // cached blocks dropped on generation mismatch
  uint64_t fallback_steps = 0; // instructions run via the interpreter while
                               // the block engine was selected (trace bit,
                               // watchpoints, TLB off, unfetchable pc)
};

// Predecodes the single instruction at `bytes` (which holds at least
// InstrLength(bytes[0]) valid bytes; undefined opcodes need 1) from its kIsa
// row and DecodeOperands. Fills *out and returns its encoded length.
int PredecodeOne(const uint8_t* bytes, uint32_t pc, PInstr* out);

// True when the opcode ends a basic block (its row's ends_block): control
// transfers, syscalls, and every instruction that can only trap
// (bpt/hlt/undefined).
bool IsBlockTerminator(uint8_t opcode);

// Block cache size bounds in slots; powers of two. Every cache starts at
// the minimum on its first lookup and never grows past the maximum.
inline constexpr uint32_t kBlockCacheMinSlots = 16;
inline constexpr uint32_t kBlockCacheMaxSlots = 4096;
static_assert(std::has_single_bit(kBlockCacheMinSlots) &&
              std::has_single_bit(kBlockCacheMaxSlots) &&
              kBlockCacheMinSlots <= kBlockCacheMaxSlots);
// Block length cap in instructions.
inline constexpr uint32_t kMaxBlockInstrs = 64;

// Per-AddressSpace cache of predecoded blocks keyed by start pc: a direct-
// mapped table that allocates nothing until the first Get and then grows
// with the code the address space runs (see the file comment).
class BlockCache {
 public:
  // Returns a valid block starting at pc: Lookup's hit, else Fill, which
  // builds one. Returns nullptr when pc cannot be block-cached right now
  // (first instruction unfetchable, or its page is not a cacheable private
  // executable mapping) — the caller must interpret that instruction.
  // Growing the table moves blocks, so a returned pointer is valid only
  // until the next Fill on this cache.
  const Block* Get(uint32_t pc, AddressSpace& as);

  // The hit path, and the executor's chain step: the block cached at pc if
  // it was built at code generation gen, counted as a hit; nullptr
  // otherwise, counting nothing. Never moves a block.
  const Block* Lookup(uint32_t pc, uint32_t gen) {
    if (slots_.empty()) {
      return nullptr;
    }
    Slot& s = SlotFor(pc);
    if (!s.valid || s.blk.start != pc || s.blk.gen != gen) {
      return nullptr;
    }
    ++stats_.hits;
    return &s.blk;
  }

  // Slots allocated: 0 before the first Get, then a power of two between
  // kBlockCacheMinSlots and kBlockCacheMaxSlots.
  uint32_t slot_count() const { return static_cast<uint32_t>(slots_.size()); }

  BlockStats& stats() { return stats_; }
  const BlockStats& stats() const { return stats_; }

 private:
  struct Slot {
    bool valid = false;
    Block blk;
  };

  // The low address bits plus the address over eight: contiguous code of
  // any block stride spreads over the slots. Low bits alone collide when
  // blocks start at aligned addresses, and a multiplicative (Fibonacci)
  // hash clusters for some strides, 13-byte blocks among them.
  Slot& SlotFor(uint32_t pc) { return slots_[(pc + (pc >> 3)) & mask_]; }
  // Get's miss path: the first allocation, miss and invalidation counting,
  // growth, and the build. Out of line so the hit path stays a few
  // instructions with no register spills.
  [[gnu::noinline]] const Block* Fill(uint32_t pc, AddressSpace& as);
  bool BuildInto(Slot& s, uint32_t pc, AddressSpace& as);
  void Grow();

  std::vector<Slot> slots_;
  uint32_t mask_ = 0;       // slots_.size() - 1 once allocated
  uint32_t evictions_ = 0;  // valid blocks replaced by a block with a
                            // different start pc since the last resize
  BlockStats stats_;
};

// Runs up to max_instrs instructions (max_instrs >= 1) from block b on and
// returns how many retired. On a trap (syscall or fault) it stores the
// event in *last, with regs.pc exactly where CpuStep would leave it;
// otherwise *last is untouched and regs.pc is the next instruction to run.
// With a chain cache, a block that ends without a trap continues into
// chain->Lookup(regs.pc, as.CodeGen()); the run stops when that misses, at
// the end of the budget, after a store that changed the code generation,
// or at a block boundary where *yield (when given) is nonzero. Without a
// chain, one block runs. Nothing here fills the cache, so no block moves.
// The caller guarantees b is valid for as's current code generation and
// that the trace bit is clear and watchpoints are inactive.
uint32_t ExecuteBlock(const Block& b, Regs& regs, FpRegs& fp, AddressSpace& as,
                      uint32_t max_instrs, StepResult* last, BlockCache* chain,
                      const std::atomic<uint64_t>* yield);

}  // namespace svr4

#endif  // SVR4PROC_ISA_BLOCKS_H_
