#include "svr4proc/isa/blocks.h"

#include <limits>
#include <utility>

#include "svr4proc/vm/vm.h"

// Threaded-code dispatch: computed goto on GCC/Clang, a dense jump-table
// switch elsewhere. Both forms dispatch directly on the predecoded BKind
// with no per-instruction fetch or operand extraction.
#if defined(__GNUC__) || defined(__clang__)
#define SVR4_COMPUTED_GOTO 1
#endif

namespace svr4 {

bool IsBlockTerminator(uint8_t opcode) { return IsaRow(opcode).ends_block; }

int PredecodeOne(const uint8_t* bytes, uint32_t pc, PInstr* out) {
  const OpInfo& row = IsaRow(bytes[0]);
  const Operands o = DecodeOperands(row.form, bytes);
  out->kind = row.kind;
  out->rd = o.rd;
  out->rs = o.rs;
  out->len = static_cast<uint8_t>(FormLength(row.form));
  out->imm = o.imm;  // for fldi, the builder makes it the fimm[] index
  out->pc = pc;
  return out->len;
}

bool BlockCache::BuildInto(Slot& s, uint32_t start, AddressSpace& as) {
  Block& b = s.blk;
  b.code.clear();
  b.fimm.clear();
  b.start = start;
  b.gen = as.CodeGen();

  uint32_t pc = start;
  const uint32_t start_page = PageAlignDown(start);
  while (b.code.size() < kMaxBlockInstrs) {
    const bool first = b.code.empty();
    // Page-bounding: only the first instruction may start outside the
    // block's page. This keeps the builder's page touches (frame
    // materialization, referenced bits) a subset of what executing the
    // block would touch anyway, so the two engines stay byte-identical in
    // their VM side effects.
    if (!first && PageAlignDown(pc) != start_page) {
      break;
    }
    uint32_t flags = as.FlagsAt(pc);
    if ((flags & MA_EXEC) == 0 || (flags & MA_SHARED) != 0) {
      // Not executable here (let the interpreter report the precise fault),
      // or a shared-memory mapping whose pages can be rewritten through a
      // different address space without bumping our code generation — never
      // cache those.
      if (first) {
        return false;
      }
      break;
    }
    alignas(8) uint8_t ibuf[kFetchWindowBytes] = {};
    uint32_t have = as.FetchWindow(pc, ibuf, kFetchWindowBytes);
    if (have == 0) {
      if (as.MemRead(pc, ibuf, 1, Access::kExec)) {
        if (first) {
          return false;
        }
        break;
      }
      have = 1;
    }
    const OpInfo& row = IsaRow(ibuf[0]);
    const int len = FormLength(row.form);
    if (static_cast<uint32_t>(len) > have) {
      // Straddles the fetch window (page boundary): fetch the tail exactly
      // as the interpreter would when executing this instruction.
      if (as.MemRead(pc + have, ibuf + have, static_cast<uint32_t>(len) - have,
                     Access::kExec)) {
        if (first) {
          return false;
        }
        break;
      }
    }
    PInstr ins;
    PredecodeOne(ibuf, pc, &ins);
    if (ins.kind == B_FLDI) {
      ins.imm = static_cast<uint32_t>(b.fimm.size());
      b.fimm.push_back(DecodeOperands(row.form, ibuf).fimm);
    }
    b.code.push_back(ins);
    if (row.ends_block) {
      break;
    }
    pc += static_cast<uint32_t>(len);
    if (!first && pc < start) {
      break;  // pc wrapped; terminate defensively
    }
  }
  return !b.code.empty();
}

const Block* BlockCache::Get(uint32_t pc, AddressSpace& as) {
  if (const Block* b = Lookup(pc, as.CodeGen())) {
    return b;
  }
  return Fill(pc, as);
}

const Block* BlockCache::Fill(uint32_t pc, AddressSpace& as) {
  if (slots_.empty()) {
    slots_.resize(kBlockCacheMinSlots);
    mask_ = kBlockCacheMinSlots - 1;
  }
  Slot* s = &SlotFor(pc);
  if (s->valid && s->blk.start == pc) {
    ++stats_.invalidations;  // Get found it with a stale generation
  } else {
    ++stats_.misses;
    // A conflict: another block owns this slot. Once conflicts since the
    // last resize outnumber the slots, the hot code has outgrown the table.
    if (s->valid && slots_.size() < kBlockCacheMaxSlots &&
        ++evictions_ > slots_.size()) {
      Grow();
      s = &SlotFor(pc);
    }
  }
  if (!BuildInto(*s, pc, as)) {
    s->valid = false;
    return nullptr;
  }
  s->valid = true;
  ++stats_.built;
  return &s->blk;
}

void BlockCache::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = mask_ * 2 + 1;
  // One more index bit splits old slot i into new slots i and i + old size,
  // so the blocks move over without displacing one another.
  for (Slot& s : old) {
    if (s.valid) {
      SlotFor(s.blk.start) = std::move(s);
    }
  }
  evictions_ = 0;
}

// The threaded executor. Control flow contract per instruction:
//  * non-terminators advance ip and fall through to the next dispatch;
//  * faults set regs.pc to the faulting instruction (counting it as
//    executed, exactly like one CpuStep that returned kFault);
//  * sys sets regs.pc to the successor and ends the run;
//  * branches/ret set regs.pc to the successor and end the block;
//  * running off the end (page-bounded or length-capped block) leaves
//    regs.pc at the next undecoded instruction and ends the block.
// A block that ends goes to the chain step, which enters the next cached
// block or ends the run. regs.pc is only materialized at block ends;
// mid-block it is implied by ip.
uint32_t ExecuteBlock(const Block& b, Regs& regs, FpRegs& fp, AddressSpace& as,
                      uint32_t max_instrs, StepResult* last, BlockCache* chain,
                      const std::atomic<uint64_t>* yield) {
  const Block* blk = &b;
  const PInstr* ip = blk->code.data();
  const PInstr* end = ip + blk->code.size();
  uint32_t build_gen = blk->gen;
  uint32_t executed = 0;

#define SVR4_B_RETIRE_OK(next_pc)      \
  do {                                 \
    ++executed;                        \
    regs.pc = (next_pc);               \
    goto chain_step;                   \
  } while (0)
#define SVR4_B_FAULT(fltno, fltaddr)                           \
  do {                                                         \
    ++executed;                                                \
    regs.pc = ip->pc;                                          \
    *last = StepResult{StepResult::kFault, (fltno), (fltaddr)}; \
    goto done;                                                 \
  } while (0)
// Fall through to the next instruction. If the block is exhausted or the
// budget is spent, end the block with pc at the successor.
#define SVR4_B_NEXT()                            \
  do {                                           \
    ++executed;                                  \
    uint32_t nxt = ip->pc + ip->len;             \
    ++ip;                                        \
    if (ip == end || executed >= max_instrs) {   \
      regs.pc = nxt;                             \
      goto chain_step;                           \
    }                                            \
    SVR4_B_DISPATCH();                           \
  } while (0)
// A store may have rewritten code anywhere, including later instructions of
// this very block: end the run at the successor so the caller re-validates.
#define SVR4_B_NEXT_AFTER_STORE()                \
  do {                                           \
    if (as.CodeGen() != build_gen) {             \
      ++executed;                                \
      regs.pc = ip->pc + ip->len;                \
      goto done;                                 \
    }                                            \
    SVR4_B_NEXT();                               \
  } while (0)

#if defined(SVR4_COMPUTED_GOTO)
  static const void* const kLabels[B_KIND_COUNT] = {
      &&L_ILL,  &&L_NOP,  &&L_BPT,  &&L_RET,  &&L_HLT,  &&L_SYS,  &&L_MOV,
      &&L_ADD,  &&L_SUB,  &&L_MUL,  &&L_DIV,  &&L_MOD,  &&L_AND,  &&L_OR,
      &&L_XOR,  &&L_SHL,  &&L_SHR,  &&L_CMP,  &&L_ADDV, &&L_LDI,  &&L_ADDI,
      &&L_CMPI, &&L_LDW,  &&L_STW,  &&L_LDB,  &&L_STB,  &&L_JMP,  &&L_JZ,
      &&L_JNZ,  &&L_JLT,  &&L_JGE,  &&L_JGT,  &&L_JLE,  &&L_JCS,  &&L_JCC,
      &&L_CALL, &&L_PUSH, &&L_POP,  &&L_CALLR, &&L_JMPR, &&L_FLDI, &&L_FMOV,
      &&L_FADD, &&L_FSUB, &&L_FMUL, &&L_FDIV, &&L_FTOI, &&L_ITOF,
  };
#define SVR4_B_DISPATCH() goto* kLabels[ip->kind]
#define SVR4_B_CASE(name) L_##name:
  SVR4_B_DISPATCH();
#else
#define SVR4_B_DISPATCH() goto dispatch
#define SVR4_B_CASE(name) case B_##name:
dispatch:
  switch (static_cast<BKind>(ip->kind)) {
#endif

  SVR4_B_CASE(NOP) { SVR4_B_NEXT(); }

  SVR4_B_CASE(SYS) {
    ++executed;
    regs.pc = ip->pc + ip->len;
    *last = StepResult{.kind = StepResult::kSyscall};
    goto done;
  }

  SVR4_B_CASE(RET) {
    uint32_t ret;
    if (!as.TlbLoad(regs.sp(), &ret, 4)) {
      if (auto mf = as.MemRead(regs.sp(), &ret, 4, Access::kRead)) {
        SVR4_B_FAULT(mf->fault, mf->addr);
      }
    }
    regs.set_sp(regs.sp() + 4);
    SVR4_B_RETIRE_OK(ret);
  }

  SVR4_B_CASE(BPT) {
    // pc stays at the breakpoint address itself.
    SVR4_B_FAULT(FLTBPT, ip->pc);
  }

  SVR4_B_CASE(HLT) { SVR4_B_FAULT(FLTPRIV, ip->pc); }

  SVR4_B_CASE(ILL) { SVR4_B_FAULT(FLTILL, ip->pc); }

  SVR4_B_CASE(MOV) {
    uint32_t out = regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(ADD) {
    uint32_t out = regs.r[ip->rd] + regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(SUB) {
    uint32_t out = regs.r[ip->rd] - regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(MUL) {
    uint32_t out = regs.r[ip->rd] * regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(DIV) {
    uint32_t a = regs.r[ip->rd];
    uint32_t bv = regs.r[ip->rs];
    if (bv == 0) {
      SVR4_B_FAULT(FLTIZDIV, ip->pc);
    }
    if (a == 0x80000000u && bv == 0xFFFFFFFFu) {
      SVR4_B_FAULT(FLTIOVF, ip->pc);
    }
    uint32_t out =
        static_cast<uint32_t>(static_cast<int32_t>(a) / static_cast<int32_t>(bv));
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(MOD) {
    uint32_t a = regs.r[ip->rd];
    uint32_t bv = regs.r[ip->rs];
    if (bv == 0) {
      SVR4_B_FAULT(FLTIZDIV, ip->pc);
    }
    if (a == 0x80000000u && bv == 0xFFFFFFFFu) {
      SVR4_B_FAULT(FLTIOVF, ip->pc);
    }
    uint32_t out =
        static_cast<uint32_t>(static_cast<int32_t>(a) % static_cast<int32_t>(bv));
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(AND) {
    uint32_t out = regs.r[ip->rd] & regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(OR) {
    uint32_t out = regs.r[ip->rd] | regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(XOR) {
    uint32_t out = regs.r[ip->rd] ^ regs.r[ip->rs];
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(SHL) {
    uint32_t b2 = regs.r[ip->rs];
    uint32_t out = (b2 >= 32) ? 0 : regs.r[ip->rd] << b2;
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(SHR) {
    uint32_t b2 = regs.r[ip->rs];
    uint32_t out = (b2 >= 32) ? 0 : regs.r[ip->rd] >> b2;
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(CMP) {
    SetCmpFlags(regs, regs.r[ip->rd], regs.r[ip->rs]);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(ADDV) {
    int64_t wide = static_cast<int64_t>(static_cast<int32_t>(regs.r[ip->rd])) +
                   static_cast<int64_t>(static_cast<int32_t>(regs.r[ip->rs]));
    if (wide > std::numeric_limits<int32_t>::max() ||
        wide < std::numeric_limits<int32_t>::min()) {
      SVR4_B_FAULT(FLTIOVF, ip->pc);
    }
    uint32_t out = static_cast<uint32_t>(wide);
    regs.r[ip->rd] = out;
    SetZn(regs, out);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(LDI) {
    regs.r[ip->rd] = ip->imm;
    SetZn(regs, ip->imm);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(ADDI) {
    regs.r[ip->rd] += ip->imm;
    SetZn(regs, regs.r[ip->rd]);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(CMPI) {
    SetCmpFlags(regs, regs.r[ip->rd], ip->imm);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(LDW) {
    uint32_t addr = regs.r[ip->rs] + ip->imm;
    uint32_t v = 0;
    if (!as.TlbLoad(addr, &v, 4)) {
      if (auto mf = as.MemRead(addr, &v, 4, Access::kRead)) {
        SVR4_B_FAULT(mf->fault, mf->addr);
      }
    }
    regs.r[ip->rd] = v;
    SetZn(regs, v);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(LDB) {
    uint32_t addr = regs.r[ip->rs] + ip->imm;
    uint32_t v = 0;
    if (!as.TlbLoad(addr, &v, 1)) {
      if (auto mf = as.MemRead(addr, &v, 1, Access::kRead)) {
        SVR4_B_FAULT(mf->fault, mf->addr);
      }
    }
    regs.r[ip->rd] = v;
    SetZn(regs, v);
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(STW) {
    uint32_t addr = regs.r[ip->rs] + ip->imm;
    uint32_t v = regs.r[ip->rd];
    if (!as.TlbStore(addr, &v, 4)) {
      if (auto mf = as.MemWrite(addr, &v, 4)) {
        SVR4_B_FAULT(mf->fault, mf->addr);
      }
    }
    SVR4_B_NEXT_AFTER_STORE();
  }

  SVR4_B_CASE(STB) {
    uint32_t addr = regs.r[ip->rs] + ip->imm;
    uint32_t v = regs.r[ip->rd];
    if (!as.TlbStore(addr, &v, 1)) {
      if (auto mf = as.MemWrite(addr, &v, 1)) {
        SVR4_B_FAULT(mf->fault, mf->addr);
      }
    }
    SVR4_B_NEXT_AFTER_STORE();
  }

  SVR4_B_CASE(JMP) { SVR4_B_RETIRE_OK(ip->imm); }

  SVR4_B_CASE(JZ) {
    SVR4_B_RETIRE_OK((regs.psr & kPsrZ) ? ip->imm : ip->pc + ip->len);
  }

  SVR4_B_CASE(JNZ) {
    SVR4_B_RETIRE_OK(!(regs.psr & kPsrZ) ? ip->imm : ip->pc + ip->len);
  }

  SVR4_B_CASE(JLT) {
    SVR4_B_RETIRE_OK(SignedLt(regs) ? ip->imm : ip->pc + ip->len);
  }

  SVR4_B_CASE(JGE) {
    SVR4_B_RETIRE_OK(!SignedLt(regs) ? ip->imm : ip->pc + ip->len);
  }

  SVR4_B_CASE(JGT) {
    SVR4_B_RETIRE_OK((!SignedLt(regs) && !(regs.psr & kPsrZ)) ? ip->imm
                                                              : ip->pc + ip->len);
  }

  SVR4_B_CASE(JLE) {
    SVR4_B_RETIRE_OK((SignedLt(regs) || (regs.psr & kPsrZ)) ? ip->imm
                                                            : ip->pc + ip->len);
  }

  SVR4_B_CASE(JCS) {
    SVR4_B_RETIRE_OK((regs.psr & kPsrC) ? ip->imm : ip->pc + ip->len);
  }

  SVR4_B_CASE(JCC) {
    SVR4_B_RETIRE_OK(!(regs.psr & kPsrC) ? ip->imm : ip->pc + ip->len);
  }

  SVR4_B_CASE(CALL) {
    uint32_t ret = ip->pc + ip->len;
    uint32_t nsp = regs.sp() - 4;
    if (!as.TlbStore(nsp, &ret, 4)) {
      if (auto mf = as.MemWrite(nsp, &ret, 4)) {
        // A faulted push is an unrecoverable stack fault unless it is a
        // watchpoint firing (identical to the interpreter; watchpoints are
        // never active here but the contract is kept verbatim).
        if (mf->fault == FLTWATCH) {
          SVR4_B_FAULT(mf->fault, mf->addr);
        }
        SVR4_B_FAULT(FLTSTACK, mf->addr);
      }
    }
    regs.set_sp(nsp);
    SVR4_B_RETIRE_OK(ip->imm);
  }

  SVR4_B_CASE(PUSH) {
    uint32_t v = regs.r[ip->rs];
    uint32_t nsp = regs.sp() - 4;
    if (!as.TlbStore(nsp, &v, 4)) {
      if (auto mf = as.MemWrite(nsp, &v, 4)) {
        if (mf->fault == FLTWATCH) {
          SVR4_B_FAULT(mf->fault, mf->addr);
        }
        SVR4_B_FAULT(FLTSTACK, mf->addr);
      }
    }
    regs.set_sp(nsp);
    SVR4_B_NEXT_AFTER_STORE();
  }

  SVR4_B_CASE(POP) {
    uint32_t v;
    if (!as.TlbLoad(regs.sp(), &v, 4)) {
      if (auto mf = as.MemRead(regs.sp(), &v, 4, Access::kRead)) {
        SVR4_B_FAULT(mf->fault, mf->addr);
      }
    }
    regs.set_sp(regs.sp() + 4);
    regs.r[ip->rd] = v;
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(CALLR) {
    uint32_t target = regs.r[ip->rs];
    uint32_t ret = ip->pc + ip->len;
    uint32_t nsp = regs.sp() - 4;
    if (!as.TlbStore(nsp, &ret, 4)) {
      if (auto mf = as.MemWrite(nsp, &ret, 4)) {
        if (mf->fault == FLTWATCH) {
          SVR4_B_FAULT(mf->fault, mf->addr);
        }
        SVR4_B_FAULT(FLTSTACK, mf->addr);
      }
    }
    regs.set_sp(nsp);
    SVR4_B_RETIRE_OK(target);
  }

  SVR4_B_CASE(JMPR) { SVR4_B_RETIRE_OK(regs.r[ip->rs]); }

  SVR4_B_CASE(FLDI) {
    fp.f[ip->rd] = blk->fimm[ip->imm];
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(FMOV) {
    fp.f[ip->rd] = fp.f[ip->rs];
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(FADD) {
    fp.f[ip->rd] = fp.f[ip->rd] + fp.f[ip->rs];
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(FSUB) {
    fp.f[ip->rd] = fp.f[ip->rd] - fp.f[ip->rs];
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(FMUL) {
    fp.f[ip->rd] = fp.f[ip->rd] * fp.f[ip->rs];
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(FDIV) {
    double bv = fp.f[ip->rs];
    if (bv == 0.0) {
      fp.fsr |= 1;  // sticky divide-by-zero
      SVR4_B_FAULT(FLTFPE, ip->pc);
    }
    fp.f[ip->rd] = fp.f[ip->rd] / bv;
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(FTOI) {
    double v = fp.f[ip->rs];
    if (v > 2147483647.0 || v < -2147483648.0) {
      fp.fsr |= 2;  // sticky invalid-conversion
      SVR4_B_FAULT(FLTFPE, ip->pc);
    }
    regs.r[ip->rd] = static_cast<uint32_t>(static_cast<int32_t>(v));
    SVR4_B_NEXT();
  }

  SVR4_B_CASE(ITOF) {
    fp.f[ip->rd] = static_cast<double>(static_cast<int32_t>(regs.r[ip->rs]));
    SVR4_B_NEXT();
  }

#if !defined(SVR4_COMPUTED_GOTO)
  default:
    SVR4_B_FAULT(FLTILL, ip->pc);
  }
#endif

// The chain step: a block ended without a trap. Enter the block cached at
// the new pc unless the budget is spent, the caller asked to yield, or the
// cache holds no block there built at the current code generation.
chain_step:
  if (chain != nullptr && executed < max_instrs &&
      (yield == nullptr || yield->load(std::memory_order_relaxed) == 0)) {
    blk = chain->Lookup(regs.pc, as.CodeGen());
    if (blk != nullptr) {
      ip = blk->code.data();
      end = ip + blk->code.size();
      build_gen = blk->gen;
      SVR4_B_DISPATCH();
    }
  }
done:
#undef SVR4_B_DISPATCH
#undef SVR4_B_CASE
#undef SVR4_B_RETIRE_OK
#undef SVR4_B_FAULT
#undef SVR4_B_NEXT
#undef SVR4_B_NEXT_AFTER_STORE
  return executed;
}

}  // namespace svr4
