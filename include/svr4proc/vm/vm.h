// Virtual memory: pages, memory objects, and per-process address spaces.
//
// This reproduces the SVR4/SunOS VM architecture as the paper relies on it:
//  * an address space is a set of mappings (contiguous VA ranges), each with
//    permissions and an underlying object (a file or anonymous zero-fill);
//  * private mappings have copy-on-write semantics: multiple private
//    mappings of one object share pages until someone writes;
//  * "text"/"data"/"stack"/"break" are not special-cased in the machinery,
//    but mappings carry advisory flags (MA_STACK/MA_BREAK) because "a
//    process-control application can sometimes make use of this information
//    so it is provided in the PIOCMAP interface" (paper, footnote 2);
//  * the stack mapping grows automatically and the break mapping grows on
//    explicit request (brk);
//  * a controlling process can read or write any valid address through
//    /proc; writes to private mappings (including read-only, executable
//    text) succeed with copy-on-write so breakpoints can be planted without
//    corrupting the a.out or other processes. Only bona-fide shared memory
//    (MAP_SHARED) writes through to the object;
//  * watchpoints (the paper's proposed extension) are implemented at this
//    layer: watched ranges have byte granularity; accesses to unwatched
//    bytes — even in the same page — proceed transparently;
//  * referenced/modified page information can be sampled and cleared (the
//    proposed page-data interface for performance monitors);
//  * a per-address-space software TLB caches page translations for the CPU
//    access path. Entries are invalidated wholesale by bumping a generation
//    counter whenever the mapping structure, protections, frames, or
//    watchpoints change; watch-active address spaces bypass the TLB so
//    watchpoints keep their byte granularity.
#ifndef SVR4PROC_VM_VM_H_
#define SVR4PROC_VM_VM_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "svr4proc/base/result.h"
#include "svr4proc/isa/cpu.h"

namespace svr4 {

class FaultInjector;  // kernel/faults.h; optional, null in normal operation
class KTrace;         // kernel/ktrace.h; optional, disarmed in normal operation
class BlockCache;     // isa/blocks.h; predecoded-block cache, lazily created
class SmpState;       // kernel/smp.h; optional, null on a pre-SMP kernel

inline constexpr uint32_t kPageSize = 4096;
inline constexpr uint32_t kPageShift = 12;

inline constexpr uint32_t PageAlignDown(uint32_t a) { return a & ~(kPageSize - 1); }
inline constexpr uint32_t PageAlignUp(uint32_t a) {
  return (a + kPageSize - 1) & ~(kPageSize - 1);
}

// Mapping attribute flags, exposed verbatim through PIOCMAP (prmap_t).
enum MaFlag : uint32_t {
  MA_EXEC = 0x01,
  MA_WRITE = 0x02,
  MA_READ = 0x04,
  MA_SHARED = 0x08,
  MA_BREAK = 0x10,
  MA_STACK = 0x20,
  MA_ANON = 0x40,
};

// Watchpoint flags (prwatch_t), per the proposed generalized data
// watchpoint facility.
enum WaFlag : int {
  WA_READ = 0x01,
  WA_WRITE = 0x02,
  WA_EXEC = 0x04,
};

struct Watch {
  uint32_t vaddr = 0;
  uint32_t size = 0;
  int wflags = 0;
};

struct VmPage {
  std::array<uint8_t, kPageSize> bytes{};
};
using PagePtr = std::shared_ptr<VmPage>;

// An object that mappings can be applied to. Files and anonymous memory both
// present this interface; GetPage returns the object's (shared) page.
class VmObject {
 public:
  virtual ~VmObject() = default;
  virtual Result<PagePtr> GetPage(uint64_t page_index) = 0;
  virtual bool IsAnon() const { return false; }
  virtual std::string Name() const { return std::string(); }
};

// Anonymous zero-fill object ("suitably-behaving anonymous objects ... in
// the construction of other segments", e.g. bss). Pages are cached so that
// shared anonymous mappings observe each other's stores.
class AnonObject : public VmObject {
 public:
  Result<PagePtr> GetPage(uint64_t page_index) override;
  bool IsAnon() const override { return true; }

 private:
  // Free-running SMP workers materialize pages concurrently; everything
  // else about a frame is private to the one address space touching it, but
  // the object's page cache is the shared rendezvous.
  std::mutex mu_;
  std::map<uint64_t, PagePtr> pages_;
};

// One /proc-visible mapping record.
struct MappingInfo {
  uint32_t vaddr = 0;
  uint32_t size = 0;        // bytes
  uint64_t offset = 0;      // byte offset within the object
  uint32_t flags = 0;       // MaFlag bits
  std::string name;         // "a.out", library name, or "" for anon
};

// Per-page referenced/modified sample (the proposed page data interface).
enum PgFlag : uint8_t {
  PG_REFERENCED = 0x01,
  PG_MODIFIED = 0x02,
};

struct PageDataSeg {
  uint32_t vaddr = 0;
  std::vector<uint8_t> pg;  // PgFlag bits per page
};

class AddressSpace;
using AddressSpacePtr = std::shared_ptr<AddressSpace>;

// Software-TLB and access-path counters (cheap: plain increments on paths
// that already exist). Exposed through PIOCVMSTATS for observability.
struct VmCounters {
  uint64_t tlb_hits = 0;      // accesses satisfied by the TLB fast path
  uint64_t tlb_misses = 0;    // fast-path-eligible accesses that fell through
  uint64_t slow_lookups = 0;  // mapping resolutions on the slow path
  uint64_t tlb_flushes = 0;   // generation bumps (whole-TLB invalidations)
  // Page-fault classes, counted where frames materialize (EnsureFrame):
  // a first touch of a file-backed page pays simulated I/O (major); zero-fill
  // and copy-on-write resolutions do not (minor).
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
};

// Number of direct-mapped TLB entries; must be a power of two.
inline constexpr uint32_t kTlbEntries = 64;

class AddressSpace : public MemoryIf {
 public:
  AddressSpace();
  ~AddressSpace() override;

  // Establishes a mapping of [start, start + len) onto obj at obj_offset
  // (all page aligned). Replaces any overlapping mappings (like mmap with
  // MAP_FIXED). grows_down marks an auto-growing stack segment.
  Result<void> Map(uint32_t start, uint32_t len, uint32_t ma_flags,
                   std::shared_ptr<VmObject> obj, uint64_t obj_offset, std::string name,
                   bool grows_down = false);
  Result<void> Unmap(uint32_t start, uint32_t len);
  Result<void> Protect(uint32_t start, uint32_t len, uint32_t prot_ma_flags);

  // Grows (or shrinks) the MA_BREAK mapping so it ends at new_end.
  Result<void> SetBreak(uint32_t new_end);
  Result<uint32_t> BreakEnd() const;

  // CPU accesses: protection checked, watchpoints honored, stack grown.
  std::optional<MemFault> MemRead(uint32_t addr, void* buf, uint32_t len,
                                  Access kind) override;
  std::optional<MemFault> MemWrite(uint32_t addr, const void* buf, uint32_t len) override;

  // Best-effort instruction-window fetch (never crosses a page); see
  // MemoryIf. Returns 0 when watchpoints are active so the caller falls back
  // to byte-exact fetches.
  uint32_t FetchWindow(uint32_t addr, void* buf, uint32_t len) override;

  // Runtime knob for the software TLB (benchmarks compare on vs. off).
  void SetTlbEnabled(bool on);
  bool TlbEnabled() const { return tlb_enabled_; }
  const VmCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = VmCounters{}; }

  // --- Predecoded-block engine support (isa/blocks.h) ----------------------
  // Code generation: advances on every TLB flush (mapping/protection/frame/
  // watchpoint change, COW break, clone) and on every store into an
  // executable mapping, through any path (CPU store, /proc write, copyout).
  // Predecoded blocks are valid only while their recorded generation
  // matches, so stale code can never execute.
  uint32_t CodeGen() const { return code_gen_; }
  // Whether block caching may be used at all right now: watchpoints force
  // byte-granular access checks and the TLB knob doubles as the master
  // switch for all translation/decode caching.
  bool CodeCacheActive() const { return tlb_enabled_ && !watch_active_; }
  // Mapping MA_* flags covering addr, or 0 if unmapped (block-builder gate:
  // only private executable pages are cacheable).
  uint32_t FlagsAt(uint32_t addr) const;
  // The per-AS block cache, created on first use. Never cloned: a forked
  // child re-decodes against its own generation.
  BlockCache& blocks();
  BlockCache* blocks_if() const { return bcache_.get(); }

  // Inline single-page TLB fast paths for the block executor. Return false
  // to route the access through the full MemRead/MemWrite path (miss,
  // permission failure, page crossing). Callers guarantee watchpoints are
  // inactive (the block engine never runs with watches armed).
  bool TlbLoad(uint32_t addr, void* out, uint32_t len) {
    if (((addr & (kPageSize - 1)) + len) > kPageSize) {
      return false;
    }
    uint32_t vpn = addr >> kPageShift;
    TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
    if (e.gen != tlb_gen_ || e.vpn != vpn || (e.flags & MA_READ) == 0) {
      return false;
    }
    ++counters_.tlb_hits;
    CopySmallN(out, e.page->bytes.data() + (addr & (kPageSize - 1)), len);
    e.frame->pg |= PG_REFERENCED;
    return true;
  }
  bool TlbStore(uint32_t addr, const void* src, uint32_t len) {
    if (((addr & (kPageSize - 1)) + len) > kPageSize) {
      return false;
    }
    uint32_t vpn = addr >> kPageShift;
    TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
    if (e.gen != tlb_gen_ || e.vpn != vpn || !e.write_ok) {
      return false;
    }
    ++counters_.tlb_hits;
    if (e.flags & MA_EXEC) {
      ++code_gen_;  // a store into executable memory invalidates blocks
      CodeShootdown();
    }
    CopySmallN(e.page->bytes.data() + (addr & (kPageSize - 1)), src, len);
    e.frame->pg |= PG_REFERENCED | PG_MODIFIED;
    return true;
  }

  // Forced whole-TLB invalidation (fault injection: a flush must only cost
  // misses, never serve stale translations).
  void FlushTlb() { TlbFlush(); }
  // Arms allocation-failure injection (kVmMap/kVmGrow); null disarms.
  void SetFaultInjector(FaultInjector* finj) { finj_ = finj; }
  // Wires the kernel trace ring (COW_BREAK / TLB_FLUSH events) with the
  // owning pid to stamp into records. Always wired; KTrace gates emission.
  void SetKtrace(KTrace* kt, int32_t pid) {
    kt_ = kt;
    kt_pid_ = pid;
  }

  // --- Simulated SMP (kernel/smp.h) ----------------------------------------
  // Wires the kernel's CPU set so translation/code invalidations charge
  // cross-CPU shootdown IPIs. Null (or a 1-CPU set) costs one predicted
  // branch per flush, the same discipline as the kt_/finj_ gates.
  void SetSmp(SmpState* smp) { smp_ = smp; }
  // One software-TLB bank per CPU: the same direct-mapped array, replicated,
  // with the access paths indexing through a bound-bank pointer. Entries are
  // validated by generation, so a flush still invalidates every bank with
  // one counter bump.
  void SetCpuCount(int n);
  // Binds the access paths to the given CPU's bank (clamped to bank 0 when
  // the space has fewer banks). Const: only mutable TLB state moves.
  void BindCpu(int cpu) const {
    size_t b = static_cast<size_t>(cpu);
    tlb_ = tlb_banks_[b < tlb_banks_.size() ? b : 0].data();
  }
  // Free-running mode's exclusion test: stores to writable MAP_SHARED
  // mappings are cross-address-space visible, so such a space must not run
  // user code on a parallel worker.
  bool HasWritableSharedMapping() const;

  // Controlling-process (/proc) access. Protections are ignored; private
  // mappings are copied-on-write; transfers are truncated at the first
  // unmapped address; a transfer starting at an unmapped address fails EIO.
  Result<int64_t> PrRead(uint32_t addr, std::span<uint8_t> buf);
  Result<int64_t> PrWrite(uint32_t addr, std::span<const uint8_t> buf);

  // as_fault: make [addr, addr+len) resident and (optionally) writable-in-
  // place for this address space, with COW. Used by /proc I/O internally.
  Result<void> AsFault(uint32_t addr, uint32_t len, bool for_write);

  // Copy-on-write duplicate for fork(2).
  AddressSpacePtr Clone() const;

  // Watchpoints.
  Result<void> AddWatch(const Watch& w);
  Result<void> ClearWatch(uint32_t vaddr);  // removes watchpoints starting at vaddr
  const std::vector<Watch>& Watches() const { return watches_; }
  // The watchpoint (if any) that an access [addr,addr+len) with the given
  // kind would trigger.
  const Watch* WatchHit(uint32_t addr, uint32_t len, Access kind) const;

  std::vector<MappingInfo> Maps() const;
  // Bytes in all mappings and materialized frames. O(1): every mutator
  // keeps the counts current, so a ps row walks no mappings or frames.
  uint32_t VirtualSize() const { return pages_.virtual_pages * kPageSize; }
  uint32_t ResidentPages() const { return pages_.resident_pages; }
  // The walk those counts must equal. Unmap and SetBreak, the mutators that
  // drop frames, reset the counts from it; Kernel::CheckInvariants reports
  // any address space whose counts differ from it.
  struct PageCounts {
    uint32_t virtual_pages = 0;
    uint32_t resident_pages = 0;
  };
  PageCounts CountPages() const;
  bool Mapped(uint32_t addr) const;

  // Object backing the given address (for PIOCOPENM); null if unmapped or
  // anonymous.
  std::shared_ptr<VmObject> ObjectAt(uint32_t addr) const;

  // Samples referenced/modified bits for all mappings; clears them when
  // `clear` is set (performance monitors sample "on intervals at will").
  std::vector<PageDataSeg> SamplePageData(bool clear);

 private:
  // Fixed-size copies compile to single load/store pairs on the sizes the
  // CPU paths actually use; shared by the inline TLB fast paths above.
  static void CopySmallN(void* dst, const void* src, uint32_t n) {
    switch (n) {
      case 1:
        std::memcpy(dst, src, 1);
        break;
      case 2:
        std::memcpy(dst, src, 2);
        break;
      case 4:
        std::memcpy(dst, src, 4);
        break;
      case 8:
        std::memcpy(dst, src, 8);
        break;
      default:
        std::memcpy(dst, src, n);
        break;
    }
  }

  struct Frame {
    PagePtr page;
    bool owned = false;  // private copy already made (writes go in place)
    uint8_t pg = 0;      // PG_REFERENCED / PG_MODIFIED
  };

  struct Mapping {
    uint32_t start = 0;
    uint32_t npages = 0;
    uint32_t flags = 0;
    std::shared_ptr<VmObject> obj;
    uint64_t obj_pgoff = 0;
    std::string name;
    bool grows_down = false;
    std::vector<Frame> frames;

    uint32_t end() const { return start + npages * kPageSize; }
  };

  // One direct-mapped translation-cache slot. A slot is valid only while its
  // gen matches tlb_gen_, so invalidation is a single counter bump. The raw
  // page/frame pointers are safe because every operation that can move or
  // replace them (Map/Unmap/Protect/SetBreak/stack growth/COW/Clone) bumps
  // the generation first.
  struct TlbEntry {
    uint32_t vpn = 0;        // virtual page number this slot translates
    uint32_t gen = 0;        // valid iff gen == tlb_gen_
    uint32_t flags = 0;      // mapping MA_READ/MA_WRITE/MA_EXEC bits
    bool write_ok = false;   // page may be stored to in place (COW resolved)
    VmPage* page = nullptr;
    Frame* frame = nullptr;  // for referenced/modified accounting
  };

  // Invalidate every TLB entry (generation bump). Const because Clone()
  // must invalidate the source TLB; only mutable state is touched. Out of
  // line so the flush can be traced without this header seeing KTrace.
  void TlbFlush() const;
  // Charges shootdown IPIs for a code-generation-only invalidation (a store
  // into executable memory with no accompanying TLB flush). Out of line so
  // the inline store path does not need the SmpState definition.
  void CodeShootdown() const;
  bool TlbActive() const { return tlb_enabled_ && !watch_active_; }
  // Install/refresh the slot for the page just resolved by the slow path.
  void TlbFill(const Mapping& m, uint32_t page_index, Frame& f);

  Mapping* FindMapping(uint32_t addr);
  const Mapping* FindMapping(uint32_t addr) const;
  // Grows the stack if addr falls within the growth window of a grows_down
  // mapping; returns the now-covering mapping or nullptr.
  Mapping* GrowStackFor(uint32_t addr);
  // Materializes the frame for the given page of a mapping; applies COW when
  // for_write on a private mapping.
  Result<VmPage*> EnsureFrame(Mapping& m, uint32_t page_index, bool for_write);

  std::optional<MemFault> AccessCommon(uint32_t addr, void* rbuf, const void* wbuf,
                                       uint32_t len, Access kind);

  // Mappings keyed by start address.
  std::map<uint32_t, Mapping> maps_;
  std::vector<Watch> watches_;
  bool watch_active_ = false;

  // Software TLB state, one bank per CPU (always at least bank 0), with the
  // access paths indexing through the bound-bank pointer. Mutable because
  // Clone() (const) must invalidate the source's write-in-place entries when
  // frames become COW-shared. BindCpu rebinds the pointer; SetCpuCount may
  // reallocate the banks and rebinds to bank 0.
  mutable std::vector<std::array<TlbEntry, kTlbEntries>> tlb_banks_ =
      std::vector<std::array<TlbEntry, kTlbEntries>>(1);
  mutable TlbEntry* tlb_ = tlb_banks_[0].data();
  mutable uint32_t tlb_gen_ = 1;
  // Block-validity generation (see CodeGen()). Mutable for the same reason
  // as the TLB state: Clone() is const but must invalidate the source.
  mutable uint32_t code_gen_ = 1;
  // Predecoded-block cache, created on first use by the block engine; never
  // copied on Clone().
  std::unique_ptr<BlockCache> bcache_;
  bool tlb_enabled_ = true;
  mutable VmCounters counters_;
  FaultInjector* finj_ = nullptr;
  KTrace* kt_ = nullptr;
  int32_t kt_pid_ = 0;
  SmpState* smp_ = nullptr;
  // The counts behind VirtualSize()/ResidentPages(). Kept after the TLB
  // state: the inline TLB paths read tlb_..counters_ on every simulated
  // load and store, and a field placed before them shifts those members
  // across a cache line.
  PageCounts pages_;
};

inline constexpr uint32_t kMaxStackGrowPages = 256;

}  // namespace svr4

#endif  // SVR4PROC_VM_VM_H_
