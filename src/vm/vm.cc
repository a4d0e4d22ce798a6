#include "svr4proc/vm/vm.h"

#include <algorithm>
#include <cstring>

#include "svr4proc/isa/blocks.h"
#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/ktrace.h"
#include "svr4proc/kernel/smp.h"

namespace svr4 {

// Out of line so the header can hold BlockCache by unique_ptr without
// seeing its definition.
AddressSpace::AddressSpace() = default;
AddressSpace::~AddressSpace() = default;

BlockCache& AddressSpace::blocks() {
  if (!bcache_) {
    bcache_ = std::make_unique<BlockCache>();
  }
  return *bcache_;
}

uint32_t AddressSpace::FlagsAt(uint32_t addr) const {
  const Mapping* m = FindMapping(addr);
  return m != nullptr ? m->flags : 0;
}

void AddressSpace::TlbFlush() const {
  ++tlb_gen_;
  ++code_gen_;  // anything that can move frames or change mappings also
                // invalidates predecoded blocks
  ++counters_.tlb_flushes;
  if (kt_ != nullptr) {
    kt_->Emit(KtEvent::kTlbFlush, kt_pid_, 0, tlb_gen_, 0);
  }
  if (smp_ != nullptr) {
    // The generation bump already invalidated every CPU's bank; the IPIs
    // model (and make observable) the interrupts a real kernel would need.
    smp_->Shootdown(this, kt_pid_);
  }
}

void AddressSpace::CodeShootdown() const {
  if (smp_ != nullptr) {
    smp_->Shootdown(this, kt_pid_);
  }
}

void AddressSpace::SetCpuCount(int n) {
  if (n < 1) {
    n = 1;
  }
  if (static_cast<size_t>(n) != tlb_banks_.size()) {
    tlb_banks_.assign(static_cast<size_t>(n),
                      std::array<TlbEntry, kTlbEntries>{});
  }
  tlb_ = tlb_banks_[0].data();  // the vector may have reallocated
}

bool AddressSpace::HasWritableSharedMapping() const {
  for (const auto& [start, m] : maps_) {
    if ((m.flags & MA_SHARED) != 0 && (m.flags & MA_WRITE) != 0) {
      return true;
    }
  }
  return false;
}

Result<PagePtr> AnonObject::GetPage(uint64_t page_index) {
  // Serialized: free-running SMP workers can materialize pages of a shared
  // object concurrently from different address spaces.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    it = pages_.emplace(page_index, std::make_shared<VmPage>()).first;
  }
  return it->second;
}

AddressSpace::Mapping* AddressSpace::FindMapping(uint32_t addr) {
  auto it = maps_.upper_bound(addr);
  if (it == maps_.begin()) {
    return nullptr;
  }
  --it;
  Mapping& m = it->second;
  if (addr >= m.start && addr < m.end()) {
    return &m;
  }
  return nullptr;
}

const AddressSpace::Mapping* AddressSpace::FindMapping(uint32_t addr) const {
  return const_cast<AddressSpace*>(this)->FindMapping(addr);
}

AddressSpace::Mapping* AddressSpace::GrowStackFor(uint32_t addr) {
  if (finj_ && finj_->Fire(FaultSite::kVmGrow)) {
    return nullptr;  // injected growth refusal: the access faults
  }
  // Find the nearest grows-down mapping above addr and extend it if the
  // fault is within the automatic growth window and the space is free.
  for (auto& [start, m] : maps_) {
    if (!m.grows_down || addr >= m.start) {
      continue;
    }
    uint32_t gap_pages = (m.start - PageAlignDown(addr)) / kPageSize;
    if (gap_pages == 0 || gap_pages > kMaxStackGrowPages) {
      continue;
    }
    uint32_t new_start = PageAlignDown(addr);
    // The grown region must not collide with another mapping.
    bool collides = false;
    for (auto& [s2, m2] : maps_) {
      if (&m2 == &m) {
        continue;
      }
      if (m2.start < m.start && m2.end() > new_start) {
        collides = true;
        break;
      }
    }
    if (collides) {
      return nullptr;
    }
    Mapping grown = std::move(m);
    maps_.erase(grown.start);
    grown.frames.insert(grown.frames.begin(), gap_pages, Frame{});
    grown.npages += gap_pages;
    grown.start = new_start;
    pages_.virtual_pages += gap_pages;
    // obj_pgoff stays 0 for anon stacks; adjust for object-backed ones.
    auto [it, ok] = maps_.emplace(new_start, std::move(grown));
    (void)ok;
    TlbFlush();  // the frames vector was reallocated and reindexed
    return &it->second;
  }
  return nullptr;
}

Result<void> AddressSpace::Map(uint32_t start, uint32_t len, uint32_t ma_flags,
                               std::shared_ptr<VmObject> obj, uint64_t obj_offset,
                               std::string name, bool grows_down) {
  if (len == 0 || start % kPageSize != 0 || obj_offset % kPageSize != 0) {
    return Errno::kEINVAL;
  }
  if (finj_ && finj_->Fire(FaultSite::kVmMap)) {
    return Errno::kENOMEM;
  }
  uint32_t end = start + PageAlignUp(len);
  if (end <= start) {
    return Errno::kENOMEM;  // wraps
  }
  if (!obj) {
    return Errno::kEINVAL;
  }
  SVR4_RETURN_IF_ERROR(Unmap(start, end - start));

  Mapping m;
  m.start = start;
  m.npages = (end - start) / kPageSize;
  m.flags = ma_flags;
  if (obj->IsAnon()) {
    m.flags |= MA_ANON;
  }
  m.obj = std::move(obj);
  m.obj_pgoff = obj_offset / kPageSize;
  m.name = std::move(name);
  m.grows_down = grows_down;
  m.frames.resize(m.npages);
  pages_.virtual_pages += m.npages;  // the Unmap above took out any overlap
  maps_.emplace(start, std::move(m));
  TlbFlush();
  return Result<void>::Ok();
}

Result<void> AddressSpace::Unmap(uint32_t start, uint32_t len) {
  if (start % kPageSize != 0 || len == 0) {
    return Errno::kEINVAL;
  }
  uint32_t end = start + PageAlignUp(len);
  // Collect overlapping mappings; split partial overlaps.
  bool changed = false;
  std::vector<Mapping> to_insert;
  for (auto it = maps_.begin(); it != maps_.end();) {
    Mapping& m = it->second;
    if (m.end() <= start || m.start >= end) {
      ++it;
      continue;
    }
    // Left remainder.
    if (m.start < start) {
      Mapping left = m;
      left.npages = (start - m.start) / kPageSize;
      left.frames.resize(left.npages);
      left.grows_down = false;  // the low end is being cut; no longer a stack base
      to_insert.push_back(std::move(left));
    }
    // Right remainder.
    if (m.end() > end) {
      Mapping right = m;
      uint32_t skip = (end - m.start) / kPageSize;
      right.start = end;
      right.npages = m.npages - skip;
      right.obj_pgoff = m.obj_pgoff + skip;
      right.frames.assign(m.frames.begin() + skip, m.frames.end());
      to_insert.push_back(std::move(right));
    }
    it = maps_.erase(it);
    changed = true;
  }
  for (auto& m : to_insert) {
    uint32_t s = m.start;
    maps_.emplace(s, std::move(m));
  }
  if (changed) {
    pages_ = CountPages();  // frames were dropped: recount
    TlbFlush();
  }
  return Result<void>::Ok();
}

Result<void> AddressSpace::Protect(uint32_t start, uint32_t len, uint32_t prot) {
  if (start % kPageSize != 0 || len == 0) {
    return Errno::kEINVAL;
  }
  uint32_t end = start + PageAlignUp(len);
  prot &= (MA_READ | MA_WRITE | MA_EXEC);
  // All pages must be mapped (mprotect semantics).
  for (uint32_t a = start; a < end; a += kPageSize) {
    if (!FindMapping(a)) {
      return Errno::kENOMEM;
    }
  }
  // Split mappings at the boundaries, then adjust protection flags.
  std::vector<std::pair<uint32_t, uint32_t>> cuts = {{start, end}};
  for (auto& [s, e] : cuts) {
    for (auto it = maps_.begin(); it != maps_.end();) {
      Mapping& m = it->second;
      if (m.end() <= s || m.start >= e) {
        ++it;
        continue;
      }
      if (m.start >= s && m.end() <= e) {
        m.flags = (m.flags & ~(MA_READ | MA_WRITE | MA_EXEC)) | prot;
        ++it;
        continue;
      }
      // Partial overlap: split into covered and uncovered pieces.
      Mapping whole = std::move(m);
      it = maps_.erase(it);
      uint32_t lo = std::max(whole.start, s);
      uint32_t hi = std::min(whole.end(), e);
      auto make_piece = [&whole](uint32_t ps, uint32_t pe) {
        Mapping piece = whole;
        uint32_t skip = (ps - whole.start) / kPageSize;
        piece.start = ps;
        piece.npages = (pe - ps) / kPageSize;
        piece.obj_pgoff = whole.obj_pgoff + skip;
        piece.frames.assign(whole.frames.begin() + skip,
                            whole.frames.begin() + skip + piece.npages);
        piece.grows_down = whole.grows_down && ps == whole.start;
        return piece;
      };
      if (whole.start < lo) {
        Mapping p = make_piece(whole.start, lo);
        maps_.emplace(p.start, std::move(p));
      }
      {
        Mapping p = make_piece(lo, hi);
        p.flags = (p.flags & ~(MA_READ | MA_WRITE | MA_EXEC)) | prot;
        maps_.emplace(p.start, std::move(p));
      }
      if (whole.end() > hi) {
        Mapping p = make_piece(hi, whole.end());
        maps_.emplace(p.start, std::move(p));
      }
      it = maps_.begin();  // restart; the map changed shape
    }
  }
  TlbFlush();
  return Result<void>::Ok();
}

Result<void> AddressSpace::SetBreak(uint32_t new_end) {
  for (auto& [start, m] : maps_) {
    if (!(m.flags & MA_BREAK)) {
      continue;
    }
    if (new_end < m.start) {
      return Errno::kEINVAL;
    }
    uint32_t want_pages = (PageAlignUp(new_end) - m.start) / kPageSize;
    if (want_pages == 0) {
      want_pages = 0;
    }
    if (want_pages > m.npages) {
      if (finj_ && finj_->Fire(FaultSite::kVmGrow)) {
        return Errno::kENOMEM;
      }
      // Refuse growth into a following mapping.
      auto next = maps_.upper_bound(m.start);
      if (next != maps_.end() && m.start + want_pages * kPageSize > next->second.start) {
        return Errno::kENOMEM;
      }
    }
    m.frames.resize(want_pages);
    m.npages = want_pages;
    pages_ = CountPages();  // a shrink drops frames: recount
    TlbFlush();  // resize may have reallocated the frames vector
    return Result<void>::Ok();
  }
  return Errno::kENOMEM;  // no break mapping
}

Result<uint32_t> AddressSpace::BreakEnd() const {
  for (const auto& [start, m] : maps_) {
    if (m.flags & MA_BREAK) {
      return m.end();
    }
  }
  return Errno::kENOMEM;
}

Result<VmPage*> AddressSpace::EnsureFrame(Mapping& m, uint32_t page_index, bool for_write) {
  Frame& f = m.frames[page_index];
  const bool shared = (m.flags & MA_SHARED) != 0;
  if (!f.page) {
    if (shared) {
      auto pg = m.obj->GetPage(m.obj_pgoff + page_index);
      if (!pg.ok()) {
        return pg.error();
      }
      f.page = *pg;
      f.owned = false;
      // Anonymous shared memory zero-fills; file-backed pages pay I/O.
      if (m.obj->IsAnon()) {
        ++counters_.minor_faults;
      } else {
        ++counters_.major_faults;
      }
    } else if (m.obj->IsAnon()) {
      // Private anonymous memory: private zero page, no object involvement.
      f.page = std::make_shared<VmPage>();
      f.owned = true;
      ++counters_.minor_faults;
    } else {
      auto pg = m.obj->GetPage(m.obj_pgoff + page_index);
      if (!pg.ok()) {
        return pg.error();
      }
      f.page = *pg;
      f.owned = false;  // still the object's page; copy on write
      ++counters_.major_faults;
    }
    ++pages_.resident_pages;  // counted only once the page is in place
  }
  if (for_write && !shared) {
    // Copy-on-write: the frame may be the object's page or shared with a
    // forked relative.
    if (!f.owned || f.page.use_count() > 1) {
      auto copy = std::make_shared<VmPage>(*f.page);
      f.page = std::move(copy);
      f.owned = true;
      ++counters_.minor_faults;  // resolved from an in-memory page
      if (kt_ != nullptr) {
        kt_->Emit(KtEvent::kCowBreak, kt_pid_, 0, m.start + page_index * kPageSize, 0);
      }
      TlbFlush();  // cached translations may point at the replaced page
    }
  }
  return f.page.get();
}

const Watch* AddressSpace::WatchHit(uint32_t addr, uint32_t len, Access kind) const {
  int want = kind == Access::kRead ? WA_READ : kind == Access::kWrite ? WA_WRITE : WA_EXEC;
  for (const auto& w : watches_) {
    if ((w.wflags & want) == 0) {
      continue;
    }
    uint64_t a_end = static_cast<uint64_t>(addr) + len;
    uint64_t w_end = static_cast<uint64_t>(w.vaddr) + w.size;
    if (addr < w_end && w.vaddr < a_end) {
      return &w;
    }
  }
  return nullptr;
}

std::optional<MemFault> AddressSpace::AccessCommon(uint32_t addr, void* rbuf, const void* wbuf,
                                                   uint32_t len, Access kind) {
  // Watchpoints fire with byte granularity; the "details of recovering from
  // machine faults taken due to references to unwatched data that happens to
  // fall in the same page as watched data" are below this simulation's level
  // of abstraction — unwatched accesses simply proceed.
  if (watch_active_) {
    if (const Watch* w = WatchHit(addr, len, kind)) {
      return MemFault{FLTWATCH, std::max(addr, w->vaddr)};
    }
  }

  uint32_t need = kind == Access::kWrite ? MA_WRITE : kind == Access::kExec ? MA_EXEC : MA_READ;
  uint32_t done = 0;
  while (done < len) {
    uint32_t a = addr + done;
    Mapping* m = FindMapping(a);
    if (!m) {
      m = GrowStackFor(a);
      if (!m) {
        return MemFault{FLTBOUNDS, a};
      }
    }
    ++counters_.slow_lookups;
    if ((m->flags & need) == 0) {
      return MemFault{FLTACCESS, a};
    }
    if (kind == Access::kWrite && (m->flags & MA_EXEC) != 0) {
      ++code_gen_;  // self-modifying code: drop predecoded blocks
      CodeShootdown();
    }
    // Copy page-at-a-time within this mapping without re-resolving it.
    uint32_t m_end = m->end();
    while (done < len) {
      a = addr + done;
      if (a >= m_end || a < m->start) {
        break;  // left the mapping (or wrapped); resolve again
      }
      uint32_t page_index = (a - m->start) / kPageSize;
      auto page = EnsureFrame(*m, page_index, kind == Access::kWrite);
      if (!page.ok()) {
        return MemFault{FLTBOUNDS, a};
      }
      uint32_t in_page = a & (kPageSize - 1);
      uint32_t chunk = std::min(len - done, kPageSize - in_page);
      Frame& f = m->frames[page_index];
      if (kind == Access::kWrite) {
        std::memcpy((*page)->bytes.data() + in_page, static_cast<const uint8_t*>(wbuf) + done,
                    chunk);
        f.pg |= PG_REFERENCED | PG_MODIFIED;
      } else {
        std::memcpy(static_cast<uint8_t*>(rbuf) + done, (*page)->bytes.data() + in_page, chunk);
        f.pg |= PG_REFERENCED;
      }
      TlbFill(*m, page_index, f);
      done += chunk;
    }
  }
  return std::nullopt;
}

namespace {

// memcpy with a size-specialised dispatch: the TLB hit paths see 1/2/4/8-byte
// accesses almost exclusively, and fixed-size copies compile to single
// load/store pairs where a variable-length memcpy pays its dispatch cost on
// every instruction.
inline void CopySmall(void* dst, const void* src, uint32_t n) {
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

}  // namespace

void AddressSpace::TlbFill(const Mapping& m, uint32_t page_index, Frame& f) {
  if (!TlbActive()) {
    return;
  }
  uint32_t vpn = (m.start >> kPageShift) + page_index;
  TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
  e.vpn = vpn;
  e.gen = tlb_gen_;
  e.flags = m.flags & (MA_READ | MA_WRITE | MA_EXEC);
  // A store may go in place only when no COW copy would be needed: the
  // mapping is bona-fide shared memory, or this frame already holds a
  // private copy nobody else references.
  e.write_ok = (m.flags & MA_WRITE) != 0 &&
               ((m.flags & MA_SHARED) != 0 || (f.owned && f.page.use_count() == 1));
  e.page = f.page.get();
  e.frame = &f;
}

std::optional<MemFault> AddressSpace::MemRead(uint32_t addr, void* buf, uint32_t len,
                                              Access kind) {
  // TLB fast path: single-page access whose translation is cached with the
  // required permission.
  if (TlbActive() && len != 0 && ((addr & (kPageSize - 1)) + len) <= kPageSize) {
    uint32_t vpn = addr >> kPageShift;
    TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
    uint32_t need = kind == Access::kExec ? MA_EXEC : MA_READ;
    if (e.gen == tlb_gen_ && e.vpn == vpn && (e.flags & need) != 0) {
      ++counters_.tlb_hits;
      CopySmall(buf, e.page->bytes.data() + (addr & (kPageSize - 1)), len);
      e.frame->pg |= PG_REFERENCED;
      return std::nullopt;
    }
    ++counters_.tlb_misses;
  }
  return AccessCommon(addr, buf, nullptr, len, kind);
}

std::optional<MemFault> AddressSpace::MemWrite(uint32_t addr, const void* buf, uint32_t len) {
  if (TlbActive() && len != 0 && ((addr & (kPageSize - 1)) + len) <= kPageSize) {
    uint32_t vpn = addr >> kPageShift;
    TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
    if (e.gen == tlb_gen_ && e.vpn == vpn && e.write_ok) {
      ++counters_.tlb_hits;
      if (e.flags & MA_EXEC) {
        ++code_gen_;  // store into executable memory: drop predecoded blocks
        CodeShootdown();
      }
      CopySmall(e.page->bytes.data() + (addr & (kPageSize - 1)), buf, len);
      e.frame->pg |= PG_REFERENCED | PG_MODIFIED;
      return std::nullopt;
    }
    ++counters_.tlb_misses;
  }
  return AccessCommon(addr, nullptr, buf, len, Access::kWrite);
}

uint32_t AddressSpace::FetchWindow(uint32_t addr, void* buf, uint32_t len) {
  // Watch-active address spaces must take the byte-exact path so an
  // over-read never trips an exec watchpoint on bytes past the instruction.
  if (!TlbActive() || len == 0) {
    return 0;
  }
  uint32_t in_page = addr & (kPageSize - 1);
  uint32_t avail = std::min(len, kPageSize - in_page);
  uint32_t vpn = addr >> kPageShift;
  TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
  if (e.gen != tlb_gen_ || e.vpn != vpn || (e.flags & MA_EXEC) == 0) {
    ++counters_.tlb_misses;
    // Prime the entry with one slow-path byte fetch; on fault let the caller
    // take the exact path so the fault address comes out right.
    uint8_t probe = 0;
    if (AccessCommon(addr, &probe, nullptr, 1, Access::kExec)) {
      return 0;
    }
    if (e.gen != tlb_gen_ || e.vpn != vpn || (e.flags & MA_EXEC) == 0) {
      return 0;  // not cacheable right now (e.g. TLB disabled mid-call)
    }
  } else {
    ++counters_.tlb_hits;
  }
  const uint8_t* src = e.page->bytes.data() + in_page;
  if (avail == 16) {
    // The interpreter's full window: one fixed-size copy (two 8-byte moves)
    // instead of a variable-length memcpy on every instruction.
    std::memcpy(buf, src, 16);
  } else {
    std::memcpy(buf, src, avail);
  }
  e.frame->pg |= PG_REFERENCED;
  return avail;
}

void AddressSpace::SetTlbEnabled(bool on) {
  if (tlb_enabled_ == on) {
    return;
  }
  tlb_enabled_ = on;
  TlbFlush();
}

Result<void> AddressSpace::AsFault(uint32_t addr, uint32_t len, bool for_write) {
  uint32_t end_addr = addr + len;
  for (uint32_t a = PageAlignDown(addr); a < end_addr; a += kPageSize) {
    Mapping* m = FindMapping(a);
    if (!m) {
      return Errno::kEFAULT;
    }
    uint32_t page_index = (a - m->start) / kPageSize;
    bool want_write = for_write && !(m->flags & MA_SHARED);
    auto page = EnsureFrame(*m, page_index, want_write);
    if (!page.ok()) {
      return page.error();
    }
  }
  return Result<void>::Ok();
}

Result<int64_t> AddressSpace::PrRead(uint32_t addr, std::span<uint8_t> buf) {
  if (buf.empty()) {
    return int64_t{0};
  }
  uint64_t done = 0;
  while (done < buf.size()) {
    uint32_t a = addr + static_cast<uint32_t>(done);
    Mapping* m = FindMapping(a);
    if (!m) {
      if (done == 0) {
        return Errno::kEIO;  // offset in an unmapped area
      }
      break;  // truncate at the boundary
    }
    ++counters_.slow_lookups;
    // Copy page-at-a-time to the end of this mapping without re-resolving.
    while (done < buf.size()) {
      a = addr + static_cast<uint32_t>(done);
      if (a >= m->end() || a < m->start) {
        break;
      }
      uint32_t page_index = (a - m->start) / kPageSize;
      auto page = EnsureFrame(*m, page_index, /*for_write=*/false);
      if (!page.ok()) {
        return static_cast<int64_t>(done);
      }
      uint32_t in_page = a & (kPageSize - 1);
      uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(buf.size() - done, kPageSize - in_page));
      std::memcpy(buf.data() + done, (*page)->bytes.data() + in_page, chunk);
      m->frames[page_index].pg |= PG_REFERENCED;
      done += chunk;
    }
  }
  return static_cast<int64_t>(done);
}

Result<int64_t> AddressSpace::PrWrite(uint32_t addr, std::span<const uint8_t> buf) {
  if (buf.empty()) {
    return int64_t{0};
  }
  uint64_t done = 0;
  while (done < buf.size()) {
    uint32_t a = addr + static_cast<uint32_t>(done);
    Mapping* m = FindMapping(a);
    if (!m) {
      if (done == 0) {
        return Errno::kEIO;
      }
      break;  // writes are truncated at the boundary too
    }
    ++counters_.slow_lookups;
    if (m->flags & MA_EXEC) {
      // A controller writing text (planting a breakpoint, patching code)
      // must invalidate predecoded blocks even when the COW copy was
      // already private and no TLB flush happens. If the target is
      // mid-quantum on another CPU, the shootdown IPI is what (observably)
      // forces it off the stale code.
      ++code_gen_;
      CodeShootdown();
    }
    while (done < buf.size()) {
      a = addr + static_cast<uint32_t>(done);
      if (a >= m->end() || a < m->start) {
        break;
      }
      uint32_t page_index = (a - m->start) / kPageSize;
      // Copy-on-write for private mappings — planting a breakpoint in shared
      // text never corrupts other processes or the executable file. Writes to
      // bona-fide shared memory go through to the object.
      auto page = EnsureFrame(*m, page_index, /*for_write=*/true);
      if (!page.ok()) {
        return static_cast<int64_t>(done);
      }
      uint32_t in_page = a & (kPageSize - 1);
      uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(buf.size() - done, kPageSize - in_page));
      std::memcpy((*page)->bytes.data() + in_page, buf.data() + done, chunk);
      m->frames[page_index].pg |= PG_REFERENCED | PG_MODIFIED;
      done += chunk;
    }
  }
  return static_cast<int64_t>(done);
}

AddressSpacePtr AddressSpace::Clone() const {
  auto child = std::make_shared<AddressSpace>();
  child->maps_ = maps_;  // shares PagePtr frames: COW via use_count
  child->watches_ = watches_;
  child->watch_active_ = watch_active_;
  child->tlb_enabled_ = tlb_enabled_;
  child->finj_ = finj_;
  child->smp_ = smp_;
  child->pages_ = pages_;
  if (tlb_banks_.size() > 1) {
    child->SetCpuCount(static_cast<int>(tlb_banks_.size()));
  }
  // Our frames just became COW-shared with the child: cached write-in-place
  // entries are no longer valid.
  TlbFlush();
  return child;
}

Result<void> AddressSpace::AddWatch(const Watch& w) {
  if (w.size == 0 || (w.wflags & (WA_READ | WA_WRITE | WA_EXEC)) == 0) {
    return Errno::kEINVAL;
  }
  if (!Mapped(w.vaddr)) {
    return Errno::kEFAULT;
  }
  watches_.push_back(w);
  watch_active_ = true;
  TlbFlush();
  return Result<void>::Ok();
}

Result<void> AddressSpace::ClearWatch(uint32_t vaddr) {
  auto before = watches_.size();
  watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                [vaddr](const Watch& w) { return w.vaddr == vaddr; }),
                 watches_.end());
  watch_active_ = !watches_.empty();
  TlbFlush();
  return before != watches_.size() ? Result<void>::Ok() : Result<void>(Errno::kESRCH);
}

std::vector<MappingInfo> AddressSpace::Maps() const {
  std::vector<MappingInfo> out;
  out.reserve(maps_.size());
  for (const auto& [start, m] : maps_) {
    MappingInfo info;
    info.vaddr = m.start;
    info.size = m.npages * kPageSize;
    info.offset = m.obj_pgoff * kPageSize;
    info.flags = m.flags;
    info.name = m.name;
    out.push_back(std::move(info));
  }
  return out;
}

AddressSpace::PageCounts AddressSpace::CountPages() const {
  PageCounts c;
  for (const auto& [start, m] : maps_) {
    c.virtual_pages += m.npages;
    for (const auto& f : m.frames) {
      if (f.page) {
        ++c.resident_pages;
      }
    }
  }
  return c;
}

bool AddressSpace::Mapped(uint32_t addr) const { return FindMapping(addr) != nullptr; }

std::shared_ptr<VmObject> AddressSpace::ObjectAt(uint32_t addr) const {
  const Mapping* m = FindMapping(addr);
  if (!m || m->obj->IsAnon()) {
    return nullptr;
  }
  return m->obj;
}

std::vector<PageDataSeg> AddressSpace::SamplePageData(bool clear) {
  std::vector<PageDataSeg> out;
  for (auto& [start, m] : maps_) {
    PageDataSeg seg;
    seg.vaddr = m.start;
    seg.pg.reserve(m.npages);
    for (auto& f : m.frames) {
      seg.pg.push_back(f.pg);
      if (clear) {
        f.pg = 0;
      }
    }
    out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace svr4
