// Unit tests for the VM substrate: mappings, copy-on-write, protections,
// stack/break growth, watchpoints, and page data.
#include <gtest/gtest.h>

#include <cstring>

#include "svr4proc/vm/vm.h"

namespace svr4 {
namespace {

std::shared_ptr<AnonObject> Anon() { return std::make_shared<AnonObject>(); }

// A VmObject with recognizable page contents (byte = page index).
class PatternObject : public VmObject {
 public:
  Result<PagePtr> GetPage(uint64_t page_index) override {
    auto it = cache_.find(page_index);
    if (it != cache_.end()) {
      return it->second;
    }
    auto page = std::make_shared<VmPage>();
    std::memset(page->bytes.data(), static_cast<int>(page_index & 0xFF), kPageSize);
    cache_[page_index] = page;
    return page;
  }
  std::map<uint64_t, PagePtr> cache_;
};

TEST(VmMapping, BasicMapAndAccess) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 2 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "seg").ok());
  uint32_t v = 0xABCD;
  EXPECT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  uint32_t r = 0;
  EXPECT_FALSE(as.MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 0xABCDu);
}

TEST(VmMapping, UnmappedAccessIsBoundsFault) {
  AddressSpace as;
  uint32_t v;
  auto f = as.MemRead(0x5000, &v, 4, Access::kRead);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTBOUNDS);
  EXPECT_EQ(f->addr, 0x5000u);
}

TEST(VmMapping, ProtectionViolationIsAccessFault) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ, Anon(), 0, "ro").ok());
  uint32_t v = 1;
  auto f = as.MemWrite(0x10000, &v, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTACCESS);
  // Exec on a non-exec page.
  f = as.MemRead(0x10000, &v, 1, Access::kExec);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTACCESS);
}

TEST(VmMapping, AccessCrossingPagesWorks) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 2 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "seg").ok());
  std::vector<uint8_t> data(100, 0x5A);
  EXPECT_FALSE(as.MemWrite(0x10000 + kPageSize - 50, data.data(),
                           static_cast<uint32_t>(data.size()))
                   .has_value());
  std::vector<uint8_t> back(100);
  EXPECT_FALSE(as.MemRead(0x10000 + kPageSize - 50, back.data(), 100, Access::kRead)
                   .has_value());
  EXPECT_EQ(back, data);
}

TEST(VmMapping, AccessCrossingIntoUnmappedFaultsAtBoundary) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "seg").ok());
  std::vector<uint8_t> data(64, 1);
  auto f = as.MemWrite(0x10000 + kPageSize - 8, data.data(), 64);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTBOUNDS);
  EXPECT_EQ(f->addr, 0x10000u + kPageSize);
}

TEST(VmMapping, MapReplacesOverlap) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 4 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "a").ok());
  uint32_t v = 7;
  ASSERT_FALSE(as.MemWrite(0x11000, &v, 4).has_value());
  // Re-map the middle two pages.
  ASSERT_TRUE(as.Map(0x11000, 2 * kPageSize, MA_READ, Anon(), 0, "b").ok());
  uint32_t r = 1;
  ASSERT_FALSE(as.MemRead(0x11000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 0u) << "fresh anon object, old contents gone";
  auto maps = as.Maps();
  EXPECT_EQ(maps.size(), 3u) << "left remainder, new piece, right remainder";
}

TEST(VmMapping, UnmapSplitsMappings) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 4 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "a").ok());
  uint32_t v = 42;
  ASSERT_FALSE(as.MemWrite(0x13000, &v, 4).has_value());
  ASSERT_TRUE(as.Unmap(0x11000, kPageSize).ok());
  EXPECT_TRUE(as.Mapped(0x10000));
  EXPECT_FALSE(as.Mapped(0x11000));
  EXPECT_TRUE(as.Mapped(0x12000));
  uint32_t r = 0;
  ASSERT_FALSE(as.MemRead(0x13000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 42u) << "data in the surviving piece is preserved";
}

TEST(VmProtect, ProtectSplitsAndApplies) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 4 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "a").ok());
  ASSERT_TRUE(as.Protect(0x11000, kPageSize, MA_READ).ok());
  uint32_t v = 1;
  EXPECT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  auto f = as.MemWrite(0x11000, &v, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTACCESS);
  EXPECT_FALSE(as.MemWrite(0x12000, &v, 4).has_value());
}

TEST(VmProtect, ProtectUnmappedIsError) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ, Anon(), 0, "a").ok());
  EXPECT_FALSE(as.Protect(0x10000, 2 * kPageSize, MA_READ).ok());
}

TEST(VmCow, PrivateMappingsShareUntilWrite) {
  auto obj = std::make_shared<PatternObject>();
  AddressSpace a;
  AddressSpace b;
  ASSERT_TRUE(a.Map(0x10000, kPageSize, MA_READ | MA_WRITE, obj, 0, "x").ok());
  ASSERT_TRUE(b.Map(0x20000, kPageSize, MA_READ | MA_WRITE, obj, 0, "x").ok());
  uint8_t ra = 0, rb = 0;
  ASSERT_FALSE(a.MemRead(0x10000, &ra, 1, Access::kRead).has_value());
  ASSERT_FALSE(b.MemRead(0x20000, &rb, 1, Access::kRead).has_value());
  EXPECT_EQ(ra, 0);
  EXPECT_EQ(rb, 0);
  // a writes: b and the object stay intact.
  uint8_t w = 0xEE;
  ASSERT_FALSE(a.MemWrite(0x10000, &w, 1).has_value());
  ASSERT_FALSE(b.MemRead(0x20000, &rb, 1, Access::kRead).has_value());
  EXPECT_EQ(rb, 0) << "b's view unaffected by a's private write";
  EXPECT_EQ(obj->cache_.at(0)->bytes[0], 0) << "the object is unaffected";
}

TEST(VmCow, SharedMappingsWriteThrough) {
  auto obj = std::make_shared<PatternObject>();
  AddressSpace a;
  AddressSpace b;
  ASSERT_TRUE(a.Map(0x10000, kPageSize, MA_READ | MA_WRITE | MA_SHARED, obj, 0, "x").ok());
  ASSERT_TRUE(b.Map(0x20000, kPageSize, MA_READ | MA_SHARED, obj, 0, "x").ok());
  uint8_t w = 0x77;
  ASSERT_FALSE(a.MemWrite(0x10000, &w, 1).has_value());
  uint8_t rb = 0;
  ASSERT_FALSE(b.MemRead(0x20000, &rb, 1, Access::kRead).has_value());
  EXPECT_EQ(rb, 0x77) << "modifications to a shared mapping are visible to all";
}

TEST(VmCow, CloneGivesCopyOnWriteSemantics) {
  AddressSpace parent;
  ASSERT_TRUE(parent.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  uint32_t v = 111;
  ASSERT_FALSE(parent.MemWrite(0x10000, &v, 4).has_value());
  auto child = parent.Clone();
  // Parent writes after the clone: the child sees the old value.
  v = 222;
  ASSERT_FALSE(parent.MemWrite(0x10000, &v, 4).has_value());
  uint32_t r = 0;
  ASSERT_FALSE(child->MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 111u);
  // Child writes independently.
  v = 333;
  ASSERT_FALSE(child->MemWrite(0x10000, &v, 4).has_value());
  ASSERT_FALSE(parent.MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 222u);
}

TEST(VmCow, ChainOfClones) {
  AddressSpace g0;
  ASSERT_TRUE(g0.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  uint32_t v = 1;
  ASSERT_FALSE(g0.MemWrite(0x10000, &v, 4).has_value());
  auto g1 = g0.Clone();
  auto g2 = g1->Clone();
  v = 2;
  ASSERT_FALSE(g1->MemWrite(0x10000, &v, 4).has_value());
  uint32_t r = 0;
  ASSERT_FALSE(g0.MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 1u);
  ASSERT_FALSE(g2->MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 1u);
}

TEST(VmPrIo, ForcedWriteIgnoresProtections) {
  auto obj = std::make_shared<PatternObject>();
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_EXEC, obj, 0, "text").ok());
  uint8_t bpt = 0x02;
  auto n = as.PrWrite(0x10000, std::span<const uint8_t>(&bpt, 1));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  // The object's page is untouched (COW), the mapping sees the new byte.
  EXPECT_EQ(obj->cache_.at(0)->bytes[0], 0);
  uint8_t r = 0;
  ASSERT_FALSE(as.MemRead(0x10000, &r, 1, Access::kExec).has_value());
  EXPECT_EQ(r, 0x02);
}

TEST(VmPrIo, StartInUnmappedAreaFails) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ, Anon(), 0, "x").ok());
  uint8_t b;
  auto n = as.PrRead(0x20000, std::span<uint8_t>(&b, 1));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error(), Errno::kEIO);
}

TEST(VmPrIo, TruncatesAtHoles) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "a").ok());
  ASSERT_TRUE(as.Map(0x12000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "b").ok());
  std::vector<uint8_t> buf(3 * kPageSize, 1);
  auto n = as.PrRead(0x10F00, std::span<uint8_t>(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0x100) << "read stops at the hole, not at the later mapping";
  auto w = as.PrWrite(0x10F00, std::span<const uint8_t>(buf.data(), buf.size()));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, 0x100);
}

TEST(VmStack, GrowsDownAutomatically) {
  AddressSpace as;
  uint32_t top = 0x80000;
  ASSERT_TRUE(as.Map(top - 4 * kPageSize, 4 * kPageSize, MA_READ | MA_WRITE | MA_STACK,
                     Anon(), 0, "stack", /*grows_down=*/true)
                  .ok());
  uint32_t below = top - 10 * kPageSize;
  uint32_t v = 9;
  EXPECT_FALSE(as.MemWrite(below, &v, 4).has_value()) << "stack grows to cover it";
  EXPECT_TRUE(as.Mapped(below));
  uint32_t r = 0;
  ASSERT_FALSE(as.MemRead(below, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 9u);
}

TEST(VmStack, GrowthHasALimit) {
  AddressSpace as;
  uint32_t top = 0x8000000;
  ASSERT_TRUE(as.Map(top - kPageSize, kPageSize, MA_READ | MA_WRITE | MA_STACK, Anon(),
                     0, "stack", true)
                  .ok());
  uint32_t far_below = top - (kMaxStackGrowPages + 8) * kPageSize;
  uint32_t v = 1;
  auto f = as.MemWrite(far_below, &v, 4);
  ASSERT_TRUE(f.has_value()) << "far beyond the growth window: fault";
  EXPECT_EQ(f->fault, FLTBOUNDS);
}

TEST(VmStack, GrowthStopsAtLowerMapping) {
  AddressSpace as;
  uint32_t top = 0x80000;
  ASSERT_TRUE(as.Map(top - kPageSize, kPageSize, MA_READ | MA_WRITE | MA_STACK, Anon(),
                     0, "stack", true)
                  .ok());
  // A mapping sits right below where the stack would grow.
  ASSERT_TRUE(as.Map(top - 5 * kPageSize, kPageSize, MA_READ, Anon(), 0, "obstacle").ok());
  uint32_t v = 1;
  auto f = as.MemWrite(top - 5 * kPageSize + 8, &v, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTACCESS) << "hits the obstacle, not stack growth";
}

TEST(VmBreak, GrowAndShrink) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x20000, kPageSize, MA_READ | MA_WRITE | MA_BREAK, Anon(), 0,
                     "break")
                  .ok());
  ASSERT_TRUE(as.SetBreak(0x28000).ok());
  EXPECT_EQ(*as.BreakEnd(), 0x28000u);
  uint32_t v = 5;
  EXPECT_FALSE(as.MemWrite(0x27000, &v, 4).has_value());
  ASSERT_TRUE(as.SetBreak(0x21000).ok());
  EXPECT_EQ(*as.BreakEnd(), 0x21000u);
  auto f = as.MemWrite(0x27000, &v, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTBOUNDS) << "shrunk break area is gone";
}

TEST(VmBreak, CannotGrowIntoNextMapping) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x20000, kPageSize, MA_READ | MA_WRITE | MA_BREAK, Anon(), 0,
                     "break")
                  .ok());
  ASSERT_TRUE(as.Map(0x23000, kPageSize, MA_READ, Anon(), 0, "next").ok());
  EXPECT_FALSE(as.SetBreak(0x30000).ok());
  EXPECT_TRUE(as.SetBreak(0x23000).ok()) << "growth up to the neighbour is fine";
}

TEST(VmWatch, PreciseByteRanges) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  ASSERT_TRUE(as.AddWatch(Watch{0x10010, 4, WA_WRITE}).ok());
  uint32_t v = 1;
  EXPECT_FALSE(as.MemWrite(0x10000, &v, 4).has_value()) << "before the range";
  EXPECT_FALSE(as.MemWrite(0x10014, &v, 4).has_value()) << "after the range";
  auto f = as.MemWrite(0x10012, &v, 2);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTWATCH);
  // Reads do not trigger a write watchpoint.
  EXPECT_FALSE(as.MemRead(0x10010, &v, 4, Access::kRead).has_value());
}

TEST(VmWatch, OverlappingAccessTriggers) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  ASSERT_TRUE(as.AddWatch(Watch{0x10010, 1, WA_WRITE}).ok());
  uint32_t v = 1;
  // A 4-byte store covering the watched byte fires.
  auto f = as.MemWrite(0x1000E, &v, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTWATCH);
}

TEST(VmWatch, ExecWatch) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE | MA_EXEC, Anon(), 0,
                     "t")
                  .ok());
  ASSERT_TRUE(as.AddWatch(Watch{0x10020, 1, WA_EXEC}).ok());
  uint8_t b;
  EXPECT_FALSE(as.MemRead(0x10020, &b, 1, Access::kRead).has_value())
      << "plain read does not fire an exec watch";
  auto f = as.MemRead(0x10020, &b, 1, Access::kExec);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTWATCH);
}

TEST(VmWatch, ClearRestoresFullSpeed) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  ASSERT_TRUE(as.AddWatch(Watch{0x10010, 4, WA_WRITE}).ok());
  ASSERT_TRUE(as.ClearWatch(0x10010).ok());
  uint32_t v = 1;
  EXPECT_FALSE(as.MemWrite(0x10010, &v, 4).has_value());
  EXPECT_FALSE(as.ClearWatch(0x10010).ok()) << "already gone";
}

TEST(VmWatch, InvalidWatchRejected) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  EXPECT_FALSE(as.AddWatch(Watch{0x10000, 0, WA_WRITE}).ok()) << "zero size";
  EXPECT_FALSE(as.AddWatch(Watch{0x10000, 4, 0}).ok()) << "no mode";
  EXPECT_FALSE(as.AddWatch(Watch{0x90000, 4, WA_READ}).ok()) << "unmapped";
}

TEST(VmPageData, ReferencedAndModifiedTracking) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 4 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  uint32_t v = 1;
  ASSERT_FALSE(as.MemWrite(0x11000, &v, 4).has_value());
  uint32_t r;
  ASSERT_FALSE(as.MemRead(0x12000, &r, 4, Access::kRead).has_value());
  auto segs = as.SamplePageData(/*clear=*/true);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].pg[0], 0);
  EXPECT_EQ(segs[0].pg[1], PG_REFERENCED | PG_MODIFIED);
  EXPECT_EQ(segs[0].pg[2], PG_REFERENCED);
  EXPECT_EQ(segs[0].pg[3], 0);
  // The clearing sample reset the bits.
  segs = as.SamplePageData(false);
  for (uint8_t pg : segs[0].pg) {
    EXPECT_EQ(pg, 0);
  }
}

// Fails every page read, as a file whose backing store has gone bad.
class FailingObject : public VmObject {
 public:
  Result<PagePtr> GetPage(uint64_t) override { return Errno::kEIO; }
};

// The O(1) page counts equal the given figures, and so does the walk.
void ExpectPages(const AddressSpace& as, uint32_t virtual_pages, uint32_t resident_pages,
                 const char* after) {
  EXPECT_EQ(as.VirtualSize(), virtual_pages * kPageSize) << after;
  EXPECT_EQ(as.ResidentPages(), resident_pages) << after;
  AddressSpace::PageCounts walk = as.CountPages();
  EXPECT_EQ(walk.virtual_pages, virtual_pages) << after << " (walk)";
  EXPECT_EQ(walk.resident_pages, resident_pages) << after << " (walk)";
}

TEST(VmMisc, VirtualSizeAndResidency) {
  AddressSpace as;
  uint32_t v = 1;
  ASSERT_TRUE(as.Map(0x10000, 8 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  ExpectPages(as, 8, 0, "Map: nothing materialized yet");
  ASSERT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  ExpectPages(as, 8, 1, "first touch of a private anonymous page");
  ASSERT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  ExpectPages(as, 8, 1, "second touch of the same page");
  for (uint32_t a = 0x11000; a < 0x18000; a += kPageSize) {
    ASSERT_FALSE(as.MemWrite(a, &v, 4).has_value());
  }
  ExpectPages(as, 8, 8, "every page of d touched");

  // Map over d's last two pages and two fresh ones: the overlap is replaced.
  ASSERT_TRUE(as.Map(0x16000, 4 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "o").ok());
  ExpectPages(as, 10, 6, "Map over an already-mapped range");

  // d is [0x10000, 0x16000), all six pages resident.
  ASSERT_TRUE(as.Unmap(0x10000, kPageSize).ok());
  ExpectPages(as, 9, 5, "Unmap of d's left end");
  ASSERT_TRUE(as.Unmap(0x15000, kPageSize).ok());
  ExpectPages(as, 8, 4, "Unmap of d's right end");
  ASSERT_TRUE(as.Unmap(0x12000, kPageSize).ok());
  ExpectPages(as, 7, 3, "Unmap of d's middle");
  ASSERT_EQ(as.Maps().size(), 3u) << "d split in two, plus o";

  ASSERT_TRUE(as.Protect(0x13000, kPageSize, MA_READ).ok());
  ASSERT_EQ(as.Maps().size(), 4u) << "the protect split d's right piece";
  ExpectPages(as, 7, 3, "Protect split");

  ASSERT_TRUE(as.Map(0x40000, kPageSize, MA_READ | MA_WRITE | MA_BREAK, Anon(), 0, "brk").ok());
  ASSERT_FALSE(as.MemWrite(0x40000, &v, 4).has_value());
  ExpectPages(as, 8, 4, "break mapped and touched");
  ASSERT_TRUE(as.SetBreak(0x40000 + 4 * kPageSize).ok());
  ExpectPages(as, 11, 4, "SetBreak grow");
  ASSERT_FALSE(as.MemWrite(0x43000, &v, 4).has_value());
  ExpectPages(as, 11, 5, "grown break page touched");
  ASSERT_TRUE(as.SetBreak(0x40000 + kPageSize).ok());
  ExpectPages(as, 8, 4, "SetBreak shrink drops the touched page");

  const uint32_t top = 0x8000000;
  ASSERT_TRUE(as.Map(top - kPageSize, kPageSize, MA_READ | MA_WRITE | MA_STACK, Anon(), 0,
                     "stack", true)
                  .ok());
  ExpectPages(as, 9, 4, "stack mapped");
  ASSERT_FALSE(as.MemWrite(top - 3 * kPageSize, &v, 4).has_value());
  ExpectPages(as, 11, 5, "stack grown by two pages, one touched");

  auto file = std::make_shared<PatternObject>();
  ASSERT_TRUE(as.Map(0x60000, 2 * kPageSize, MA_READ | MA_WRITE, file, 0, "f").ok());
  uint32_t r = 0;
  ASSERT_FALSE(as.MemRead(0x60000, &r, 4, Access::kRead).has_value());
  ExpectPages(as, 13, 6, "first touch of a file-backed page");
  ASSERT_FALSE(as.MemWrite(0x60000, &v, 4).has_value());
  ExpectPages(as, 13, 6, "COW break replaces the frame, adds none");

  ASSERT_TRUE(as.Map(0x70000, kPageSize, MA_READ | MA_WRITE | MA_SHARED, Anon(), 0, "s").ok());
  ASSERT_FALSE(as.MemWrite(0x70000, &v, 4).has_value());
  ExpectPages(as, 14, 7, "first touch of a shared page");

  // A first touch whose GetPage fails faults and counts nothing, on the
  // private and on the shared path.
  auto bad = std::make_shared<FailingObject>();
  ASSERT_TRUE(as.Map(0x80000, kPageSize, MA_READ, bad, 0, "bad").ok());
  ASSERT_TRUE(as.Map(0x90000, kPageSize, MA_READ | MA_SHARED, bad, 0, "bads").ok());
  ExpectPages(as, 16, 7, "failing objects mapped");
  EXPECT_TRUE(as.MemRead(0x80000, &r, 4, Access::kRead).has_value());
  EXPECT_TRUE(as.MemRead(0x90000, &r, 4, Access::kRead).has_value());
  ExpectPages(as, 16, 7, "failed first touches");

  // Clone copies both counts; afterwards each side counts only its own
  // first touches, and COW breaks on either side add nothing.
  auto child = as.Clone();
  ExpectPages(*child, 16, 7, "Clone");
  ASSERT_FALSE(as.MemWrite(0x11000, &v, 4).has_value());
  ASSERT_FALSE(child->MemWrite(0x11000, &v, 4).has_value());
  ExpectPages(as, 16, 7, "parent COW break after Clone");
  ExpectPages(*child, 16, 7, "child COW break after Clone");
  ASSERT_FALSE(as.MemWrite(0x61000, &v, 4).has_value());
  ExpectPages(as, 16, 8, "parent first touch after Clone");
  ExpectPages(*child, 16, 7, "the child does not see the parent's touch");
  ASSERT_FALSE(child->MemWrite(0x40000, &v, 4).has_value());
  ASSERT_FALSE(child->MemWrite(0x14000, &v, 4).has_value());
  ExpectPages(*child, 16, 7, "child writes to resident pages");
  ASSERT_FALSE(child->MemWrite(0x61000, &v, 4).has_value());
  ExpectPages(*child, 16, 8, "child first touch after Clone");
  ExpectPages(as, 16, 8, "the parent does not see the child's touch");
}

TEST(VmMisc, AsFaultMaterializesRange) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 4 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  ASSERT_TRUE(as.AsFault(0x10000, 3 * kPageSize, /*for_write=*/false).ok());
  EXPECT_EQ(as.ResidentPages(), 3u);
  EXPECT_FALSE(as.AsFault(0x90000, 4, false).ok());
}

TEST(VmMisc, ObjectAtFindsBackingObject) {
  auto obj = std::make_shared<PatternObject>();
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ, obj, 0, "f").ok());
  ASSERT_TRUE(as.Map(0x20000, kPageSize, MA_READ, Anon(), 0, "a").ok());
  EXPECT_EQ(as.ObjectAt(0x10000).get(), obj.get());
  EXPECT_EQ(as.ObjectAt(0x20000), nullptr) << "anonymous objects have no identity";
  EXPECT_EQ(as.ObjectAt(0x30000), nullptr);
}

TEST(VmMisc, MapRejectsBadArguments) {
  AddressSpace as;
  EXPECT_FALSE(as.Map(0x10001, kPageSize, MA_READ, Anon(), 0, "x").ok())
      << "unaligned start";
  EXPECT_FALSE(as.Map(0x10000, 0, MA_READ, Anon(), 0, "x").ok()) << "zero length";
  EXPECT_FALSE(as.Map(0x10000, kPageSize, MA_READ, nullptr, 0, "x").ok()) << "no object";
  EXPECT_FALSE(as.Map(0xFFFFF000, 2 * kPageSize, MA_READ, Anon(), 0, "x").ok())
      << "wraps around the address space";
}

// --- Edge cases the software TLB must not break ------------------------------

TEST(VmStack, GrowsExactlyAtLimit) {
  AddressSpace as;
  uint32_t top = 0x8000000;
  ASSERT_TRUE(as.Map(top - kPageSize, kPageSize, MA_READ | MA_WRITE | MA_STACK, Anon(),
                     0, "stack", true)
                  .ok());
  // gap_pages == kMaxStackGrowPages: still inside the growth window.
  uint32_t at_limit = top - kPageSize - kMaxStackGrowPages * kPageSize;
  uint32_t v = 7;
  EXPECT_FALSE(as.MemWrite(at_limit, &v, 4).has_value());
  EXPECT_TRUE(as.Mapped(at_limit));
  uint32_t r = 0;
  ASSERT_FALSE(as.MemRead(at_limit, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 7u);

  // One page further down would need kMaxStackGrowPages + 1 pages: fault.
  AddressSpace as2;
  ASSERT_TRUE(as2.Map(top - kPageSize, kPageSize, MA_READ | MA_WRITE | MA_STACK, Anon(),
                      0, "stack", true)
                  .ok());
  uint32_t past_limit = top - kPageSize - (kMaxStackGrowPages + 1) * kPageSize;
  auto f = as2.MemWrite(past_limit, &v, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTBOUNDS);
}

TEST(VmCow, CloneAfterWarmTlbIsolatesParentAndChild) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  uint32_t v = 0x1111;
  // Warm the parent's TLB with a writable-in-place entry.
  ASSERT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  ASSERT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  EXPECT_GT(as.counters().tlb_hits, 0u);

  auto child = as.Clone();

  // The warm entry must not let the parent scribble on the shared page.
  uint32_t pv = 0x2222;
  ASSERT_FALSE(as.MemWrite(0x10000, &pv, 4).has_value());
  uint32_t cr = 0;
  ASSERT_FALSE(child->MemRead(0x10000, &cr, 4, Access::kRead).has_value());
  EXPECT_EQ(cr, 0x1111u) << "child still sees the pre-fork value";

  // And the other way: the child's write stays invisible to the parent.
  uint32_t cv = 0x3333;
  ASSERT_FALSE(child->MemWrite(0x10000, &cv, 4).has_value());
  uint32_t pr = 0;
  ASSERT_FALSE(as.MemRead(0x10000, &pr, 4, Access::kRead).has_value());
  EXPECT_EQ(pr, 0x2222u);
}

TEST(VmWatch, RangeCrossingPageBoundary) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, 2 * kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  uint32_t boundary = 0x10000 + kPageSize;
  // Warm the TLB on both pages first; the watch must still fire afterwards.
  uint32_t v = 1;
  ASSERT_FALSE(as.MemWrite(boundary - 8, &v, 4).has_value());
  ASSERT_FALSE(as.MemWrite(boundary + 8, &v, 4).has_value());
  ASSERT_TRUE(as.AddWatch(Watch{boundary - 2, 4, WA_WRITE}).ok());

  // A store to the tail of the first page fires.
  auto f = as.MemWrite(boundary - 2, &v, 1);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTWATCH);
  // A store to the head of the second page fires too.
  f = as.MemWrite(boundary + 1, &v, 1);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTWATCH);
  // Unwatched bytes on either page proceed at full speed.
  EXPECT_FALSE(as.MemWrite(boundary - 8, &v, 4).has_value());
  EXPECT_FALSE(as.MemWrite(boundary + 2, &v, 4).has_value());
}

TEST(VmTlb, CountersTrackHitsAndInvalidation) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  uint32_t v = 0;
  ASSERT_FALSE(as.MemRead(0x10000, &v, 4, Access::kRead).has_value());  // fill
  uint64_t hits0 = as.counters().tlb_hits;
  for (int i = 0; i < 10; ++i) {
    ASSERT_FALSE(as.MemRead(0x10000 + 4 * i, &v, 4, Access::kRead).has_value());
  }
  EXPECT_EQ(as.counters().tlb_hits, hits0 + 10);

  // A protection change invalidates the cached permission immediately.
  uint32_t w = 5;
  ASSERT_FALSE(as.MemWrite(0x10000, &w, 4).has_value());  // warms write_ok
  ASSERT_TRUE(as.Protect(0x10000, kPageSize, MA_READ).ok());
  auto f = as.MemWrite(0x10000, &w, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->fault, FLTACCESS) << "stale TLB entry must not bypass mprotect";
}

TEST(VmTlb, DisableKnobFallsBackToSlowPath) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE, Anon(), 0, "d").ok());
  as.SetTlbEnabled(false);
  EXPECT_FALSE(as.TlbEnabled());
  uint32_t v = 0xBEEF;
  ASSERT_FALSE(as.MemWrite(0x10000, &v, 4).has_value());
  uint32_t r = 0;
  ASSERT_FALSE(as.MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_EQ(r, 0xBEEFu);
  EXPECT_EQ(as.counters().tlb_hits, 0u);
  EXPECT_GT(as.counters().slow_lookups, 0u);

  as.SetTlbEnabled(true);
  ASSERT_FALSE(as.MemRead(0x10000, &r, 4, Access::kRead).has_value());  // fill
  ASSERT_FALSE(as.MemRead(0x10000, &r, 4, Access::kRead).has_value());
  EXPECT_GT(as.counters().tlb_hits, 0u);
}

// --- Instruction fetch through the address space -----------------------------

TEST(CpuFetch, StraddlingInstructionExecutes) {
  AddressSpace as;
  ASSERT_TRUE(
      as.Map(0x10000, 2 * kPageSize, MA_READ | MA_WRITE | MA_EXEC, Anon(), 0, "t").ok());
  // ldi r1, 0xDDCCBBAA with the opcode on the last byte of the first page.
  uint32_t pc = 0x10000 + kPageSize - 1;
  uint8_t instr[6] = {kOpLdi, 0x01, 0xAA, 0xBB, 0xCC, 0xDD};
  ASSERT_FALSE(as.MemWrite(pc, instr, sizeof(instr)).has_value());
  Regs regs;
  FpRegs fp;
  regs.pc = pc;
  StepResult r = CpuStep(regs, fp, as);
  EXPECT_EQ(r.kind, StepResult::kOk);
  EXPECT_EQ(regs.r[1], 0xDDCCBBAAu);
  EXPECT_EQ(regs.pc, pc + 6);
}

TEST(CpuFetch, MidInstructionFaultReportsOperandAddress) {
  AddressSpace as;
  // Only the first page is mapped; the instruction runs off its end.
  ASSERT_TRUE(as.Map(0x10000, kPageSize, MA_READ | MA_WRITE | MA_EXEC, Anon(), 0, "t").ok());
  uint32_t page_end = 0x10000 + kPageSize;
  uint32_t pc = page_end - 2;  // opcode + rd fit; the imm32 does not
  uint8_t head[2] = {kOpLdi, 0x01};
  ASSERT_FALSE(as.MemWrite(pc, head, sizeof(head)).has_value());
  Regs regs;
  FpRegs fp;
  regs.pc = pc;
  StepResult r = CpuStep(regs, fp, as);
  ASSERT_EQ(r.kind, StepResult::kFault);
  EXPECT_EQ(r.fault, FLTBOUNDS);
  EXPECT_EQ(r.fault_addr, page_end)
      << "the fault address is the first missing operand byte, not the opcode";
  EXPECT_EQ(regs.pc, pc) << "pc stays at the faulting instruction";
}

}  // namespace
}  // namespace svr4
