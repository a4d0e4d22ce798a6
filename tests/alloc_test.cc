// The allocation shape of a ps snapshot. A remote PsSnapshotAll through
// procd allocates what a local one does: the one window buffer, plus the
// result once a second window arrives. Each row is built once into the
// server's window, copied into the peer's channel, decoded into the client's
// window and, past one window, copied into the result; no layer on the way
// re-copies it into a fresh buffer.
//
// This file is its own executable because it replaces the global operator
// new to count large blocks; linked into the main test binary, that
// replacement would switch off ASan's new/delete checks for every test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"

namespace {

// Blocks this large come from mmap or the top of the heap, and are what
// the allocator hands back to the kernel between snapshots.
constexpr std::size_t kLargeBlock = 64 * 1024;
std::atomic<uint64_t> g_large_blocks{0};

void* CountedAlloc(std::size_t n) noexcept {
  if (n >= kLargeBlock) {
    g_large_blocks.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace svr4 {
namespace {

struct Shape {
  uint64_t local = 0;   // large blocks one local snapshot allocates
  uint64_t remote = 0;  // ... and one remote snapshot
};

template <typename F>
uint64_t LargeBlocksDuring(F&& f) {
  uint64_t before = g_large_blocks.load(std::memory_order_relaxed);
  f();
  return g_large_blocks.load(std::memory_order_relaxed) - before;
}

// A population of exactly `rows` processes, snapshotted once locally and
// once remotely to warm every buffer that persists between snapshots (the
// channels and the server's window), then measured.
Shape SnapshotShape(size_t rows) {
  Sim sim;
  Kernel& k = sim.kernel();
  ProcdServer srv(k);
  RemoteProcIo rio(srv.Connect(Creds::Root()));
  while (k.ProcCount() < rows) {
    EXPECT_NE(k.CreateNativeProc(Creds::Root(), "worker"), nullptr);
  }
  for (int warm = 0; warm < 2; ++warm) {
    EXPECT_TRUE(PsSnapshotAll(k, sim.controller()).ok());
    EXPECT_TRUE(PsSnapshotAll(rio, 1).ok());
  }
  Shape s;
  std::vector<PrPsinfo> local, remote;
  s.local = LargeBlocksDuring([&] {
    auto snap = PsSnapshotAll(k, sim.controller());
    EXPECT_TRUE(snap.ok());
    local = snap.ok() ? std::move(*snap) : std::vector<PrPsinfo>{};
  });
  s.remote = LargeBlocksDuring([&] {
    auto snap = PsSnapshotAll(rio, 1);
    EXPECT_TRUE(snap.ok());
    remote = snap.ok() ? std::move(*snap) : std::vector<PrPsinfo>{};
  });
  EXPECT_EQ(local.size(), rows);
  EXPECT_EQ(remote.size(), rows);
  if (local.size() == rows && remote.size() == rows) {
    EXPECT_EQ(std::memcmp(local.data(), remote.data(), rows * sizeof(PrPsinfo)), 0)
        << "the remote snapshot differs from the local one";
  }
  return s;
}

TEST(ProcdAlloc, OneWindowSnapshotAllocatesItsWindowOnly) {
  Shape s = SnapshotShape(505);
  EXPECT_EQ(s.local, 1u) << "the window is the result";
  EXPECT_EQ(s.remote, s.local) << "a remote snapshot allocates more than a local one";
}

TEST(ProcdAlloc, TwoWindowSnapshotAllocatesItsWindowAndItsResult) {
  Shape s = SnapshotShape(2026);
  EXPECT_LE(s.local, 2u);
  EXPECT_EQ(s.remote, s.local) << "a remote snapshot allocates more than a local one";
}

TEST(ProcdAlloc, ThreeWindowSnapshotAllocatesWhatALocalOneDoes) {
  Shape s = SnapshotShape(3005);
  EXPECT_LE(s.local, 3u);
  EXPECT_EQ(s.remote, s.local) << "a remote snapshot allocates more than a local one";
}

}  // namespace
}  // namespace svr4
