// Scale tests for the process population layers: pid wraparound and reuse
// in a bounded pid space, O(1) lifecycle cost independent of table size,
// streaming-readdir cursor stability under churn, bulk snapshots matching
// the per-pid operations, and monitors holding thousands of descriptors.
//
// Sizes default small enough for a laptop run; SVR4PROC_SCALE_PROCS scales
// the big-population tests up (CI smoke runs them at 10^5).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kSpin[] = "spin: jmp spin\n";
constexpr char kExit[] = R"(
      ldi r0, SYS_exit
      ldi r1, 0
      sys
)";

size_t ScaleProcs() {
  const char* env = std::getenv("SVR4PROC_SCALE_PROCS");
  if (env != nullptr && *env != 0) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 20'000;
}

// One spawn → run-to-exit → reap cycle. The trailing Step() lets the
// event-driven reaper drain the zombie (its parent is init).
void ChurnOnce(Sim& sim) {
  auto pid = sim.Start("/bin/ex");
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(sim.kernel().RunToExit(*pid).ok());
  sim.kernel().Step();
  ASSERT_EQ(sim.kernel().FindProc(*pid), nullptr) << "zombie not reaped";
}

// --- Pid allocation: wraparound and reuse ----------------------------------

TEST(ScalePidTable, PidWraparoundReusesFreedPids) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetMaxPid(16);
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/ex", kExit).ok());

  // Fill the pid space: sched/init/pageout/controller already hold four.
  std::vector<Pid> held;
  for (;;) {
    auto pid = sim.Start("/bin/spin");
    if (!pid.ok()) {
      EXPECT_EQ(pid.error(), Errno::kEAGAIN);
      break;
    }
    held.push_back(*pid);
  }
  EXPECT_EQ(k.ProcCount(), 16u);
  ASSERT_GE(held.size(), 8u);

  // Free one pid from the middle and allocate again: the allocator must
  // wrap its cursor around the end of the bitmap and land on the hole.
  Pid freed = held[held.size() / 2];
  ASSERT_TRUE(k.Kill(sim.controller(), freed, SIGKILL).ok());
  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(freed) == nullptr; }));
  auto reused = sim.Start("/bin/spin");
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, freed);

  // Sustained churn inside the bounded space: every cycle reuses a pid.
  for (int i = 0; i < 50; ++i) {
    Pid victim = held[i % held.size()];
    ASSERT_TRUE(k.Kill(sim.controller(), victim, SIGKILL).ok());
    ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(victim) == nullptr; }));
    auto next = sim.Start("/bin/spin");
    ASSERT_TRUE(next.ok());
    held[i % held.size()] = *next;
  }
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// NextAllocatedPid skips runs of empty bitmap words through a summary with
// one bit per word. Over seeded churn that wraps a small pid space, grows
// the space past the default bitmap and wraps a sparse one spanning three
// summary words, every answer must equal a linear scan of the pids the test
// knows are allocated, and CheckInvariants must find the summary in step.
TEST(ScalePidTable, NextAllocatedPidMatchesLinearScan) {
  Sim sim;
  Kernel& k = sim.kernel();
  std::vector<Pid> system;  // the processes the simulation starts with
  for (Pid pid = 0; pid < 64; ++pid) {
    if (k.FindProc(pid) != nullptr) {
      system.push_back(pid);
    }
  }
  ASSERT_EQ(system.size(), k.ProcCount());
  std::vector<Proc*> live;
  uint64_t rng = 0x5eed;
  auto draw = [&](uint64_t n) {
    uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % n;
  };
  auto check = [&](Pid space) {
    k.Step();  // reap the processes destroyed since the last check
    std::vector<Pid> model = system;
    for (const Proc* p : live) {
      model.push_back(p->pid);
    }
    std::sort(model.begin(), model.end());
    ASSERT_EQ(model.size(), k.ProcCount());
    auto linear = [&](Pid from) -> Pid {
      for (Pid pid : model) {
        if (pid >= from) {
          return pid;
        }
      }
      return -1;
    };
    std::vector<Pid> probes = {-1, 0, space - 1, space, kDefaultMaxPid - 1, kDefaultMaxPid,
                               k.max_pid() + 64};
    for (Pid pid : model) {
      probes.push_back(pid);
      probes.push_back(pid + 1);
    }
    for (int i = 0; i < 256; ++i) {
      probes.push_back(static_cast<Pid>(draw(static_cast<uint64_t>(space) + 4096)));
    }
    for (Pid from : probes) {
      ASSERT_EQ(k.NextAllocatedPid(from), linear(from)) << "from " << from;
    }
    const auto violations = k.CheckInvariants();
    EXPECT_TRUE(violations.empty()) << violations.front();
  };
  // Each op creates a native process (while fewer than `target` live, else
  // on a coin flip) or destroys a random live one; a full space destroys.
  // Returns how many times the allocation cursor wrapped.
  Pid last = 0;
  auto churn = [&](int ops, size_t target, Pid space) {
    int wraps = 0;
    for (int i = 1; i <= ops; ++i) {
      if (live.size() < target || draw(2) == 0) {
        if (Proc* p = k.CreateNativeProc(Creds::Root(), "churn")) {
          wraps += p->pid < last ? 1 : 0;
          last = p->pid;
          live.push_back(p);
          continue;
        }
      }
      if (!live.empty()) {
        const size_t j = draw(live.size());
        k.DestroyNativeProc(live[j]);
        live[j] = live.back();
        live.pop_back();
      }
      if (i % 500 == 0) {
        check(space);
      }
    }
    check(space);
    return wraps;
  };

  k.SetMaxPid(700);  // eleven bitmap words
  EXPECT_GE(churn(3000, 150, 700), 2);
  k.SetMaxPid(kDefaultMaxPid + 5000);  // the bitmap and the summary grow
  churn(2000, 150, kDefaultMaxPid + 5000);
  k.SetMaxPid(9000);  // sparse, over three summary words
  EXPECT_GE(churn(40000, 200, 9000), 2);
}

TEST(ScalePidTable, StaleDescriptorAcrossPidReuseIsInert) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetMaxPid(16);
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());

  auto victim = sim.Start("/bin/spin");
  ASSERT_TRUE(victim.ok());
  auto fd = k.Open(sim.controller(), "/proc/" + std::to_string(*victim), O_RDWR);
  ASSERT_TRUE(fd.ok());

  // Kill and reap the victim, then churn until its pid is reused. The pid
  // space is tiny, so the allocator comes back around within a few spawns.
  ASSERT_TRUE(k.Kill(sim.controller(), *victim, SIGKILL).ok());
  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(*victim) == nullptr; }));
  Pid successor = -1;
  for (int i = 0; i < 64 && successor != *victim; ++i) {
    auto pid = sim.Start("/bin/spin");
    ASSERT_TRUE(pid.ok());
    successor = *pid;
    if (successor != *victim) {
      ASSERT_TRUE(k.Kill(sim.controller(), successor, SIGKILL).ok());
      ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(successor) == nullptr; }));
    }
  }
  ASSERT_EQ(successor, *victim) << "pid never came back around";

  // The held descriptor must see ENOENT, not the successor: same pid,
  // different incarnation.
  PrPsinfo ps{};
  auto io = k.Ioctl(sim.controller(), *fd, PIOCPSINFO, &ps);
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.error(), Errno::kENOENT);

  // Poll on the stale descriptor reports POLLNVAL, not the successor's state.
  PollFd pf{*fd, POLLPRI, 0};
  auto nready = k.PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(nready.ok());
  EXPECT_EQ(*nready, 1);
  EXPECT_EQ(pf.revents, POLLNVAL);

  // The stale descriptor holds no claim in the exclusivity ledger: an
  // exclusive grab of the successor succeeds while it is still open.
  auto excl =
      k.Open(sim.controller(), "/proc/" + std::to_string(successor), O_RDWR | O_EXCL);
  ASSERT_TRUE(excl.ok());
  ASSERT_TRUE(k.Close(sim.controller(), *excl).ok());

  // Closing the stale descriptor must not disturb the successor's ledger.
  ASSERT_TRUE(k.Close(sim.controller(), *fd).ok());
  auto again =
      k.Open(sim.controller(), "/proc/" + std::to_string(successor), O_RDWR | O_EXCL);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(k.Close(sim.controller(), *again).ok());
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// --- Lifecycle cost vs population size -------------------------------------

// Times a burst of spawn/exit/reap cycles against a bystander population of
// the given size. Returns the best of three runs in nanoseconds.
uint64_t ChurnNanos(size_t bystanders, int cycles) {
  Sim sim;
  Kernel& k = sim.kernel();
  EXPECT_TRUE(sim.InstallProgram("/bin/ex", kExit).ok());
  for (size_t i = 0; i < bystanders; ++i) {
    EXPECT_NE(k.CreateNativeProc(Creds::Root(), "bystander"), nullptr);
  }
  uint64_t best = ~0ull;
  for (int run = 0; run < 3; ++run) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < cycles; ++i) {
      ChurnOnce(sim);
    }
    auto t1 = std::chrono::steady_clock::now();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    best = std::min(best, ns);
  }
  return best;
}

TEST(ScaleChurn, LifecycleCostIndependentOfPopulation) {
  // An O(live-procs) walk anywhere in fork/exit/reap would make the large
  // population ~8x slower per cycle. O(1) structures keep the ratio near 1;
  // the bound leaves room for cache effects and noisy machines.
  uint64_t small = ChurnNanos(1'000, 200);
  uint64_t large = ChurnNanos(8'000, 200);
  double ratio = static_cast<double>(large) / static_cast<double>(small + 1);
  EXPECT_LT(ratio, 4.0) << "small=" << small << "ns large=" << large << "ns";
}

TEST(ScaleChurn, BigPopulationChurnStaysCoherent) {
  const size_t n = ScaleProcs();
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/ex", kExit).ok());
  const size_t base = k.ProcCount();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NE(k.CreateNativeProc(Creds::Root(), "bystander"), nullptr);
  }
  ASSERT_EQ(k.ProcCount(), base + n);

  for (int i = 0; i < 100; ++i) {
    ChurnOnce(sim);
  }
  EXPECT_EQ(k.ProcCount(), base + n);

  // The allocation bitmap, hash table, and all-procs list agree.
  size_t walked = 0;
  Pid prev = -1;
  for (Pid pid = k.NextAllocatedPid(0); pid >= 0; pid = k.NextAllocatedPid(pid + 1)) {
    EXPECT_GT(pid, prev);
    EXPECT_NE(k.FindProc(pid), nullptr);
    prev = pid;
    ++walked;
  }
  EXPECT_EQ(walked, k.ProcCount());
  EXPECT_TRUE(k.CheckInvariants().empty());
}

TEST(ScaleChurn, ZombieFootprintShrinksBeforeReap) {
  // A zombie holds only its exit status and identity: the signal tables,
  // the audit ring, the descriptor table's capacity, and the lwp storage
  // are released one Step after exit, not at reap time. A monitor holding
  // 10^5 unreaped zombies must not also hold 10^5 full descriptor tables.
  // The program catches SIGUSR1, so it has signal tables, and exits with
  // SIGUSR2 held and pending.
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/ex", R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
      ldi r0, SYS_sigprocmask
      ldi r1, 0
      ldi r2, mask
      ldi r3, 0
      sys
      ldi r0, SYS_getpid
      sys
      mov r1, r0
      ldi r0, SYS_kill
      ldi r2, SIGUSR2
      sys
      ldi r0, SYS_exit
      ldi r1, 0
      sys
handler:
      ldi r0, SYS_sigreturn
      sys
      .data
mask: .word 0x10000, 0, 0, 0   ; bit 16 = SIGUSR2 (17)
)").ok());
  // Parent is the controller, which never waits: the zombie persists.
  auto z = k.Spawn("/bin/ex", {"ex"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(k.RunToExit(*z).ok());
  Proc* p = k.FindProc(*z);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->state, Proc::State::kZombie);
  ASSERT_NE(p->sig.tables, nullptr);
  ASSERT_TRUE(p->sig.pending.Has(SIGUSR2));
  EXPECT_GE(ProcDynamicFootprint(*p), sizeof(SigTables));
  // The slim pass runs at the start of the next Step.
  k.Step();
  EXPECT_EQ(p->sig.tables, nullptr) << "signal tables survived the slim pass";
  EXPECT_TRUE(p->sig.pending.Empty());
  EXPECT_EQ(p->trace.audit, nullptr) << "audit ring survived the slim pass";
  EXPECT_EQ(p->fds.capacity(), 0u);
  EXPECT_EQ(p->lwps.capacity(), 0u);
  EXPECT_EQ(ProcDynamicFootprint(*p), 0u);
  // The totals survive for PIOCAUDIT/psinfo, and the reap still works.
  EXPECT_TRUE(k.CheckInvariants().empty());
  auto ps = PsSnapshotAll(k, sim.controller());
  ASSERT_TRUE(ps.ok());
  bool saw = false;
  for (const PrPsinfo& row : *ps) {
    saw |= row.pr_pid == *z && row.pr_state == 'Z';
  }
  EXPECT_TRUE(saw);
}

// --- Streaming readdir under churn ------------------------------------------

TEST(ScaleReaddir, CursorStableAcrossChurn) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());

  std::vector<Pid> survivors;
  for (int i = 0; i < 40; ++i) {
    auto pid = sim.Start("/bin/spin");
    ASSERT_TRUE(pid.ok());
    survivors.push_back(*pid);
  }

  for (const char* root : {"/proc", "/proc2"}) {
    uint64_t cookie = 0;
    std::vector<Pid> seen;
    std::vector<Pid> churn;
    std::vector<DirEnt> ents;
    int churn_rounds = 0;
    for (;;) {
      ents.clear();
      auto got = k.ReadDirChunk(sim.controller(), root, &cookie, 16, &ents);
      ASSERT_TRUE(got.ok());
      if (*got == 0) {
        break;
      }
      for (const auto& e : ents) {
        if (e.name == "kernel") {
          continue;  // /proc2's kernel directory leads the listing
        }
        seen.push_back(static_cast<Pid>(std::strtol(e.name.c_str(), nullptr, 10)));
      }
      // Churn between the first chunks: one birth, one death. The cursor
      // must neither skip a stable entry nor produce a duplicate. Bounded,
      // because every birth lands ahead of the cursor and extends the walk.
      if (++churn_rounds <= 6) {
        auto born = sim.Start("/bin/spin");
        ASSERT_TRUE(born.ok());
        churn.push_back(*born);
        if (churn.size() > 1) {
          Pid victim = churn.front();
          churn.erase(churn.begin());
          ASSERT_TRUE(k.Kill(sim.controller(), victim, SIGKILL).ok());
          ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(victim) == nullptr; }));
        }
      }
    }
    // Strictly ascending means no duplicates and no cursor regression.
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
    // Every process alive for the whole walk shows up exactly once.
    for (Pid s : survivors) {
      EXPECT_EQ(std::count(seen.begin(), seen.end(), s), 1) << root << " pid " << s;
    }
    // Clean up this root's leftover churn procs before the next pass.
    for (Pid p : churn) {
      ASSERT_TRUE(k.Kill(sim.controller(), p, SIGKILL).ok());
      ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(p) == nullptr; }));
    }
  }
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// --- Bulk snapshots -----------------------------------------------------------

TEST(ScaleSnapshot, PsAllMatchesPerPidPsinfo) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/ex", kExit).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  // One zombie: its parent is the native controller, which never waits.
  auto z = k.Spawn("/bin/ex", {"ex"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(k.RunToExit(*z).ok());
  ASSERT_NE(k.FindProc(*z), nullptr);

  auto all = PsSnapshotAll(k, sim.controller());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), k.ProcCount());

  // The bulk rows match what PIOCPSINFO reports pid by pid — including the
  // zombie, which the paper says keeps its /proc entry until reaped.
  bool saw_zombie = false;
  for (const PrPsinfo& row : *all) {
    auto h = ProcHandle::Grab(k, sim.controller(), row.pr_pid, O_RDONLY);
    ASSERT_TRUE(h.ok()) << "pid " << row.pr_pid;
    auto one = h->Psinfo();
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->pr_pid, row.pr_pid);
    EXPECT_EQ(one->pr_ppid, row.pr_ppid);
    EXPECT_EQ(one->pr_state, row.pr_state);
    EXPECT_EQ(one->pr_nlwp, row.pr_nlwp);
    EXPECT_STREQ(one->pr_fname, row.pr_fname);
    saw_zombie |= row.pr_state == 'Z';
  }
  EXPECT_TRUE(saw_zombie);

  // /proc2/kernel/psall serves the same table as packed bytes.
  auto attr = k.Stat(sim.controller(), "/proc2/kernel/psall");
  ASSERT_TRUE(attr.ok());
  ASSERT_EQ(attr->size, all->size() * sizeof(PrPsinfo));
  std::vector<uint8_t> buf(attr->size);
  auto fd = k.Open(sim.controller(), "/proc2/kernel/psall", O_RDONLY);
  ASSERT_TRUE(fd.ok());
  auto nread = k.Read(sim.controller(), *fd, buf.data(), buf.size());
  ASSERT_TRUE(nread.ok());
  ASSERT_EQ(static_cast<size_t>(*nread), buf.size());
  ASSERT_TRUE(k.Close(sim.controller(), *fd).ok());
  for (size_t i = 0; i < all->size(); ++i) {
    PrPsinfo row{};
    std::memcpy(&row, buf.data() + i * sizeof(PrPsinfo), sizeof(PrPsinfo));
    EXPECT_EQ(row.pr_pid, (*all)[i].pr_pid);
    EXPECT_EQ(row.pr_state, (*all)[i].pr_state);
  }
}

TEST(ScaleSnapshot, ChunkedPsWalkMatchesBulk) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  auto walked = PsSnapshot(k, sim.controller());
  auto bulk = PsSnapshotAll(k, sim.controller());
  ASSERT_TRUE(walked.ok());
  ASSERT_TRUE(bulk.ok());
  ASSERT_EQ(walked->size(), bulk->size());
  for (size_t i = 0; i < bulk->size(); ++i) {
    EXPECT_EQ((*walked)[i].pr_pid, (*bulk)[i].pr_pid);
    EXPECT_EQ((*walked)[i].pr_state, (*bulk)[i].pr_state);
  }
}

TEST(ScaleSnapshot, WindowedPsAllMatchesBulk) {
  // The pr_start_pid/pr_limit window operands page through the population
  // in bounded memory; chaining pr_next_pid must reproduce the bulk
  // snapshot exactly, whatever the window size.
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  auto h = ProcHandle::Grab(k, sim.controller(), 1, O_RDONLY);
  ASSERT_TRUE(h.ok());
  PrPsAll bulk;
  ASSERT_TRUE(k.Ioctl(sim.controller(), h->fd(), PIOCPSALL, &bulk).ok());
  ASSERT_EQ(bulk.pr_procs.size(), k.ProcCount());
  EXPECT_EQ(bulk.pr_next_pid, -1);

  for (uint32_t limit : {1u, 7u, 1000u}) {
    std::vector<PrPsinfo> paged;
    PrPsAll w;
    w.pr_limit = limit;
    for (;;) {
      w.pr_procs.clear();
      w.pr_next_pid = -1;
      ASSERT_TRUE(k.Ioctl(sim.controller(), h->fd(), PIOCPSALL, &w).ok());
      EXPECT_LE(w.pr_procs.size(), limit);
      paged.insert(paged.end(), w.pr_procs.begin(), w.pr_procs.end());
      if (w.pr_next_pid < 0) {
        break;
      }
      w.pr_start_pid = w.pr_next_pid;
    }
    ASSERT_EQ(paged.size(), bulk.pr_procs.size()) << "limit=" << limit;
    for (size_t i = 0; i < paged.size(); ++i) {
      EXPECT_EQ(paged[i].pr_pid, bulk.pr_procs[i].pr_pid);
      EXPECT_EQ(paged[i].pr_state, bulk.pr_procs[i].pr_state);
    }
  }
}

TEST(ScaleSnapshot, MultiWindowSnapshotMatchesOneUnlimitedPsAll) {
  // More rows than one 1024-row PsinfoAll window: native processes, exec'd
  // ones on both sides of the window boundary, whose rows carry page
  // counts, and a zombie in the second window. The windows, appended to the
  // first, must equal one unlimited PIOCPSALL byte for byte.
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/ex", kExit).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  for (int i = 0; i < 1'100; ++i) {
    ASSERT_NE(k.CreateNativeProc(Creds::Root(), "worker"), nullptr);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sim.Start("/bin/spin").ok());
  }
  auto z = k.Spawn("/bin/ex", {"ex"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(k.RunToExit(*z).ok());

  auto snap = PsSnapshotAll(k, sim.controller());
  ASSERT_TRUE(snap.ok());
  auto h = ProcHandle::Grab(k, sim.controller(), 1, O_RDONLY);
  ASSERT_TRUE(h.ok());
  PrPsAll bulk;  // pr_limit 0: the whole population in one window
  ASSERT_TRUE(k.Ioctl(sim.controller(), h->fd(), PIOCPSALL, &bulk).ok());
  ASSERT_GT(bulk.pr_procs.size(), 1024u) << "the snapshot must span two windows";
  ASSERT_EQ(snap->size(), bulk.pr_procs.size());
  EXPECT_EQ(std::memcmp(snap->data(), bulk.pr_procs.data(), snap->size() * sizeof(PrPsinfo)),
            0);

  size_t with_pages = 0;
  size_t zombies = 0;
  for (const PrPsinfo& row : *snap) {
    with_pages += row.pr_size > 0 && row.pr_rssize > 0 ? 1 : 0;
    zombies += row.pr_state == 'Z' ? 1 : 0;
  }
  EXPECT_EQ(with_pages, 20u) << "every exec'd process shows its pages";
  EXPECT_EQ(zombies, 1u);
  EXPECT_EQ(snap->back().pr_pid, *z) << "the zombie is the last row, in the second window";
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// --- Monitors with large descriptor sets -------------------------------------

TEST(ScalePoll, MonitorHoldsThousandsOfDescriptors) {
  Sim sim;
  Kernel& k = sim.kernel();
  k.SetFdLimit(4096);
  ASSERT_TRUE(sim.InstallProgram("/bin/spin", kSpin).ok());

  // A native monitor holding one /proc descriptor per process — the shape
  // the old wired 64-entry poll cap made impossible.
  std::vector<PollFd> fds;
  for (int i = 0; i < 1'500; ++i) {
    Proc* p = k.CreateNativeProc(Creds::Root(), "worker");
    ASSERT_NE(p, nullptr);
    auto fd = k.Open(sim.controller(), "/proc/" + std::to_string(p->pid), O_RDONLY);
    ASSERT_TRUE(fd.ok());
    fds.push_back(PollFd{*fd, POLLPRI, 0});
  }

  // Nothing is stopped yet: a full sweep reports no ready descriptors.
  auto nready = k.PollFds(sim.controller(), std::span<PollFd>(fds), 0);
  ASSERT_TRUE(nready.ok());
  EXPECT_EQ(*nready, 0);

  // Stop one traced process; exactly its descriptor turns POLLPRI.
  auto pid = sim.Start("/bin/spin");
  ASSERT_TRUE(pid.ok());
  auto h = ProcHandle::Grab(k, sim.controller(), *pid, O_RDWR);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  auto fd = k.Open(sim.controller(), "/proc/" + std::to_string(*pid), O_RDONLY);
  ASSERT_TRUE(fd.ok());
  fds.push_back(PollFd{*fd, POLLPRI, 0});
  nready = k.PollFds(sim.controller(), std::span<PollFd>(fds), 0);
  ASSERT_TRUE(nready.ok());
  EXPECT_EQ(*nready, 1);
  EXPECT_EQ(fds.back().revents, POLLPRI);
}

}  // namespace
}  // namespace svr4
