// Tests for the compact process record (DESIGN.md §12): the signal tables
// live behind a pointer that a process fills the first time it sets an
// action or takes a signal, fork and exec treat them as they treated the
// inline tables, and what a ps row reads sits at the front of Proc and Lwp.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <vector>

#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/procio.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kPauser[] = R"(
park: ldi r0, SYS_pause
      sys
      jmp park
)";

// Catches SIGUSR1 (holding SIGTERM in the handler), ignores SIGUSR2, holds
// SIGUSR1 and raises it, so it stays pending; then `tail` runs.
std::string SignalSetup(const std::string& tail) {
  return R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, hmask
      sys
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR2
      ldi r2, SIG_IGN
      ldi r3, 0
      sys
      ldi r0, SYS_sigprocmask
      ldi r1, 0
      ldi r2, hold
      ldi r3, 0
      sys
      ldi r0, SYS_getpid
      sys
      mov r1, r0
      ldi r0, SYS_kill
      ldi r2, SIGUSR1
      sys
)" + tail + R"(
handler:
      ldi r0, SYS_sigreturn
      sys
      .data
hold:  .word 0x8000, 0, 0, 0   ; bit 15 = SIGUSR1 (16)
hmask: .word 0x4000, 0, 0, 0   ; bit 14 = SIGTERM (15)
path:  .asciz "/bin/pauser"
)";
}

bool Asleep(Kernel& k, Pid pid) {
  Proc* p = k.FindProc(pid);
  return p != nullptr && p->MainLwp() != nullptr &&
         p->MainLwp()->state == LwpState::kSleeping;
}

bool IsDefault(const SigAction& a) {
  SigAction def;
  return a.handler == def.handler && a.mask == def.mask && a.flags == def.flags;
}

// fork copies the parent's actions and hold mask into the child; the
// parent's pending signal stays the parent's.
TEST(ProcRecord, ForkInheritsActionsAndHoldButNotPending) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/forker", SignalSetup(R"(
      ldi r0, SYS_fork
      sys
      jmp park
park: ldi r0, SYS_pause
      sys
      jmp park
)")).ok());
  auto parent = sim.Start("/bin/forker");
  ASSERT_TRUE(parent.ok());
  Pid child = -1;
  ASSERT_TRUE(k.RunUntil([&] {
    for (Pid q : k.AllPids()) {
      if (Proc* c = k.FindProc(q); c != nullptr && c->ppid == *parent) {
        child = q;
      }
    }
    return child > 0 && Asleep(k, *parent) && Asleep(k, child);
  }));

  auto ph = ProcHandle::Grab(k, sim.controller(), *parent, O_RDONLY);
  auto ch = ProcHandle::Grab(k, sim.controller(), child, O_RDONLY);
  ASSERT_TRUE(ph.ok() && ch.ok());
  auto pa = ph->GetActions();
  auto ca = ch->GetActions();
  ASSERT_TRUE(pa.ok() && ca.ok());
  ASSERT_EQ(ca->size(), static_cast<size_t>(SigSet::kMaxMember));
  EXPECT_EQ(std::memcmp(pa->data(), ca->data(), pa->size() * sizeof(SigAction)), 0);
  const SigAction& usr1 = (*ca)[SIGUSR1 - 1];
  EXPECT_NE(usr1.handler, SIG_DFL);
  EXPECT_NE(usr1.handler, SIG_IGN);
  EXPECT_TRUE(usr1.mask.Has(SIGTERM));
  EXPECT_EQ((*ca)[SIGUSR2 - 1].handler, SIG_IGN);
  EXPECT_TRUE(IsDefault((*ca)[SIGTERM - 1]));

  auto ph_hold = ph->GetHold();
  auto ch_hold = ch->GetHold();
  ASSERT_TRUE(ph_hold.ok() && ch_hold.ok());
  EXPECT_TRUE(ch_hold->Has(SIGUSR1));
  EXPECT_EQ(*ch_hold, *ph_hold);

  auto ps = ph->Status();
  auto cs = ch->Status();
  ASSERT_TRUE(ps.ok() && cs.ok());
  EXPECT_TRUE(ps->pr_sigpend.Has(SIGUSR1));
  EXPECT_TRUE(cs->pr_sigpend.Empty());
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// exec reverts every caught signal to the default action, mask included,
// and keeps ignored ones ignored.
TEST(ProcRecord, ExecRevertsCaughtHandlersAndKeepsIgnored) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/pauser", kPauser).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/execer", SignalSetup(R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
)")).ok());
  auto pid = sim.Start("/bin/execer");
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(k.RunUntil([&] { return k.FindProc(*pid)->name == "pauser" && Asleep(k, *pid); }));

  auto h = ProcHandle::Grab(k, sim.controller(), *pid, O_RDONLY);
  ASSERT_TRUE(h.ok());
  auto acts = h->GetActions();
  ASSERT_TRUE(acts.ok());
  for (int s = 1; s <= SigSet::kMaxMember; ++s) {
    const SigAction& a = (*acts)[static_cast<size_t>(s - 1)];
    if (s == SIGUSR2) {
      EXPECT_EQ(a.handler, SIG_IGN);
    } else {
      EXPECT_TRUE(IsDefault(a)) << SignalName(s);
    }
  }
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// Reads PIOCACTION and /proc2/<pid>/sigact of `pid` through `io` and expects
// 128 default actions, which read as zero bytes.
void ExpectDefaultActions(ProcIo& io, Pid pid) {
  char path[32];
  std::snprintf(path, sizeof(path), "/proc/%05d", pid);
  auto fd = io.Open(path, O_RDONLY);
  ASSERT_TRUE(fd.ok());
  std::vector<SigAction> acts(SigSet::kMaxMember);
  ASSERT_TRUE(io.Ioctl(*fd, PIOCACTION, acts.data()).ok());
  EXPECT_TRUE(io.Close(*fd).ok());
  for (const SigAction& a : acts) {
    EXPECT_TRUE(IsDefault(a));
  }

  std::snprintf(path, sizeof(path), "/proc2/%05d/sigact", pid);
  fd = io.Open(path, O_RDONLY);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> bytes(SigSet::kMaxMember * sizeof(SigAction) + 1, 0xff);
  auto n = io.Read(*fd, bytes.data(), bytes.size());
  EXPECT_TRUE(io.Close(*fd).ok());
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, static_cast<int64_t>(SigSet::kMaxMember * sizeof(SigAction)));
  for (int64_t i = 0; i < *n; ++i) {
    ASSERT_EQ(bytes[static_cast<size_t>(i)], 0) << "byte " << i;
  }
}

// A pause() sleeper and a procd peer's controller never set an action or
// take a signal, so neither allocates signal tables; both still read 128
// default actions, locally and through procd.
TEST(ProcRecord, SleeperAndPeerNeverAllocateSignalTables) {
  Sim sim;
  Kernel& k = sim.kernel();
  ProcdServer server(k);
  RemoteProcIo remote(server.Connect(Creds::Root()));
  auto peer = remote.PeerPid();
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/pauser", kPauser).ok());
  auto sleeper = sim.Start("/bin/pauser");
  ASSERT_TRUE(sleeper.ok());
  ASSERT_TRUE(k.RunUntil([&] { return Asleep(k, *sleeper); }));

  LocalProcIo local(k, sim.controller());
  for (Pid pid : {*sleeper, *peer}) {
    ExpectDefaultActions(local, pid);
    ExpectDefaultActions(remote, pid);
  }
  auto rows = PsSnapshotAll(remote, *peer);
  ASSERT_TRUE(rows.ok());
  for (Pid pid : {*sleeper, *peer}) {
    Proc* p = k.FindProc(pid);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->sig.tables, nullptr) << "pid " << pid;
  }
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// A pending signal's siginfo lives in the tables, so a pending signal on a
// process without them is a violation.
TEST(ProcRecord, PendingSignalWithoutTablesIsAViolation) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/pauser", kPauser).ok());
  auto pid = sim.Start("/bin/pauser");
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(k.RunUntil([&] { return Asleep(k, *pid); }));
  Proc* p = k.FindProc(*pid);
  ASSERT_EQ(p->sig.tables, nullptr);
  EXPECT_TRUE(k.CheckInvariants().empty());
  p->sig.pending.Add(SIGUSR1);
  auto v = k.CheckInvariants();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("pending signal with no signal table"), std::string::npos) << v[0];
  p->sig.pending.Remove(SIGUSR1);

  // Posting a signal allocates the tables and keeps the invariant.
  ASSERT_TRUE(k.Kill(sim.controller(), *pid, SIGUSR1).ok());
  EXPECT_NE(p->sig.tables, nullptr);
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// The bytes [offset, offset + size) of `field` within `rec`, as its end.
template <typename Rec, typename Field>
size_t EndOf(const Rec& rec, const Field& field) {
  return static_cast<size_t>(reinterpret_cast<const char*>(&field) -
                             reinterpret_cast<const char*>(&rec)) +
         sizeof(field);
}

// Every field a psinfo row reads lies in Proc's first 192 bytes and the
// lwp's first 64. Offsets are taken from a live record, not offsetof: Proc
// is not standard-layout.
TEST(ProcRecord, PsRowReadsTheFrontOfTheRecord) {
  Proc p;
  Lwp l;
  const size_t proc_ends[] = {
      EndOf(p, p.pid),    EndOf(p, p.ppid),       EndOf(p, p.pgrp),
      EndOf(p, p.sid),    EndOf(p, p.nice),       EndOf(p, p.state),
      EndOf(p, p.native), EndOf(p, p.system_proc), EndOf(p, p.start_tick),
      EndOf(p, p.utime),  EndOf(p, p.stime),      EndOf(p, p.as),
      EndOf(p, p.lwps),   EndOf(p, p.name),       EndOf(p, p.psargs),
      EndOf(p, p.creds.ruid), EndOf(p, p.creds.rgid),
  };
  for (size_t i = 0; i < std::size(proc_ends); ++i) {
    EXPECT_LE(proc_ends[i], 192u) << "Proc field " << i;
  }
  const size_t lwp_ends[] = {
      EndOf(l, l.state),      EndOf(l, l.cpu),       EndOf(l, l.in_syscall),
      EndOf(l, l.cur_syscall), EndOf(l, l.istop),    EndOf(l, l.stop_why),
      EndOf(l, l.stop_what),  EndOf(l, l.stopped_while_asleep),
      EndOf(l, l.sleep.interruptible),
  };
  for (size_t i = 0; i < std::size(lwp_ends); ++i) {
    EXPECT_LE(lwp_ends[i], 64u) << "Lwp field " << i;
  }
  EXPECT_LE(sizeof(Proc), 1024u);
}

}  // namespace
}  // namespace svr4
