// Tests for the hierarchical /proc2 (the paper's proposed restructuring) and
// for the ptrace-as-a-library implementation built on /proc.
#include <gtest/gtest.h>

#include <cstring>

#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/ptlib/ptrace_lib.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kCounter[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

struct Target {
  Pid pid;
  Aout image;
};

Target StartProgram(Sim& sim, const std::string& src, const std::string& path = "/bin/prog") {
  auto img = sim.InstallProgram(path, src);
  EXPECT_TRUE(img.ok());
  auto pid = sim.Start(path);
  EXPECT_TRUE(pid.ok());
  return Target{pid.ok() ? *pid : -1, img.ok() ? *img : Aout{}};
}

std::string Pr2Path(Pid pid, const std::string& file) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/proc2/%05d/%s", pid, file.c_str());
  return buf;
}

std::string FlatPathOf(Pid pid) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/proc/%05d", pid);
  return buf;
}

// Builds a control-message stream.
class CtlMsg {
 public:
  CtlMsg& Cmd(int32_t code) {
    Append(&code, 4);
    return *this;
  }
  template <typename T>
  CtlMsg& Cmd(int32_t code, const T& operand) {
    Append(&code, 4);
    Append(&operand, sizeof(T));
    return *this;
  }
  CtlMsg& Run(uint32_t flags, uint32_t vaddr = 0) {
    int32_t code = PCRUN;
    Append(&code, 4);
    Append(&flags, 4);
    Append(&vaddr, 4);
    return *this;
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  void Append(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

// Opens a /proc2 file and returns the fd.
int OpenPr2(Sim& sim, Pid pid, const std::string& file, int oflags) {
  auto fd = sim.kernel().Open(sim.controller(), Pr2Path(pid, file), oflags);
  EXPECT_TRUE(fd.ok()) << "open " << file << ": "
                       << (fd.ok() ? "" : std::string(ErrnoName(fd.error())));
  return fd.ok() ? *fd : -1;
}

Result<int64_t> WriteCtl(Sim& sim, int fd, const CtlMsg& msg) {
  return sim.kernel().Write(sim.controller(), fd, msg.bytes().data(), msg.bytes().size());
}

TEST(Proc2Dir, HierarchyIsNavigable) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto root = sim.kernel().ReadDir(sim.controller(), "/proc2");
  ASSERT_TRUE(root.ok());
  bool found = false;
  char want[8];
  std::snprintf(want, sizeof(want), "%05d", t.pid);
  for (const auto& e : *root) {
    if (e.name == want) {
      EXPECT_EQ(e.type, VType::kDir) << "process entries are directories now";
      found = true;
    }
  }
  EXPECT_TRUE(found);

  auto dir = sim.kernel().ReadDir(sim.controller(), Pr2Path(t.pid, ""));
  ASSERT_TRUE(dir.ok());
  std::vector<std::string> names;
  for (const auto& e : *dir) {
    names.push_back(e.name);
  }
  for (const char* want_file :
       {"as", "ctl", "status", "psinfo", "map", "cred", "sigact", "usage", "lwp"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want_file), names.end())
        << "missing " << want_file;
  }

  auto lwps = sim.kernel().ReadDir(sim.controller(), Pr2Path(t.pid, "lwp"));
  ASSERT_TRUE(lwps.ok());
  ASSERT_EQ(lwps->size(), 1u);
  EXPECT_EQ((*lwps)[0].name, "1");
}

TEST(Proc2Status, ReadStatusMatchesFlatIoctl) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  auto h = ProcHandle::Grab(sim.kernel(), sim.controller(), t.pid);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->Stop().ok());
  auto flat = h->Status();
  ASSERT_TRUE(flat.ok());

  int fd = OpenPr2(sim, t.pid, "status", O_RDONLY);
  PrStatus st;
  auto n = sim.kernel().Read(sim.controller(), fd, &st, sizeof(st));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, static_cast<int64_t>(sizeof(st)));
  EXPECT_EQ(st.pr_pid, flat->pr_pid);
  EXPECT_EQ(st.pr_why, flat->pr_why);
  EXPECT_EQ(st.pr_flags, flat->pr_flags);
  EXPECT_EQ(st.pr_reg.pc, flat->pr_reg.pc);
}

TEST(Proc2Status, PartialReadsAtOffsets) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int fd = OpenPr2(sim, t.pid, "psinfo", O_RDONLY);
  PrPsinfo whole;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), fd, &whole, sizeof(whole)).ok());
  // Seek back into the middle and reread.
  ASSERT_TRUE(sim.kernel().Lseek(sim.controller(), fd, 4, SEEK_SET_).ok());
  std::vector<uint8_t> chunk(8);
  auto n = sim.kernel().Read(sim.controller(), fd, chunk.data(), chunk.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8);
  EXPECT_EQ(std::memcmp(chunk.data(), reinterpret_cast<uint8_t*>(&whole) + 4, 8), 0);
}

TEST(Proc2Ctl, StopAndRunViaControlMessages) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCSTOP)).ok());
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  EXPECT_EQ(p->MainLwp()->stop_why, PR_REQUESTED);
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Run(0)).ok());
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
}

TEST(Proc2Ctl, BatchedMessagesInOneWrite) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  // "The use of a control file ... makes it possible to combine several
  // control operations in a single write system call."
  SigSet sigs;
  sigs.Add(SIGUSR1);
  FltSet faults;
  faults.Add(FLTBPT);
  uint32_t modes = PR_FORK | PR_RLC;
  CtlMsg batch;
  batch.Cmd(PCSTOP).Cmd(PCSTRACE, sigs).Cmd(PCSFAULT, faults).Cmd(PCSET, modes);
  auto n = WriteCtl(sim, ctl, batch);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, static_cast<int64_t>(batch.bytes().size()));

  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  EXPECT_TRUE(p->trace.sigtrace.Has(SIGUSR1));
  EXPECT_TRUE(p->trace.flttrace.Has(FLTBPT));
  EXPECT_TRUE(p->trace.inherit_on_fork);
  EXPECT_TRUE(p->trace.run_on_last_close);
}

TEST(Proc2Ctl, ErrorMidStreamKeepsEarlierEffects) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  SigSet sigs;
  sigs.Add(SIGUSR2);
  CtlMsg batch;
  batch.Cmd(PCSTRACE, sigs).Cmd(9999);  // unknown message
  auto n = WriteCtl(sim, ctl, batch);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error(), Errno::kEINVAL);
  Proc* p = sim.kernel().FindProc(t.pid);
  EXPECT_TRUE(p->trace.sigtrace.Has(SIGUSR2)) << "messages already executed stand";
}

TEST(Proc2Ctl, KillAndSignalInjection) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  int32_t sig = SIGKILL;
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCKILL, sig)).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfSignaled(*ec));
  EXPECT_EQ(WTermSig(*ec), SIGKILL);
}

TEST(Proc2Ctl, SetRegistersViaMessage) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCSTOP)).ok());
  int sfd = OpenPr2(sim, t.pid, "status", O_RDONLY);
  PrStatus st;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), sfd, &st, sizeof(st)).ok());
  Regs regs = st.pr_reg;
  regs.r[11] = 0xABCD;
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCSREG, regs)).ok());
  Proc* p = sim.kernel().FindProc(t.pid);
  EXPECT_EQ(p->MainLwp()->regs.r[11], 0xABCDu);
}

TEST(Proc2Ctl, WatchpointViaMessage) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  uint32_t var = *t.image.SymbolValue("var");
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  FltSet faults;
  faults.Add(FLTWATCH);
  PrWatch w{var, 4, WA_WRITE};
  CtlMsg batch;
  batch.Cmd(PCSTOP).Cmd(PCSFAULT, faults).Cmd(PCWATCH, w).Run(0);
  ASSERT_TRUE(WriteCtl(sim, ctl, batch).ok());
  // Wait for the watchpoint to fire.
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCWSTOP)).ok());
  Proc* p = sim.kernel().FindProc(t.pid);
  EXPECT_EQ(p->MainLwp()->stop_why, PR_FAULTED);
  EXPECT_EQ(p->MainLwp()->stop_what, FLTWATCH);
}

TEST(Proc2Ctl, SignalInjectionViaPCSSIG) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
spin: jmp spin
handler:
      ldi r0, SYS_exit
      ldi r1, 66
      sys
  )");
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  SigInfo info;
  info.si_signo = SIGUSR1;
  CtlMsg batch;
  batch.Cmd(PCDSTOP).Cmd(PCWSTOP).Cmd(PCSSIG, info).Run(0);
  ASSERT_TRUE(WriteCtl(sim, ctl, batch).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WExitCode(*ec), 66) << "the injected signal reached the handler";
}

TEST(Proc2Ctl, UnkillDeletesPendingSignal) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  int32_t term = SIGTERM;
  CtlMsg batch;
  batch.Cmd(PCDSTOP).Cmd(PCWSTOP).Cmd(PCKILL, term).Cmd(PCUNKILL, term).Run(0);
  ASSERT_TRUE(WriteCtl(sim, ctl, batch).ok());
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->state, Proc::State::kActive) << "the deleted signal never fired";
}

TEST(Proc2Ctl, NiceViaMessage) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  int32_t delta = 7;
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCNICE, delta)).ok());
  EXPECT_EQ(sim.kernel().FindProc(t.pid)->nice, 27);
}

TEST(Proc2Lwp, FpRegistersViaLwpCtl) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCSTOP)).ok());
  int lctl = OpenPr2(sim, t.pid, "lwp/1/lwpctl", O_WRONLY);
  FpRegs fp;
  fp.f[4] = 6.25;
  ASSERT_TRUE(WriteCtl(sim, lctl, CtlMsg().Cmd(PCSFPREG, fp)).ok());
  int lst = OpenPr2(sim, t.pid, "lwp/1/lwpstatus", O_RDONLY);
  PrLwpStatus ls;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), lst, &ls, sizeof(ls)).ok());
  EXPECT_DOUBLE_EQ(ls.pr_fpreg.f[4], 6.25);
}

TEST(Proc2Files, AsFileReadsAndWritesMemory) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  uint32_t var = *t.image.SymbolValue("var");
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  int as = OpenPr2(sim, t.pid, "as", O_RDWR);
  ASSERT_TRUE(sim.kernel().Lseek(sim.controller(), as, var, SEEK_SET_).ok());
  uint32_t v = 0;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), as, &v, 4).ok());
  EXPECT_GT(v, 0u);
  uint32_t big = 900000;
  ASSERT_TRUE(sim.kernel().Lseek(sim.controller(), as, var, SEEK_SET_).ok());
  ASSERT_TRUE(sim.kernel().Write(sim.controller(), as, &big, 4).ok());
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  ASSERT_TRUE(sim.kernel().Lseek(sim.controller(), as, var, SEEK_SET_).ok());
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), as, &v, 4).ok());
  EXPECT_GE(v, big);
}

TEST(Proc2Files, AccessModesEnforced) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  // ctl is write-only.
  auto r = sim.kernel().Open(sim.controller(), Pr2Path(t.pid, "ctl"), O_RDONLY);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEACCES);
  // status files are read-only.
  r = sim.kernel().Open(sim.controller(), Pr2Path(t.pid, "status"), O_WRONLY);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEACCES);
  // Reading from a ctl fd / writing to a status fd fail outright.
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  uint8_t b;
  EXPECT_FALSE(sim.kernel().Read(sim.controller(), ctl, &b, 1).ok());
}

// A write-only file refuses a descriptor that could read it: O_RDWR on ctl
// or lwpctl fails at open, as O_RDONLY does, rather than opening and then
// answering every read EACCES. A file with both bits still takes O_RDWR.
TEST(Proc2Files, WriteOnlyFilesRefuseReadWriteOpen) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  for (const char* file : {"ctl", "lwp/1/lwpctl"}) {
    auto r = sim.kernel().Open(sim.controller(), Pr2Path(t.pid, file), O_RDWR);
    ASSERT_FALSE(r.ok()) << file;
    EXPECT_EQ(r.error(), Errno::kEACCES) << file;
    int fd = OpenPr2(sim, t.pid, file, O_WRONLY);
    EXPECT_TRUE(sim.kernel().Close(sim.controller(), fd).ok());
  }
  int as = OpenPr2(sim, t.pid, "as", O_RDWR);
  EXPECT_TRUE(sim.kernel().Close(sim.controller(), as).ok());
}

TEST(Proc2Files, MapFileSerializesMappings) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  int fd = OpenPr2(sim, t.pid, "map", O_RDONLY);
  std::vector<PrMapEntry> maps(32);
  auto n = sim.kernel().Read(sim.controller(), fd, maps.data(),
                             maps.size() * sizeof(PrMapEntry));
  ASSERT_TRUE(n.ok());
  size_t count = static_cast<size_t>(*n) / sizeof(PrMapEntry);
  ASSERT_GE(count, 3u) << "text, data, break, stack at least";
  bool text = false;
  for (size_t i = 0; i < count; ++i) {
    if ((maps[i].pr_mflags & MA_EXEC) && maps[i].pr_vaddr == 0x80000000u) {
      text = true;
    }
  }
  EXPECT_TRUE(text);
}

TEST(Proc2Files, CredAndUsage) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  int cfd = OpenPr2(sim, t.pid, "cred", O_RDONLY);
  PrCred cred;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), cfd, &cred, sizeof(cred)).ok());
  EXPECT_EQ(cred.pr_ruid, 0u);
  int ufd = OpenPr2(sim, t.pid, "usage", O_RDONLY);
  PrUsage usage;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), ufd, &usage, sizeof(usage)).ok());
  EXPECT_GT(usage.pr_utime, 0u);
}

TEST(Proc2Lwp, PerLwpStatusAndControl) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_lwp_create
      ldi r1, thread
      ldi r2, tstack+1024
      sys
spin: jmp spin
thread:
      ldi r7, 0x77
t2:   jmp t2
      .bss
tstack: .space 1024
  )");
  for (int i = 0; i < 200; ++i) {
    sim.kernel().Step();
  }
  // Two lwp subdirectories.
  auto lwps = sim.kernel().ReadDir(sim.controller(), Pr2Path(t.pid, "lwp"));
  ASSERT_TRUE(lwps.ok());
  ASSERT_EQ(lwps->size(), 2u);

  // Stop only lwp 2 via its own ctl file; lwp 1 keeps running.
  int ctl2 = OpenPr2(sim, t.pid, "lwp/2/lwpctl", O_WRONLY);
  ASSERT_TRUE(WriteCtl(sim, ctl2, CtlMsg().Cmd(PCDSTOP)).ok());
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->FindLwp(2)->state, LwpState::kStopped);
  EXPECT_EQ(p->FindLwp(1)->state, LwpState::kRunning)
      << "a per-lwp stop leaves siblings running";

  // Read lwp 2's registers through its status file.
  int st2 = OpenPr2(sim, t.pid, "lwp/2/lwpstatus", O_RDONLY);
  PrLwpStatus ls;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), st2, &ls, sizeof(ls)).ok());
  EXPECT_EQ(ls.pr_lwpid, 2);
  EXPECT_TRUE(ls.pr_flags & PR_STOPPED);
  EXPECT_EQ(ls.pr_reg.r[7], 0x77u);

  // Resume it per-lwp.
  ASSERT_TRUE(WriteCtl(sim, ctl2, CtlMsg().Run(0)).ok());
  EXPECT_EQ(p->FindLwp(2)->state, LwpState::kRunning);
}

// An lwp's stop flags read the same in status and in its lwpstatus: an lwp
// stopped asleep reads PR_ASLEEP in both, and one run with PRSTEP|PRSTOP
// reads PR_STEP in both.
TEST(Proc2Lwp, StatusFlagsMatchProcessStatus) {
  Sim sim;
  Kernel& k = sim.kernel();
  auto asleep = StartProgram(sim, R"(
loop: ldi r0, SYS_pause
      sys
      jmp loop
  )", "/bin/pauser");
  auto stepped = StartProgram(sim, kCounter);
  ASSERT_TRUE(k.RunUntil(
      [&] { return k.FindProc(asleep.pid)->MainLwp()->state == LwpState::kSleeping; }));

  auto sleeper = ProcHandle::Grab(k, sim.controller(), asleep.pid);
  ASSERT_TRUE(sleeper.ok());
  ASSERT_TRUE(sleeper->Stop().ok());
  auto stepper = ProcHandle::Grab(k, sim.controller(), stepped.pid);
  ASSERT_TRUE(stepper.ok());
  ASSERT_TRUE(stepper->Stop().ok());
  PrRun run;
  run.pr_flags = PRSTEP | PRSTOP;
  ASSERT_TRUE(stepper->Run(run).ok());
  ASSERT_TRUE(stepper->WaitStop().ok());

  for (auto [pid, flag] : {std::pair{asleep.pid, PR_ASLEEP}, std::pair{stepped.pid, PR_STEP}}) {
    PrStatus st;
    int sfd = OpenPr2(sim, pid, "status", O_RDONLY);
    ASSERT_EQ(*k.Read(sim.controller(), sfd, &st, sizeof(st)), int64_t{sizeof(st)});
    PrLwpStatus ls;
    int lfd = OpenPr2(sim, pid, "lwp/1/lwpstatus", O_RDONLY);
    ASSERT_EQ(*k.Read(sim.controller(), lfd, &ls, sizeof(ls)), int64_t{sizeof(ls)});
    EXPECT_TRUE(st.pr_flags & PR_STOPPED);
    EXPECT_TRUE(st.pr_flags & flag) << std::hex << st.pr_flags;
    EXPECT_EQ(ls.pr_flags, st.pr_flags) << std::hex << "lwpstatus 0x" << ls.pr_flags
                                        << ", status 0x" << st.pr_flags;
    EXPECT_EQ(ls.pr_why, st.pr_why);
    EXPECT_EQ(ls.pr_what, st.pr_what);
  }
}

// /proc2/<pid>/lwp and /proc2/<pid>/lwp/<n> stat as the process's real uid
// and gid, as /proc2/<pid> does, and a held directory answers ENOENT once
// the process is gone.
TEST(Proc2Lwp, LwpDirectoriesStatAsTheirProcess) {
  Sim sim;
  Kernel& k = sim.kernel();
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = k.Spawn("/bin/prog", {"prog"}, Creds::User(200, 20), sim.controller());
  ASSERT_TRUE(pid.ok());
  std::vector<VnodePtr> dirs;
  for (const char* dir : {"", "/lwp", "/lwp/1"}) {
    std::string path = Pr2Path(*pid, "");
    path.pop_back();
    path += dir;
    auto st = k.Stat(sim.controller(), path);
    ASSERT_TRUE(st.ok()) << path;
    EXPECT_EQ(st->uid, 200u) << path;
    EXPECT_EQ(st->gid, 20u) << path;
    auto vp = k.vfs().Resolve(path);
    ASSERT_TRUE(vp.ok()) << path;
    dirs.push_back(*vp);
  }
  ASSERT_TRUE(k.Kill(sim.controller(), *pid, SIGKILL).ok());
  ASSERT_TRUE(k.Wait(sim.controller(), *pid).ok());
  ASSERT_EQ(k.FindProc(*pid), nullptr);
  for (const VnodePtr& vp : dirs) {
    auto st = vp->GetAttr();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), Errno::kENOENT);
  }
  auto status = dirs[2]->Lookup("lwpstatus");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error(), Errno::kENOENT);
}

TEST(Proc2Security, SamePermissionRulesAsFlat) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* stranger = sim.NewController(Creds::User(200, 20), "stranger");
  auto r = sim.kernel().Open(stranger, Pr2Path(*pid, "status"), O_RDONLY);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEACCES);
}

TEST(Proc2Security, SetIdExecInvalidatesDescriptorsToo) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/suid", "spin: jmp spin\n", 04755, 0, 0).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
  )").ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::User(100, 10));
  ASSERT_TRUE(pid.ok());
  Proc* owner = sim.NewController(Creds::User(100, 10), "owner");
  auto fd = sim.kernel().Open(owner, Pr2Path(*pid, "status"), O_RDONLY);
  ASSERT_TRUE(fd.ok());
  PrStatus st;
  ASSERT_TRUE(sim.kernel().Read(owner, *fd, &st, sizeof(st)).ok());

  sim.kernel().RunUntil([&]() {
    Proc* p = sim.kernel().FindProc(*pid);
    return p == nullptr ||
           (p->MainLwp() != nullptr && p->MainLwp()->state == LwpState::kStopped);
  });
  // The pre-exec descriptor is invalid now.
  ASSERT_TRUE(sim.kernel().Lseek(owner, *fd, 0, SEEK_SET_).ok());
  auto r = sim.kernel().Read(owner, *fd, &st, sizeof(st));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEACCES);
  // A fresh open by the owner is refused (set-id target).
  auto again = sim.kernel().Open(owner, Pr2Path(*pid, "status"), O_RDONLY);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), Errno::kEACCES);
  // The super-user can.
  EXPECT_TRUE(sim.kernel().Open(sim.controller(), Pr2Path(*pid, "status"),
                                O_RDONLY).ok());
}

TEST(Proc2Dir, ZombieKeepsPsinfoButLosesContextFiles) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/quick", R"(
      ldi r0, SYS_exit
      ldi r1, 5
      sys
  )").ok());
  auto pid = sim.kernel().Spawn("/bin/quick", {"quick"}, Creds::Root(),
                                sim.controller());
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(sim.kernel().RunToExit(*pid).ok());
  // psinfo still answers; status and as do not.
  int pfd = OpenPr2(sim, *pid, "psinfo", O_RDONLY);
  PrPsinfo ps;
  ASSERT_TRUE(sim.kernel().Read(sim.controller(), pfd, &ps, sizeof(ps)).ok());
  EXPECT_EQ(ps.pr_state, 'Z');
  int sfd = OpenPr2(sim, *pid, "status", O_RDONLY);
  PrStatus st;
  EXPECT_FALSE(sim.kernel().Read(sim.controller(), sfd, &st, sizeof(st)).ok());
  int afd = OpenPr2(sim, *pid, "as", O_RDWR);
  uint8_t b;
  EXPECT_FALSE(sim.kernel().Read(sim.controller(), afd, &b, 1).ok());
}

TEST(Proc2Ctl, RunOnLastCloseWorksThroughCtl) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  {
    int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
    SigSet sigs;
    sigs.Add(SIGUSR1);
    uint32_t rlc = PR_RLC;
    CtlMsg batch;
    batch.Cmd(PCSTOP).Cmd(PCSTRACE, sigs).Cmd(PCSET, rlc);
    ASSERT_TRUE(WriteCtl(sim, ctl, batch).ok());
    Proc* p = sim.kernel().FindProc(t.pid);
    EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
    ASSERT_TRUE(sim.kernel().Close(sim.controller(), ctl).ok());
  }
  Proc* p = sim.kernel().FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning)
      << "closing the last writable ctl descriptor releases the process";
  EXPECT_TRUE(p->trace.sigtrace.Empty());
}

// ---------------------------------------------------------------------------
// The /proc open ledger: flat files, /proc2 files and lwp files open, count,
// validate, poll and close by one set of rules.
// ---------------------------------------------------------------------------

// Execs a set-id program straight away.
constexpr char kExecSuid[] = R"(
      ldi r0, SYS_exec
      ldi r1, path
      ldi r2, 0
      sys
      ldi r0, SYS_exit
      ldi r1, 1
      sys
      .data
path: .asciz "/bin/suid"
)";

// A user-100 process that execs a root set-id program; the controller is
// the super-user, so it may open the target before and after the exec.
Pid StartSetIdExec(Sim& sim) {
  EXPECT_TRUE(sim.InstallProgram("/bin/suid", "spin: jmp spin\n", 04755, 0, 0).ok());
  EXPECT_TRUE(sim.InstallProgram("/bin/prog", kExecSuid).ok());
  auto pid = sim.kernel().Spawn("/bin/prog", {"prog"}, Creds::User(100, 10));
  EXPECT_TRUE(pid.ok());
  return pid.ok() ? *pid : -1;
}

void RunUntilSetId(Sim& sim, Pid pid) {
  ASSERT_TRUE(sim.kernel().RunUntil([&] {
    Proc* p = sim.kernel().FindProc(pid);
    return p == nullptr || p->setid;
  }));
  ASSERT_NE(sim.kernel().FindProc(pid), nullptr);
}

// Opens /proc2/<target>/<file> for writing, forks a child that inherits the
// descriptor and pauses, and exits.
std::string OpenForkExit(Pid target, const std::string& file) {
  return R"(
      ldi r0, SYS_open
      ldi r1, path
      ldi r2, O_WRONLY
      ldi r3, 0
      sys
      ldi r0, SYS_fork
      sys
      cmpi r0, 0
      jz child
      ldi r0, SYS_exit
      ldi r1, 0
      sys
child:
      ldi r0, SYS_pause
      sys
      jmp child
      .data
path: .asciz ")" + Pr2Path(target, file) + "\"\n";
}

// The opener of a ctl or lwpctl descriptor exits and is reaped while a
// forked child still holds the descriptor: the child's write runs as an
// anonymous, non-native caller and its close balances the ledger.
class ProcLedgerOpenerReaped : public ::testing::TestWithParam<const char*> {};

TEST_P(ProcLedgerOpenerReaped, ChildWritesAndClosesTheInheritedDescriptor) {
  Sim sim;
  Kernel& k = sim.kernel();
  auto t = StartProgram(sim, kCounter);
  ASSERT_TRUE(sim.InstallProgram("/bin/opener", OpenForkExit(t.pid, GetParam())).ok());
  auto opener = k.Spawn("/bin/opener", {"opener"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(opener.ok());
  Proc* child = nullptr;
  ASSERT_TRUE(k.RunUntil([&] {
    for (Pid q : k.AllPids()) {
      Proc* c = k.FindProc(q);
      if (q != *opener && c->name == "opener" && c->MainLwp() != nullptr &&
          c->MainLwp()->state == LwpState::kSleeping) {
        child = c;
      }
    }
    return child != nullptr && k.FindProc(*opener)->state == Proc::State::kZombie;
  }));
  ASSERT_TRUE(k.Wait(sim.controller(), *opener).ok());
  ASSERT_EQ(k.FindProc(*opener), nullptr) << "the opener must be reaped";
  int fd = -1;
  for (size_t i = 0; i < child->fds.size(); ++i) {
    if (child->fds[i] && child->fds[i]->vp->type() == VType::kProc) {
      fd = static_cast<int>(i);
    }
  }
  ASSERT_GE(fd, 0);

  CtlMsg msg;
  msg.Cmd(PCDSTOP);
  auto w = k.Write(child, fd, msg.bytes().data(), msg.bytes().size());
  ASSERT_TRUE(w.ok()) << ErrnoName(w.error());
  EXPECT_EQ(*w, 4);
  Proc* p = k.FindProc(t.pid);
  ASSERT_NE(p, nullptr);
  ASSERT_GT(p->trace.audit_total, 0u);
  const CtlAuditRec& rec = (*p->trace.audit)[(p->trace.audit_total - 1) % kCtlAuditCap];
  EXPECT_STREQ(rec.pr_op, "PCDSTOP");
  EXPECT_EQ(rec.pr_caller, 0) << "a reaped opener is nobody";
  EXPECT_EQ(rec.pr_errno, 0);
  EXPECT_TRUE(k.CheckInvariants().empty());

  ASSERT_TRUE(k.Close(child, fd).ok());
  EXPECT_EQ(p->trace.total_opens, 0);
  EXPECT_EQ(p->trace.writable_opens, 0);
  EXPECT_TRUE(k.CheckInvariants().empty());
}

INSTANTIATE_TEST_SUITE_P(CtlFiles, ProcLedgerOpenerReaped,
                         ::testing::Values("ctl", "lwp/1/lwpctl"),
                         [](const auto& info) {
                           return std::string(info.index == 0 ? "ctl" : "lwpctl");
                         });

TEST(ProcLedger, LwpStatusOpenCounts) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  Proc* p = sim.kernel().FindProc(t.pid);
  int fd = OpenPr2(sim, t.pid, "lwp/1/lwpstatus", O_RDONLY);
  EXPECT_EQ(p->trace.total_opens, 1);
  EXPECT_EQ(p->trace.writable_opens, 0);
  EXPECT_TRUE(sim.kernel().CheckInvariants().empty());
  ASSERT_TRUE(sim.kernel().Close(sim.controller(), fd).ok());
  EXPECT_EQ(p->trace.total_opens, 0);
}

TEST(ProcLedger, CtlExclusiveHolderRefusesLwpCtl) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  Kernel& k = sim.kernel();
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY | O_EXCL);
  auto lwpctl = k.Open(sim.controller(), Pr2Path(t.pid, "lwp/1/lwpctl"), O_WRONLY);
  ASSERT_FALSE(lwpctl.ok());
  EXPECT_EQ(lwpctl.error(), Errno::kEBUSY);
  // Read-only lwp files are unaffected by exclusivity.
  EXPECT_TRUE(k.Open(sim.controller(), Pr2Path(t.pid, "lwp/1/lwpstatus"), O_RDONLY).ok());
  ASSERT_TRUE(k.Close(sim.controller(), ctl).ok());

  // A writable lwpctl honours O_EXCL both ways.
  int lwp = OpenPr2(sim, t.pid, "lwp/1/lwpctl", O_WRONLY | O_EXCL);
  auto flat = k.Open(sim.controller(), FlatPathOf(t.pid), O_RDWR);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.error(), Errno::kEBUSY);
  ASSERT_TRUE(k.Close(sim.controller(), lwp).ok());
  int writer = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  auto excl = k.Open(sim.controller(), Pr2Path(t.pid, "lwp/1/lwpctl"), O_WRONLY | O_EXCL);
  ASSERT_FALSE(excl.ok());
  EXPECT_EQ(excl.error(), Errno::kEBUSY);
  ASSERT_TRUE(k.Close(sim.controller(), writer).ok());
  EXPECT_TRUE(k.CheckInvariants().empty());
}

TEST(ProcLedger, RunOnLastCloseWaitsForTheLastLwpCtl) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  Kernel& k = sim.kernel();
  int ctl = OpenPr2(sim, t.pid, "ctl", O_WRONLY);
  int lwpctl = OpenPr2(sim, t.pid, "lwp/1/lwpctl", O_WRONLY);
  uint32_t rlc = PR_RLC;
  ASSERT_TRUE(WriteCtl(sim, ctl, CtlMsg().Cmd(PCSTOP).Cmd(PCSET, rlc)).ok());
  Proc* p = k.FindProc(t.pid);
  ASSERT_EQ(p->MainLwp()->state, LwpState::kStopped);

  ASSERT_TRUE(k.Close(sim.controller(), ctl).ok());
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped)
      << "a writable lwpctl is still open: the last close has not come";
  EXPECT_TRUE(p->trace.run_on_last_close);
  ASSERT_TRUE(k.Close(sim.controller(), lwpctl).ok());
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
  EXPECT_FALSE(p->trace.run_on_last_close);
  EXPECT_TRUE(k.CheckInvariants().empty());
}

TEST(ProcLedger, LwpFilePollAfterReapIsNval) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/quick", R"(
      ldi r0, SYS_exit
      ldi r1, 5
      sys
  )").ok());
  Kernel& k = sim.kernel();
  auto pid = k.Spawn("/bin/quick", {"quick"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(pid.ok());
  int fd = OpenPr2(sim, *pid, "lwp/1/lwpstatus", O_RDONLY);
  PollFd pf;
  pf.fd = fd;
  pf.events = POLLIN | POLLPRI;
  ASSERT_TRUE(k.RunToExit(*pid).ok());
  auto n = k.PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(pf.revents, POLLHUP) << "a zombie hangs up";
  ASSERT_TRUE(k.Wait(sim.controller(), *pid).ok());
  n = k.PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(pf.revents, POLLNVAL);
  ASSERT_TRUE(k.Close(sim.controller(), fd).ok());
  EXPECT_TRUE(k.CheckInvariants().empty());
}

TEST(ProcLedger, LwpFilesAreInvalidatedBySetIdExec) {
  Sim sim;
  Kernel& k = sim.kernel();
  Pid pid = StartSetIdExec(sim);
  // The lwp files are the controller's only descriptors on the target.
  int lwpctl = OpenPr2(sim, pid, "lwp/1/lwpctl", O_WRONLY);
  int lwpstatus = OpenPr2(sim, pid, "lwp/1/lwpstatus", O_RDONLY);
  ASSERT_NO_FATAL_FAILURE(RunUntilSetId(sim, pid));

  auto w = WriteCtl(sim, lwpctl, CtlMsg().Cmd(PCDSTOP));
  ASSERT_FALSE(w.ok()) << "an lwpctl descriptor kept control across a set-id exec";
  EXPECT_EQ(w.error(), Errno::kEACCES);
  PrLwpStatus ls;
  auto r = k.Read(sim.controller(), lwpstatus, &ls, sizeof(ls));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kEACCES);
  PollFd pf;
  pf.fd = lwpctl;
  pf.events = POLLPRI;
  ASSERT_TRUE(k.PollFds(sim.controller(), std::span<PollFd>(&pf, 1), 0).ok());
  EXPECT_EQ(pf.revents, POLLNVAL);

  // The exec directed the target to stop; the last stale writer's close
  // runs it again.
  Proc* p = k.FindProc(pid);
  EXPECT_EQ(p->trace.stale_total_opens, 2);
  EXPECT_EQ(p->trace.stale_writable_opens, 1);
  ASSERT_TRUE(k.Close(sim.controller(), lwpstatus).ok());
  ASSERT_TRUE(k.Close(sim.controller(), lwpctl).ok());
  EXPECT_EQ(p->trace.stale_total_opens, 0);
  EXPECT_FALSE(p->trace.run_on_last_close);
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// ---------------------------------------------------------------------------
// ptrace as a library over /proc.
// ---------------------------------------------------------------------------

TEST(PtraceLibTest, AttachToUnrelatedProcess) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  PtraceLib pt(sim.kernel(), sim.controller());
  // Real ptrace could never do this; /proc makes it a library feature.
  ASSERT_TRUE(pt.Attach(t.pid).ok());
  Proc* p = sim.kernel().FindProc(t.pid);
  EXPECT_EQ(p->MainLwp()->state, LwpState::kStopped);
  // PEEK the first text word.
  auto w = pt.Ptrace(PT_PEEKTEXT, t.pid, 0x80000000, 0);
  ASSERT_TRUE(w.ok());
  uint32_t first_word;
  std::memcpy(&first_word, t.image.text.data(), 4);
  EXPECT_EQ(static_cast<uint32_t>(*w), first_word);
  ASSERT_TRUE(pt.Detach(t.pid).ok());
  EXPECT_EQ(p->MainLwp()->state, LwpState::kRunning);
}

TEST(PtraceLibTest, BreakpointDebuggingThroughPtraceApi) {
  Sim sim;
  auto t = StartProgram(sim, kCounter);
  uint32_t loop = *t.image.SymbolValue("loop");
  PtraceLib pt(sim.kernel(), sim.controller());
  ASSERT_TRUE(pt.Attach(t.pid).ok());

  // Plant a breakpoint with POKETEXT (word-granular, like the real thing).
  auto orig = pt.Ptrace(PT_PEEKTEXT, t.pid, loop, 0);
  ASSERT_TRUE(orig.ok());
  uint32_t patched = (static_cast<uint32_t>(*orig) & ~0xFFu) | kBreakpointByte;
  ASSERT_TRUE(pt.Ptrace(PT_POKETEXT, t.pid, loop, patched).ok());
  ASSERT_TRUE(pt.Ptrace(PT_CONT, t.pid, 1, 0).ok());

  auto wr = pt.Wait();
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->pid, t.pid);
  ASSERT_TRUE(WIfStopped(wr->status));
  EXPECT_EQ(WStopSig(wr->status), SIGTRAP);
  auto pc = pt.Ptrace(PT_PEEKUSER, t.pid, 16, 0);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(static_cast<uint32_t>(*pc), loop);

  // Restore, single-step, re-plant: the classic dance.
  ASSERT_TRUE(pt.Ptrace(PT_POKETEXT, t.pid, loop, static_cast<uint32_t>(*orig)).ok());
  ASSERT_TRUE(pt.Ptrace(PT_STEP, t.pid, 1, 0).ok());
  auto wr2 = pt.Wait();
  ASSERT_TRUE(wr2.ok());
  ASSERT_TRUE(WIfStopped(wr2->status));
  auto pc2 = pt.Ptrace(PT_PEEKUSER, t.pid, 16, 0);
  ASSERT_TRUE(pc2.ok());
  EXPECT_EQ(static_cast<uint32_t>(*pc2), loop + 6) << "stepped one instruction";

  ASSERT_TRUE(pt.Ptrace(PT_KILL, t.pid, 0, 0).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_EQ(WTermSig(*ec), SIGKILL);
}

TEST(PtraceLibTest, SignalInjectionOnContinue) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_sigaction
      ldi r1, SIGUSR1
      ldi r2, handler
      ldi r3, 0
      sys
spin: jmp spin
handler:
      ldi r0, SYS_exit
      ldi r1, 55
      sys
  )");
  for (int i = 0; i < 100; ++i) {
    sim.kernel().Step();
  }
  PtraceLib pt(sim.kernel(), sim.controller());
  ASSERT_TRUE(pt.Attach(t.pid).ok());
  // Continue with an injected SIGUSR1: the handler must run.
  ASSERT_TRUE(pt.Ptrace(PT_CONT, t.pid, 1, SIGUSR1).ok());
  auto ec = sim.kernel().RunToExit(t.pid);
  ASSERT_TRUE(ec.ok());
  EXPECT_TRUE(WIfExited(*ec));
  EXPECT_EQ(WExitCode(*ec), 55);
}

TEST(PtraceLibTest, WaitReportsExit) {
  Sim sim;
  auto t = StartProgram(sim, R"(
      ldi r0, SYS_sleep
      ldi r1, 100
      sys
      ldi r0, SYS_exit
      ldi r1, 8
      sys
  )");
  PtraceLib pt(sim.kernel(), sim.controller());
  ASSERT_TRUE(pt.Attach(t.pid).ok());
  ASSERT_TRUE(pt.Ptrace(PT_CONT, t.pid, 1, 0).ok());
  auto wr = pt.Wait();
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(wr->pid, t.pid);
  EXPECT_TRUE(WIfExited(wr->status));
  EXPECT_EQ(WExitCode(wr->status), 8);
  EXPECT_FALSE(pt.attached(t.pid)) << "exited tracee is forgotten";
}

}  // namespace
}  // namespace svr4
