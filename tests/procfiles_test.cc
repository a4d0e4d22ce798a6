// The /proc namespace, pinned path by path. A fixed population is walked:
// every path under /proc and /proc2, /proc2/kernel and each lwp/<n>
// included. A path's record holds its stat fields, its directory reads
// (ReadDir, and ReadDirChunk three entries at a time with each cookie) and,
// for the super-user controller and a uid-200 stranger, what each open mode
// gives: the errno, or the whole file read in 97-byte pieces (its length
// and FNV-1a hash, or the errno and the bytes read before it), PIOCSTATUS
// on the descriptor and, on a ctl file, a PCNULL write.
//
// The expected hash of each record was captured before the counted /proc
// files were described as one table of rows. Only the rows in kChangedRows
// differ from that capture, each for the reason given there. The remote leg
// walks a second, identical system through procd and must read what the
// local walk reads.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/tools/procio.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kSpinner[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

constexpr char kPauser[] = R"(
loop: ldi r0, SYS_pause
      sys
      jmp loop
)";

constexpr char kTwoLwps[] = R"(
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
)";

constexpr char kQuick[] = R"(
      ldi r0, SYS_exit
      ldi r1, 5
      sys
)";

uint64_t Fnv1a(const void* p, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ b[i]) * 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Err(Errno e) { return std::string(ErrnoName(e)); }

// Pins the topology and the engine, so no SVR4PROC_* setting can move what
// the walk reads, and starts the population: a spinner, a process stopped
// on request, one stopped asleep in pause(2), a two-lwp process and an
// unreaped zombie (a child of the controller), beside sched, init, pageout
// and the controller.
void BuildPopulation(Sim& sim) {
  Kernel& k = sim.kernel();
  k.SetNumCpus(1);
  k.SetSmpMode(SmpMode::kDeterministic);
  k.SetExecEngine(ExecEngine::kAuto);
  ASSERT_TRUE(sim.InstallProgram("/bin/spinner", kSpinner).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/pauser", kPauser).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/twolwps", kTwoLwps).ok());
  ASSERT_TRUE(sim.InstallProgram("/bin/quick", kQuick).ok());
  auto spinner = sim.Start("/bin/spinner");
  auto requested = sim.Start("/bin/spinner");
  auto asleep = sim.Start("/bin/pauser");
  auto twolwps = sim.Start("/bin/twolwps");
  auto zombie = k.Spawn("/bin/quick", {"quick"}, Creds::Root(), sim.controller());
  ASSERT_TRUE(spinner.ok() && requested.ok() && asleep.ok() && twolwps.ok() && zombie.ok());
  ASSERT_TRUE(k.RunUntil([&] {
    Proc* z = k.FindProc(*zombie);
    Proc* a = k.FindProc(*asleep);
    Proc* t = k.FindProc(*twolwps);
    return z->state == Proc::State::kZombie && a->MainLwp()->state == LwpState::kSleeping &&
           t->FindLwp(2) != nullptr;
  }));
  for (int i = 0; i < 50; ++i) {
    k.Step();
  }
  for (Pid pid : {*requested, *asleep}) {
    char path[32];
    std::snprintf(path, sizeof(path), "/proc/%05d", pid);
    auto fd = k.Open(sim.controller(), path, O_RDWR);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(k.Ioctl(sim.controller(), *fd, PIOCSTOP, nullptr).ok());
    ASSERT_TRUE(k.Close(sim.controller(), *fd).ok());
  }
}

// Every path under `top`, each directory before its entries, in Readdir
// order.
void CollectPaths(ProcIo& io, const std::string& top, std::vector<std::string>* out) {
  out->push_back(top);
  auto ents = io.ReadDir(top);
  if (!ents.ok()) {
    return;
  }
  for (const DirEnt& e : *ents) {
    std::string child = top;
    child += '/';
    child += e.name;
    CollectPaths(io, child, out);
  }
}

// Appends " <word>" to a record. (Records are built by appending only:
// GCC 12 at -O3 reports -Wrestrict false positives through
// std::string's operator+.)
void Put(std::string& r, std::string_view word) {
  r += ' ';
  r += word;
}

std::string ReadWhole(ProcIo& io, int fd) {
  uint8_t piece[97];
  uint64_t h = Fnv1a(nullptr, 0);
  uint64_t len = 0;
  std::string r;
  for (;;) {
    auto n = io.Read(fd, piece, sizeof(piece));
    if (!n.ok()) {
      r = Err(n.error());
      r += '@';
      r += std::to_string(len);
      return r;
    }
    if (*n == 0) {
      r = std::to_string(len);
      r += ':';
      r += Hex(h);
      return r;
    }
    h = Fnv1a(piece, static_cast<size_t>(*n), h);
    len += static_cast<uint64_t>(*n);
    if (len > (1u << 20)) {
      return "over 1 MiB";  // no file of the population is this long
    }
  }
}

bool IsCtlFile(const std::string& path) {
  return path.ends_with("/ctl") || path.ends_with("/lwpctl");
}

std::string Record(ProcIo& root, ProcIo& stranger, const std::string& path) {
  std::string r = path;
  auto st = root.Stat(path);
  Put(r, "stat");
  if (st.ok()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "t%d m%o u%u g%u s%llu mt%llu n%u",
                  static_cast<int>(st->type), st->mode, st->uid, st->gid,
                  static_cast<unsigned long long>(st->size),
                  static_cast<unsigned long long>(st->mtime), st->nlink);
    Put(r, buf);
  } else {
    Put(r, Err(st.error()));
  }
  Put(r, "readdir");
  auto ents = root.ReadDir(path);
  if (ents.ok()) {
    for (const DirEnt& e : *ents) {
      Put(r, e.name);
      r += ':';
      r += std::to_string(static_cast<int>(e.type));
    }
  } else {
    Put(r, Err(ents.error()));
  }
  Put(r, "chunks");
  uint64_t cookie = 0;
  // Bounded, so a cookie that never reaches the end fails the walk instead
  // of hanging it: no directory of the population needs 100 chunks.
  for (int chunks = 0;; ++chunks) {
    if (chunks == 100) {
      Put(r, "runaway");
      break;
    }
    std::vector<DirEnt> chunk;
    auto n = root.ReadDirChunk(path, &cookie, 3, &chunk);
    if (!n.ok()) {
      Put(r, Err(n.error()));
      break;
    }
    Put(r, "[");
    for (const DirEnt& e : chunk) {
      r += e.name;
      r += ',';
    }
    r += "]@";
    r += std::to_string(cookie);
    if (*n == 0) {
      break;
    }
  }
  for (ProcIo* io : {&root, &stranger}) {
    Put(r, io == &root ? "root" : "stranger");
    for (int mode : {O_RDONLY, O_WRONLY, O_RDWR}) {
      auto fd = io->Open(path, mode);
      if (!fd.ok()) {
        Put(r, Err(fd.error()));
        continue;
      }
      Put(r, "{");
      r += ReadWhole(*io, *fd);
      PrStatus status;
      auto ic = io->Ioctl(*fd, PIOCSTATUS, &status);
      if (ic.ok()) {
        Put(r, "status:");
        r += Hex(Fnv1a(&status, sizeof(status)));
      } else {
        Put(r, Err(ic.error()));
      }
      if (IsCtlFile(path)) {
        int32_t code = PCNULL;
        auto w = io->Write(*fd, &code, sizeof(code));
        if (w.ok()) {
          Put(r, "pcnull:");
          r += std::to_string(*w);
        } else {
          Put(r, "pcnull");
          Put(r, Err(w.error()));
        }
      }
      r += "}";
      EXPECT_TRUE(io->Close(*fd).ok()) << path;
    }
  }
  return r;
}

// Each path's record, walking /proc and then /proc2 as `root`, but for
// `leave_out`, which is neither read nor recorded.
std::vector<std::string> Walk(ProcIo& root, ProcIo& stranger,
                              const std::string& leave_out = "") {
  std::vector<std::string> paths;
  CollectPaths(root, "/proc", &paths);
  CollectPaths(root, "/proc2", &paths);
  std::vector<std::string> records;
  for (const std::string& path : paths) {
    if (path != leave_out) {
      records.push_back(Record(root, stranger, path));
    }
  }
  return records;
}

std::string PathOf(const std::string& record) { return record.substr(0, record.find(' ')); }

struct Row {
  const char* path;
  uint64_t hash;  // Fnv1a of the record
};

// The capture: each path of the walk in order, with its record's hash.
constexpr Row kCaptured[] = {
    {"/proc", 0xbaac121dffd5ac9bull},
    {"/proc/00000", 0x6a655de79141bb8cull},
    {"/proc/00001", 0xc719c2646ad4f0afull},
    {"/proc/00002", 0xe09e859ead60ba04ull},
    {"/proc/00003", 0xb70b4ecf5c812824ull},
    {"/proc/00004", 0x06a73224bf2866c4ull},
    {"/proc/00005", 0x54788c03f06f21eaull},
    {"/proc/00006", 0xdf4d282e016a14ebull},
    {"/proc/00007", 0xd2b97f3f58452008ull},
    {"/proc/00008", 0x2202872bdd3419c7ull},
    {"/proc/00009", 0xf56aedb23dd381c2ull},
    {"/proc2", 0x85b69c0702edb686ull},
    {"/proc2/kernel", 0x8d3fa55310f13721ull},
    {"/proc2/kernel/faults", 0x5e26e06aeea05cb2ull},
    {"/proc2/kernel/trace", 0x74a5264ce33beaadull},
    {"/proc2/kernel/metrics", 0xc6bed5547ec995d7ull},
    {"/proc2/kernel/psall", 0xf8a9992c15cc5767ull},
    {"/proc2/kernel/cpus", 0xc19f01ca0997d3dbull},
    {"/proc2/kernel/procd", 0x7d7e6ae0ac478be5ull},
    {"/proc2/00000", 0x66e5c291251a7537ull},
    {"/proc2/00000/as", 0x261157def38e86e4ull},
    {"/proc2/00000/ctl", 0x8e6712d0ef31f3ceull},
    {"/proc2/00000/status", 0x7fee01b3ef19891eull},
    {"/proc2/00000/psinfo", 0x8946135963d2e1a0ull},
    {"/proc2/00000/map", 0x2a9bbdd6c8fa8132ull},
    {"/proc2/00000/cred", 0xc180810f151314e9ull},
    {"/proc2/00000/sigact", 0xce0fc9626b5ef45bull},
    {"/proc2/00000/usage", 0x1ff990b045921a43ull},
    {"/proc2/00000/ctlaudit", 0xec1a35cd7315b813ull},
    {"/proc2/00000/trace", 0xf6c16241f87bff8full},
    {"/proc2/00000/prof", 0x8f28aed65655a9f5ull},
    {"/proc2/00000/lwp", 0x7af79c017eb449baull},
    {"/proc2/00001", 0x5f2faa28fd8a26a6ull},
    {"/proc2/00001/as", 0x4be456422629b19dull},
    {"/proc2/00001/ctl", 0x015fcf5e869fa5cfull},
    {"/proc2/00001/status", 0xe7454937b6c66533ull},
    {"/proc2/00001/psinfo", 0xf8d407212536208full},
    {"/proc2/00001/map", 0x3847268ccc279053ull},
    {"/proc2/00001/cred", 0x0cdff7bec6c26f68ull},
    {"/proc2/00001/sigact", 0x8016ca6f6631c492ull},
    {"/proc2/00001/usage", 0x29661c276b30c4a4ull},
    {"/proc2/00001/ctlaudit", 0xc7690efeeafb99f2ull},
    {"/proc2/00001/trace", 0xa494997f1860247eull},
    {"/proc2/00001/prof", 0x6f8e582f55e5fddaull},
    {"/proc2/00001/lwp", 0x18a3bf5031bac4f3ull},
    {"/proc2/00002", 0x147137b2e9d41985ull},
    {"/proc2/00002/as", 0x0566ff5ab29ac74aull},
    {"/proc2/00002/ctl", 0x0682766ed9500518ull},
    {"/proc2/00002/status", 0xbacfc6e9f1157c46ull},
    {"/proc2/00002/psinfo", 0xd3ca84ec78e6758full},
    {"/proc2/00002/map", 0x1762e38ea91ac4f4ull},
    {"/proc2/00002/cred", 0xcb11b0aac758e853ull},
    {"/proc2/00002/sigact", 0xb56362efecf32785ull},
    {"/proc2/00002/usage", 0x1635f4f5314e5cbdull},
    {"/proc2/00002/ctlaudit", 0x05ffef5c8bf2e3d1ull},
    {"/proc2/00002/trace", 0x6a6d3df5ba0d65c9ull},
    {"/proc2/00002/prof", 0xf772f2900419e1efull},
    {"/proc2/00002/lwp", 0x3eae47b7777e2930ull},
    {"/proc2/00003", 0xa173d1f38dc9f674ull},
    {"/proc2/00003/as", 0xe5aa2224ac0112abull},
    {"/proc2/00003/ctl", 0x8034c1e9962bdb19ull},
    {"/proc2/00003/status", 0x752109c5dd21becaull},
    {"/proc2/00003/psinfo", 0x6aabbbd6895ee055ull},
    {"/proc2/00003/map", 0x91fb7e4c131f3445ull},
    {"/proc2/00003/cred", 0x17d81019277060c2ull},
    {"/proc2/00003/sigact", 0x7d1964eabdc37744ull},
    {"/proc2/00003/usage", 0xcd00ae0a9b4ef198ull},
    {"/proc2/00003/ctlaudit", 0xf3f3ef6761644a38ull},
    {"/proc2/00003/trace", 0xceb119ce41870358ull},
    {"/proc2/00003/prof", 0x484f3d609c42ff74ull},
    {"/proc2/00003/lwp", 0x1a44431b99f2c909ull},
    {"/proc2/00004", 0x18a11a12dbba414bull},
    {"/proc2/00004/as", 0x1a20a680452d32bcull},
    {"/proc2/00004/ctl", 0x9609fc2fb8b000daull},
    {"/proc2/00004/status", 0xb2703988c0d0265eull},
    {"/proc2/00004/psinfo", 0x6057319ad873ec6cull},
    {"/proc2/00004/map", 0x4fa73874d3ef616bull},
    {"/proc2/00004/cred", 0xf1eb860585b7a1d5ull},
    {"/proc2/00004/sigact", 0xe471c1579d3591ffull},
    {"/proc2/00004/usage", 0x2bdf7b3eff3d8ea7ull},
    {"/proc2/00004/ctlaudit", 0x3f52087b272e8917ull},
    {"/proc2/00004/trace", 0x9e7ddb399d202673ull},
    {"/proc2/00004/prof", 0x382ab948908886a1ull},
    {"/proc2/00004/lwp", 0x6467de9e4452f607ull},
    {"/proc2/00004/lwp/1", 0x93614cc586cdf05aull},
    {"/proc2/00004/lwp/1/lwpstatus", 0x1cf60ef48b19f2d4ull},
    {"/proc2/00004/lwp/1/lwpctl", 0xcdefa10c6f16a191ull},
    {"/proc2/00005", 0x588f8b7f90faba3aull},
    {"/proc2/00005/as", 0xa093352da46a7e45ull},
    {"/proc2/00005/ctl", 0xd997063c2a3f424bull},
    {"/proc2/00005/status", 0xe2d2cc5fec9db794ull},
    {"/proc2/00005/psinfo", 0x6de6d26341f7c734ull},
    {"/proc2/00005/map", 0x210e8d4d6f636eaeull},
    {"/proc2/00005/cred", 0xbf50f9822a304e14ull},
    {"/proc2/00005/sigact", 0x9485e322d036e876ull},
    {"/proc2/00005/usage", 0x7fa60bdb81e7838full},
    {"/proc2/00005/ctlaudit", 0x5bd009a3c26d6ceaull},
    {"/proc2/00005/trace", 0xe0c1b8d90181c5f2ull},
    {"/proc2/00005/prof", 0x2a8eb98e305e3516ull},
    {"/proc2/00005/lwp", 0xca43ed6a5b17c0b4ull},
    {"/proc2/00005/lwp/1", 0x1946563c7bee9845ull},
    {"/proc2/00005/lwp/1/lwpstatus", 0x68526d5bbe9ac561ull},
    {"/proc2/00005/lwp/1/lwpctl", 0x69aef2a6bd39f8faull},
    {"/proc2/00006", 0xec526dfc0d703749ull},
    {"/proc2/00006/as", 0x91be4fcd8943f04bull},
    {"/proc2/00006/ctl", 0x9d81c62d6acfaa44ull},
    {"/proc2/00006/status", 0x2ac72a83cb7c41faull},
    {"/proc2/00006/psinfo", 0xff0b333e73375abaull},
    {"/proc2/00006/map", 0x575ce3b5ea93286aull},
    {"/proc2/00006/cred", 0x8541f4d0083fd4cfull},
    {"/proc2/00006/sigact", 0x9cf5f95d3038ff09ull},
    {"/proc2/00006/usage", 0x54c216c313638908ull},
    {"/proc2/00006/ctlaudit", 0x40aa13ee572674b8ull},
    {"/proc2/00006/trace", 0x4ec3fa82bfd1059dull},
    {"/proc2/00006/prof", 0x62127ab6352b92abull},
    {"/proc2/00006/lwp", 0x2ab223af7120e359ull},
    {"/proc2/00006/lwp/1", 0x629121407ffc77bcull},
    {"/proc2/00006/lwp/1/lwpstatus", 0x86a0ed2f18839a4eull},
    {"/proc2/00006/lwp/1/lwpctl", 0xb2295dbe045886d7ull},
    {"/proc2/00007", 0x48b1be24ef07b6f8ull},
    {"/proc2/00007/as", 0x54771eeb68c62bffull},
    {"/proc2/00007/ctl", 0x301c73e27b1a61b5ull},
    {"/proc2/00007/status", 0x7aeb918ee6b9c332ull},
    {"/proc2/00007/psinfo", 0xf9f5cd96dc226ff6ull},
    {"/proc2/00007/map", 0x68b005ece9445ed1ull},
    {"/proc2/00007/cred", 0x20d8c17f7b95998eull},
    {"/proc2/00007/sigact", 0xaac3b5d06cc01be8ull},
    {"/proc2/00007/usage", 0x4190c33ad04b0145ull},
    {"/proc2/00007/ctlaudit", 0x652a60916b6748fcull},
    {"/proc2/00007/trace", 0xdf8babd0ebf3e9bcull},
    {"/proc2/00007/prof", 0xe6dd7db9e8b1c010ull},
    {"/proc2/00007/lwp", 0xf0dbecc056e635f7ull},
    {"/proc2/00007/lwp/1", 0x85d201857bbe70ffull},
    {"/proc2/00007/lwp/1/lwpstatus", 0x3352ec9fc858d580ull},
    {"/proc2/00007/lwp/1/lwpctl", 0xadc64a7817fff970ull},
    {"/proc2/00007/lwp/2", 0x9cfd5614d01dc09eull},
    {"/proc2/00007/lwp/2/lwpstatus", 0xb0a304e70d9ce674ull},
    {"/proc2/00007/lwp/2/lwpctl", 0xbbf0bc052a1e7435ull},
    {"/proc2/00008", 0x6573316db119ed5full},
    {"/proc2/00008/as", 0x8a9210352785bfdaull},
    {"/proc2/00008/ctl", 0xd0dd34dceae22925ull},
    {"/proc2/00008/status", 0x945b8d8412298bc7ull},
    {"/proc2/00008/psinfo", 0x0c1f92de31eff882ull},
    {"/proc2/00008/map", 0x055256ff3377ca0bull},
    {"/proc2/00008/cred", 0x343ac18ec971c791ull},
    {"/proc2/00008/sigact", 0x851a7f8e4f2bf094ull},
    {"/proc2/00008/usage", 0x389f2d653c390997ull},
    {"/proc2/00008/ctlaudit", 0x6366b33f0ed6540bull},
    {"/proc2/00008/trace", 0x65df4a0c02fcd1b7ull},
    {"/proc2/00008/prof", 0x710a7ffa5bc0a710ull},
    {"/proc2/00008/lwp", 0x60443e86f4c967d2ull},
    {"/proc2/00009", 0xddc8919b31c1e9e4ull},
    {"/proc2/00009/as", 0xa38ca5f6e12787caull},
    {"/proc2/00009/ctl", 0x4f1bf02156be0867ull},
    {"/proc2/00009/status", 0x1709eb53c82cd1dcull},
    {"/proc2/00009/psinfo", 0x341d1202612df88full},
    {"/proc2/00009/map", 0x9b4bef9f57459ca2ull},
    {"/proc2/00009/cred", 0x55f5046de81ebd3cull},
    {"/proc2/00009/sigact", 0x9fc61e3e3cfec72dull},
    {"/proc2/00009/usage", 0xe84f7dd0bfac323bull},
    {"/proc2/00009/ctlaudit", 0xe928170ce4d94290ull},
    {"/proc2/00009/trace", 0xdd35dba5877a298full},
    {"/proc2/00009/prof", 0x57768f241fc676d3ull},
    {"/proc2/00009/lwp", 0xb1cc57561ef208abull},
};

// Rows that read differently from the capture, on purpose. An lwp stopped
// asleep now reads PR_ASLEEP in lwpstatus as it does in status (the capture
// read pr_flags 0x3 there, 0xb in status).
constexpr Row kChangedRows[] = {
    {"/proc2/00006/lwp/1/lwpstatus", 0x8db6ea7ec168e82aull},
};

TEST(ProcFiles, NamespaceAsAtTheParent) {
  Sim sim;
  ASSERT_NO_FATAL_FAILURE(BuildPopulation(sim));
  Kernel& k = sim.kernel();
  LocalProcIo root(k, sim.controller());
  LocalProcIo stranger(k, sim.NewController(Creds::User(200, 20), "stranger"));
  std::vector<std::string> records = Walk(root, stranger);

  ASSERT_EQ(records.size(), std::size(kCaptured));
  for (size_t i = 0; i < records.size(); ++i) {
    uint64_t want = kCaptured[i].hash;
    for (const Row& changed : kChangedRows) {
      if (PathOf(records[i]) == changed.path) {
        EXPECT_NE(changed.hash, want) << changed.path << " is listed as changed";
        want = changed.hash;
      }
    }
    EXPECT_EQ(PathOf(records[i]), kCaptured[i].path);
    EXPECT_EQ(Fnv1a(records[i].data(), records[i].size()), want) << records[i];
  }
  EXPECT_TRUE(k.CheckInvariants().empty());
}

// Two identical systems, each with a root and a uid-200 procd peer connected
// before its walk: one is walked locally as the peers' processes, the other
// through the peers. /proc2/kernel/procd is left out of both walks: its
// counters count the walk's own frames, and the bytes read from it would
// count in the reader's PrUsage.
TEST(ProcFiles, RemoteWalkEqualsLocal) {
  struct System {
    Sim sim;
    ProcdServer server{sim.kernel()};
    RemoteProcIo root{server.Connect(Creds::Root())};
    RemoteProcIo stranger{server.Connect(Creds::User(200, 20), "stranger")};
  };
  System local;
  System remote;
  std::vector<Pid> peers;  // each system's root and stranger peer
  for (System* s : {&local, &remote}) {
    ASSERT_NO_FATAL_FAILURE(BuildPopulation(s->sim));
    for (RemoteProcIo* io : {&s->root, &s->stranger}) {
      auto pid = io->PeerPid();
      ASSERT_TRUE(pid.ok());
      peers.push_back(*pid);
    }
  }
  ASSERT_EQ(peers[0], peers[2]);
  ASSERT_EQ(peers[1], peers[3]);
  Kernel& k = local.sim.kernel();
  LocalProcIo root(k, k.FindProc(peers[0]));
  LocalProcIo stranger(k, k.FindProc(peers[1]));
  std::vector<std::string> want = Walk(root, stranger, "/proc2/kernel/procd");
  std::vector<std::string> got = Walk(remote.root, remote.stranger, "/proc2/kernel/procd");

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
  }
  EXPECT_TRUE(k.CheckInvariants().empty());
  EXPECT_TRUE(remote.sim.kernel().CheckInvariants().empty());
}

}  // namespace
}  // namespace svr4
