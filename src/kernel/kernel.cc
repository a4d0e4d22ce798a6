// Kernel core: construction, scheduling, the issig()/psig() stop logic of
// the paper's Figure 4, signal posting, timers, the native-process file API,
// and the /proc control primitives.
#include "svr4proc/kernel/kernel.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "svr4proc/fs/memfs.h"
#include "svr4proc/isa/blocks.h"
#include "svr4proc/isa/cpu.h"
#include "svr4proc/vm/vm.h"

namespace svr4 {
namespace {

// Sentinel wait channel for poll-style sleeps.
const int kPollChanStorage = 0;
const void* const kPollChan = &kPollChanStorage;

int FaultToSignal(int fault) {
  switch (fault) {
    case FLTBPT:
    case FLTTRACE:
    case FLTWATCH:
      return SIGTRAP;
    case FLTILL:
    case FLTPRIV:
      return SIGILL;
    case FLTACCESS:
    case FLTBOUNDS:
    case FLTSTACK:
      return SIGSEGV;
    case FLTIZDIV:
    case FLTIOVF:
    case FLTFPE:
      return SIGFPE;
    default:
      return SIGSEGV;
  }
}

}  // namespace

const void* Kernel::PollChan() { return kPollChan; }

const void* Kernel::PipeChan(const OpenFile& of) {
  if (of.vp->type() != VType::kFifo) {
    return nullptr;
  }
  return static_cast<const PipeVnode&>(*of.vp).buf().get();
}

void Kernel::WakePipe(const OpenFile& of) {
  if (const void* chan = PipeChan(of)) {
    Wakeup(chan);
    Wakeup(kPollChan);
  }
}

Kernel::Kernel() {
  pid_hash_.assign(1024, nullptr);
  pid_bitmap_.assign((static_cast<size_t>(max_pid_) + 63) / 64, 0);
  pid_summary_.assign((pid_bitmap_.size() + 63) / 64, 0);
  console_ = std::make_shared<ConsoleVnode>();

  VAttr dir_attr;
  dir_attr.type = VType::kDir;
  dir_attr.mode = 0755;
  for (const char* d : {"/bin", "/lib", "/tmp", "/dev", "/proc", "/proc2"}) {
    (void)vfs_.MkdirAll(d, dir_attr);
  }

  // The system processes of Figure 1: sizes are zero because they have no
  // user-level address space.
  Proc* sched = AllocProc("sched", Creds::Root(), nullptr);
  sched->system_proc = true;
  Proc* init = AllocProc("init", Creds::Root(), sched);
  init->native = true;  // init is not scheduled; it adopts and reaps
  init_ = init;
  Proc* pageout = AllocProc("pageout", Creds::Root(), sched);
  pageout->system_proc = true;

  // Engine pin for tests/benches/CI sweeps: "interp" pins the interpreter;
  // "blocks", unset or anything else is the default block engine.
  const char* engine = std::getenv("SVR4PROC_EXEC_ENGINE");
  if (engine != nullptr && std::strcmp(engine, "interp") == 0) {
    exec_engine_ = ExecEngine::kInterp;
  }

  // SMP wiring: the trace ring stamps kIpi records and cur_cpu_ names the
  // CPU whose quantum the kernel is currently executing.
  smp_.SetKtrace(&kt_);
  smp_.SetCpuSource(&cur_cpu_);
  // Topology pin for tests/benches/CI sweeps; unset = uniprocessor.
  if (const char* n = std::getenv("SVR4PROC_NCPUS")) {
    int v = std::atoi(n);
    if (v >= 1) {
      SetNumCpus(v);
    }
  }
  if (const char* m = std::getenv("SVR4PROC_SMP_MODE")) {
    if (std::strcmp(m, "free") == 0) {
      smp_.set_mode(SmpMode::kFreeRun);
    } else if (std::strcmp(m, "det") == 0) {
      smp_.set_mode(SmpMode::kDeterministic);
    }
  }
}

Kernel::~Kernel() {
  // Procs are owned raw through the intrusive all-procs list.
  Proc* p = all_head_;
  while (p != nullptr) {
    Proc* next = p->pt_all_next;
    delete p;
    p = next;
  }
}

// --- Process table -----------------------------------------------------------

Pid Kernel::AllocPid() {
  // Word-wise free-bit scan from the cursor, wrapping once at max_pid_.
  // Freed pids are therefore reused only after the whole space has been
  // traversed — the longest grace period for held stale /proc descriptors.
  auto scan = [&](Pid lo, Pid hi) -> Pid {
    if (lo >= hi) {
      return -1;
    }
    size_t first_word = static_cast<size_t>(lo) / 64;
    size_t last_word = static_cast<size_t>(hi - 1) / 64;
    for (size_t w = first_word; w <= last_word; ++w) {
      uint64_t free_bits = ~pid_bitmap_[w];
      if (w == first_word) {
        free_bits &= ~0ull << (lo % 64);
      }
      if (free_bits == 0) {
        continue;
      }
      Pid pid = static_cast<Pid>(w * 64 + std::countr_zero(free_bits));
      return pid < hi ? pid : -1;
    }
    return -1;
  };
  Pid start = (next_pid_ >= 0 && next_pid_ < max_pid_) ? next_pid_ : 0;
  Pid pid = scan(start, max_pid_);
  if (pid < 0) {
    pid = scan(0, start);  // wraparound
  }
  if (pid < 0) {
    return -1;  // every pid is held by a live or zombie process
  }
  const size_t w = static_cast<size_t>(pid) / 64;
  pid_bitmap_[w] |= 1ull << (pid % 64);
  pid_summary_[w / 64] |= 1ull << (w % 64);
  next_pid_ = pid + 1;
  return pid;
}

Pid Kernel::NextAllocatedPid(Pid from) const {
  if (from < 0) {
    from = 0;
  }
  size_t w = static_cast<size_t>(from) / 64;
  if (w >= pid_bitmap_.size()) {
    return -1;
  }
  uint64_t word = pid_bitmap_[w] & (~0ull << (from % 64));
  if (word == 0) {
    // The next nonempty word, found in the summary: a tail of empty words
    // costs one summary bit each instead of one bitmap word each.
    const size_t after = w + 1;
    size_t s = after / 64;
    uint64_t bits = s < pid_summary_.size() ? pid_summary_[s] & (~0ull << (after % 64)) : 0;
    while (bits == 0) {
      if (++s >= pid_summary_.size()) {
        return -1;
      }
      bits = pid_summary_[s];
    }
    w = s * 64 + static_cast<size_t>(std::countr_zero(bits));
    word = pid_bitmap_[w];
  }
  return static_cast<Pid>(w * 64 + static_cast<size_t>(std::countr_zero(word)));
}

void Kernel::SetMaxPid(Pid max) {
  if (max < 1) {
    max = 1;
  }
  max_pid_ = max;
  // Never shrink the bitmap: pids already allocated above the new bound
  // stay valid (and findable) until reaped; the allocator simply stops
  // handing out new ones up there.
  size_t words = (static_cast<size_t>(max) + 63) / 64;
  if (words > pid_bitmap_.size()) {
    pid_bitmap_.resize(words, 0);
    pid_summary_.resize((words + 63) / 64, 0);
  }
  if (next_pid_ >= max_pid_) {
    next_pid_ = 0;
  }
}

void Kernel::PidHashInsert(Proc* p) {
  if (nprocs_ >= pid_hash_.size()) {
    // Double the buckets and rehash through the all-procs list; amortized
    // O(1) per insert, same policy as any open-hash table.
    std::vector<Proc*> grown(pid_hash_.size() * 2, nullptr);
    for (Proc* q = all_head_; q != nullptr; q = q->pt_all_next) {
      size_t b = static_cast<size_t>(q->pid) & (grown.size() - 1);
      q->pt_hash_next = grown[b];
      grown[b] = q;
    }
    pid_hash_ = std::move(grown);
  }
  size_t b = static_cast<size_t>(p->pid) & (pid_hash_.size() - 1);
  p->pt_hash_next = pid_hash_[b];
  pid_hash_[b] = p;
}

void Kernel::PidHashRemove(Proc* p) {
  size_t b = static_cast<size_t>(p->pid) & (pid_hash_.size() - 1);
  Proc** link = &pid_hash_[b];
  while (*link != nullptr && *link != p) {
    link = &(*link)->pt_hash_next;
  }
  if (*link == p) {
    *link = p->pt_hash_next;
  }
  p->pt_hash_next = nullptr;
}

void Kernel::ChildLink(Proc* parent, Proc* child) {
  child->pt_parent = parent;
  child->pt_sib_prev = nullptr;
  child->pt_sib_next = nullptr;
  if (parent == nullptr) {
    return;  // sched has no parent
  }
  if (parent->pt_last_child == nullptr) {
    parent->pt_first_child = child;
    parent->pt_last_child = child;
    return;
  }
  child->pt_sib_prev = parent->pt_last_child;
  parent->pt_last_child->pt_sib_next = child;
  parent->pt_last_child = child;
}

void Kernel::ChildUnlink(Proc* child) {
  Proc* parent = child->pt_parent;
  if (parent == nullptr) {
    return;
  }
  if (child->pt_sib_prev != nullptr) {
    child->pt_sib_prev->pt_sib_next = child->pt_sib_next;
  } else {
    parent->pt_first_child = child->pt_sib_next;
  }
  if (child->pt_sib_next != nullptr) {
    child->pt_sib_next->pt_sib_prev = child->pt_sib_prev;
  } else {
    parent->pt_last_child = child->pt_sib_prev;
  }
  child->pt_parent = nullptr;
  child->pt_sib_prev = nullptr;
  child->pt_sib_next = nullptr;
}

void Kernel::FreeProc(Proc* p) {
  ReleaseProf(p);
  // Defensive scheduler-queue unlink: by the time a proc is freed its lwps
  // are dead and off every queue, but a missed transition must not leave a
  // dangling queue node behind.
  for (auto& l : p->lwps) {
    if (l->q_where == Lwp::kQRun) {
      RunqRemove(l.get());
    } else if (l->q_where == Lwp::kQSleep) {
      SleepqRemove(l.get());
    }
  }
  ChildUnlink(p);
  PidHashRemove(p);
  if (p->pt_all_prev != nullptr) {
    p->pt_all_prev->pt_all_next = p->pt_all_next;
  } else {
    all_head_ = p->pt_all_next;
  }
  if (p->pt_all_next != nullptr) {
    p->pt_all_next->pt_all_prev = p->pt_all_prev;
  } else {
    all_tail_ = p->pt_all_prev;
  }
  --nprocs_;
  const size_t w = static_cast<size_t>(p->pid) / 64;
  if (w < pid_bitmap_.size()) {
    pid_bitmap_[w] &= ~(1ull << (p->pid % 64));
    if (pid_bitmap_[w] == 0) {
      pid_summary_[w / 64] &= ~(1ull << (w % 64));  // the word emptied
    }
  }
  audit_watermark_.erase(p->ident);
  ProcPollLevelMoved(p->pid);
  delete p;
}

Proc* Kernel::AllocProc(const std::string& name, const Creds& creds, Proc* parent) {
  Pid pid = AllocPid();
  if (pid < 0) {
    return nullptr;  // pid space exhausted: fork fails with EAGAIN
  }
  Proc* p = new Proc();
  p->pid = pid;
  p->ident = NextProcGen();
  p->ppid = parent ? parent->pid : 0;
  p->pgrp = parent ? parent->pgrp : p->pid;
  p->sid = parent ? parent->sid : p->pid;
  p->name = name;
  p->psargs = name;
  p->creds = creds;
  p->start_tick = ticks_;
  PidHashInsert(p);
  if (all_tail_ == nullptr) {
    all_head_ = p;
    all_tail_ = p;
  } else {
    p->pt_all_prev = all_tail_;
    all_tail_->pt_all_next = p;
    all_tail_ = p;
  }
  ++nprocs_;
  ChildLink(parent, p);
  return p;
}

Proc* Kernel::CreateNativeProc(const Creds& creds, std::string name) {
  Proc* p = AllocProc(name, creds, init_);
  if (p != nullptr) {
    p->native = true;
  }
  return p;
}

void Kernel::DestroyNativeProc(Proc* p) {
  if (p == nullptr || !p->native || p->state == Proc::State::kZombie) {
    return;
  }
  // ExitProc runs FdCloseAll, so every vnode Close hook fires — a vanished
  // procd peer releases /proc ledgers, O_EXCL, and run-on-last-close exactly
  // as a local controller closing each descriptor would. The zombie is
  // reaped by DrainReapList on the next Step (parent is init).
  ExitProc(p, 0);
}

Proc* Kernel::FindProc(Pid pid) {
  if (pid < 0) {
    return nullptr;
  }
  Proc* p = pid_hash_[static_cast<size_t>(pid) & (pid_hash_.size() - 1)];
  while (p != nullptr && p->pid != pid) {
    p = p->pt_hash_next;
  }
  return p;
}

std::vector<Pid> Kernel::AllPids() const {
  std::vector<Pid> out;
  out.reserve(nprocs_);
  for (Pid pid = NextAllocatedPid(0); pid >= 0; pid = NextAllocatedPid(pid + 1)) {
    out.push_back(pid);
  }
  return out;
}

// --- File descriptors ----------------------------------------------------------

Result<int> Kernel::FdAlloc(Proc* p, OpenFilePtr of) {
  of->refs++;
  for (size_t i = 0; i < p->fds.size(); ++i) {
    if (!p->fds[i]) {
      p->fds[i] = std::move(of);
      return static_cast<int>(i);
    }
  }
  if (p->fds.size() >= fd_limit_) {
    of->refs--;
    return Errno::kEMFILE;
  }
  p->fds.push_back(std::move(of));
  return static_cast<int>(p->fds.size() - 1);
}

Result<OpenFilePtr> Kernel::FdGet(Proc* p, int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= p->fds.size() || !p->fds[fd]) {
    return Errno::kEBADF;
  }
  return p->fds[fd];
}

void Kernel::FdRelease(OpenFilePtr of) {
  if (!of) {
    return;
  }
  if (--of->refs == 0) {
    of->vp->Close(*of);
    WakePipe(*of);  // the other end's sleepers see EOF or EPIPE
  }
}

void Kernel::FdCloseAll(Proc* p) {
  for (auto& of : p->fds) {
    FdRelease(std::move(of));
  }
  p->fds.clear();
}

Result<int> Kernel::OpenCommon(Proc* p, const std::string& path, int oflags, uint32_t mode) {
  auto vp = vfs_.Resolve(path);
  if (!vp.ok()) {
    if (vp.error() == Errno::kENOENT && (oflags & O_CREAT)) {
      std::string leaf;
      auto parent = vfs_.ResolveParent(path, &leaf);
      if (!parent.ok()) {
        return parent.error();
      }
      VAttr attr;
      attr.mode = mode & ~p->umask;
      attr.uid = p->creds.euid;
      attr.gid = p->creds.egid;
      auto made = (*parent)->Create(leaf, attr);
      if (!made.ok()) {
        return made.error();
      }
      vp = made;
    } else {
      return vp.error();
    }
  }
  auto of = std::make_shared<OpenFile>();
  of->vp = *vp;
  of->oflags = oflags;
  int acc = oflags & O_ACCMODE;
  of->writable = acc == O_WRONLY || acc == O_RDWR;
  SVR4_RETURN_IF_ERROR((*vp)->Open(*of, p->creds, p));
  auto fd = FdAlloc(p, of);
  if (!fd.ok()) {
    of->refs = 1;  // undo path: run the close hook exactly once
    FdRelease(of);
  }
  return fd;
}

Result<int> Kernel::Open(Proc* p, const std::string& path, int oflags, uint32_t mode) {
  return OpenCommon(p, path, oflags, mode);
}

Result<void> Kernel::Close(Proc* p, int fd) {
  auto of = FdGet(p, fd);
  if (!of.ok()) {
    return of.error();
  }
  p->fds[fd] = nullptr;
  FdRelease(*of);
  return Result<void>::Ok();
}

Result<int64_t> Kernel::ReadCommon(Proc* p, OpenFile& of, std::span<uint8_t> buf) {
  int acc = of.oflags & O_ACCMODE;
  if (acc == O_WRONLY) {
    return Errno::kEBADF;
  }
  if (finj_ && finj_->Fire(FaultSite::kVnodeRead)) {
    return Errno::kEIO;
  }
  auto n = of.vp->Read(of, of.offset, buf);
  if (n.ok() && *n > 0) {
    of.offset += static_cast<uint64_t>(*n);
    p->ioch += static_cast<uint64_t>(*n);
    WakePipe(of);
  }
  return n;
}

Result<int64_t> Kernel::WriteCommon(Proc* p, OpenFile& of, std::span<const uint8_t> buf) {
  if (!of.writable) {
    return Errno::kEBADF;
  }
  if (finj_ && finj_->Fire(FaultSite::kVnodeWrite)) {
    return Errno::kEIO;
  }
  auto n = of.vp->Write(of, of.offset, buf);
  if (n.ok() && *n > 0) {
    of.offset += static_cast<uint64_t>(*n);
    p->ioch += static_cast<uint64_t>(*n);
    WakePipe(of);
  }
  return n;
}

Result<int64_t> Kernel::Read(Proc* p, int fd, void* buf, uint64_t n) {
  auto of = FdGet(p, fd);
  if (!of.ok()) {
    return of.error();
  }
  return ReadCommon(p, **of, std::span<uint8_t>(static_cast<uint8_t*>(buf), n));
}

Result<int64_t> Kernel::Write(Proc* p, int fd, const void* buf, uint64_t n) {
  auto of = FdGet(p, fd);
  if (!of.ok()) {
    return of.error();
  }
  return WriteCommon(p, **of, std::span<const uint8_t>(static_cast<const uint8_t*>(buf), n));
}

Result<int64_t> Kernel::Lseek(Proc* p, int fd, int64_t off, int whence) {
  auto of = FdGet(p, fd);
  if (!of.ok()) {
    return of.error();
  }
  int64_t base = 0;
  switch (whence) {
    case SEEK_SET_:
      base = 0;
      break;
    case SEEK_CUR_:
      base = static_cast<int64_t>((*of)->offset);
      break;
    case SEEK_END_: {
      auto attr = (*of)->vp->GetAttr();
      if (!attr.ok()) {
        return attr.error();
      }
      base = static_cast<int64_t>(attr->size);
      break;
    }
    default:
      return Errno::kEINVAL;
  }
  int64_t pos = base + off;
  if (pos < 0) {
    return Errno::kEINVAL;
  }
  (*of)->offset = static_cast<uint64_t>(pos);
  return pos;
}

Result<int32_t> Kernel::Ioctl(Proc* p, int fd, uint32_t op, void* arg) {
  auto of = FdGet(p, fd);
  if (!of.ok()) {
    return of.error();
  }
  return (*of)->vp->Ioctl(**of, p, op, arg);
}

Result<std::vector<DirEnt>> Kernel::ReadDir(Proc* /*p*/, const std::string& path) {
  auto vp = vfs_.Resolve(path);
  if (!vp.ok()) {
    return vp.error();
  }
  return (*vp)->Readdir();
}

Result<size_t> Kernel::ReadDirChunk(Proc* /*p*/, const std::string& path,
                                    uint64_t* cookie, size_t max,
                                    std::vector<DirEnt>* out) {
  auto vp = vfs_.Resolve(path);
  if (!vp.ok()) {
    return vp.error();
  }
  return (*vp)->ReaddirChunk(cookie, max, out);
}

Result<VAttr> Kernel::Stat(Proc* /*p*/, const std::string& path) {
  auto vp = vfs_.Resolve(path);
  if (!vp.ok()) {
    return vp.error();
  }
  return (*vp)->GetAttr();
}

int Kernel::PollLevels(Proc* p, std::span<PollFd> fds) {
  int ready = 0;
  for (auto& pf : fds) {
    auto of = FdGet(p, pf.fd);
    // POLLPRI, like POLLIN/POLLOUT, must have been asked for in events.
    pf.revents = of.ok() ? (*of)->vp->Poll(**of) & (pf.events | POLLERR | POLLHUP | POLLNVAL)
                         : POLLNVAL;
    if (pf.revents != 0) {
      ++ready;
    }
  }
  return ready;
}

Result<int> Kernel::PollFds(Proc* p, std::span<PollFd> fds, int64_t timeout_ticks) {
  uint64_t deadline = timeout_ticks < 0 ? 0 : ticks_ + static_cast<uint64_t>(timeout_ticks);
  for (;;) {
    int ready = PollLevels(p, fds);
    if (ready > 0) {
      return ready;
    }
    if (timeout_ticks == 0) {
      return 0;
    }
    if (deadline != 0 && ticks_ >= deadline) {
      return 0;
    }
    if (!Step()) {
      return 0;  // system idle; nothing will ever become ready
    }
  }
}

// --- Setup helpers -----------------------------------------------------------

Result<void> Kernel::WriteFileAt(const std::string& path, std::span<const uint8_t> bytes,
                                 uint32_t mode, Uid uid, Gid gid) {
  std::string leaf;
  auto parent = vfs_.ResolveParent(path, &leaf);
  if (!parent.ok()) {
    return parent.error();
  }
  VnodePtr file;
  auto existing = (*parent)->Lookup(leaf);
  if (existing.ok()) {
    file = *existing;
  } else {
    VAttr attr;
    attr.mode = mode;
    attr.uid = uid;
    attr.gid = gid;
    auto made = (*parent)->Create(leaf, attr);
    if (!made.ok()) {
      return made.error();
    }
    file = *made;
  }
  OpenFile of;
  of.vp = file;
  of.writable = true;
  auto n = file->Write(of, 0, bytes);
  if (!n.ok()) {
    return n.error();
  }
  return Result<void>::Ok();
}

Result<void> Kernel::InstallAout(const std::string& path, const Aout& image, uint32_t mode,
                                 Uid uid, Gid gid) {
  auto bytes = image.Serialize();
  return WriteFileAt(path, bytes, mode, uid, gid);
}

// --- Scheduler queues --------------------------------------------------------

void Kernel::RunqInsert(Lwp* l) {
  // Wait accounting: stamp the tick this lwp became runnable (metrics
  // armed only, so the disarmed path stays a pure list splice). Re-inserts
  // that continue one wait — steal migration, SetNumCpus rehoming — find
  // the stamp already set and leave it alone.
  if (kt_.metrics_on() && l->runq_enq_tick == 0) {
    l->runq_enq_tick = ticks_ + 1;
  }
  // The lwp's home CPU (l->cpu, always 0 uniprocessor) names the queue.
  CpuState& c = smp_.cpu(l->cpu);
  l->q_where = Lwp::kQRun;
  ++c.runq_len;
  if (c.runq_next == nullptr) {
    l->q_prev = l;
    l->q_next = l;
    c.runq_next = l;
    return;
  }
  // Insert just before the cursor: the newcomer runs last in the current
  // rotation, i.e. FIFO round-robin.
  Lwp* at = c.runq_next;
  l->q_prev = at->q_prev;
  l->q_next = at;
  at->q_prev->q_next = l;
  at->q_prev = l;
}

void Kernel::RunqRemove(Lwp* l) {
  CpuState& c = smp_.cpu(l->cpu);
  l->q_where = Lwp::kQNone;
  --c.runq_len;
  if (l->q_next == l) {
    c.runq_next = nullptr;
  } else {
    l->q_prev->q_next = l->q_next;
    l->q_next->q_prev = l->q_prev;
    if (c.runq_next == l) {
      c.runq_next = l->q_next;
    }
  }
  l->q_prev = nullptr;
  l->q_next = nullptr;
}

size_t Kernel::SleepBucket(const void* chan) {
  uintptr_t h = reinterpret_cast<uintptr_t>(chan);
  h ^= h >> 9;  // channels are object addresses; mix out alignment zeros
  return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> 32) &
         (kSleepBuckets - 1);
}

void Kernel::SleepqInsert(Lwp* l) {
  size_t b = SleepBucket(l->sleep.chan);
  l->q_where = Lwp::kQSleep;
  l->q_prev = nullptr;
  l->q_next = sleepq_[b];
  if (sleepq_[b] != nullptr) {
    sleepq_[b]->q_prev = l;
  }
  sleepq_[b] = l;
}

void Kernel::SleepqRemove(Lwp* l) {
  size_t b = SleepBucket(l->sleep.chan);
  if (l->q_prev != nullptr) {
    l->q_prev->q_next = l->q_next;
  } else {
    sleepq_[b] = l->q_next;
  }
  if (l->q_next != nullptr) {
    l->q_next->q_prev = l->q_prev;
  }
  l->q_prev = nullptr;
  l->q_next = nullptr;
  l->q_where = Lwp::kQNone;
}

void Kernel::LwpSetState(Lwp* l, LwpState ns) {
  if (l->state == ns) {
    return;
  }
  if (l->q_where == Lwp::kQRun) {
    RunqRemove(l);
    // Leaving the runnable state ends any in-progress runq wait unharvested
    // (the lwp blocked or stopped before it was ever dispatched).
    l->runq_enq_tick = 0;
  } else if (l->q_where == Lwp::kQSleep) {
    // Dequeue before anything can overwrite l->sleep: the bucket is keyed
    // on the channel the lwp went to sleep on.
    SleepqRemove(l);
  }
  l->state = ns;
  if (ns == LwpState::kRunning) {
    Proc* p = l->proc;
    if (p->state == Proc::State::kActive && !p->native && !p->system_proc) {
      RunqInsert(l);
    }
  } else if (ns == LwpState::kSleeping && l->sleep.chan != nullptr) {
    SleepqInsert(l);
  }
}

void Kernel::EnrollLwp(Lwp* l) {
  // A freshly constructed lwp is kRunning by default and has never passed
  // through LwpSetState; put it on the run queue if it is schedulable.
  // Home CPUs go round-robin in enroll order — deterministic, and at
  // ncpus == 1 the counter never moves so nothing changes.
  Proc* p = l->proc;
  if (l->state == LwpState::kRunning && l->q_where == Lwp::kQNone &&
      p->state == Proc::State::kActive && !p->native && !p->system_proc) {
    if (smp_.ncpus() > 1) {
      l->cpu = static_cast<int>(enroll_seq_++ %
                                static_cast<uint64_t>(smp_.ncpus()));
    }
    RunqInsert(l);
  }
}

// --- Scheduling -----------------------------------------------------------------

Lwp* Kernel::PickNextOn(int cpu) {
  CpuState& c = smp_.cpu(cpu);
  Lwp* pick = c.runq_next;
  if (pick == nullptr) {
    return StealFor(cpu);
  }
  c.runq_next = pick->q_next;
  return pick;
}

// Work stealing: the thief's queue has drained, so migrate one runnable lwp
// from a seeded-randomly chosen nonempty victim queue. The draw comes from
// the thief's own splitmix64 stream, so a given (topology, workload) pair
// replays the same migrations.
Lwp* Kernel::StealFor(int thief) {
  if (smp_.ncpus() <= 1) {
    return nullptr;
  }
  int victims[kMaxCpus];
  int nv = 0;
  for (int i = 0; i < smp_.ncpus(); ++i) {
    if (i != thief && smp_.cpu(i).runq_next != nullptr) {
      victims[nv++] = i;
    }
  }
  if (nv == 0) {
    return nullptr;
  }
  int victim = victims[smp_.StealDraw(thief) % static_cast<uint64_t>(nv)];
  // Take the lwp at the victim's cursor — the one that would have run next
  // there — and rehome it. Remove while l->cpu still names the victim.
  Lwp* l = smp_.cpu(victim).runq_next;
  if (l->runq_enq_tick != 0) {
    // Enqueue->steal latency, charged to the thief. The stamp survives the
    // migration so the runq-wait histogram still sees enqueue->dispatch.
    uint64_t stamp = l->runq_enq_tick;
    kt_.RecordStealLat(thief, ticks_ - (stamp - 1));
  }
  RunqRemove(l);
  l->cpu = thief;
  CpuState& tc = smp_.cpu(thief);
  RunqInsert(l);  // thief's queue was empty: l becomes its only member
  tc.runq_next = l->q_next;  // cursor past the pick, as PickNextOn would
  ++tc.stats.steals;
  return l;
}

size_t Kernel::RunqLenTotal() const {
  size_t n = 0;
  for (int i = 0; i < smp_.ncpus(); ++i) {
    n += smp_.cpu(i).runq_len;
  }
  return n;
}

// A heap entry is live iff the process/lwp timer state still matches its
// tick; cancelled or re-armed timers simply leave stale entries behind to be
// discarded here.
void Kernel::ArmAlarm(Proc* p) {
  if (p->alarm_tick != 0) {
    timerq_.push(TimerEvent{p->alarm_tick, p->pid, 0});
  }
}

void Kernel::ArmSleepTimer(Lwp* lwp) {
  if (lwp->sleep.wake_tick != 0) {
    timerq_.push(TimerEvent{lwp->sleep.wake_tick, lwp->proc->pid, lwp->lwpid});
  }
}

void Kernel::FireDueTimers() {
  while (!timerq_.empty() && timerq_.top().tick <= ticks_) {
    TimerEvent ev = timerq_.top();
    timerq_.pop();
    Proc* p = FindProc(ev.pid);
    if (p == nullptr || p->state != Proc::State::kActive) {
      continue;  // stale
    }
    if (ev.lwpid == 0) {
      if (p->alarm_tick != ev.tick) {
        continue;  // alarm cancelled or re-armed since
      }
      p->alarm_tick = 0;
      SigInfo info;
      info.si_signo = SIGALRM;
      PostSignal(p, SIGALRM, info);
      ++counters_.timer_events;
    } else {
      Lwp* l = p->FindLwp(ev.lwpid);
      if (l != nullptr && l->state == LwpState::kSleeping && l->sleep.wake_tick == ev.tick) {
        LwpSetState(l, LwpState::kRunning);
        ++counters_.timer_events;
      }
    }
  }
}

uint64_t Kernel::NextTimerTick() {
  while (!timerq_.empty()) {
    const TimerEvent& ev = timerq_.top();
    Proc* p = FindProc(ev.pid);
    bool live = false;
    if (p != nullptr && p->state == Proc::State::kActive) {
      if (ev.lwpid == 0) {
        live = p->alarm_tick == ev.tick;
      } else {
        Lwp* l = p->FindLwp(ev.lwpid);
        live = l != nullptr && l->state == LwpState::kSleeping && l->sleep.wake_tick == ev.tick;
      }
    }
    if (live) {
      return ev.tick;
    }
    timerq_.pop();
  }
  return 0;
}

void Kernel::MarkReapable(Pid pid) { reap_list_.push_back(pid); }

void Kernel::DrainReapList() {
  while (!reap_list_.empty()) {
    Pid pid = reap_list_.back();
    reap_list_.pop_back();
    Proc* p = FindProc(pid);
    if (p == nullptr) {
      continue;  // already reaped (e.g. by an explicit wait)
    }
    if (p->state == Proc::State::kZombie &&
        (p->ppid == init_->pid || FindProc(p->ppid) == nullptr)) {
      FreeProc(p);
      ++counters_.reaps;
    }
  }
}

bool Kernel::Step() {
  DrainReapList();
  DrainZombieSlim();
  FireDueTimers();
  if (finj_ && finj_->Fire(FaultSite::kSpuriousWakeup)) {
    // Wake every poll-style sleeper with nothing actually ready: they must
    // re-evaluate their poll sets and go back to sleep unharmed.
    Wakeup(kPollChan);
  }
  // Free-running mode engages only with real parallelism available and no
  // observation hooks armed: fault injection, chaos, and tracing all force
  // the deterministic path.
  if (smp_.mode() == SmpMode::kFreeRun && smp_.ncpus() > 1 &&
      finj_ == nullptr && !chaos_ && !kt_.armed() && prof_armed_ == 0) {
    return StepFreeRun();
  }
  int cpu = 0;
  Lwp* lwp;
  if (chaos_) {
    lwp = PickNextChaos(&cpu);
  } else {
    // Rotate dispatch over the CPUs. The rotation state is only consulted
    // on a multiprocessor, so uniprocessor stepping is unchanged.
    if (smp_.ncpus() > 1) {
      cpu = cur_cpu_rr_;
      cur_cpu_rr_ = (cur_cpu_rr_ + 1) % smp_.ncpus();
    }
    lwp = PickNextOn(cpu);
  }
  if (lwp == nullptr) {
    // Nothing runnable; jump the clock to the earliest timed wakeup.
    uint64_t next = NextTimerTick();
    if (next == 0) {
      return false;
    }
    ticks_ = std::max(ticks_ + 1, next);
    FireDueTimers();
    return true;
  }
  RunQuantumOn(cpu, lwp);
  return true;
}

void Kernel::RunQuantumOn(int cpu, Lwp* lwp, int budget_override) {
  CpuState& c = smp_.cpu(cpu);
  cur_cpu_ = cpu;
  // Quantum boundary: acknowledge pending cross-CPU interrupts — unless the
  // IPI-delay fault site fires, modeling slow delivery (safe because the
  // generation counters, not the IPIs, carry correctness).
  if (c.ipi_pending.load(std::memory_order_relaxed) != 0 &&
      !(finj_ && finj_->Fire(FaultSite::kIpiDelay))) {
    smp_.AckIpis(cpu);
  }
  Proc* p = lwp->proc;
  if (lwp->runq_enq_tick != 0) {
    // First dispatch since the lwp became runnable: harvest the runq wait.
    // RecordRunqWait is metrics-gated, so a stale stamp left by disarming
    // mid-run is simply cleared.
    kt_.RecordRunqWait(cpu, ticks_ - (lwp->runq_enq_tick - 1));
    lwp->runq_enq_tick = 0;
  }
  if (kt_.armed() && (p->pid != c.last_pid || lwp->lwpid != c.last_lwpid)) {
    // A context switch: record who ran before on this CPU and sample total
    // run-queue depth (the count includes the lwp just picked). Once per
    // switch, not per quantum, so an idle single-process system stays quiet.
    uint32_t depth = static_cast<uint32_t>(RunqLenTotal());
    kt_.Emit(KtEvent::kSchedSwitch, p->pid, lwp->lwpid,
             static_cast<uint32_t>(c.last_pid), depth);
    c.last_pid = p->pid;
    c.last_lwpid = lwp->lwpid;
  }
  CountQuantum(c, p->pid, lwp->lwpid);
  c.cur_as = p->as.get();
  if (p->as) {
    p->as->BindCpu(cpu);
  }
  uint64_t before = counters_.instructions;
  // nice(2) weights the quantum: the default (20) gets kQuantum; a fully
  // niced process (39) gets a sliver; a high-priority one (0) gets double.
  int quantum = kQuantum * (40 - p->nice) / 20;
  if (budget_override > 0) {
    quantum = budget_override;
  }
  ExecuteLwp(lwp, std::max(quantum, 4));
  c.stats.instructions += counters_.instructions - before;
  cur_cpu_ = 0;  // back to controller context
}

void Kernel::SetNumCpus(int n) {
  n = std::max(1, std::min(n, kMaxCpus));
  // Drain every queue in deterministic (cpu, rotation) order, resize, then
  // rehome the drained lwps round-robin over the new CPU set.
  std::vector<Lwp*> drained;
  for (int i = 0; i < smp_.ncpus(); ++i) {
    CpuState& c = smp_.cpu(i);
    while (c.runq_next != nullptr) {
      Lwp* l = c.runq_next;
      RunqRemove(l);
      drained.push_back(l);
    }
  }
  smp_.Resize(n);
  for (size_t i = 0; i < drained.size(); ++i) {
    drained[i]->cpu = static_cast<int>(i % static_cast<size_t>(n));
    RunqInsert(drained[i]);
  }
  enroll_seq_ = drained.size();
  cur_cpu_rr_ = 0;
  for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    // Off-queue lwps (sleepers, stopped) must not keep a home CPU outside
    // the new set — RunqInsert indexes by it on wakeup.
    for (auto& l : p->lwps) {
      if (l->cpu >= n) {
        l->cpu = l->cpu % n;
      }
    }
    // One TLB bank per CPU for every live address space, and the shootdown
    // back-pointer so invalidations charge IPIs.
    if (p->as) {
      p->as->SetSmp(&smp_);
      p->as->SetCpuCount(n);
    }
  }
}

std::string Kernel::CpuStatsText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "ncpus %d mode %s\n", smp_.ncpus(),
                smp_.mode() == SmpMode::kFreeRun ? "free" : "det");
  out += line;
  for (int i = 0; i < smp_.ncpus(); ++i) {
    const CpuState& c = smp_.cpu(i);
    std::snprintf(
        line, sizeof(line),
        "cpu%d runq=%zu quanta=%llu instructions=%llu steals=%llu "
        "switches=%llu ipis_sent=%llu ipis_received=%llu ipis_pending=%llu\n",
        i, c.runq_len, static_cast<unsigned long long>(c.stats.quanta),
        static_cast<unsigned long long>(c.stats.instructions),
        static_cast<unsigned long long>(c.stats.steals),
        static_cast<unsigned long long>(c.stats.switches),
        static_cast<unsigned long long>(c.stats.ipis_sent),
        static_cast<unsigned long long>(c.stats.ipis_received),
        static_cast<unsigned long long>(
            c.ipi_pending.load(std::memory_order_relaxed)));
    out += line;
  }
  return out;
}

void Kernel::DrainZombieSlim() {
  // Deferred one full step past ExitProc: quantum frames and blocking
  // control handlers may still hold Lwp pointers across the exit, and
  // RunUntil re-evaluates its predicate before every Step, so nothing can
  // observe the zombie between slimming and the controller's wait.
  while (!slim_list_.empty()) {
    Pid pid = slim_list_.back();
    slim_list_.pop_back();
    Proc* p = FindProc(pid);
    if (p == nullptr || p->state != Proc::State::kZombie) {
      continue;  // reaped, or pid reused by a live process
    }
    // Everything a wait(2) does not need: the audit ring (totals survive in
    // TraceState), the descriptor table, the profiler buckets, and the lwp
    // storage itself. The wait status, times, and pid linkage stay on the
    // Proc.
    ReleaseProf(p);
    p->trace.audit.reset();
    p->fds.clear();
    p->fds.shrink_to_fit();
    p->lwps.clear();
    p->lwps.shrink_to_fit();
  }
}

// Free-running super-step: a bulk-synchronous round that runs up to ncpus
// lwps' pure user execution on real threads, with all kernel work serial.
//   Phase A (serial): pick one lwp per CPU (same rotation and stealing as
//     the deterministic path), dequeue each for the super-step so stealing
//     cannot hand one lwp to two CPUs, and classify: anything that needs the
//     kernel now (mid-syscall, pending stop/signal, no address space, an
//     address space another pick already claimed, or writable shared memory)
//     runs a normal serial quantum instead.
//   Phase B (parallel): workers run RunUserChunk — user instructions only,
//     terminating at the first syscall/fault, chunk exhaustion, or a pending
//     IPI. No kernel state is touched off the BSP; the Dispatch join is the
//     happens-before edge for the fold.
//   Phase C (serial, fixed pick order): charge time/counters, perform each
//     chunk's terminating kernel work, re-insert still-runnable picks.
// Selection, classification, and fold order are all deterministic, so a
// free-running run is replayable too — just at chunk granularity instead of
// instruction granularity.
bool Kernel::StepFreeRun() {
  const int np = smp_.ncpus();
  // Kernel work — a serial quantum, a trap in the fold — can reap any pick's
  // process (a parent's wait(2) frees its zombie child), so a pick is named
  // by pid + ident + lwpid and re-resolved before it is touched again.
  struct Pick {
    Lwp* lwp = nullptr;
    Pid pid = 0;
    uint64_t ident = 0;
    int lwpid = 0;
    int cpu = 0;
    bool parallel = false;
    uint32_t budget = 0;
    uint32_t executed = 0;
    StepResult last{};
  };
  auto resolve = [this](const Pick& pk) -> Lwp* {
    Proc* p = FindProc(pk.pid);
    return p != nullptr && p->ident == pk.ident ? p->FindLwp(pk.lwpid) : nullptr;
  };
  Pick picks[kMaxCpus];
  int npicks = 0;
  const void* claimed[kMaxCpus];
  int nclaimed = 0;

  // Chunk size: big enough to amortize worker dispatch, capped so a pending
  // timer fires within roughly one super-step of its deadline.
  constexpr uint32_t kFreeChunk = 16384;
  uint32_t chunk = kFreeChunk;
  uint64_t next_timer = NextTimerTick();
  if (next_timer > ticks_) {
    uint64_t until = (next_timer - ticks_) / static_cast<uint64_t>(np);
    if (until < chunk) {
      chunk = static_cast<uint32_t>(std::max<uint64_t>(until, 64));
    }
  }

  for (int k = 0; k < np; ++k) {
    int cpu = cur_cpu_rr_;
    cur_cpu_rr_ = (cur_cpu_rr_ + 1) % np;
    Lwp* l = PickNextOn(cpu);
    if (l == nullptr) {
      continue;
    }
    smp_.AckIpis(cpu);  // this CPU reached a quantum boundary
    RunqRemove(l);      // held out of every queue until the fold
    Pick& pk = picks[npicks++];
    Proc* p = l->proc;
    pk.lwp = l;
    pk.pid = p->pid;
    pk.ident = p->ident;
    pk.lwpid = l->lwpid;
    pk.cpu = cpu;
    AddressSpace* as = p->as.get();
    smp_.cpu(cpu).cur_as = as;
    bool needs_kernel = l->in_syscall || l->lwp_dstop || NeedIssig(l) ||
                        as == nullptr || as->HasWritableSharedMapping();
    for (int i = 0; !needs_kernel && i < nclaimed; ++i) {
      needs_kernel = claimed[i] == as;  // one worker per address space
    }
    // nice(2) weights the chunk exactly as it weights the quantum. Serial
    // picks get the same budget, just spent through the kernel-aware loop:
    // otherwise an lwp demoted to serial (shared address space, pending
    // kernel work) would fall a chunk/quantum ratio behind its peers.
    uint64_t b = static_cast<uint64_t>(chunk) *
                 static_cast<uint64_t>(40 - p->nice) / 20;
    pk.budget = static_cast<uint32_t>(std::max<uint64_t>(b, 64));
    if (!needs_kernel) {
      claimed[nclaimed++] = as;
      pk.parallel = true;
    }
  }
  if (npicks == 0) {
    uint64_t next = NextTimerTick();
    if (next == 0) {
      return false;
    }
    ticks_ = std::max(ticks_ + 1, next);
    FireDueTimers();
    return true;
  }

  // Serial picks first: their kernel work (syscalls, stops, shootdowns)
  // lands before any parallel user execution begins, so the workers see a
  // quiescent kernel.
  for (int i = 0; i < npicks; ++i) {
    Pick& pk = picks[i];
    if (pk.parallel) {
      continue;
    }
    Lwp* l = resolve(pk);
    if (l == nullptr || l->state != LwpState::kRunning ||
        l->proc->state != Proc::State::kActive) {
      continue;  // an earlier serial quantum stopped, killed or reaped it
    }
    RunQuantumOn(pk.cpu, l, static_cast<int>(pk.budget));
  }

  int par_idx[kMaxCpus];
  int npar = 0;
  for (int i = 0; i < npicks; ++i) {
    if (picks[i].parallel) {
      picks[i].lwp = resolve(picks[i]);
      par_idx[npar++] = i;
    }
  }
  if (npar > 0) {
    workers_.Dispatch(npar, [&](int w) {
      Pick& pk = picks[par_idx[w]];
      Lwp* l = pk.lwp;
      if (l == nullptr || l->state != LwpState::kRunning ||
          l->proc->state != Proc::State::kActive) {
        return;  // a serial quantum stopped, killed or reaped it meanwhile
      }
      l->proc->as->BindCpu(pk.cpu);  // this worker's translations go to its own bank
      SmpState::SetWorkerCpu(pk.cpu);  // and its shootdowns are sent by its CPU
      pk.executed = RunUserChunk(l, pk.budget, &pk.last, &smp_.cpu(pk.cpu).ipi_pending);
      SmpState::SetWorkerCpu(-1);
    });
  }

  for (int i = 0; i < npicks; ++i) {
    Pick& pk = picks[i];
    Lwp* l = resolve(pk);  // an earlier pick's trap may have reaped it
    if (pk.parallel) {
      // The accounting a deterministic quantum gives the same run.
      CpuState& c = smp_.cpu(pk.cpu);
      CountQuantum(c, pk.pid, pk.lwpid);
      c.stats.instructions += pk.executed;
      cur_cpu_ = pk.cpu;
      FoldUserRun(l, pk.executed, pk.last);
      cur_cpu_ = 0;
      l = resolve(pk);
    }
    if (l == nullptr) {
      continue;
    }
    Proc* p = l->proc;
    if (l->state == LwpState::kRunning && l->q_where == Lwp::kQNone &&
        p->state == Proc::State::kActive && !p->native && !p->system_proc) {
      RunqInsert(l);
    }
  }
  FireDueTimers();
  return true;
}

namespace {

// Charge profiler samples for the retired-instruction interval
// (before, after]: one sample per 2^period_log2 boundary crossed, all
// attributed to pc. Pure side-state writes — nothing the simulation
// observes can depend on this.
inline void ProfCharge(ProfState* ps, uint32_t pc, uint64_t before,
                       uint64_t after) {
  uint64_t n = (after >> ps->period_log2) - (before >> ps->period_log2);
  if (n != 0) {
    ps->samples += n;
    ps->pc_hits[pc] += n;
  }
}

}  // namespace

uint32_t Kernel::RunUserChunk(Lwp* lwp, uint32_t budget, StepResult* last,
                              const std::atomic<uint64_t>* ipi) {
  Proc* p = lwp->proc;
  AddressSpace& as = *p->as;
  const bool blocks_ok = exec_engine_ != ExecEngine::kInterp;
  // User code can neither set the trace bit nor arm a watchpoint nor turn
  // the TLB off, so the engine chosen here holds for the whole run.
  BlockCache* bc = blocks_ok && (lwp->regs.psr & kPsrT) == 0 && as.CodeCacheActive()
                       ? &as.blocks()
                       : nullptr;
  // Step() never free-runs while a profiler is armed, so only the
  // deterministic quantum can take the sampling branch. It runs one block
  // per ExecuteBlock call so that each block charges its own entry pc;
  // otherwise the executor chains through the cache itself.
  ProfState* prof =
      prof_armed_ != 0 && p->prof != nullptr && p->prof->on ? p->prof.get() : nullptr;
  BlockCache* chain = prof == nullptr ? bc : nullptr;
  last->kind = StepResult::kOk;
  uint32_t executed = 0;
  while (executed < budget) {
    if (ipi != nullptr && ipi->load(std::memory_order_relaxed) != 0) {
      break;  // a peer shot this CPU down mid-chunk; yield to the fold
    }
    const uint32_t pc = lwp->regs.pc;
    const Block* blk = bc != nullptr ? bc->Get(pc, as) : nullptr;
    uint32_t n = 1;
    if (blk != nullptr) {
      n = ExecuteBlock(*blk, lwp->regs, lwp->fpregs, as, budget - executed, last, chain, ipi);
    } else {
      // Single step: the interpreter pin, or the block engine's fallback
      // (trace bit set, watchpoints active, TLB off, or a pc that is not
      // block-cacheable). The interpreter's result is authoritative.
      if (blocks_ok) {
        ++as.blocks().stats().fallback_steps;
      }
      StepResult r = CpuStep(lwp->regs, lwp->fpregs, as);
      if (r.kind != StepResult::kOk) {
        *last = r;
      }
    }
    if (prof != nullptr) {
      // A block charges its entry pc, a single step its own pc.
      ProfCharge(prof, pc, p->utime + executed, p->utime + executed + n);
    }
    executed += n;
    if (last->kind != StepResult::kOk) {
      break;
    }
  }
  return executed;
}

void Kernel::FoldUserRun(Lwp* lwp, uint32_t executed, const StepResult& last) {
  ticks_ += executed;
  counters_.instructions += executed;
  if (lwp == nullptr) {
    return;  // a free-running pick reaped before its fold
  }
  lwp->proc->utime += executed;
  if (last.kind == StepResult::kSyscall) {
    SyscallTrap(lwp);
  } else if (last.kind == StepResult::kFault) {
    HandleFault(lwp, last.fault, last.fault_addr);
  }
}

void Kernel::CountQuantum(CpuState& c, Pid pid, int lwpid) {
  // Switch counting for /proc2/kernel/cpus is tracked separately from the
  // trace attribution so arming the ring mid-run cannot change what records
  // a previously-disarmed kernel would have emitted.
  if (pid != c.sw_pid || lwpid != c.sw_lwpid) {
    ++c.stats.switches;
    c.sw_pid = pid;
    c.sw_lwpid = lwpid;
  }
  ++c.stats.quanta;
  if (exec_engine_ == ExecEngine::kInterp) {
    ++counters_.quanta_interp;
  } else {
    ++counters_.quanta_blocks;
  }
}

bool Kernel::RunUntil(const std::function<bool()>& pred, uint64_t max_steps) {
  for (uint64_t i = 0; i < max_steps; ++i) {
    if (pred()) {
      return true;
    }
    if (!Step()) {
      return pred();
    }
  }
  return pred();
}

Result<int> Kernel::RunToExit(Pid pid, uint64_t max_steps) {
  int status = 0;
  bool gone = false;
  bool done = RunUntil(
      [&]() {
        Proc* p = FindProc(pid);
        if (p == nullptr) {
          gone = true;
          return true;
        }
        if (p->state == Proc::State::kZombie) {
          status = p->exit_status;
          return true;
        }
        return false;
      },
      max_steps);
  if (!done) {
    return Errno::kETIMEDOUT;
  }
  if (gone) {
    return Errno::kESRCH;
  }
  return status;
}

void Kernel::ExecuteLwp(Lwp* lwp, int budget) {
  // The one quantum loop, for both engines and with any observer or
  // perturbation hook armed. Each pass checks events, runs user code until a
  // trap or the end of the budget, folds the accounting and takes the trap.
  // A syscall continuation, a signal pass and each instruction cost one
  // budget unit. The hooks stay off the instruction path: TLB_FLUSH fires at
  // quantum start, and chaos preemption is drawn only at the syscall entry
  // and exit stop points. Tracing emits from the cold syscall, stop, fault
  // and scheduler functions, and the profiler charges inside the user step.
  Proc* p = lwp->proc;
  if (finj_ && p->as && finj_->Fire(FaultSite::kTlbFlush)) {
    // Forced whole-TLB invalidation: every cached translation must be
    // re-derivable from the mapping structure (misses, never wrong data).
    p->as->FlushTlb();
  }
  // Pending-work checks (direct-stop requests and signal delivery) only need
  // to re-run after events that can change that state: within this single-
  // threaded simulation, nothing outside this LWP's own syscalls, faults and
  // signal dispatch can post new work mid-quantum. Checking once and again
  // after each such event keeps the user step free of per-instruction
  // SigSet arithmetic.
  bool check_events = true;
  while (budget > 0 && lwp->state == LwpState::kRunning &&
         p->state == Proc::State::kActive) {
    if (lwp->in_syscall) {
      --budget;
      ++ticks_;
      ++p->stime;
      ContinueSyscall(lwp);
      check_events = true;
      // Chaos: the syscall-exit stop point is also a preemption point.
      if (chaos_ && !lwp->in_syscall && (ChaosNext() & 3) == 0) {
        break;
      }
      continue;
    }
    if (check_events) {
      if (lwp->lwp_dstop) {
        lwp->lwp_dstop = false;
        StopLwp(lwp, PR_REQUESTED, 0, /*istop=*/true);
        break;
      }
      // "Just before a process returns to user level, it checks for the
      // presence of a signal to be acted upon."
      if (NeedIssig(lwp)) {
        --budget;
        if (Issig(lwp)) {
          Psig(lwp);
        }
        continue;
      }
      check_events = false;
    }
    StepResult last;
    uint32_t executed = RunUserChunk(lwp, static_cast<uint32_t>(budget), &last);
    budget -= static_cast<int>(executed);
    FoldUserRun(lwp, executed, last);
    if (last.kind != StepResult::kOk) {
      check_events = true;
      // Chaos: force preemption at the syscall-entry stop point so other
      // runnable lwps interleave with the entry/exit window.
      if (chaos_ && last.kind == StepResult::kSyscall && (ChaosNext() & 3) == 0) {
        break;
      }
    }
  }
}

std::string Kernel::ExecEngineMetricsText() const {
  BlockStats total;
  uint64_t slots = 0;
  std::set<const AddressSpace*> seen;
  for (const Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    if (!p->as || !seen.insert(p->as.get()).second) {
      continue;
    }
    if (const BlockCache* bc = p->as->blocks_if()) {
      const BlockStats& s = bc->stats();
      slots += bc->slot_count();
      total.built += s.built;
      total.hits += s.hits;
      total.misses += s.misses;
      total.invalidations += s.invalidations;
      total.fallback_steps += s.fallback_steps;
    }
  }
  std::ostringstream os;
  os << "exec_engine " << (exec_engine_ == ExecEngine::kInterp ? "interp" : "blocks")
     << "\n";
  os << "exec_quanta_interp " << counters_.quanta_interp << "\n";
  os << "exec_quanta_blocks " << counters_.quanta_blocks << "\n";
  os << "bb_slots " << slots << "\n";
  os << "bb_built " << total.built << "\n";
  os << "bb_hits " << total.hits << "\n";
  os << "bb_misses " << total.misses << "\n";
  os << "bb_invalidations " << total.invalidations << "\n";
  os << "bb_fallback_steps " << total.fallback_steps << "\n";
  return os.str();
}

Result<void> Kernel::SetProfiling(Proc* p, int period_log2) {
  if (p == nullptr) {
    return Errno::kESRCH;
  }
  if (period_log2 < 0) {
    if (p->prof != nullptr && p->prof->on) {
      p->prof->on = false;
      --prof_armed_;
    }
    // Disarming keeps the buckets: /proc2/<pid>/prof stays readable after
    // the sampling window closes.
    return Result<void>::Ok();
  }
  if (period_log2 > 30) {
    return Errno::kEINVAL;
  }
  if (p->prof == nullptr) {
    p->prof = std::make_unique<ProfState>();
  }
  if (!p->prof->on) {
    ++prof_armed_;
  }
  p->prof->on = true;
  p->prof->period_log2 = static_cast<uint32_t>(period_log2);
  p->prof->samples = 0;
  p->prof->pc_hits.clear();
  return Result<void>::Ok();
}

void Kernel::ReleaseProf(Proc* p) {
  if (p->prof != nullptr) {
    if (p->prof->on) {
      --prof_armed_;
    }
    p->prof.reset();
  }
}

std::string Kernel::ProfText(const Proc& p) const {
  // Folded-stack text: one "frame1;frame2 count" line per bucket, which is
  // exactly what flamegraph.pl eats. Our "stack" is two frames deep — the
  // executable name and the sampled pc — sorted by pc for a deterministic
  // dump. An unprofiled process reads as an empty file, not an error.
  std::string out;
  if (p.prof == nullptr) {
    return out;
  }
  char line[128];
  for (const auto& [pc, hits] : p.prof->pc_hits) {
    std::snprintf(line, sizeof(line), "%s;0x%04x %llu\n", p.name.c_str(), pc,
                  static_cast<unsigned long long>(hits));
    out += line;
  }
  return out;
}

void Kernel::Wakeup(const void* chan) {
  if (chan == nullptr) {
    return;
  }
  // Walk only the sleep bucket this channel hashes to; waking an lwp moves
  // it off the bucket list, so save the link first.
  Lwp* l = sleepq_[SleepBucket(chan)];
  while (l != nullptr) {
    Lwp* next = l->q_next;
    if (l->sleep.chan == chan) {
      LwpSetState(l, LwpState::kRunning);
    }
    l = next;
  }
}

// --- Signals: issig()/psig() per Figure 4 -------------------------------------

bool Kernel::NeedIssig(Lwp* lwp) const {
  const Proc* p = lwp->proc;
  if (p->trace.dstop_pending || p->sig.cursig != 0) {
    return true;
  }
  SigSet deliverable = p->sig.pending;
  deliverable -= p->sig.hold;
  return !deliverable.Empty();
}

int Kernel::PromoteSignal(Proc* p) {
  SigSet deliverable = p->sig.pending;
  deliverable -= p->sig.hold;
  int s = deliverable.First();
  if (s != 0) {
    p->sig.pending.Remove(s);
    p->sig.cursig = s;
    p->sig.cursig_info = p->sig.pending_info[s];
  }
  return s;
}

bool Kernel::Issig(Lwp* lwp) {
  Proc* p = lwp->proc;
  for (;;) {
    if (p->sig.cursig == 0) {
      if (PromoteSignal(p) != 0) {
        lwp->sig_reported = false;
        lwp->pt_reported = false;
      }
    }
    int s = p->sig.cursig;
    if (s != 0) {
      if (s == SIGKILL) {
        // SIGKILL cannot be caught, held, or traced.
        ExitProc(p, WSignalStatus(SIGKILL, false));
        return false;
      }
      const SigAction& act = p->sig.actions[s];
      bool traced = p->trace.sigtrace.Has(s);
      if (act.handler == SIG_IGN && !traced && !p->pt_traced) {
        p->sig.cursig = 0;
        lwp->sig_reported = false;
        lwp->pt_reported = false;
        continue;
      }
      // Signalled stop: the signal is an event of interest.
      if (traced && !lwp->sig_reported) {
        lwp->sig_reported = true;
        StopLwp(lwp, PR_SIGNALLED, static_cast<uint16_t>(s), /*istop=*/true);
        return false;
      }
      // Job-control stop signals: the default action is taken within
      // issig(). A process may stop twice — first on the signalled stop
      // above, then here if it was set running without clearing the signal.
      if (IsJobControlStop(s) && act.handler == SIG_DFL) {
        p->sig.cursig = 0;
        lwp->sig_reported = false;
        lwp->pt_reported = false;
        JobControlStop(p, s);
        return false;
      }
      if (s == SIGCONT && act.handler == SIG_DFL) {
        // The continue action already happened when the signal was posted.
        p->sig.cursig = 0;
        lwp->sig_reported = false;
        lwp->pt_reported = false;
        continue;
      }
      // ptrace: a traced process stops on receipt of any signal, whether or
      // not that signal is traced via /proc (and after the /proc stop if it
      // is: "ptrace has control").
      if (p->pt_traced && !lwp->pt_reported) {
        lwp->pt_reported = true;
        p->pt_owned_stop = true;
        p->pt_stopsig = s;
        p->pt_wait_reported = false;
        StopLwp(lwp, PR_SIGNALLED, static_cast<uint16_t>(s), /*istop=*/false);
        Proc* parent = FindProc(p->ppid);
        if (parent != nullptr) {
          Wakeup(parent);
        }
        return false;
      }
    }
    // The /proc stop directive is checked last: "/proc gets the last word."
    if (p->trace.dstop_pending) {
      if (finj_ && finj_->Fire(FaultSite::kDelayedStop)) {
        // Chaos: delivery is deferred to a later issig(); the directive
        // itself stays pending, so the stop still lands eventually (the
        // rule's max_hits bounds the total deferral).
        return p->sig.cursig != 0;
      }
      p->trace.dstop_pending = false;
      StopLwp(lwp, PR_REQUESTED, 0, /*istop=*/true);
      return false;
    }
    return p->sig.cursig != 0;
  }
}

// The signal-handler stack frame psig() pushes and sigreturn restores.
namespace {
struct SigFrame {
  uint32_t magic;
  Regs regs;
  uint32_t hold_words[4];
};
constexpr uint32_t kSigFrameMagic = 0x51474953;  // "SIGQ"
}  // namespace

void Kernel::Psig(Lwp* lwp) {
  Proc* p = lwp->proc;
  int s = p->sig.cursig;
  if (s == 0) {
    return;
  }
  SigInfo info = p->sig.cursig_info;
  p->sig.cursig = 0;
  lwp->sig_reported = false;
  lwp->pt_reported = false;
  ++p->nsignals;

  const SigAction& act = p->sig.actions[s];
  kt_.Emit(KtEvent::kSignalDeliver, p->pid, lwp->lwpid, static_cast<uint32_t>(s),
           act.handler == SIG_IGN || act.handler == SIG_DFL ? 0 : act.handler);
  if (act.handler == SIG_IGN) {
    return;
  }
  if (act.handler == SIG_DFL) {
    switch (DefaultDisp(s)) {
      case SigDisp::kIgnore:
      case SigDisp::kContinue:
        return;
      case SigDisp::kStop:
        return;  // handled inside issig()
      case SigDisp::kTerminate:
        ExitProc(p, WSignalStatus(s, false));
        return;
      case SigDisp::kCore:
        ExitProc(p, WSignalStatus(s, true));
        return;
    }
    return;
  }

  // Deliver to a user handler: push the saved context onto the user stack,
  // enter the handler with the signal number in r1, and extend the hold
  // mask. sigreturn(2) unwinds.
  SigFrame frame;
  frame.magic = kSigFrameMagic;
  frame.regs = lwp->regs;
  static_assert(SigSet::kMaxMember == 128);
  std::memcpy(frame.hold_words, &p->sig.hold, sizeof(frame.hold_words));

  uint32_t nsp = lwp->regs.sp() - static_cast<uint32_t>(sizeof(SigFrame));
  if (!Copyout(p, nsp, &frame, sizeof(frame)).ok()) {
    // Cannot build the signal frame (stack gone): terminate, as real kernels
    // do on a double fault.
    ExitProc(p, WSignalStatus(SIGSEGV, true));
    return;
  }
  lwp->regs.set_sp(nsp);
  lwp->regs.pc = act.handler;
  lwp->regs.r[1] = static_cast<uint32_t>(s);
  lwp->regs.r[2] = info.si_addr;
  p->sig.hold |= act.mask;
  p->sig.hold.Add(s);
}

Kernel::SysResult Kernel::SysSigreturn(Lwp* lwp) {
  Proc* p = lwp->proc;
  SigFrame frame;
  if (!Copyin(p, lwp->regs.sp(), &frame, sizeof(frame)).ok() ||
      frame.magic != kSigFrameMagic) {
    return SysResult::Fail(Errno::kEFAULT);
  }
  lwp->regs = frame.regs;
  std::memcpy(&p->sig.hold, frame.hold_words, sizeof(frame.hold_words));
  // The restored registers are the complete interrupted context; the
  // syscall-return path must not touch them.
  return SysResult::OkNoRegs();
}

void Kernel::StopLwp(Lwp* lwp, uint16_t why, uint16_t what, bool istop) {
  LwpSetState(lwp, LwpState::kStopped);
  lwp->stop_why = why;
  lwp->stop_what = what;
  lwp->istop = istop;
  if (kt_.armed()) {
    Proc* p = lwp->proc;
    kt_.Emit(KtEvent::kStop, p->pid, lwp->lwpid, why, what);
    // If a stop directive was outstanding and this was the last lwp to
    // reach its stop, the request->all-stopped wait is complete.
    if (p->stop_req_tick != 0 && p->AllLwpsStopped()) {
      kt_.RecordStopWait(ticks_ - (p->stop_req_tick - 1));
      p->stop_req_tick = 0;
    }
  }
  Wakeup(kPollChan);
  ProcPollLevelMoved(lwp->proc->pid);
}

void Kernel::ResumeLwp(Lwp* lwp) {
  if (lwp->stop_why != 0) {
    kt_.Emit(KtEvent::kRun, lwp->proc->pid, lwp->lwpid, lwp->stop_why, 0);
  }
  lwp->stop_why = 0;
  lwp->stop_what = 0;
  lwp->istop = false;
  if (lwp->stopped_while_asleep) {
    lwp->stopped_while_asleep = false;
    // Restore the channel before the transition so the sleep-bucket insert
    // hashes the channel the lwp is actually sleeping on.
    lwp->sleep = lwp->saved_sleep;
    LwpSetState(lwp, LwpState::kSleeping);
    ArmSleepTimer(lwp);  // the heap entry went stale while it was stopped
  } else {
    LwpSetState(lwp, LwpState::kRunning);
  }
  // POLLPRI can fall here; nothing is woken, so only the hook reports it.
  ProcPollLevelMoved(lwp->proc->pid);
}

void Kernel::ProcPollLevelMoved(Pid pid) {
  if (procd_poll_hook_) {
    procd_poll_hook_(pid);
  }
}

void Kernel::JobControlStop(Proc* p, int sig) {
  for (auto& l : p->lwps) {
    if (l->state == LwpState::kDead) {
      continue;
    }
    if (l->state == LwpState::kSleeping) {
      l->saved_sleep = l->sleep;
      l->stopped_while_asleep = true;
    }
    StopLwp(l.get(), PR_JOBCONTROL, static_cast<uint16_t>(sig), /*istop=*/false);
  }
  // Notify the parent (wait with WUNTRACED is not modelled, but SIGCLD is).
  Proc* parent = FindProc(p->ppid);
  if (parent != nullptr && !parent->native) {
    SigInfo info;
    info.si_signo = SIGCLD;
    info.si_pid = p->pid;
    PostSignal(parent, SIGCLD, info);
  }
}

void Kernel::JobControlCont(Proc* p) {
  for (auto& l : p->lwps) {
    if (l->state == LwpState::kStopped && l->stop_why == PR_JOBCONTROL) {
      ResumeLwp(l.get());
    }
  }
}

void Kernel::PostSignal(Proc* p, int sig, const SigInfo& info) {
  if (p == nullptr || p->state != Proc::State::kActive || !SigSet::Valid(sig)) {
    return;
  }
  if (p->native || p->system_proc) {
    return;  // controllers and system processes do not take signals
  }
  kt_.Emit(KtEvent::kSignalPost, p->pid, 0, static_cast<uint32_t>(sig),
           static_cast<uint32_t>(info.si_pid));
  if (sig == SIGCONT) {
    // Continuing is done when the signal is generated, not delivered.
    for (int stop_sig : {SIGSTOP, SIGTSTP, SIGTTIN, SIGTTOU}) {
      p->sig.pending.Remove(stop_sig);
    }
    JobControlCont(p);
  }
  if (IsJobControlStop(sig)) {
    p->sig.pending.Remove(SIGCONT);
  }
  if (sig == SIGKILL) {
    // SIGKILL terminates even stopped processes: force every lwp to a point
    // where issig() runs.
    for (auto& l : p->lwps) {
      if (l->state == LwpState::kStopped) {
        l->stopped_while_asleep = false;
        ResumeLwp(l.get());
      }
    }
  }

  const SigAction& act = p->sig.actions[sig];
  bool traced = p->trace.sigtrace.Has(sig) || p->pt_traced;
  if (!traced && sig != SIGKILL && sig != SIGSTOP) {
    // Discard at generation time when the disposition is to ignore.
    if (act.handler == SIG_IGN) {
      return;
    }
    if (act.handler == SIG_DFL) {
      SigDisp d = DefaultDisp(sig);
      if (d == SigDisp::kIgnore || (sig == SIGCONT && d == SigDisp::kContinue)) {
        return;
      }
    }
  }

  p->sig.pending.Add(sig);
  p->sig.pending_info[sig] = info;

  // Wake interruptible sleepers so the signal is noticed.
  for (auto& l : p->lwps) {
    if (l->state == LwpState::kSleeping && l->sleep.interruptible) {
      l->interrupted = true;
      LwpSetState(l.get(), LwpState::kRunning);
    }
  }
}

// --- Faults -------------------------------------------------------------------

void Kernel::HandleFault(Lwp* lwp, int fault, uint32_t addr) {
  Proc* p = lwp->proc;
  ++p->nfaults;
  kt_.Emit(KtEvent::kFault, p->pid, lwp->lwpid, static_cast<uint32_t>(fault), addr);
  if (fault == FLTTRACE) {
    lwp->regs.psr &= ~kPsrT;  // single-step is one-shot
  }
  if (p->trace.flttrace.Has(fault)) {
    p->trace.cur_fault = fault;
    p->trace.cur_fault_addr = addr;
    StopLwp(lwp, PR_FAULTED, static_cast<uint16_t>(fault), /*istop=*/true);
    return;
  }
  ConvertFaultToSignal(lwp, fault, addr);
}

void Kernel::ConvertFaultToSignal(Lwp* lwp, int fault, uint32_t addr) {
  Proc* p = lwp->proc;
  int sig = FaultToSignal(fault);
  const SigAction& act = p->sig.actions[sig];
  bool blocked = p->sig.hold.Has(sig);
  bool ignored = act.handler == SIG_IGN ||
                 (act.handler == SIG_DFL && DefaultDisp(sig) == SigDisp::kIgnore);
  if ((blocked || ignored) && !p->trace.sigtrace.Has(sig)) {
    // An ignored or held fault signal would re-execute the faulting
    // instruction forever; force the default fatal action.
    ExitProc(p, WSignalStatus(sig, true));
    return;
  }
  SigInfo info;
  info.si_signo = sig;
  info.si_code = fault;
  info.si_addr = addr;
  PostSignal(p, sig, info);
}

// --- /proc control primitives ---------------------------------------------------

Result<void> Kernel::PrStop(Proc* target) {
  if (target->state != Proc::State::kActive) {
    return Errno::kENOENT;
  }
  if (kt_.metrics_on() && target->stop_req_tick == 0 && !target->AllLwpsStopped()) {
    // Start the request->all-stopped clock (closed in StopLwp). Stored with
    // a +1 bias so tick 0 is distinguishable from "no request outstanding".
    target->stop_req_tick = ticks_ + 1;
  }
  bool any_pending = false;
  for (auto& l : target->lwps) {
    switch (l->state) {
      case LwpState::kDead:
        break;
      case LwpState::kStopped:
        // A process stopped by job control or owned by ptrace keeps the
        // directive pending: "when restarted by SIGCONT, it stops again on a
        // requested stop before exiting issig() — /proc gets the last word."
        if (!l->istop) {
          any_pending = true;
        }
        break;
      case LwpState::kSleeping:
        if (l->sleep.interruptible) {
          // Stop it in its sleep, without disturbing the system call.
          l->saved_sleep = l->sleep;
          l->stopped_while_asleep = true;
          StopLwp(l.get(), PR_REQUESTED, 0, /*istop=*/true);
        } else {
          any_pending = true;
        }
        break;
      case LwpState::kRunning:
        any_pending = true;
        // A running lwp may be mid-quantum on another CPU: the stop
        // directive reaches it as a reschedule IPI, honored at its next
        // quantum boundary.
        if (smp_.ncpus() > 1 && l->cpu != cur_cpu_) {
          smp_.ReschedIpi(l->cpu, target->pid, l->lwpid);
        }
        break;
    }
  }
  if (any_pending) {
    target->trace.dstop_pending = true;
  }
  return Result<void>::Ok();
}

Result<void> Kernel::PrStopLwp(Lwp* lwp) {
  if (lwp->proc->state != Proc::State::kActive) {
    return Errno::kENOENT;
  }
  switch (lwp->state) {
    case LwpState::kDead:
      return Errno::kENOENT;
    case LwpState::kStopped:
      return Result<void>::Ok();
    case LwpState::kSleeping:
      if (lwp->sleep.interruptible) {
        lwp->saved_sleep = lwp->sleep;
        lwp->stopped_while_asleep = true;
        StopLwp(lwp, PR_REQUESTED, 0, /*istop=*/true);
      } else {
        lwp->lwp_dstop = true;
      }
      return Result<void>::Ok();
    case LwpState::kRunning:
      lwp->lwp_dstop = true;
      if (smp_.ncpus() > 1 && lwp->cpu != cur_cpu_) {
        smp_.ReschedIpi(lwp->cpu, lwp->proc->pid, lwp->lwpid);
      }
      return Result<void>::Ok();
  }
  return Result<void>::Ok();
}

bool Kernel::PrIsStopped(const Proc* target) const {
  for (const auto& l : target->lwps) {
    if (l->state == LwpState::kStopped && l->istop) {
      return true;
    }
  }
  return false;
}

Result<void> Kernel::PrStopWaitCheck(Pid pid, bool idle) {
  Proc* p = FindProc(pid);
  if (p == nullptr || p->state != Proc::State::kActive) {
    return Errno::kENOENT;  // the process exited while we waited
  }
  for (const auto& l : p->lwps) {
    if (l->state == LwpState::kStopped) {
      return Result<void>::Ok();
    }
  }
  return idle ? Errno::kEDEADLK : Errno::kEAGAIN;  // idle: no stop can come
}

Result<void> Kernel::PrWaitStop(Proc* target) {
  Pid pid = target->pid;
  RunUntil([&]() { return PrStopWaitCheck(pid, /*idle=*/false).error() != Errno::kEAGAIN; });
  return PrStopWaitCheck(pid, /*idle=*/true);
}

Result<void> Kernel::PrRunLwp(Lwp* lwp, const RunArgs& args) {
  Proc* p = lwp->proc;
  if (lwp->state != LwpState::kStopped || !lwp->istop) {
    return Errno::kEBUSY;
  }
  if (args.set_trace) {
    p->trace.sigtrace = args.trace;
  }
  if (args.set_fault) {
    p->trace.flttrace = args.fault;
  }
  if (args.set_hold) {
    p->sig.hold = args.hold;
    p->sig.hold.Remove(SIGKILL);
    p->sig.hold.Remove(SIGSTOP);
  }
  if (args.clear_sig) {
    p->sig.cursig = 0;
    for (auto& l : p->lwps) {
      l->sig_reported = false;
      l->pt_reported = false;
    }
  }
  if (args.clear_fault) {
    p->trace.cur_fault = 0;
  }
  if (args.set_vaddr) {
    lwp->regs.pc = args.vaddr;
  }
  if (args.step) {
    lwp->regs.psr |= kPsrT;
  }
  if (args.abort && lwp->in_syscall) {
    lwp->abort_syscall = true;
    // The aborted call must not resume its sleep; it goes straight to the
    // syscall exit path with EINTR.
    lwp->stopped_while_asleep = false;
  }
  if (args.stop) {
    p->trace.dstop_pending = true;
  }

  // An unclearned fault converts to its signal on resume.
  if (p->trace.cur_fault != 0) {
    int fault = p->trace.cur_fault;
    uint32_t addr = p->trace.cur_fault_addr;
    p->trace.cur_fault = 0;
    ConvertFaultToSignal(lwp, fault, addr);
    if (p->state != Proc::State::kActive) {
      return Result<void>::Ok();
    }
  }
  ResumeLwp(lwp);
  return Result<void>::Ok();
}

Result<void> Kernel::PrRun(Proc* target, const RunArgs& args) {
  if (target->state != Proc::State::kActive) {
    return Errno::kENOENT;
  }
  // Resume every lwp stopped on an event of interest; the process-level
  // interface treats the stop as a process-wide condition.
  Lwp* primary = nullptr;
  for (auto& l : target->lwps) {
    if (l->state == LwpState::kStopped && l->istop) {
      primary = l.get();
      break;
    }
  }
  if (primary == nullptr) {
    return Errno::kEBUSY;
  }
  SVR4_RETURN_IF_ERROR(PrRunLwp(primary, args));
  for (auto& l : target->lwps) {
    if (l.get() != primary && l->state == LwpState::kStopped && l->istop) {
      RunArgs rest;  // auxiliary lwps resume plainly
      (void)PrRunLwp(l.get(), rest);
    }
  }
  return Result<void>::Ok();
}

Result<void> Kernel::PrKill(Proc* target, int sig) {
  if (!SigSet::Valid(sig)) {
    return Errno::kEINVAL;
  }
  SigInfo info;
  info.si_signo = sig;
  PostSignal(target, sig, info);
  return Result<void>::Ok();
}

Result<void> Kernel::PrUnkill(Proc* target, int sig) {
  if (!SigSet::Valid(sig)) {
    return Errno::kEINVAL;
  }
  target->sig.pending.Remove(sig);
  return Result<void>::Ok();
}

Result<void> Kernel::PrSetSig(Proc* target, int sig, const SigInfo& info) {
  if (sig == 0) {
    target->sig.cursig = 0;
    for (auto& l : target->lwps) {
      l->sig_reported = false;
      l->pt_reported = false;
    }
    return Result<void>::Ok();
  }
  if (!SigSet::Valid(sig)) {
    return Errno::kEINVAL;
  }
  // A signal planted by the controlling process is not a fresh receipt: the
  // process acts on it when resumed rather than stopping to report it again.
  target->sig.cursig = sig;
  target->sig.cursig_info = info;
  for (auto& l : target->lwps) {
    l->sig_reported = true;
    l->pt_reported = true;
  }
  return Result<void>::Ok();
}

// --- The /proc open ledger ------------------------------------------------------

namespace {

// A descriptor from a dead generation closes: the set-id exec already moved
// its ledger entry to the stale side, so drain that side. Returns whether
// the last-close actions are due.
bool PrStaleClose(TraceState& t, bool writable) {
  if (t.stale_total_opens > 0) {
    --t.stale_total_opens;
  }
  if (writable && t.stale_writable_opens > 0) {
    --t.stale_writable_opens;
  }
  if (t.writable_opens > 0) {
    // A live-generation writer exists; last-close responsibility moved to it
    // the moment it opened, and a stale drain must not resume the target or
    // clear state a live controller now owns.
    return false;
  }
  // The last invalidated writer is gone: the exec-time directed stop and
  // run-on-last-close fire exactly as if the writer closed normally. If the
  // invalidated set held no writer at all (or its writers drained without
  // tripping run-on-last-close), they fire at its final stale descriptor of
  // any kind; otherwise a target whose controllers were all read-only at
  // exec time would stay directed-stopped forever.
  return t.stale_writable_opens == 0 &&
         (writable || (t.stale_total_opens == 0 && t.run_on_last_close));
}

}  // namespace

Result<void> Kernel::PrLedgerOpen(OpenFile& of, Proc* target, Proc* opener) {
  TraceState& t = target->trace;
  if (of.writable) {
    if (t.excl) {
      return Errno::kEBUSY;  // an exclusive controller exists
    }
    if (of.oflags & O_EXCL) {
      // "A /proc file can be opened for exclusive read/write use ... a
      // controlling process can avoid collisions with other controlling
      // processes." Read-only opens are unaffected.
      if (t.writable_opens > 0) {
        return Errno::kEBUSY;
      }
      t.excl = true;
      of.pr_excl = true;
    }
    ++t.writable_opens;
  }
  ++t.total_opens;
  of.pr_gen = t.gen;
  of.pr_ident = target->ident;
  if (opener != nullptr) {
    of.pr_opener = opener->pid;
    of.pr_opener_ident = opener->ident;
  }
  kt_.Emit(KtEvent::kProcOpen, target->pid, 0, static_cast<uint32_t>(of.pr_opener),
           of.writable ? 1 : 0);
  return Result<void>::Ok();
}

void Kernel::PrLedgerClose(const OpenFile& of, Pid pid) {
  Proc* p = FindProc(pid);
  if (p == nullptr || of.pr_ident != p->ident) {
    // Reaped, or the pid was reused: the ledger that counted this
    // descriptor went with its process, and the successor's never did.
    return;
  }
  kt_.Emit(KtEvent::kProcClose, pid, 0, static_cast<uint32_t>(of.pr_opener),
           of.writable ? 1 : 0);
  TraceState& t = p->trace;
  bool last;
  if (of.pr_gen != t.gen) {
    // Invalidated by a set-id exec: its counts are on the stale ledger, and
    // the new incarnation's counters and exclusivity are off limits.
    last = PrStaleClose(t, of.writable);
  } else {
    if (of.pr_excl) {
      t.excl = false;
    }
    --t.total_opens;
    last = of.writable && --t.writable_opens == 0;
  }
  if (last) {
    PrLastClose(p);
  }
}

Result<Proc*> Kernel::PrLedgerTarget(const OpenFile& of, Pid pid) {
  Proc* p = FindProc(pid);
  if (p == nullptr || of.pr_ident != p->ident) {
    // After pid wraparound the pid names a stranger: the descriptor
    // dangles exactly as if the pid were free.
    return Errno::kENOENT;
  }
  if (of.pr_gen != p->trace.gen) {
    // Invalidated by a set-id exec: "no further operation on that file
    // descriptor will succeed except close(2)".
    return Errno::kEACCES;
  }
  return p;
}

int Kernel::PrLedgerPoll(const OpenFile& of, Pid pid) {
  auto p = PrLedgerTarget(of, pid);
  if (!p.ok()) {
    return POLLNVAL;
  }
  if ((*p)->state == Proc::State::kZombie) {
    return POLLHUP;
  }
  // "Ready" for a /proc file: stopped on an event of interest.
  return PrIsStopped(*p) ? POLLPRI : 0;
}

Proc* Kernel::PrLedgerOpener(const OpenFile& of) {
  Proc* p = FindProc(of.pr_opener);
  return p != nullptr && p->ident == of.pr_opener_ident ? p : nullptr;
}

void Kernel::PrLastClose(Proc* target) {
  // Run-on-last-close: when the last writable /proc descriptor goes away,
  // clear all tracing flags and set the process running if it is stopped.
  TraceState& t = target->trace;
  t.excl = false;
  if (!t.run_on_last_close) {
    return;
  }
  t.sigtrace.Clear();
  t.flttrace.Clear();
  t.sysentry.Clear();
  t.sysexit.Clear();
  t.inherit_on_fork = false;
  t.run_on_last_close = false;
  t.dstop_pending = false;
  t.cur_fault = 0;
  for (auto& l : target->lwps) {
    if (l->state == LwpState::kStopped && l->stop_why != PR_JOBCONTROL &&
        !target->pt_owned_stop) {
      ResumeLwp(l.get());
    }
  }
}

// --- kill(2) and wait(2) for native processes ------------------------------------

Result<void> Kernel::Kill(Proc* sender, Pid pid, int sig) {
  if (sig < 0 || sig > SigSet::kMaxMember) {
    return Errno::kEINVAL;
  }
  auto permitted = [&](Proc* t) {
    return sender->creds.IsSuper() || sender->creds.euid == t->creds.euid ||
           sender->creds.euid == t->creds.ruid || sender->creds.ruid == t->creds.ruid;
  };
  auto send_one = [&](Proc* t) {
    if (sig != 0) {
      SigInfo info;
      info.si_signo = sig;
      info.si_pid = sender->pid;
      info.si_uid = static_cast<int32_t>(sender->creds.ruid);
      PostSignal(t, sig, info);
    }
  };
  if (pid > 0) {
    Proc* t = FindProc(pid);
    if (t == nullptr || t->state != Proc::State::kActive) {
      return Errno::kESRCH;
    }
    if (!permitted(t)) {
      return Errno::kEPERM;
    }
    send_one(t);
    return Result<void>::Ok();
  }
  // Process group: pid == 0 means the sender's group, negative a named one.
  Pid pgrp = pid == 0 ? sender->pgrp : -pid;
  bool hit = false;
  for (Proc* p = all_head_; p != nullptr; p = p->pt_all_next) {
    if (p->pgrp == pgrp && p->state == Proc::State::kActive && !p->system_proc &&
        !p->native) {
      if (permitted(p)) {
        send_one(p);
        hit = true;
      }
    }
  }
  return hit ? Result<void>::Ok() : Result<void>(Errno::kESRCH);
}

bool Kernel::WaitScan(Proc* parent, Pid filter, WaitResult* out, bool* any_children) {
  *any_children = false;
  // O(children of parent), not O(all procs): walk the intrusive children
  // list. ReapZombie frees the child, so hold the sibling link first.
  Proc* next = nullptr;
  for (Proc* p = parent->pt_first_child; p != nullptr; p = next) {
    next = p->pt_sib_next;
    if (p->ppid != parent->pid || p == parent) {
      continue;
    }
    if (filter > 0 && p->pid != filter) {
      continue;
    }
    *any_children = true;
    if (p->state == Proc::State::kZombie) {
      out->pid = p->pid;
      out->status = p->exit_status;
      ReapZombie(p, parent);
      return true;
    }
    // ptrace: a stop is reported to the parent via wait(2).
    if (p->pt_traced && p->pt_owned_stop && !p->pt_wait_reported) {
      bool stopped = false;
      for (auto& l : p->lwps) {
        if (l->state == LwpState::kStopped) {
          stopped = true;
        }
      }
      if (stopped) {
        p->pt_wait_reported = true;
        out->pid = p->pid;
        out->status = WStopStatus(p->pt_stopsig);
        return true;
      }
    }
  }
  return false;
}

Result<WaitResult> Kernel::Wait(Proc* p, Pid pid, bool nohang) {
  for (;;) {
    WaitResult out;
    bool any = false;
    if (WaitScan(p, pid, &out, &any)) {
      return out;
    }
    if (!any) {
      return Errno::kECHILD;
    }
    if (nohang) {
      out.pid = 0;
      return out;
    }
    if (!Step()) {
      return Errno::kEDEADLK;
    }
  }
}

// --- User memory helpers ----------------------------------------------------------

Result<void> Kernel::Copyin(Proc* p, uint32_t va, void* buf, uint32_t n) {
  if (!p->as) {
    return Errno::kEFAULT;
  }
  if (finj_ && finj_->Fire(FaultSite::kCopyin)) {
    return Errno::kEFAULT;
  }
  auto r = p->as->PrRead(va, std::span<uint8_t>(static_cast<uint8_t*>(buf), n));
  if (!r.ok() || *r != static_cast<int64_t>(n)) {
    return Errno::kEFAULT;
  }
  return Result<void>::Ok();
}

Result<void> Kernel::Copyout(Proc* p, uint32_t va, const void* buf, uint32_t n) {
  if (!p->as) {
    return Errno::kEFAULT;
  }
  if (finj_ && finj_->Fire(FaultSite::kCopyout)) {
    return Errno::kEFAULT;
  }
  auto r = p->as->PrWrite(va, std::span<const uint8_t>(static_cast<const uint8_t*>(buf), n));
  if (!r.ok() || *r != static_cast<int64_t>(n)) {
    return Errno::kEFAULT;
  }
  return Result<void>::Ok();
}

Result<std::string> Kernel::CopyinStr(Proc* p, uint32_t va, uint32_t max) {
  std::string out;
  for (uint32_t i = 0; i < max; ++i) {
    char c;
    SVR4_RETURN_IF_ERROR(Copyin(p, va + i, &c, 1));
    if (c == 0) {
      return out;
    }
    out += c;
  }
  return Errno::kENAMETOOLONG;
}

}  // namespace svr4
