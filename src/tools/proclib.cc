#include "svr4proc/tools/proclib.h"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace svr4 {
namespace {

std::string ProcPath(Pid pid) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "/proc/%05d", pid);
  return buf;
}

}  // namespace

Result<ProcHandle> ProcHandle::Grab(Kernel& k, Proc* controller, Pid pid, int oflags) {
  auto owned = std::make_unique<LocalProcIo>(k, controller);
  auto fd = owned->Open(ProcPath(pid), oflags);
  if (!fd.ok()) {
    return fd.error();
  }
  ProcIo* io = owned.get();
  return ProcHandle(std::move(owned), io, pid, *fd);
}

Result<ProcHandle> ProcHandle::Grab(ProcIo& io, Pid pid, int oflags) {
  auto fd = io.Open(ProcPath(pid), oflags);
  if (!fd.ok()) {
    return fd.error();
  }
  return ProcHandle(nullptr, &io, pid, *fd);
}

ProcHandle::ProcHandle(ProcHandle&& o) noexcept
    : owned_io_(std::move(o.owned_io_)), io_(o.io_), pid_(o.pid_), fd_(o.fd_) {
  o.io_ = nullptr;
  o.fd_ = -1;
}

ProcHandle& ProcHandle::operator=(ProcHandle&& o) noexcept {
  if (this != &o) {
    Close();
    owned_io_ = std::move(o.owned_io_);
    io_ = o.io_;
    pid_ = o.pid_;
    fd_ = o.fd_;
    o.io_ = nullptr;
    o.fd_ = -1;
  }
  return *this;
}

ProcHandle::~ProcHandle() { Close(); }

void ProcHandle::Close() {
  if (fd_ >= 0) {
    (void)io_->Close(fd_);
    fd_ = -1;
  }
}

Result<int32_t> ProcHandle::Io(uint32_t op, void* arg) {
  if (fd_ < 0) {
    return Errno::kEBADF;
  }
  return io_->Ioctl(fd_, op, arg);
}

Result<PrStatus> ProcHandle::Status() {
  PrStatus st;
  SVR4_RETURN_IF_ERROR(Io(PIOCSTATUS, &st));
  return st;
}

Result<void> ProcHandle::Stop() {
  SVR4_RETURN_IF_ERROR(Io(PIOCSTOP, nullptr));
  return Result<void>::Ok();
}

Result<void> ProcHandle::WaitStop() {
  SVR4_RETURN_IF_ERROR(Io(PIOCWSTOP, nullptr));
  return Result<void>::Ok();
}

Result<void> ProcHandle::Run(const PrRun& r) {
  PrRun copy = r;
  SVR4_RETURN_IF_ERROR(Io(PIOCRUN, &copy));
  return Result<void>::Ok();
}

Result<void> ProcHandle::RunClearSig() {
  PrRun r;
  r.pr_flags = PRCSIG;
  return Run(r);
}

Result<void> ProcHandle::RunClearFault() {
  PrRun r;
  r.pr_flags = PRCFAULT;
  return Run(r);
}

Result<void> ProcHandle::Step() {
  PrRun r;
  r.pr_flags = PRSTEP;
  return Run(r);
}

Result<void> ProcHandle::SetSigTrace(const SigSet& s) {
  SigSet copy = s;
  SVR4_RETURN_IF_ERROR(Io(PIOCSTRACE, &copy));
  return Result<void>::Ok();
}

Result<SigSet> ProcHandle::GetSigTrace() {
  SigSet s;
  SVR4_RETURN_IF_ERROR(Io(PIOCGTRACE, &s));
  return s;
}

Result<void> ProcHandle::SetFltTrace(const FltSet& f) {
  FltSet copy = f;
  SVR4_RETURN_IF_ERROR(Io(PIOCSFAULT, &copy));
  return Result<void>::Ok();
}

Result<FltSet> ProcHandle::GetFltTrace() {
  FltSet f;
  SVR4_RETURN_IF_ERROR(Io(PIOCGFAULT, &f));
  return f;
}

Result<void> ProcHandle::SetSysEntry(const SysSet& s) {
  SysSet copy = s;
  SVR4_RETURN_IF_ERROR(Io(PIOCSENTRY, &copy));
  return Result<void>::Ok();
}

Result<SysSet> ProcHandle::GetSysEntry() {
  SysSet s;
  SVR4_RETURN_IF_ERROR(Io(PIOCGENTRY, &s));
  return s;
}

Result<void> ProcHandle::SetSysExit(const SysSet& s) {
  SysSet copy = s;
  SVR4_RETURN_IF_ERROR(Io(PIOCSEXIT, &copy));
  return Result<void>::Ok();
}

Result<SysSet> ProcHandle::GetSysExit() {
  SysSet s;
  SVR4_RETURN_IF_ERROR(Io(PIOCGEXIT, &s));
  return s;
}

Result<void> ProcHandle::Kill(int sig) {
  SVR4_RETURN_IF_ERROR(Io(PIOCKILL, &sig));
  return Result<void>::Ok();
}

Result<void> ProcHandle::Unkill(int sig) {
  SVR4_RETURN_IF_ERROR(Io(PIOCUNKILL, &sig));
  return Result<void>::Ok();
}

Result<void> ProcHandle::SetCurSig(const SigInfo& info) {
  SigInfo copy = info;
  SVR4_RETURN_IF_ERROR(Io(PIOCSSIG, &copy));
  return Result<void>::Ok();
}

Result<void> ProcHandle::ClearCurSig() {
  SVR4_RETURN_IF_ERROR(Io(PIOCSSIG, nullptr));
  return Result<void>::Ok();
}

Result<void> ProcHandle::ClearCurFault() {
  SVR4_RETURN_IF_ERROR(Io(PIOCCFAULT, nullptr));
  return Result<void>::Ok();
}

Result<SigSet> ProcHandle::GetHold() {
  SigSet s;
  SVR4_RETURN_IF_ERROR(Io(PIOCGHOLD, &s));
  return s;
}

Result<void> ProcHandle::SetHold(const SigSet& s) {
  SigSet copy = s;
  SVR4_RETURN_IF_ERROR(Io(PIOCSHOLD, &copy));
  return Result<void>::Ok();
}

Result<std::vector<SigAction>> ProcHandle::GetActions() {
  std::vector<SigAction> acts(SigSet::kMaxMember);
  SVR4_RETURN_IF_ERROR(Io(PIOCACTION, acts.data()));
  return acts;
}

Result<void> ProcHandle::SetInheritOnFork(bool on) {
  SVR4_RETURN_IF_ERROR(Io(on ? PIOCSFORK : PIOCRFORK, nullptr));
  return Result<void>::Ok();
}

Result<void> ProcHandle::SetRunOnLastClose(bool on) {
  SVR4_RETURN_IF_ERROR(Io(on ? PIOCSRLC : PIOCRRLC, nullptr));
  return Result<void>::Ok();
}

Result<Regs> ProcHandle::GetRegs() {
  Regs r;
  SVR4_RETURN_IF_ERROR(Io(PIOCGREG, &r));
  return r;
}

Result<void> ProcHandle::SetRegs(const Regs& r) {
  Regs copy = r;
  SVR4_RETURN_IF_ERROR(Io(PIOCSREG, &copy));
  return Result<void>::Ok();
}

Result<FpRegs> ProcHandle::GetFpRegs() {
  FpRegs r;
  SVR4_RETURN_IF_ERROR(Io(PIOCGFPREG, &r));
  return r;
}

Result<void> ProcHandle::SetFpRegs(const FpRegs& r) {
  FpRegs copy = r;
  SVR4_RETURN_IF_ERROR(Io(PIOCSFPREG, &copy));
  return Result<void>::Ok();
}

Result<int64_t> ProcHandle::ReadMem(uint32_t vaddr, void* buf, uint64_t n) {
  if (fd_ < 0) {
    return Errno::kEBADF;
  }
  // "Data may be transferred from ... any valid locations in the process's
  // address space by applying lseek(2) to position the file at the virtual
  // address of interest followed by read(2)."
  SVR4_RETURN_IF_ERROR(io_->Lseek(fd_, vaddr, SEEK_SET_));
  return io_->Read(fd_, buf, n);
}

Result<int64_t> ProcHandle::WriteMem(uint32_t vaddr, const void* buf, uint64_t n) {
  if (fd_ < 0) {
    return Errno::kEBADF;
  }
  SVR4_RETURN_IF_ERROR(io_->Lseek(fd_, vaddr, SEEK_SET_));
  return io_->Write(fd_, buf, n);
}

Result<std::vector<PrMapEntry>> ProcHandle::GetMap() {
  int n = 0;
  SVR4_RETURN_IF_ERROR(Io(PIOCNMAP, &n));
  std::vector<PrMapEntry> maps(static_cast<size_t>(n) + 1);
  SVR4_RETURN_IF_ERROR(Io(PIOCMAP, maps.data()));
  maps.resize(static_cast<size_t>(n));
  return maps;
}

Result<int> ProcHandle::OpenMappedObject(bool use_exe, uint32_t vaddr) {
  auto fd = Io(PIOCOPENM, use_exe ? nullptr : &vaddr);
  if (!fd.ok()) {
    return fd.error();
  }
  return static_cast<int>(*fd);
}

Result<PrPsinfo> ProcHandle::Psinfo() {
  PrPsinfo ps;
  SVR4_RETURN_IF_ERROR(Io(PIOCPSINFO, &ps));
  return ps;
}

Result<PrCred> ProcHandle::Cred() {
  PrCred c;
  SVR4_RETURN_IF_ERROR(Io(PIOCCRED, &c));
  return c;
}

Result<PrUsage> ProcHandle::Usage() {
  PrUsage u;
  SVR4_RETURN_IF_ERROR(Io(PIOCUSAGE, &u));
  return u;
}

Result<PrVmStats> ProcHandle::VmStats() {
  PrVmStats s;
  SVR4_RETURN_IF_ERROR(Io(PIOCVMSTATS, &s));
  return s;
}

Result<PrCtlAudit> ProcHandle::Audit() {
  PrCtlAudit a;
  SVR4_RETURN_IF_ERROR(Io(PIOCAUDIT, &a));
  return a;
}

Result<PrKstat> ProcHandle::Kstat() {
  PrKstat ks;
  SVR4_RETURN_IF_ERROR(Io(PIOCKSTAT, &ks));
  return ks;
}

Result<std::vector<PrPsinfo>> ProcHandle::PsinfoAll() {
  // Page through the population in bounded windows instead of one bulk
  // snapshot: each ioctl marshals at most pr_limit records, and pr_next_pid
  // chains the windows. Entries appearing between windows may be missed and
  // exits may shift records — the same snapshot contract ps(1) already has.
  // A population that fits one window is that window's buffer, never
  // copied. A larger one reserves the result once, at twice the first
  // window, and copies each window into it from the one window buffer,
  // which every later PIOCPSALL refills in place.
  PrPsAll a;
  a.pr_limit = 1024;
  SVR4_RETURN_IF_ERROR(Io(PIOCPSALL, &a));
  if (a.pr_next_pid < 0) {
    return std::move(a.pr_procs);
  }
  std::vector<PrPsinfo> out;
  out.reserve(2 * a.pr_procs.size());
  for (;;) {
    out.insert(out.end(), a.pr_procs.begin(), a.pr_procs.end());
    if (a.pr_next_pid < 0) {
      return out;
    }
    a.pr_start_pid = a.pr_next_pid;
    a.pr_next_pid = -1;
    SVR4_RETURN_IF_ERROR(Io(PIOCPSALL, &a));
  }
}

Result<PrTrace> ProcHandle::Trace() {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/trace", pid_);
  return ReadTraceFile(*io_, path);
}

Result<PrTrace> ReadTraceFile(Kernel& k, Proc* caller, const std::string& path) {
  LocalProcIo io(k, caller);
  return ReadTraceFile(io, path);
}

Result<PrTrace> ReadTraceFile(ProcIo& io, const std::string& path) {
  auto fd = io.Open(path, O_RDONLY);
  if (!fd.ok()) {
    return fd.error();
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[4096];
  for (;;) {
    auto n = io.Read(*fd, chunk, sizeof(chunk));
    if (!n.ok()) {
      (void)io.Close(*fd);
      return n.error();
    }
    if (*n == 0) {
      break;
    }
    bytes.insert(bytes.end(), chunk, chunk + *n);
  }
  (void)io.Close(*fd);

  PrTrace t;
  if (bytes.empty()) {
    return t;  // ring never armed: an empty snapshot, by design
  }
  if (bytes.size() < sizeof(KtSnapHeader)) {
    return Errno::kEIO;
  }
  std::memcpy(&t.hdr, bytes.data(), sizeof(KtSnapHeader));
  if (t.hdr.kt_magic != kKtMagic || t.hdr.kt_recsize != sizeof(KtRec) ||
      bytes.size() < sizeof(KtSnapHeader) + t.hdr.kt_nrec * sizeof(KtRec)) {
    return Errno::kEIO;
  }
  t.recs.resize(t.hdr.kt_nrec);
  std::memcpy(t.recs.data(), bytes.data() + sizeof(KtSnapHeader),
              t.recs.size() * sizeof(KtRec));
  return t;
}

Result<void> ProcHandle::Nice(int delta) {
  SVR4_RETURN_IF_ERROR(Io(PIOCNICE, &delta));
  return Result<void>::Ok();
}

Result<void> ProcHandle::SetProf(int period_log2) {
  SVR4_RETURN_IF_ERROR(Io(PIOCPROF, &period_log2));
  return Result<void>::Ok();
}

Result<void> ProcHandle::ClearProf() {
  int off = -1;
  SVR4_RETURN_IF_ERROR(Io(PIOCPROF, &off));
  return Result<void>::Ok();
}

Result<std::string> ProcHandle::Prof() {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc2/%05d/prof", pid_);
  return ReadTextFile(*io_, path);
}

Result<std::string> ReadTextFile(ProcIo& io, const std::string& path) {
  auto fd = io.Open(path, O_RDONLY);
  if (!fd.ok()) {
    return fd.error();
  }
  std::string out;
  char chunk[4096];
  for (;;) {
    auto n = io.Read(*fd, chunk, sizeof(chunk));
    if (!n.ok()) {
      (void)io.Close(*fd);
      return n.error();
    }
    if (*n == 0) {
      break;
    }
    out.append(chunk, static_cast<size_t>(*n));
  }
  (void)io.Close(*fd);
  return out;
}

Result<std::string> ProcdStats(ProcIo& io) {
  return ReadTextFile(io, "/proc2/kernel/procd");
}

namespace {

bool ValidMetricsKey(const std::string& t) {
  size_t i = 0;
  if (t.empty() || (!std::isalpha(static_cast<unsigned char>(t[0])) && t[0] != '_')) {
    return false;
  }
  while (i < t.size() &&
         (std::isalnum(static_cast<unsigned char>(t[i])) || t[i] == '_')) {
    ++i;
  }
  if (i == t.size()) {
    return true;
  }
  // name[tag]: tag is any non-empty run without ']' except at the end.
  if (t[i] != '[' || t.back() != ']' || t.size() - i < 3) {
    return false;
  }
  return t.find(']', i) == t.size() - 1;
}

}  // namespace

bool ValidateMetricsText(const std::string& text, std::string* bad_line) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    std::string line = text.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (end == std::string::npos) {
      // Unterminated final line: a truncated render.
      if (bad_line != nullptr) {
        *bad_line = line;
      }
      return false;
    }
    start = end + 1;
    // Tokenize on single spaces; empty tokens mean doubled/leading/trailing
    // spaces, which the renderers never emit.
    std::vector<std::string> toks;
    size_t p = 0;
    bool empty_tok = false;
    while (p <= line.size()) {
      size_t sp = line.find(' ', p);
      std::string tok =
          line.substr(p, sp == std::string::npos ? std::string::npos : sp - p);
      if (tok.empty()) {
        empty_tok = true;
      }
      toks.push_back(std::move(tok));
      if (sp == std::string::npos) {
        break;
      }
      p = sp + 1;
    }
    bool ok = !empty_tok && toks.size() >= 2 && ValidMetricsKey(toks[0]);
    for (size_t i = 1; ok && i < toks.size(); ++i) {
      for (char c : toks[i]) {
        if (!std::isprint(static_cast<unsigned char>(c))) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) {
      if (bad_line != nullptr) {
        *bad_line = line;
      }
      return false;
    }
  }
  return true;
}

Result<void> ProcHandle::SetWatch(const PrWatch& w) {
  PrWatch copy = w;
  SVR4_RETURN_IF_ERROR(Io(PIOCSWATCH, &copy));
  return Result<void>::Ok();
}

Result<void> ProcHandle::ClearWatch(uint32_t vaddr) {
  PrWatch w;
  w.pr_vaddr = vaddr;
  w.pr_wflags = 0;
  SVR4_RETURN_IF_ERROR(Io(PIOCSWATCH, &w));
  return Result<void>::Ok();
}

Result<std::vector<PrWatch>> ProcHandle::GetWatches() {
  int n = 0;
  SVR4_RETURN_IF_ERROR(Io(PIOCNWATCH, &n));
  std::vector<PrWatch> out(static_cast<size_t>(n));
  if (n > 0) {
    SVR4_RETURN_IF_ERROR(Io(PIOCGWATCH, out.data()));
  }
  return out;
}

Result<PrPageData> ProcHandle::PageData(bool clear) {
  PrPageData pd;
  pd.clear = clear;
  SVR4_RETURN_IF_ERROR(Io(PIOCPAGEDATA, &pd));
  return pd;
}

Result<PrLwpIds> ProcHandle::LwpIds() {
  PrLwpIds ids;
  SVR4_RETURN_IF_ERROR(Io(PIOCLWPIDS, &ids));
  return ids;
}

}  // namespace svr4
