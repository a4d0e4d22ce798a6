#include "trace.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "gen.h"
#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/procfs/types.h"

namespace perfbench {

using namespace svr4;

namespace {
constexpr uint32_t kRefWords = 1u << 18;   // 1 MiB of interpreter data
constexpr uint32_t kRefCode = 4096;        // bytecode length
constexpr uint32_t kRingWords = 1u << 23;  // 32 MiB walked by the mem part
constexpr int kCoreIters = 20'000;
constexpr int kMemSteps = 2'000;
}  // namespace

HostRef::HostRef() : data_(kRefWords), code_(kRefCode), ring_(kRingWords) {
  Rng rng(0x686F73745F726566ull);
  for (uint8_t& op : code_) {
    op = static_cast<uint8_t>(rng.Next());
  }
  for (uint32_t& w : data_) {
    w = static_cast<uint32_t>(rng.Next());
  }
  // Sattolo's shuffle: a single cycle through every slot.
  for (uint32_t i = 0; i < kRingWords; ++i) {
    ring_[i] = i;
  }
  for (uint32_t i = kRingWords - 1; i > 0; --i) {
    std::swap(ring_[i], ring_[rng.Range(0, i - 1)]);
  }
}

HostRef::Sample HostRef::Measure() {
  Sample out;
  uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, sink_};
  for (size_t i = 0; i < data_.size(); i += 16) {
    r[0] += data_[i];
  }
  for (size_t i = 0; i < code_.size(); i += 64) {
    r[1] += code_[i];
  }
  constexpr uint32_t kMask = kRefWords - 1;
  uint32_t pc = 0;
  int64_t t0 = NowNs();
  for (int i = 0; i < kCoreIters; ++i) {
    const uint8_t op = code_[pc];
    const int a = (op >> 3) & 7;
    const int b = (op >> 5) & 7;
    switch (op & 7) {
      case 0:
        r[a] += r[b];
        break;
      case 1:
        r[a] ^= r[b] << 1;
        break;
      case 2:
        r[a] = data_[r[b] & kMask];
        break;
      case 3:
        data_[r[b] & kMask] = r[a];
        break;
      case 4:
        if ((r[a] & 1) != 0) {
          pc = (pc + 7) & (kRefCode - 1);
        }
        break;
      case 5:
        r[a] = r[a] * 2654435761u + 1;
        break;
      case 6:
        r[a] += data_[(r[b] + pc) & kMask];
        break;
      default:
        r[a] -= r[b] >> 3;
        break;
    }
    pc = (pc + 1) & (kRefCode - 1);
  }
  int64_t t1 = NowNs();
  out.core_ns = static_cast<double>(t1 - t0) / kCoreIters;
  uint32_t at = at_;
  t0 = NowNs();
  for (int i = 0; i < kMemSteps; ++i) {
    at = ring_[at];
  }
  t1 = NowNs();
  at_ = at;
  out.mem_ns = static_cast<double>(t1 - t0) / kMemSteps;
  sink_ = r[0] ^ r[1] ^ r[2] ^ r[3];
  return out;
}

void SpanLog::SelfTimes(std::map<std::string, int64_t>* self, int64_t* op_total) const {
  *op_total = 0;
  // Children follow their op span in the log, in call order.
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& op = spans_[i];
    if (op.parent != kNoParent) {
      continue;
    }
    int64_t covered = 0;
    size_t j = i + 1;
    for (; j < spans_.size() && spans_[j].parent == i; ++j) {
      const Span& c = spans_[j];
      covered += c.end - c.start;
      (*self)[names_[c.name]] += c.end - c.start;
    }
    (*self)[names_[op.name]] += (op.end - op.start) - covered;
    *op_total += op.end - op.start;
    i = j - 1;
  }
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tname\tparent\top\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%ld\t%llu\t%lld\t%lld\n", i, names_[s.name].c_str(),
                 s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                 static_cast<unsigned long long>(s.op), static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

const char* IoClassName(IoClass c) {
  switch (c) {
    case IoClass::kCtl:
      return "ctl";
    case IoClass::kWait:
      return "wait";
    case IoClass::kMem:
      return "mem";
    case IoClass::kPsall:
      return "psall";
  }
  return "?";
}

uint64_t ProcdServiceNs(const ProcdServer& srv) {
  uint64_t n = 0;
  for (int i = 0; i < ProcdServer::kPdOpSlots; ++i) {
    n += srv.op_span(static_cast<PdOp>(i)).lat_ns.sum;
  }
  return n;
}

template <typename F>
auto TimedProcIo::Timed(IoClass cls, F&& call) -> decltype(call()) {
  if (stats_ == nullptr) {
    return call();
  }
  ProcdServer::Stats before;
  uint64_t service_before = 0;
  if (server_ != nullptr) {
    before = server_->stats();
    service_before = ProcdServiceNs(*server_);
  }
  const int64_t t0 = NowNs();
  auto r = call();
  const int64_t t1 = NowNs();
  stats_->lat[static_cast<int>(cls)].Add(t1 - t0);
  if (!r.ok()) {
    ++stats_->errors;
  }
  if (server_ != nullptr) {
    const ProcdServer::Stats& after = server_->stats();
    const uint64_t service = ProcdServiceNs(*server_) - service_before;
    ++stats_->remote_calls;
    stats_->remote_ns += t1 - t0;
    stats_->pump_rounds += after.pump_rounds - before.pump_rounds;
    stats_->peer_scans += after.peer_scans - before.peer_scans;
    stats_->service_ns += service;
    // One client at a time: every frame procd serves during the call is the
    // call's own, so its service time lies inside the call.
    if (service > static_cast<uint64_t>(t1 - t0)) {
      ++stats_->service_over_call;
    }
  }
  if (spans_ != nullptr) {
    spans_->Child(*parent_, span_name_[static_cast<int>(cls)], t0, t1);
  }
  return r;
}

IoClass TimedProcIo::ClassOfFd(int fd) const {
  auto it = fds_.find(fd);
  return it != fds_.end() && it->second != FdKind::kMem ? IoClass::kCtl : IoClass::kMem;
}

// A ctl-file write that carries a stop wait blocks until the target stops;
// every other ctl write is a control operation.
IoClass TimedProcIo::ClassOfWrite(int fd, const void* buf, uint64_t n) const {
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second == FdKind::kMem) {
    return IoClass::kMem;
  }
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  for (uint64_t off = 0; off + 4 <= n;) {
    int32_t code = 0;
    std::memcpy(&code, p + off, 4);
    if (code == PCWSTOP || code == PCSTOP) {
      return IoClass::kWait;
    }
    int size = PrCtlOperandSize(code);
    if (size < 0) {
      break;
    }
    off += 4 + static_cast<uint64_t>(size);
  }
  return IoClass::kCtl;
}

Result<int> TimedProcIo::Open(const std::string& path, int oflags) {
  auto r = Timed(IoClass::kCtl, [&] { return inner_->Open(path, oflags); });
  if (r.ok()) {
    auto ends = [&](const char* suffix) {
      std::string s(suffix);
      return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    fds_[*r] = ends("/ctl") ? FdKind::kCtl
               : (path.rfind("/proc2/", 0) == 0 && !ends("/as")) ? FdKind::kStatus
                                                                 : FdKind::kMem;
  }
  return r;
}

Result<void> TimedProcIo::Close(int fd) {
  fds_.erase(fd);
  return Timed(IoClass::kCtl, [&] { return inner_->Close(fd); });
}

Result<int64_t> TimedProcIo::Read(int fd, void* buf, uint64_t n) {
  return Timed(ClassOfFd(fd), [&] { return inner_->Read(fd, buf, n); });
}

Result<int64_t> TimedProcIo::Write(int fd, const void* buf, uint64_t n) {
  IoClass cls = stats_ != nullptr ? ClassOfWrite(fd, buf, n) : IoClass::kCtl;
  return Timed(cls, [&] { return inner_->Write(fd, buf, n); });
}

Result<int64_t> TimedProcIo::Lseek(int fd, int64_t off, int whence) {
  return Timed(ClassOfFd(fd), [&] { return inner_->Lseek(fd, off, whence); });
}

Result<int32_t> TimedProcIo::Ioctl(int fd, uint32_t op, void* arg) {
  IoClass cls = op == PIOCWSTOP || op == PIOCSTOP ? IoClass::kWait
                : op == PIOCPSALL                 ? IoClass::kPsall
                                                  : IoClass::kCtl;
  return Timed(cls, [&] { return inner_->Ioctl(fd, op, arg); });
}

Result<std::vector<DirEnt>> TimedProcIo::ReadDir(const std::string& path) {
  return Timed(IoClass::kCtl, [&] { return inner_->ReadDir(path); });
}

Result<size_t> TimedProcIo::ReadDirChunk(const std::string& path, uint64_t* cookie,
                                         size_t max, std::vector<DirEnt>* out) {
  return Timed(IoClass::kCtl, [&] { return inner_->ReadDirChunk(path, cookie, max, out); });
}

Result<VAttr> TimedProcIo::Stat(const std::string& path) {
  return Timed(IoClass::kCtl, [&] { return inner_->Stat(path); });
}

Result<int> TimedProcIo::PollFds(std::span<PollFd> fds, int64_t timeout_ticks) {
  return Timed(IoClass::kWait, [&] { return inner_->PollFds(fds, timeout_ticks); });
}

Result<Pid> TimedProcIo::Spawn(const std::string& path, const std::vector<std::string>& argv,
                               const Creds& creds) {
  return Timed(IoClass::kCtl, [&] { return inner_->Spawn(path, argv, creds); });
}

}  // namespace perfbench
