// perfbench: the seeded end-to-end benchmark of svr4proc.
//
//   perfbench --workload run|debug|remote --seed N --seconds S --trace 0|1
//             [--out DIR]
//
// One process, one thread. The seed generates the simulated programs and the
// closed-loop operation schedule (gen.h). Each run builds the system 31
// times for setup_s; three of the builds (twice from the seed, once from a
// different seed) run a fixed prefix of work to check that simulated counts
// repeat exactly for one seed and change for another, and the last of them
// is then measured for S seconds. With --trace 0 every observer is off and
// the end-to-end metrics are printed; with --trace 1 the window alternates
// traced and untraced chunks and the per-layer metrics are printed. Reported
// times are scaled by a fixed host reference loop timed beside the program
// (HostRef), so that the shared host's drift in speed cancels. The last line
// of standard output is one JSON object. METRICS.md lists every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"
#include "trace.h"

#include "svr4proc/isa/blocks.h"
#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/procfs/procfs2.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"
#include "svr4proc/tools/truss.h"

using namespace svr4;

namespace perfbench {
namespace {

enum class Workload { kRun, kDebug, kRemote };

struct Options {
  Workload workload = Workload::kRun;
  const char* workload_name = "run";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

constexpr int kRoundSteps = 256;    // run: one op is this many Kernel::Step calls,
                                    // long enough that host interrupts do not
                                    // make its p99
constexpr int kPollSleepers = 16;   // sleepers in the status/psinfo poll set
constexpr int kIdlePeers = 1000;    // remote: peers holding one descriptor each
constexpr int kActivePeers = 4;     // remote: peers issuing the op mix in turn
constexpr int kChurnEvery = 101;    // remote: ops between idle-peer reconnects
                                    // (not a multiple of two chunks, so churn
                                    // lands in traced and untraced chunks alike)
constexpr int kByteCheckEvery = 8;  // remote: polls between local byte compares
constexpr size_t kSpanCap = 100'000;
constexpr int kSetups = 31;              // set-ups timed per run; setup_s is their median
// End-to-end rates and latency percentiles are medians over slices of the
// window, each at least this long and this many ops.
constexpr int64_t kSliceNs = 1'000'000'000;
constexpr uint64_t kSliceOps = 1000;
// A class's p99 is the median over blocks of this many of its own samples,
// so each block's p99 has ten samples beyond it.
constexpr size_t kTailBlock = 1000;
// Every reported time is host time scaled to a nominal host, one on which
// HostRef's core part takes kNominalCoreNs per iteration and its mem part
// kNominalMemNs per step. An interval measured while they take c and m ns
// counts as interval * (kNominalCoreNs / c) * (kNominalMemNs / m): on a
// shared host the program slows down with each about as much as with the
// other alone (METRICS.md). HostRef runs after every set-up and every chunk.
constexpr double kNominalCoreNs = 12.0;
constexpr double kNominalMemNs = 160.0;

// Latencies are kept per op class. The headline latencies weigh every class
// present the same, so they do not depend on the op mix's weights.
enum class OpClass { kBp, kCtl, kPs, kTruss, kRound };
constexpr int kOpClasses = 5;
constexpr const char* kClassName[kOpClasses] = {"bp", "ctl", "ps", "truss", "round"};

int ClassOf(OpKind k) {
  switch (k) {
    case OpKind::kBpFlat:
    case OpKind::kBpBatched:
      return static_cast<int>(OpClass::kBp);
    case OpKind::kStatus:
    case OpKind::kPsinfo:
      return static_cast<int>(OpClass::kCtl);
    case OpKind::kPs:
      return static_cast<int>(OpClass::kPs);
    case OpKind::kTruss:
      return static_cast<int>(OpClass::kTruss);
  }
  return static_cast<int>(OpClass::kRound);
}

// --- Simulated state the benchmark tracks -------------------------------------

struct BpTarget {
  Pid pid = 0;
  uint32_t addr = 0;
  uint8_t orig = 0;
  int64_t last = -1;  // counter (r5) at the previous hit; -1 before the first
};

// One closed-loop client: its transport, the timing decorator every call
// goes through, and the descriptors it holds.
struct Tool {
  struct Hier {
    int ctl = -1;
    int status = -1;
    int as = -1;
  };
  std::unique_ptr<ProcIo> transport;  // LocalProcIo or RemoteProcIo
  std::unique_ptr<TimedProcIo> io;
  std::vector<ProcHandle> bp;    // flat O_RDWR handles, one per bp target
  std::vector<Hier> hier;        // /proc2 files, one set per bp target
  std::vector<ProcHandle> poll;  // O_RDONLY handles on the poll set
};

struct System {
  std::unique_ptr<Sim> sim;
  Population pop;
  std::vector<Pid> runnable;  // the tracked population (isa/vm counters)
  Pid churn = -1;
  std::vector<Pid> sleepers;
  std::vector<BpTarget> bp;
  std::vector<Pid> poll_set;
  std::unique_ptr<ProcdServer> srv;
  std::vector<std::unique_ptr<RemoteProcIo>> idle;
  size_t next_churn = 0;
  std::vector<Tool> tools;
  std::unique_ptr<LocalProcIo> check_io;  // remote: local twin for byte compares
  std::vector<ProcHandle> check;          // remote: local handles on the poll set
  // remote: a poll reply held for the byte compare, which runs after the
  // op's clock has stopped.
  struct HeldReply {
    bool armed = false;
    uint32_t op = 0;
    size_t target = 0;
    std::vector<uint8_t> bytes;
  } held;
  uint64_t ops_done = 0;
  uint64_t polls_done = 0;
  uint64_t truss_stops = 0;

  Kernel& k() { return sim->kernel(); }
};

// Simulated counts that must repeat exactly for one seed.
struct SimCounts {
  uint64_t v[24] = {};
  bool operator==(const SimCounts& o) const { return std::memcmp(v, o.v, sizeof(v)) == 0; }
};

struct LayerCounts {
  BlockStats bb;
  VmCounters vm;
};

LayerCounts TrackedCounts(System& s) {
  LayerCounts c;
  for (Pid pid : s.runnable) {
    Proc* p = s.k().FindProc(pid);
    if (p == nullptr || p->as == nullptr) {
      continue;
    }
    const VmCounters& v = p->as->counters();
    c.vm.tlb_hits += v.tlb_hits;
    c.vm.tlb_misses += v.tlb_misses;
    c.vm.slow_lookups += v.slow_lookups;
    c.vm.tlb_flushes += v.tlb_flushes;
    c.vm.minor_faults += v.minor_faults;
    c.vm.major_faults += v.major_faults;
    if (const BlockCache* bc = p->as->blocks_if()) {
      const BlockStats& b = bc->stats();
      c.bb.built += b.built;
      c.bb.hits += b.hits;
      c.bb.misses += b.misses;
      c.bb.invalidations += b.invalidations;
      c.bb.fallback_steps += b.fallback_steps;
    }
  }
  return c;
}

uint32_t ChurnReg(System& s, int reg) {
  Proc* p = s.k().FindProc(s.churn);
  return p != nullptr && !p->lwps.empty() ? p->lwps[0]->regs.r[static_cast<size_t>(reg)] : 0;
}

SimCounts Snapshot(System& s) {
  const KernelCounters& kc = s.k().counters();
  LayerCounts lc = TrackedCounts(s);
  SimCounts c;
  uint64_t vals[] = {kc.instructions, kc.quanta_interp, kc.quanta_blocks, kc.reaps,
                     kc.timer_events, s.k().Ticks(), s.k().ProcCount(), lc.bb.built,
                     lc.bb.hits, lc.bb.misses, lc.bb.invalidations, lc.bb.fallback_steps,
                     lc.vm.tlb_hits, lc.vm.tlb_misses, lc.vm.slow_lookups, lc.vm.tlb_flushes,
                     lc.vm.minor_faults, lc.vm.major_faults,
                     s.srv ? s.srv->stats().frames_in : 0, s.srv ? s.srv->stats().pump_rounds : 0,
                     s.srv ? s.srv->stats().peer_scans : 0, s.srv ? s.srv->stats().disconnects : 0,
                     ChurnReg(s, kChurnGoodReg), s.truss_stops};
  static_assert(sizeof(vals) == sizeof(c.v));
  std::memcpy(c.v, vals, sizeof(vals));
  return c;
}

// --- Set-up -------------------------------------------------------------------

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) {
    Die(what + ": " + std::string(ErrnoName(r.error())));
  }
  return std::move(*r);
}

void MustOk(Result<void> r, const std::string& what) {
  if (!r.ok()) {
    Die(what + ": " + std::string(ErrnoName(r.error())));
  }
}

std::string ProcPath(const char* fmt, Pid pid) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, pid);
  return buf;
}

void OpenTool(System& s, Tool& t) {
  for (const BpTarget& b : s.bp) {
    t.bp.push_back(Must(ProcHandle::Grab(*t.io, b.pid, O_RDWR), "grab bp target"));
    Tool::Hier h;
    h.ctl = Must(t.io->Open(ProcPath("/proc2/%05d/ctl", b.pid), O_WRONLY), "open ctl");
    h.status = Must(t.io->Open(ProcPath("/proc2/%05d/status", b.pid), O_RDONLY), "open status");
    h.as = Must(t.io->Open(ProcPath("/proc2/%05d/as", b.pid), O_RDWR), "open as");
    t.hier.push_back(h);
  }
  for (Pid pid : s.poll_set) {
    t.poll.push_back(Must(ProcHandle::Grab(*t.io, pid, O_RDONLY), "grab poll target"));
  }
}

void ConnectIdle(System& s, size_t slot) {
  auto peer = std::make_unique<RemoteProcIo>(s.srv->Connect(Creds::Root(), "idle-peer"));
  Pid target = s.sleepers[slot % s.sleepers.size()];
  int fd = Must(peer->Open(ProcPath("/proc/%05d", target), O_RDONLY), "idle open");
  if (slot % 2 == 0) {
    MustOk(peer->Subscribe(fd, POLLPRI), "idle subscribe");
  }
  if (slot < s.idle.size()) {
    s.idle[slot] = std::move(peer);  // the old peer hangs up in its destructor
  } else {
    s.idle.push_back(std::move(peer));
  }
}

std::unique_ptr<System> Setup(Workload w, uint64_t seed) {
  auto s = std::make_unique<System>();
  s->sim = std::make_unique<Sim>();
  Kernel& k = s->k();
  // Pin what is measured through the Kernel API, whatever the environment
  // asked the constructor for.
  k.SetExecEngine(ExecEngine::kAuto);
  k.SetNumCpus(1);
  k.SetSmpMode(SmpMode::kDeterministic);
  k.SetTracing(false, false);

  s->pop = MakePopulation(seed);
  std::vector<Aout> images;
  for (const Program& p : s->pop.runnable) {
    images.push_back(Must(s->sim->InstallProgram(p.path, p.source), "assemble " + p.path));
  }
  for (const Program& p : s->pop.churn_children) {
    Must(s->sim->InstallProgram(p.path, p.source), "assemble " + p.path);
  }
  for (const TrussProgram& p : s->pop.truss) {
    Must(s->sim->InstallProgram(p.path, p.source), "assemble " + p.path);
  }
  Must(s->sim->InstallProgram(s->pop.sleeper.path, s->pop.sleeper.source), "assemble sleeper");

  for (int i = 0; i < kSleepers; ++i) {
    s->sleepers.push_back(Must(s->sim->Start(s->pop.sleeper.path), "start sleeper"));
  }
  for (size_t i = 0; i < s->pop.runnable.size(); ++i) {
    const Program& p = s->pop.runnable[i];
    Pid pid = Must(s->sim->Start(p.path), "start " + p.path);
    s->runnable.push_back(pid);
    if (p.kind == ProgKind::kChurn) {
      s->churn = pid;
    } else if (p.kind == ProgKind::kBreakpoint) {
      BpTarget b;
      b.pid = pid;
      b.addr = Must(images[i].SymbolValue(kBreakpointSymbol), "bp symbol");
      b.orig = images[i].text[b.addr - images[i].text_vaddr];
      s->bp.push_back(b);
    }
  }
  // Every sleeper reaches pause() within its first quantum.
  auto all_asleep = [&]() {
    for (Pid pid : s->sleepers) {
      Proc* p = k.FindProc(pid);
      if (p == nullptr || p->lwps.empty() || p->lwps[0]->state != LwpState::kSleeping) {
        return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 4 * kSleepers && !all_asleep(); i += kSleepers) {
    for (int j = 0; j < kSleepers + 64; ++j) {
      k.Step();
    }
  }
  if (!all_asleep()) {
    Die("sleepers did not go to sleep");
  }
  if (w == Workload::kRun) {
    return s;
  }

  s->poll_set = s->runnable;
  Rng rng(seed ^ 0x706F6C6Cull);
  for (int i = 0; i < kPollSleepers; ++i) {
    s->poll_set.push_back(s->sleepers[rng.Range(0, kSleepers - 1)]);
  }
  if (w == Workload::kDebug) {
    Tool t;
    t.transport = std::make_unique<LocalProcIo>(k, s->sim->controller());
    t.io = std::make_unique<TimedProcIo>(*t.transport, nullptr);
    s->tools.push_back(std::move(t));
  } else {
    s->srv = std::make_unique<ProcdServer>(k);
    for (int i = 0; i < kIdlePeers; ++i) {
      ConnectIdle(*s, static_cast<size_t>(i));
    }
    for (int i = 0; i < kActivePeers; ++i) {
      Tool t;
      t.transport = std::make_unique<RemoteProcIo>(s->srv->Connect(Creds::Root(), "active-peer"));
      t.io = std::make_unique<TimedProcIo>(*t.transport, s->srv.get());
      s->tools.push_back(std::move(t));
    }
    s->check_io = std::make_unique<LocalProcIo>(k, s->sim->controller());
    for (Pid pid : s->poll_set) {
      s->check.push_back(Must(ProcHandle::Grab(*s->check_io, pid, O_RDONLY), "grab check"));
    }
  }
  for (Tool& t : s->tools) {
    OpenTool(*s, t);
  }
  // Plant the breakpoints: stop, trace FLTBPT (hits) and FLTTRACE (steps).
  for (size_t i = 0; i < s->bp.size(); ++i) {
    ProcHandle& h = s->tools[0].bp[i];
    MustOk(h.Stop(), "stop bp target");
    FltSet flt;
    flt.Add(FLTBPT);
    flt.Add(FLTTRACE);
    MustOk(h.SetFltTrace(flt), "trace faults");
    uint8_t bpt = kBreakpointByte;
    Must(h.WriteMem(s->bp[i].addr, &bpt, 1), "plant breakpoint");
    MustOk(h.Run(), "run bp target");
  }
  return s;
}

// --- Operations ----------------------------------------------------------------

// The breakpoint counter advances by exactly one per hit.
bool CheckHit(BpTarget& b, const PrStatus& st) {
  bool ok = st.pr_why == PR_FAULTED && st.pr_what == FLTBPT && st.pr_reg.pc == b.addr;
  const int64_t counter = st.pr_reg.r[5];
  if (b.last >= 0 && counter != ((b.last + 1) & 0xFFFFFFFF)) {
    ok = false;
  }
  b.last = counter;
  return ok;
}

// hit -> PIOCSTATUS condition -> lift, step, replant -> resume, as ioctls.
bool BpFlat(Tool& t, BpTarget& b, size_t i) {
  ProcHandle& h = t.bp[i];
  if (!h.WaitStop().ok()) {
    return false;
  }
  auto st = h.Status();
  if (!st.ok() || !CheckHit(b, *st)) {
    return false;
  }
  uint8_t bpt = kBreakpointByte;
  PrRun step;
  step.pr_flags = PRSTEP | PRCFAULT;
  PrRun resume;
  resume.pr_flags = PRCFAULT;
  return h.WriteMem(b.addr, &b.orig, 1).ok() && h.Run(step).ok() && h.WaitStop().ok() &&
         h.WriteMem(b.addr, &bpt, 1).ok() && h.Run(resume).ok();
}

void PutCtl(std::vector<uint8_t>* m, int32_t code, uint32_t flags = 0, bool run = false) {
  auto put = [&](uint32_t v) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    m->insert(m->end(), p, p + 4);
  };
  put(static_cast<uint32_t>(code));
  if (run) {
    put(flags);
    put(0);  // vaddr
  }
}

// The same cycle as batched /proc2 ctl writes (PCWSTOP; PCRUN+PCWSTOP; PCRUN)
// with the status file and the as file.
bool BpBatched(Tool& t, BpTarget& b, size_t i) {
  const Tool::Hier& f = t.hier[i];
  ProcIo& io = *t.io;
  std::vector<uint8_t> wstop, step, resume;
  PutCtl(&wstop, PCWSTOP);
  PutCtl(&step, PCRUN, PRSTEP | PRCFAULT, true);
  PutCtl(&step, PCWSTOP);
  PutCtl(&resume, PCRUN, PRCFAULT, true);
  PrStatus st;
  uint8_t bpt = kBreakpointByte;
  return io.Write(f.ctl, wstop.data(), wstop.size()).ok() &&
         io.Lseek(f.status, 0, SEEK_SET_).ok() &&
         io.Read(f.status, &st, sizeof(st)).ok() && CheckHit(b, st) &&
         io.Lseek(f.as, b.addr, SEEK_SET_).ok() && io.Write(f.as, &b.orig, 1).ok() &&
         io.Write(f.ctl, step.data(), step.size()).ok() &&
         io.Lseek(f.as, b.addr, SEEK_SET_).ok() && io.Write(f.as, &bpt, 1).ok() &&
         io.Write(f.ctl, resume.data(), resume.size()).ok();
}

// PIOCSTATUS or PIOCPSINFO on one poll target. Every kByteCheckEvery-th
// remote reply is held for CheckHeldReply.
template <typename T>
bool Poll(System& s, Tool& t, size_t i, uint32_t op) {
  T got;
  std::memset(static_cast<void*>(&got), 0, sizeof(got));
  if (!t.io->Ioctl(t.poll[i].fd(), op, &got).ok()) {
    return false;
  }
  if (s.srv != nullptr && ++s.polls_done % kByteCheckEvery == 0) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&got);
    s.held.bytes.assign(p, p + sizeof(T));
    s.held.op = op;
    s.held.target = i;
    s.held.armed = true;
  }
  return true;
}

// A held remote reply must be byte-identical to the same ioctl issued
// locally. Nothing runs the kernel between the two.
bool CheckHeldReply(System& s) {
  if (!s.held.armed) {
    return true;
  }
  s.held.armed = false;
  std::vector<uint8_t> want(s.held.bytes.size());
  return s.check_io->Ioctl(s.check[s.held.target].fd(), s.held.op, want.data()).ok() &&
         want == s.held.bytes;
}

// A windowed PIOCPSALL snapshot; its rows must equal the live population.
bool Ps(System& s, Tool& t) {
  auto rows = PsSnapshotAll(*t.io, s.k().init_proc()->pid);
  return rows.ok() && rows->size() == s.k().ProcCount();
}

// truss -c on a generated program: the stop count and the per-syscall counts
// must both equal the program's syscalls.
bool TrussSession(System& s, Tool& t, size_t i) {
  const TrussProgram& p = s.pop.truss[i];
  TrussOptions opts;
  opts.counts_only = true;
  Truss truss(*t.io, opts);
  if (!truss.TraceCommand(p.path, {}).ok()) {
    return false;
  }
  uint64_t counted = 0;
  for (const auto& [num, n] : truss.syscall_counts()) {
    counted += n;
  }
  s.truss_stops += truss.events();
  return counted == p.syscalls && truss.events() == p.syscalls;
}

bool RunOp(System& s, const Op& op) {
  Tool& t = s.tools[op.tool];
  switch (op.kind) {
    case OpKind::kBpFlat:
    case OpKind::kBpBatched: {
      size_t i = op.target % s.bp.size();
      return op.kind == OpKind::kBpFlat ? BpFlat(t, s.bp[i], i) : BpBatched(t, s.bp[i], i);
    }
    case OpKind::kStatus:
      return Poll<PrStatus>(s, t, op.target % s.poll_set.size(), PIOCSTATUS);
    case OpKind::kPsinfo:
      return Poll<PrPsinfo>(s, t, op.target % s.poll_set.size(), PIOCPSINFO);
    case OpKind::kPs:
      return Ps(s, t);
    case OpKind::kTruss:
      return TrussSession(s, t, op.target % s.pop.truss.size());
  }
  return false;
}

// --- Measurement ---------------------------------------------------------------

// Everything measured over the chunks of one kind (traced or untraced).
struct Phase {
  int64_t wall_ns = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t insns = 0;
  uint64_t quanta_interp = 0;
  uint64_t quanta_blocks = 0;
  uint64_t ticks = 0;
  uint64_t reaps = 0;
  uint64_t bp_hits = 0;
  uint64_t truss_stops = 0;
  LayerCounts layer;
  Samples op_lat;
  Samples class_lat[kOpClasses];
  // Traced chunks only.
  IoStats io;
  Samples step_lat{16};
  int64_t io_ns = 0;  // procio time inside tool ops
  uint64_t span_failed = 0;  // traced ops whose procio children fail a check
  uint64_t procd_frames_in = 0;
  uint64_t procd_disconnects = 0;
  uint64_t procd_parks = 0;
};

struct Runner {
  System& s;
  Workload w;
  OpStream stream;
  SpanLog* spans;  // null when not tracing
  uint32_t cur_span = SpanLog::kNoParent;
  uint64_t op_id = 0;
  uint32_t round_name = 0;
  uint32_t step_name = 0;
  uint32_t op_name[kOpKinds] = {};

  void InternNames() {
    if (spans == nullptr) {
      return;
    }
    round_name = spans->Intern("bench.round");
    step_name = spans->Intern("kernel.step");
    for (int i = 0; i < kOpKinds; ++i) {
      op_name[i] = spans->Intern(std::string("tools.") + OpKindName(static_cast<OpKind>(i)));
    }
  }

  uint64_t ProcdParks() const {
    uint64_t n = 0;
    for (int i = 0; i < ProcdServer::kPdOpSlots; ++i) {
      n += s.srv->op_span(static_cast<PdOp>(i)).parks;
    }
    return n;
  }

  // One op of the workload, timed from the benchmark's side.
  void OneOp(Phase& ph, bool traced) {
    ++op_id;
    if (w == Workload::kRun) {
      const int64_t t0 = NowNs();
      if (traced) {
        cur_span = spans->Open(round_name, op_id, t0);
        for (int i = 0; i < kRoundSteps; ++i) {
          const int64_t a = NowNs();
          s.k().Step();
          const int64_t b = NowNs();
          ph.step_lat.Add(b - a);
          spans->Child(cur_span, step_name, a, b);
        }
      } else {
        for (int i = 0; i < kRoundSteps; ++i) {
          s.k().Step();
        }
      }
      const int64_t t1 = NowNs();
      if (traced) {
        spans->Close(cur_span, t1);
      }
      ph.op_lat.Add(t1 - t0);
      ph.class_lat[static_cast<int>(OpClass::kRound)].Add(t1 - t0);
      ++ph.ops;
      return;
    }
    if (s.srv != nullptr && s.ops_done % kChurnEvery == kChurnEvery - 1) {
      // One idle peer hangs up and a new one connects (untimed, untraced).
      if (traced) {
        s.srv->EnableSpans(false);
      }
      ConnectIdle(s, s.next_churn++ % kIdlePeers);
      if (traced) {
        s.srv->EnableSpans(true);
      }
    }
    ++s.ops_done;
    const Op op = stream.Next();
    Tool& t = s.tools[op.tool];
    const int64_t io_before = traced ? IoTotal(ph.io) : 0;
    const uint64_t waits_before = ph.io.lat[static_cast<int>(IoClass::kWait)].count();
    const uint64_t mems_before = ph.io.lat[static_cast<int>(IoClass::kMem)].count();
    const uint64_t over_before = ph.io.service_over_call;
    const int64_t t0 = NowNs();
    if (traced) {
      cur_span = spans->Open(op_name[static_cast<int>(op.kind)], op_id, t0);
      t.io->Enable(&ph.io, spans, &cur_span);
    }
    const uint64_t stops_before = s.truss_stops;
    bool ok = RunOp(s, op);
    const int64_t t1 = NowNs();
    const int cls = ClassOf(op.kind);
    if (traced) {
      t.io->Disable();
      spans->Close(cur_span, t1);
      ph.io_ns += IoTotal(ph.io) - io_before;
      // The procio children must agree with what the op is known to do: a
      // breakpoint cycle waits for two stops and makes four as-file calls
      // (seek and write to lift, seek and write to replant), and procd's
      // own service time lies inside each remote call.
      const bool bp = cls == static_cast<int>(OpClass::kBp);
      const uint64_t waits = ph.io.lat[static_cast<int>(IoClass::kWait)].count() - waits_before;
      const uint64_t mems = ph.io.lat[static_cast<int>(IoClass::kMem)].count() - mems_before;
      if (ph.io.service_over_call != over_before || (ok && bp && (waits != 2 || mems != 4))) {
        ++ph.span_failed;
        ok = false;
      }
    }
    ok = CheckHeldReply(s) && ok;
    ph.op_lat.Add(t1 - t0);
    ph.class_lat[cls].Add(t1 - t0);
    ++ph.ops;
    ph.failed += ok ? 0 : 1;
    if (cls == static_cast<int>(OpClass::kBp)) {
      ++ph.bp_hits;
    }
    ph.truss_stops += s.truss_stops - stops_before;
  }

  static int64_t IoTotal(const IoStats& io) {
    int64_t n = 0;
    for (const Samples& l : io.lat) {
      n += l.sum();
    }
    return n;
  }

  void Chunk(Phase& ph, bool traced, int ops) {
    const KernelCounters kc0 = s.k().counters();
    const uint64_t ticks0 = s.k().Ticks();
    const LayerCounts lc0 = TrackedCounts(s);
    ProcdServer::Stats pd0;
    uint64_t parks0 = 0;
    if (s.srv != nullptr) {
      s.srv->EnableSpans(traced);
      pd0 = s.srv->stats();
      parks0 = ProcdParks();
    }
    const int64_t t0 = NowNs();
    for (int i = 0; i < ops; ++i) {
      OneOp(ph, traced);
    }
    ph.wall_ns += NowNs() - t0;
    const KernelCounters& kc = s.k().counters();
    ph.insns += kc.instructions - kc0.instructions;
    ph.quanta_interp += kc.quanta_interp - kc0.quanta_interp;
    ph.quanta_blocks += kc.quanta_blocks - kc0.quanta_blocks;
    ph.reaps += kc.reaps - kc0.reaps;
    ph.ticks += s.k().Ticks() - ticks0;
    const LayerCounts lc = TrackedCounts(s);
    ph.layer.bb.built += lc.bb.built - lc0.bb.built;
    ph.layer.bb.hits += lc.bb.hits - lc0.bb.hits;
    ph.layer.bb.misses += lc.bb.misses - lc0.bb.misses;
    ph.layer.bb.invalidations += lc.bb.invalidations - lc0.bb.invalidations;
    ph.layer.bb.fallback_steps += lc.bb.fallback_steps - lc0.bb.fallback_steps;
    ph.layer.vm.tlb_hits += lc.vm.tlb_hits - lc0.vm.tlb_hits;
    ph.layer.vm.tlb_misses += lc.vm.tlb_misses - lc0.vm.tlb_misses;
    ph.layer.vm.slow_lookups += lc.vm.slow_lookups - lc0.vm.slow_lookups;
    ph.layer.vm.tlb_flushes += lc.vm.tlb_flushes - lc0.vm.tlb_flushes;
    ph.layer.vm.minor_faults += lc.vm.minor_faults - lc0.vm.minor_faults;
    ph.layer.vm.major_faults += lc.vm.major_faults - lc0.vm.major_faults;
    if (s.srv != nullptr) {
      const ProcdServer::Stats& pd = s.srv->stats();
      ph.procd_frames_in += pd.frames_in - pd0.frames_in;
      ph.procd_disconnects += pd.disconnects - pd0.disconnects;
      ph.procd_parks += ProcdParks() - parks0;
      s.srv->EnableSpans(false);
    }
  }
};

uint32_t ToolCount(const System& s) {
  return std::max<uint32_t>(1, static_cast<uint32_t>(s.tools.size()));
}

int ChunkOps(Workload w) { return w == Workload::kRun ? 32 : 16; }
int PrefixOps(Workload) { return 256; }

// Nominal time per host time, for HostRef figures `core_ns` and `mem_ns`.
double NominalFactor(double core_ns, double mem_ns) {
  return (kNominalCoreNs / core_ns) * (kNominalMemNs / mem_ns);
}

// Builds a system and returns its set-up time in nominal seconds.
double TimedSetup(HostRef& ref, Workload w, uint64_t seed, std::unique_ptr<System>* out) {
  const int64_t t0 = NowNs();
  *out = Setup(w, seed);
  const int64_t ns = NowNs() - t0;
  const HostRef::Sample h = ref.Measure();
  return static_cast<double>(ns) * 1e-9 * NominalFactor(h.core_ns, h.mem_ns);
}

// Builds a system and runs the fixed prefix; returns the set-up seconds.
double BuildAndPrefix(const Options& o, HostRef& ref, uint64_t seed, bool traced,
                      std::unique_ptr<System>* out, SimCounts* counts, uint64_t* failed,
                      SpanLog* spans) {
  std::unique_ptr<System> s;
  const double setup_s = TimedSetup(ref, o.workload, seed, &s);
  Runner r{*s, o.workload, OpStream(seed, ToolCount(*s)), spans};
  r.InternNames();
  Phase ph;
  for (int done = 0; done < PrefixOps(o.workload); done += ChunkOps(o.workload)) {
    r.Chunk(ph, traced, ChunkOps(o.workload));
  }
  *failed += ph.failed + ChurnReg(*s, kChurnBadReg);
  *counts = Snapshot(*s);
  *out = std::move(s);
  return setup_s;
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t n;  // sample count behind a percentile; 0 otherwise
};

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }
double Ratio(uint64_t a, uint64_t b) {
  return Ratio(static_cast<double>(a), static_cast<double>(b));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Add(std::vector<Metric>* m, std::string name, double v, const char* unit, uint64_t n = 0) {
  m->push_back({std::move(name), v, unit, n});
}

void AddQuantiles(std::vector<Metric>* m, const std::string& base, const Samples& s,
                  double scale, const char* unit) {
  Add(m, base + "iqm_" + unit, s.MeanBetween(0.25, 0.75) * scale, unit, s.kept());
  Add(m, base + "p50_" + unit, s.Quantile(0.50) * scale, unit, s.kept());
  Add(m, base + "p99_" + unit, s.Quantile(0.99) * scale, unit, s.kept());
}

// Per-class latencies and rates of the tools' op mix (untraced chunks, which
// last `secs` nominal seconds). A claim about one kind of operation cites
// these, not the mixture.
void ToolClassMetrics(std::vector<Metric>* m, const Phase& u, double secs,
                      const std::string& prefix) {
  Add(m, prefix + "bp_per_s", Ratio(static_cast<double>(u.bp_hits), secs), "1/s");
  Add(m, prefix + "truss_stops_per_s", Ratio(static_cast<double>(u.truss_stops), secs), "1/s");
  for (int c = 0; c < static_cast<int>(OpClass::kRound); ++c) {
    AddQuantiles(m, prefix + kClassName[c] + "_", u.class_lat[c], 1e-3, "us");
  }
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.n != 0) {
      std::printf("%-44s %18.6f %s (n=%" PRIu64 ")\n", m.name.c_str(), m.value, m.unit, m.n);
    } else {
      std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "", ms[i].name.c_str(),
                ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      std::string s = v;
      have_workload = true;
      if (s == "run") {
        o->workload = Workload::kRun;
      } else if (s == "debug") {
        o->workload = Workload::kDebug;
      } else if (s == "remote") {
        o->workload = Workload::kRemote;
      } else {
        return false;
      }
      o->workload_name = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o->seconds > 0;
}

const char* EnvOr(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "<unset>";
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload run|debug|remote --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  // The environment pins are recorded, never obeyed: Setup() overrides them.
  std::printf("config: workload=%s seed=%" PRIu64 " seconds=%g trace=%d engine=auto ncpus=1 "
              "smp_mode=det SVR4PROC_EXEC_ENGINE=%s SVR4PROC_NCPUS=%s SVR4PROC_SMP_MODE=%s\n",
              o.workload_name, o.seed, o.seconds, o.trace ? 1 : 0, EnvOr("SVR4PROC_EXEC_ENGINE"),
              EnvOr("SVR4PROC_NCPUS"), EnvOr("SVR4PROC_SMP_MODE"));

  // Self-checks: two systems from the seed agree exactly (the second one
  // traced under --trace 1, so tracing provably does not perturb), and a
  // different seed gives different counts.
  uint64_t failed = 0;
  HostRef ref;
  std::unique_ptr<SpanLog> spans = o.trace ? std::make_unique<SpanLog>(kSpanCap) : nullptr;
  std::unique_ptr<System> sys;
  SimCounts a, b, c;
  std::vector<double> setups;
  setups.push_back(BuildAndPrefix(o, ref, o.seed, false, &sys, &a, &failed, nullptr));
  sys.reset();
  setups.push_back(
      BuildAndPrefix(o, ref, o.seed ^ 0x5DEECE66Dull, false, &sys, &c, &failed, nullptr));
  sys.reset();
  while (setups.size() + 1 < kSetups) {
    std::unique_ptr<System> extra;
    setups.push_back(TimedSetup(ref, o.workload, o.seed, &extra));
  }
  SpanLog prefix_spans(kSpanCap);
  setups.push_back(BuildAndPrefix(o, ref, o.seed, o.trace, &sys, &b, &failed,
                                  o.trace ? &prefix_spans : nullptr));
  // Taken after a fixed amount of work, so a faster host or program, which
  // does more work in the window, does not raise it.
  const double rss_mb = PeakRssMb();
  const bool repeat_ok = a == b;
  const bool seed_ok = !(a == c);
  if (!repeat_ok) {
    std::printf("check: FAILED simulated counts differ between two systems from one seed\n");
  }
  if (!seed_ok) {
    std::printf("check: FAILED simulated counts do not depend on the seed\n");
  }
  const double setup_s = Median(setups);

  // The measured window.
  System& s = *sys;
  Runner r{s, o.workload, OpStream(o.seed, ToolCount(s)), spans.get()};
  r.InternNames();
  // Continue the prefix's op stream where it stopped.
  for (int i = 0; o.workload != Workload::kRun && i < PrefixOps(o.workload); ++i) {
    r.stream.Next();
  }
  // A brief stall of the host moves one slice, not the result, and HostRef,
  // run after every chunk, scales each slice to the nominal host.
  Phase untraced, traced;
  std::vector<double> insn_rates, op_rates, class_iqms, core_ns, mem_ns;
  double nominal_secs = 0;  // the untraced chunks' time, scaled
  struct Slice {
    int64_t wall = 0;
    uint64_t ops = 0;
    uint64_t insns = 0;
    HostRef::Sample ref;  // summed over the slice's HostRef measurements
    int refs = 0;
  } slice;
  size_t slice_first[kOpClasses] = {};  // the slice's first sample per class
  std::vector<double> class_tails[kOpClasses];
  size_t tail_first[kOpClasses] = {};   // the open tail block's first sample
  // Scales the slice's samples; with `rates`, also records its rates and
  // central latency.
  auto close_slice = [&](bool rates) {
    core_ns.push_back(slice.ref.core_ns / slice.refs);
    mem_ns.push_back(slice.ref.mem_ns / slice.refs);
    const double f = NominalFactor(core_ns.back(), mem_ns.back());
    const double secs = static_cast<double>(slice.wall) * 1e-9 * f;
    nominal_secs += secs;
    // A geometric mean over the classes in the slice: speeding up any one
    // class by a factor moves it by the same share, however rare or cheap
    // the class is.
    double log_iqm = 0;
    int classes = 0;
    for (int c = 0; c < kOpClasses; ++c) {
      Samples& l = untraced.class_lat[c];
      if (l.kept() > slice_first[c]) {
        l.Scale(slice_first[c], f);
        log_iqm += std::log(std::max(1.0, l.MeanBetween(0.25, 0.75, slice_first[c])));
        ++classes;
        slice_first[c] = l.kept();
      }
      for (; l.kept() - tail_first[c] >= kTailBlock; tail_first[c] += kTailBlock) {
        class_tails[c].push_back(l.Quantile(0.99, tail_first[c], tail_first[c] + kTailBlock));
      }
    }
    if (rates) {
      insn_rates.push_back(static_cast<double>(slice.insns) / secs);
      op_rates.push_back(static_cast<double>(slice.ops) / secs);
      class_iqms.push_back(std::exp(log_iqm / classes) * 1e-3);
    }
    slice = Slice{};
  };
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t chunk = 0; NowNs() < deadline; ++chunk) {
    const bool t = o.trace && chunk % 2 == 1;
    if (t) {
      r.Chunk(traced, true, ChunkOps(o.workload));
      ref.Measure();  // keeps the chunks' cache history alike
      continue;
    }
    const int64_t wall0 = untraced.wall_ns;
    const uint64_t ops0 = untraced.ops, insns0 = untraced.insns;
    r.Chunk(untraced, false, ChunkOps(o.workload));
    const HostRef::Sample h = ref.Measure();
    slice.ref.core_ns += h.core_ns;
    slice.ref.mem_ns += h.mem_ns;
    ++slice.refs;
    slice.wall += untraced.wall_ns - wall0;
    slice.ops += untraced.ops - ops0;
    slice.insns += untraced.insns - insns0;
    // A short window still reports its one partial slice.
    const bool last = NowNs() >= deadline && insn_rates.empty();
    if ((slice.wall >= kSliceNs && slice.ops >= kSliceOps) || last) {
      close_slice(true);
    }
  }
  if (slice.refs != 0) {
    close_slice(false);  // the tail of the window: latencies, no rates
  }
  const uint32_t churn_good = ChurnReg(s, kChurnGoodReg);
  const uint32_t churn_bad = ChurnReg(s, kChurnBadReg);
  const bool churn_ok = churn_bad == 0 && churn_good > 0;
  if (!churn_ok) {
    std::printf("check: FAILED churn children good=%u bad=%u\n", churn_good, churn_bad);
  }
  failed += untraced.failed + traced.failed + churn_bad;
  const uint64_t attempted = untraced.ops + traced.ops;

  // A class too rare to fill one tail block takes its p99 over the whole
  // window. The count printed is the smallest class's.
  double log_p99 = 0;
  int classes = 0;
  uint64_t fewest = UINT64_MAX;
  for (int c = 0; c < kOpClasses; ++c) {
    const Samples& l = untraced.class_lat[c];
    if (l.kept() != 0) {
      const double p99 = class_tails[c].empty() ? l.Quantile(0.99) : Median(class_tails[c]);
      log_p99 += std::log(std::max(1.0, p99));
      ++classes;
      fewest = std::min<uint64_t>(fewest, l.kept());
    }
  }
  const double class_p99_us = classes != 0 ? std::exp(log_p99 / classes) * 1e-3 : 0;

  std::vector<Metric> e2e, info;
  Add(&e2e, "setup_s", setup_s, "s");
  Add(&e2e, "peak_rss_mb", rss_mb, "MB");
  Add(&e2e, "insns_per_s", Median(insn_rates), "1/s", insn_rates.size());
  Add(&e2e, "ops_per_s", Median(op_rates), "1/s", op_rates.size());
  Add(&e2e, "class_iqm_us", Median(class_iqms), "us", untraced.op_lat.kept());
  Add(&e2e, "class_p99_us", class_p99_us, "us", classes != 0 ? fewest : 0);
  Add(&info, "rate_slices", static_cast<double>(op_rates.size()), "count");
  Add(&info, "host.core_ns", Median(core_ns), "ns", core_ns.size());
  Add(&info, "host.mem_ns", Median(mem_ns), "ns", mem_ns.size());
  Add(&info, "peak_rss_mb_window_end", PeakRssMb(), "MB");

  const double interp_untraced =
      Ratio(untraced.quanta_interp, untraced.quanta_interp + untraced.quanta_blocks);
  Add(&info, "failed_frac", Ratio(failed, attempted), "1");
  if (!o.trace) {
    Add(&info, "kernel.interp_quanta_frac_untraced", interp_untraced, "1");
  }
  Add(&info, "churn.children_ok", churn_good, "count");
  if (o.workload != Workload::kRun) {
    ToolClassMetrics(&info, untraced, nominal_secs, "");
  }

  std::vector<Metric> layer;
  if (o.trace) {
    const Phase& t = traced;
    const double tsecs = static_cast<double>(t.wall_ns) * 1e-9;
    for (int ci = 0; ci < kIoClasses; ++ci) {
      const Samples& l = t.io.lat[ci];
      const std::string base = std::string("procio.") + IoClassName(static_cast<IoClass>(ci)) + ".";
      Add(&layer, base + "calls", static_cast<double>(l.count()), "count");
      Add(&layer, base + "p50_ns", l.Quantile(0.50), "ns", l.kept());
      Add(&layer, base + "p99_ns", l.Quantile(0.99), "ns", l.kept());
      Add(&layer, base + "busy_frac", Ratio(static_cast<double>(l.sum()), tsecs * 1e9), "1");
    }
    Add(&layer, "procio.errors", static_cast<double>(t.io.errors), "count");
    Add(&layer, "procd.pump_rounds_per_call", Ratio(t.io.pump_rounds, t.io.remote_calls), "1");
    Add(&layer, "procd.peer_scans_per_call", Ratio(t.io.peer_scans, t.io.remote_calls), "1");
    Add(&layer, "procd.frames_in", static_cast<double>(t.procd_frames_in), "count");
    Add(&layer, "procd.parks", static_cast<double>(t.procd_parks), "count");
    Add(&layer, "procd.disconnects", static_cast<double>(t.procd_disconnects), "count");
    Add(&layer, "procd.live_peers", s.srv ? static_cast<double>(s.srv->PeerCount()) : 0, "count");
    Add(&layer, "procd.transport_frac",
        t.io.remote_ns > 0 ? 1.0 - Ratio(static_cast<double>(t.io.service_ns),
                                         static_cast<double>(t.io.remote_ns))
                           : 0,
        "1");
    Add(&layer, "procd.service_ioctl_p99_ns",
        s.srv ? static_cast<double>(s.srv->op_span(PdOp::kIoctl).lat_ns.Quantile(0.99)) : 0, "ns",
        s.srv ? s.srv->op_span(PdOp::kIoctl).lat_ns.count : 0);
    Add(&layer, "procd.service_psall_p99_ns",
        s.srv ? static_cast<double>(s.srv->op_span(PdOp::kPsall).lat_ns.Quantile(0.99)) : 0, "ns",
        s.srv ? s.srv->op_span(PdOp::kPsall).lat_ns.count : 0);
    Add(&layer, "kernel.step.p50_ns", t.step_lat.Quantile(0.50), "ns", t.step_lat.kept());
    Add(&layer, "kernel.quanta_blocks", static_cast<double>(t.quanta_blocks), "count");
    Add(&layer, "kernel.quanta_interp", static_cast<double>(t.quanta_interp), "count");
    Add(&layer, "kernel.interp_quanta_frac",
        Ratio(t.quanta_interp, t.quanta_interp + t.quanta_blocks), "1");
    Add(&layer, "kernel.interp_quanta_frac_untraced", interp_untraced, "1");
    Add(&layer, "kernel.insns_per_wait",
        Ratio(t.insns, t.io.lat[static_cast<int>(IoClass::kWait)].count()), "1");
    Add(&layer, "kernel.ticks", static_cast<double>(t.ticks), "count");
    Add(&layer, "kernel.reaps", static_cast<double>(t.reaps), "count");
    const BlockStats& bb = t.layer.bb;
    Add(&layer, "isa.bb_built", static_cast<double>(bb.built), "count");
    Add(&layer, "isa.bb_hits", static_cast<double>(bb.hits), "count");
    Add(&layer, "isa.bb_misses", static_cast<double>(bb.misses), "count");
    Add(&layer, "isa.bb_invalidations", static_cast<double>(bb.invalidations), "count");
    Add(&layer, "isa.bb_fallback_steps", static_cast<double>(bb.fallback_steps), "count");
    Add(&layer, "isa.bb_hit_ratio", Ratio(bb.hits, bb.hits + bb.misses), "1");
    const VmCounters& vm = t.layer.vm;
    Add(&layer, "vm.tlb_hits", static_cast<double>(vm.tlb_hits), "count");
    Add(&layer, "vm.tlb_misses", static_cast<double>(vm.tlb_misses), "count");
    Add(&layer, "vm.slow_lookups", static_cast<double>(vm.slow_lookups), "count");
    Add(&layer, "vm.tlb_flushes", static_cast<double>(vm.tlb_flushes), "count");
    Add(&layer, "vm.minor_faults", static_cast<double>(vm.minor_faults), "count");
    Add(&layer, "vm.major_faults", static_cast<double>(vm.major_faults), "count");
    Add(&layer, "vm.tlb_hit_ratio", Ratio(vm.tlb_hits, vm.tlb_hits + vm.tlb_misses), "1");
    const bool tools = o.workload != Workload::kRun;
    const int64_t op_ns = t.op_lat.sum();
    Add(&layer, "tools.self_frac",
        tools ? Ratio(static_cast<double>(op_ns - t.io_ns), static_cast<double>(op_ns)) : 0, "1");
    ToolClassMetrics(&layer, untraced, nominal_secs, "tools.");
    // Both kinds of chunk alternate on one host, so the ratio is taken in
    // host time.
    const double usecs = static_cast<double>(untraced.wall_ns) * 1e-9;
    auto rate_ratio = [&](uint64_t traced_n, uint64_t untraced_n) {
      return Ratio(static_cast<double>(traced_n) / tsecs, static_cast<double>(untraced_n) / usecs);
    };
    Add(&layer, "trace.insns_per_s_ratio", rate_ratio(t.insns, untraced.insns), "1");
    Add(&layer, "trace.bp_per_s_ratio", rate_ratio(t.bp_hits, untraced.bp_hits), "1");
    Add(&layer, "trace.prefix_counts_equal", repeat_ok ? 1 : 0, "1");
    Add(&layer, "trace.prefix_interp_quanta_frac_untraced", Ratio(a.v[1], a.v[1] + a.v[2]), "1");
    Add(&layer, "trace.prefix_interp_quanta_frac_traced", Ratio(b.v[1], b.v[1] + b.v[2]), "1");

    std::map<std::string, int64_t> self;
    int64_t total = 0;
    spans->SelfTimes(&self, &total);
    for (const auto& [name, ns] : self) {
      std::printf("span-self %-24s %8.3f%%\n", name.c_str(),
                  100.0 * Ratio(static_cast<double>(ns), static_cast<double>(total)));
    }
    if (t.span_failed != 0) {
      std::printf("check: FAILED %" PRIu64 " traced ops whose procio calls disagree with the op "
                  "or with procd's service time\n",
                  t.span_failed);
    }
    if (!o.out_dir.empty()) {
      std::string path = o.out_dir + "/spans-" + o.workload_name + ".tsv";
      if (!spans->Write(path)) {
        std::printf("warning: could not write %s\n", path.c_str());
      }
    }
  }

  // A failed self-check counts as one failed operation.
  failed += (repeat_ok ? 0 : 1) + (seed_ok ? 0 : 1) + (churn_good > 0 ? 0 : 1);
  const bool correct = failed == 0;
  PrintMetrics(e2e);
  PrintMetrics(info);
  PrintMetrics(layer);
  std::fflush(stdout);
  // Teardown order: tools and peers hang up before the server and kernel go.
  sys.reset();
  PrintJson(correct, attempted, failed, o.trace ? layer : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
