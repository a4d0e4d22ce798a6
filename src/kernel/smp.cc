#include "svr4proc/kernel/smp.h"

#include "svr4proc/kernel/faults.h"
#include "svr4proc/kernel/ktrace.h"

namespace svr4 {

namespace {

// The CPU whose chunk this thread runs in a free-running super-step, or -1
// outside one (SmpState::SetWorkerCpu).
thread_local int t_worker_cpu = -1;

}  // namespace

void SmpState::SetWorkerCpu(int cpu) { t_worker_cpu = cpu; }

int SmpState::SendingCpu() const {
  if (t_worker_cpu >= 0) {
    return t_worker_cpu;
  }
  return cur_cpu_src_ != nullptr ? *cur_cpu_src_ : 0;
}

void SmpState::Resize(int n) {
  cpus_.assign(static_cast<size_t>(n), CpuState{});
  for (int i = 0; i < n; ++i) {
    cpus_[static_cast<size_t>(i)].id = i;
    // Fixed per-CPU seed: steal choices replay across runs and are
    // independent of the chaos scheduler's stream.
    cpus_[static_cast<size_t>(i)].steal_rng =
        0x57EA15EEDull ^ (static_cast<uint64_t>(i) * 0xA24BAED4963EE407ull);
  }
}

void SmpState::Shootdown(const void* as, int32_t pid) {
  int n = ncpus();
  if (n <= 1) {
    return;
  }
  int self = SendingCpu();
  for (int i = 0; i < n; ++i) {
    CpuState& c = cpus_[static_cast<size_t>(i)];
    if (i == self || c.cur_as != as) {
      continue;
    }
    uint64_t pending =
        c.ipi_pending.fetch_add(1, std::memory_order_relaxed) + 1;
    CpuState& from = cpus_[static_cast<size_t>(self)];
    // atomic_ref: free-running workers shoot down through the VM layer
    // concurrently. Each charges the CPU whose chunk it runs, so no two
    // share a sender today; the atomic keeps the count exact if a sender
    // is ever charged from two threads at once.
    std::atomic_ref<uint64_t>(from.stats.ipis_sent)
        .fetch_add(1, std::memory_order_relaxed);
    if (kt_ != nullptr && kt_->armed()) {
      // a0 = sending CPU, a1 = target CPU in the low half and the target's
      // pending depth in the high half — enough to replay the protocol.
      kt_->Emit(KtEvent::kIpi, pid, 0, static_cast<uint32_t>(self),
                static_cast<uint32_t>(i) | (static_cast<uint32_t>(pending) << 16));
    }
  }
}

void SmpState::ReschedIpi(int target_cpu, int32_t pid, int lwpid) {
  if (ncpus() <= 1 || target_cpu < 0 || target_cpu >= ncpus()) {
    return;
  }
  int self = SendingCpu();
  if (target_cpu == self) {
    return;
  }
  CpuState& c = cpus_[static_cast<size_t>(target_cpu)];
  uint64_t pending = c.ipi_pending.fetch_add(1, std::memory_order_relaxed) + 1;
  ++cpus_[static_cast<size_t>(self)].stats.ipis_sent;
  if (kt_ != nullptr && kt_->armed()) {
    kt_->Emit(KtEvent::kIpi, pid, lwpid, static_cast<uint32_t>(self),
              static_cast<uint32_t>(target_cpu) |
                  (static_cast<uint32_t>(pending) << 16));
  }
}

uint64_t SmpState::AckIpis(int cpu) {
  CpuState& c = cpus_[static_cast<size_t>(cpu)];
  uint64_t n = c.ipi_pending.exchange(0, std::memory_order_relaxed);
  c.stats.ipis_received += n;
  return n;
}

uint64_t SmpState::StealDraw(int cpu) {
  return SplitMix64(cpus_[static_cast<size_t>(cpu)].steal_rng);
}

uint64_t SmpState::TotalIpisSent() const {
  uint64_t n = 0;
  for (const CpuState& c : cpus_) {
    n += c.stats.ipis_sent;
  }
  return n;
}

uint64_t SmpState::TotalIpisPending() const {
  uint64_t n = 0;
  for (const CpuState& c : cpus_) {
    n += c.ipi_pending.load(std::memory_order_relaxed);
  }
  return n;
}

SmpWorkers::~SmpWorkers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void SmpWorkers::Ensure(int n) {
  while (static_cast<int>(threads_.size()) < n) {
    int idx = static_cast<int>(threads_.size());
    threads_.emplace_back([this, idx] { WorkerMain(idx); });
  }
}

void SmpWorkers::Dispatch(int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  if (n == 1) {
    fn(0);  // no point waking a worker for a single chunk
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  Ensure(n);
  fn_ = &fn;
  nwork_ = n;
  active_ = n;
  ++seq_;
  cv_work_.notify_all();
  cv_done_.wait(lk, [this] { return active_ == 0; });
  fn_ = nullptr;
}

void SmpWorkers::WorkerMain(int idx) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || (seq_ != seen && idx < nwork_); });
      if (stop_) {
        return;
      }
      seen = seq_;
      fn = fn_;
    }
    (*fn)(idx);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_ == 0) {
        cv_done_.notify_one();
      }
    }
  }
}

}  // namespace svr4
