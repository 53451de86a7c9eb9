#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace bb::common {

namespace {

std::atomic<int> g_thread_override{0};

thread_local bool t_in_parallel_region = false;

int DefaultThreadCount() {
  if (const char* env = std::getenv("BB_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<int>(std::min(v, 256L));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// RAII guard for the nested-region flag.
struct RegionGuard {
  bool previous = t_in_parallel_region;
  RegionGuard() { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = previous; }
};

}  // namespace

int ThreadCount() {
  const int o = g_thread_override.load(std::memory_order_relaxed);
  if (o >= 1) return o;
  // Resolve once; the env and hardware do not change mid-process.
  static const int resolved = DefaultThreadCount();
  return resolved;
}

void SetThreadCount(int n) {
  g_thread_override.store(n >= 1 ? std::min(n, 256) : 0,
                          std::memory_order_relaxed);
}

bool InParallelRegion() { return t_in_parallel_region; }

int NumShards(std::int64_t items, std::int64_t grain) {
  if (items <= 0) return 1;
  if (grain < 1) grain = 1;
  const std::int64_t by_grain = (items + grain - 1) / grain;
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(ThreadCount(),
                                                       by_grain)));
}

// ---- ThreadPool ------------------------------------------------------------

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait here for a job
  std::condition_variable done_cv;   // Run() waits here for completion
  std::vector<std::thread> workers;

  // Current job; guarded by mu.
  std::uint32_t epoch = 0;           // bumped per job
  const std::function<void(int)>* fn = nullptr;
  int task_count = 0;
  int helper_slots = 0;              // helpers the job may still admit
  int unfinished = 0;                // tasks not yet completed
  std::exception_ptr first_error;
  bool shutdown = false;

  // Task claims, tagged with the job they belong to: the high 32 bits hold
  // the job's epoch, the low 32 bits the next unclaimed task index. A helper
  // copies (fn, task_count, epoch) under mu and claims by compare-exchange
  // on the whole word, so a helper that only starts claiming after its job
  // completed and the next one was published sees a foreign epoch and
  // stops - it can never run the next job's indices with its own job's
  // (by then destroyed) function, nor decrement the next job's counter.
  std::atomic<std::uint64_t> claim{0};

  // Serializes Run() callers; the pool executes one job at a time.
  std::mutex run_mu;

  static std::uint64_t Tag(std::uint32_t job_epoch) {
    return static_cast<std::uint64_t>(job_epoch) << 32;
  }

  void WorkerLoop() {
    std::uint32_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work_cv.wait(lock, [&] { return shutdown || epoch != seen; });
      if (shutdown) return;
      seen = epoch;
      // Every worker wakes on notify_all; only max_workers - 1 join a job.
      if (helper_slots == 0) continue;
      --helper_slots;
      const auto* job = fn;
      const int count = task_count;
      lock.unlock();
      DrainTasks(job, count, seen);
      lock.lock();
    }
  }

  // Claims and runs job `job_epoch`'s tasks until none remain (or the job
  // is over); records completions.
  void DrainTasks(const std::function<void(int)>* job, int count,
                  std::uint32_t job_epoch) {
    RegionGuard region;
    const std::uint64_t tag = Tag(job_epoch);
    int done_here = 0;
    std::exception_ptr error;
    std::uint64_t cur = claim.load();
    for (;;) {
      if ((cur & ~std::uint64_t{0xFFFFFFFF}) != tag) break;
      const int task = static_cast<int>(cur & 0xFFFFFFFF);
      if (task >= count) break;
      if (!claim.compare_exchange_weak(cur, cur + 1)) {
        continue;  // `cur` was reloaded; re-check its epoch and index
      }
      try {
        (*job)(task);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      ++done_here;
      cur = claim.load();
    }
    if (done_here > 0 || error) {
      std::lock_guard<std::mutex> lock(mu);
      unfinished -= done_here;
      if (error && !first_error) first_error = error;
      if (unfinished == 0) done_cv.notify_all();
    }
  }

  void EnsureWorkers(int n) {
    // Called with mu held.
    while (static_cast<int>(workers.size()) < n) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
  }
};

ThreadPool::Impl* ThreadPool::impl() {
  // The pool is a leaked singleton (see Instance()), so impl_ lives for the
  // process; guard only the first construction.
  static std::once_flag once;
  std::call_once(once, [this] { impl_ = new Impl; });
  return impl_;
}

ThreadPool& ThreadPool::Instance() {
  // Leaked intentionally: worker threads may outlive static destruction
  // order otherwise. The OS reclaims everything at exit.
  static ThreadPool* pool = new ThreadPool;
  return *pool;
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

int ThreadPool::worker_count() const {
  if (!impl_) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::Run(int max_workers, int task_count,
                     const std::function<void(int)>& fn) {
  if (task_count <= 0) return;
  if (max_workers <= 1 || task_count == 1 || t_in_parallel_region) {
    // Serial path: identical to a plain loop, no pool involvement.
    RegionGuard region;
    for (int i = 0; i < task_count; ++i) fn(i);
    return;
  }

  Impl* p = impl();
  std::lock_guard<std::mutex> run_lock(p->run_mu);
  const int helpers = std::min(max_workers, task_count) - 1;
  std::uint32_t job_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(p->mu);
    p->EnsureWorkers(helpers);
    job_epoch = ++p->epoch;
    p->fn = &fn;
    p->task_count = task_count;
    p->helper_slots = helpers;
    p->claim.store(Impl::Tag(job_epoch));
    p->unfinished = task_count;
    p->first_error = nullptr;
  }
  p->work_cv.notify_all();

  // The caller participates instead of idling.
  p->DrainTasks(&fn, task_count, job_epoch);

  std::unique_lock<std::mutex> lock(p->mu);
  p->done_cv.wait(lock, [&] { return p->unfinished == 0; });
  // Workers waking after this point find no slot and go back to sleep.
  p->fn = nullptr;
  p->helper_slots = 0;
  if (p->first_error) {
    auto error = p->first_error;
    p->first_error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

// ---- Helpers ---------------------------------------------------------------

void ParallelShards(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  const std::int64_t items = end - begin;
  if (items <= 0) return;
  const int shards = InParallelRegion() ? 1 : NumShards(items, grain);
  if (shards == 1) {
    RegionGuard region;
    fn(0, begin, end);
    return;
  }
  // Balanced contiguous split: shard s covers
  // [begin + s * items / shards, begin + (s + 1) * items / shards).
  ThreadPool::Instance().Run(shards, shards, [&](int s) {
    const std::int64_t b = begin + items * s / shards;
    const std::int64_t e = begin + items * (s + 1) / shards;
    if (b < e) fn(s, b, e);
  });
}

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t)>& fn) {
  const std::int64_t items = end - begin;
  if (items <= 0) return;
  if (grain < 1) grain = 1;
  if (items < 2 * grain || ThreadCount() == 1 || InParallelRegion()) {
    RegionGuard region;
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ParallelShards(begin, end, grain,
                 [&](int /*shard*/, std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) fn(i);
                 });
}

}  // namespace bb::common
