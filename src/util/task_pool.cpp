#include "util/task_pool.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>

#include "util/log.hpp"

namespace tmm::util {
namespace {

const lockorder::LockClass kJobLockClass("util.taskpool.job");
const lockorder::LockClass kQueueLockClass("util.taskpool.queue");

// Set while a thread executes chunks of a pool job. A parallel_for
// issued from such a thread (nested parallelism, or a kernel calling
// back into the pool) runs inline instead of blocking on job_mu_ —
// a worker waiting for a job that waits for this worker would
// deadlock.
thread_local bool t_in_pool_job = false;

// NOLINTNEXTLINE(concurrency-mt-unsafe): startup/env read, matches
// fault::arm_from_env.
const char* env_lookup(const char* name) { return std::getenv(name); }

}  // namespace

TaskPool::TaskPool(std::size_t threads)
    : job_mu_(kJobLockClass), mu_(kQueueLockClass) {
  const std::size_t workers = threads <= 1 ? 0 : threads - 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

TaskPool& TaskPool::shared() {
  // Leaked: workers park in cv_.wait at exit; destroying the pool
  // during static teardown would race library users' atexit hooks.
  static TaskPool* pool = new TaskPool(default_threads());
  return *pool;
}

std::size_t TaskPool::default_threads() {
  static const std::size_t resolved = [] {
    std::string err;
    const std::size_t env = env_threads(&err);
    if (!err.empty())
      log_warn("task_pool: %s — using hardware concurrency", err.c_str());
    if (env > 0) return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{1} : std::size_t{hw};
  }();
  return resolved;
}

std::size_t TaskPool::env_threads(std::string* error) {
  if (error) error->clear();
  const char* raw = env_lookup("TMM_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  std::size_t value = 0;
  bool ok = true;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0 || value > 100000) {
      ok = false;
      break;
    }
    value = value * 10 + static_cast<std::size_t>(*p - '0');
  }
  if (!ok || value == 0) {
    if (error)
      *error = "invalid TMM_THREADS value '" + std::string(raw) +
               "' (expected a positive integer)";
    return 0;
  }
  return value;
}

void TaskPool::run_job(std::size_t n, std::size_t grain,
                       std::size_t max_threads, ChunkFn fn, void* ctx) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::size_t cap = max_threads == 0 ? max_parallelism() : max_threads;
  cap = std::min(cap, max_parallelism());
  if (cap <= 1 || chunks <= 1 || t_in_pool_job) {
    // Inline path: same chunk boundaries as the parallel path so fn
    // observes identical (begin, end) ranges either way.
    for (std::size_t b = 0; b < n; b += grain) fn(ctx, b, std::min(b + grain, n));
    return;
  }

  MutexLock job_lock(job_mu_);
  std::uint64_t epoch = 0;
  {
    MutexUniqueLock lock(mu_);
    // A straggler worker that woke for the previous job may still be
    // draining its (exhausted) chunk queue; the counters below cannot
    // be reset from under it. Explicit wait loop (not the predicate
    // overload) so active_workers_ stays lexically under the scoped
    // capability.
    while (active_workers_ != 0) done_cv_.wait(lock.native());
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_n_ = n;
    job_grain_ = grain;
    job_chunks_ = chunks;
    job_worker_budget_ = cap - 1;
    job_error_ = nullptr;
    next_chunk_.store(0, std::memory_order_relaxed);
    done_chunks_.store(0, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    ++epoch_;
    epoch = epoch_;
  }
  cv_.notify_all();

  t_in_pool_job = true;
  drain(fn, ctx, n, grain, chunks);
  t_in_pool_job = false;

  std::exception_ptr error;
  {
    MutexUniqueLock lock(mu_);
    // Barrier: every chunk executed (or abandoned after an exception)
    // and every participating worker has left the queue. done_chunks_
    // is written before each worker's active_workers_ decrement under
    // mu_, so the load here is ordered.
    while (active_workers_ != 0 ||
           done_chunks_.load(std::memory_order_acquire) != job_chunks_)
      done_cv_.wait(lock.native());
    error = job_error_;
    job_error_ = nullptr;
    job_fn_ = nullptr;
    job_ctx_ = nullptr;
    (void)epoch;
  }
  if (error) std::rethrow_exception(error);
}

void TaskPool::drain(ChunkFn fn, void* ctx, std::size_t n, std::size_t grain,
                     std::size_t chunks) {
  for (;;) {
    const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return;
    if (!abort_.load(std::memory_order_relaxed)) {
      const std::size_t begin = c * grain;
      const std::size_t end = std::min(begin + grain, n);
      try {
        fn(ctx, begin, end);
      } catch (...) {
        abort_.store(true, std::memory_order_relaxed);
        MutexLock lock(mu_);
        if (!job_error_) job_error_ = std::current_exception();
      }
    }
    // acq_rel: the caller's post-barrier reads happen-after every
    // chunk's writes once the count reaches job_chunks_.
    done_chunks_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void TaskPool::worker_main(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    ChunkFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    std::size_t grain = 0;
    std::size_t chunks = 0;
    {
      MutexUniqueLock lock(mu_);
      while (!stop_ && epoch_ == seen) cv_.wait(lock.native());
      if (stop_) return;
      seen = epoch_;
      if (index >= job_worker_budget_) continue;  // over this job's cap
      ++active_workers_;
      fn = job_fn_;
      ctx = job_ctx_;
      n = job_n_;
      grain = job_grain_;
      chunks = job_chunks_;
    }
    t_in_pool_job = true;
    drain(fn, ctx, n, grain, chunks);
    t_in_pool_job = false;
    {
      MutexLock lock(mu_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

}  // namespace tmm::util
