#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>

namespace msim::core {
namespace {

// Oversubscription guard: even an explicit request for a huge thread
// count never spawns more than this many pool workers.
constexpr int kMaxPoolWorkers = 64;

}  // namespace

int default_thread_count() {
  static const int n = [] {
    // Read once, under the static-local guard, before any pool thread
    // exists; nothing in the process mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("MSIM_THREADS")) {
      const int v = std::atoi(env);
      if (v >= 1) return v;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
  }();
  return n;
}

struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<int> slots{0};  // pool workers still allowed to join
  std::atomic<bool> abort{false};
  const RunBudget* budget = nullptr;  // cooperative cancel, may be null
  std::exception_ptr error;
  std::mutex err_mu;

  void work() {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (budget && budget->exhausted()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> g(err_mu);
        if (!error) error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    }
  }
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // wakes idle workers
  std::condition_variable done_cv;  // wakes the submitter
  std::shared_ptr<Job> job;         // null when idle
  std::uint64_t seq = 0;
  int busy = 0;  // workers currently executing the job
  bool stop = false;
  std::mutex submit_mu;  // serializes concurrent run() calls
};

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : workers_) w.join();
  delete impl_;
}

void ThreadPool::ensure_workers(int count) {
  if (count > kMaxPoolWorkers) count = kMaxPoolWorkers;
  while (static_cast<int>(workers_.size()) < count)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(impl_->mu);
  for (;;) {
    impl_->work_cv.wait(lk, [&] {
      return impl_->stop || (impl_->job && impl_->seq != seen);
    });
    if (impl_->stop) return;
    seen = impl_->seq;
    std::shared_ptr<Job> j = impl_->job;
    if (j->slots.fetch_sub(1, std::memory_order_relaxed) <= 0) continue;
    ++impl_->busy;
    lk.unlock();
    j->work();
    lk.lock();
    if (--impl_->busy == 0) impl_->done_cv.notify_all();
  }
}

void ThreadPool::run(std::size_t n, int max_workers,
                     const std::function<void(std::size_t)>& fn,
                     const RunBudget* budget) {
  std::lock_guard<std::mutex> submit(impl_->submit_mu);
  ensure_workers(max_workers - 1);

  auto j = std::make_shared<Job>();
  j->fn = &fn;
  j->n = n;
  j->budget = budget;
  j->slots.store(max_workers - 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->job = j;
    ++impl_->seq;
  }
  impl_->work_cv.notify_all();

  j->work();  // the caller is a worker too

  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->done_cv.wait(lk, [&] { return impl_->busy == 0; });
    impl_->job.reset();
  }
  if (j->error) std::rethrow_exception(j->error);
}

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  const RunBudget* budget) {
  if (threads == 0) threads = default_thread_count();
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (budget && budget->exhausted()) return;
      fn(i);
    }
    return;
  }
  ThreadPool::global().run(n, threads, fn, budget);
}

std::size_t default_chunk(int threads, std::size_t n) {
  if (threads <= 0) threads = default_thread_count();
  return std::max<std::size_t>(
      1, n / (8 * static_cast<std::size_t>(threads)));
}

void parallel_for_chunked(int threads, std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t)>& fn,
                          const RunBudget* budget) {
  if (threads == 0) threads = default_thread_count();
  if (chunk == 0) chunk = default_chunk(threads, n);
  if (threads <= 1 || n <= 1 || chunk >= n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (budget && budget->exhausted()) return;
      fn(i);
    }
    return;
  }
  const std::size_t blocks = (n + chunk - 1) / chunk;
  const std::function<void(std::size_t)> block_fn = [&](std::size_t b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  };
  ThreadPool::global().run(blocks, threads, block_fn, budget);
}

}  // namespace msim::core
