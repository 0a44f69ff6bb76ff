// Fixed-size thread pool with a deterministic parallel-for.
//
// Determinism contract: parallel_for(threads, n, fn) runs fn(i) exactly
// once for every i in [0, n), and fn(i) must write only to state owned
// by index i (its own result slot, its own workspace).  Under that
// contract the outcome is bit-identical for any thread count, including
// serial execution -- scheduling only decides *when* each index runs,
// never *what* it computes.  The Monte-Carlo, AC, noise and sweep
// executors in src/analysis are all built on this contract.
//
// Exceptions thrown by fn are captured; the first one captured wins and
// is rethrown on the caller's thread after all workers finish (remaining
// indices are skipped).
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "core/budget.h"

namespace msim::core {

// Worker count used when a caller passes threads = 0 ("auto"): the
// MSIM_THREADS environment variable when set (clamped to >= 1),
// otherwise std::thread::hardware_concurrency().
int default_thread_count();

// Runs fn(i) for i in [0, n).
//   threads <= 1 : serial in the calling thread (no pool involvement).
//   threads == 0 : default_thread_count() workers.
//   threads >= 2 : at most `threads` workers (calling thread included).
//
// Cooperative cancellation: with a non-null `budget`, every worker
// re-checks budget->exhausted() before claiming another index (another
// chunk for parallel_for_chunked) and stops claiming once it trips.
// Indices already running finish normally; indices never claimed are
// simply not run -- callers that must distinguish "not run" from "ran"
// pre-fill their result slots with a skip marker before the loop (the
// MC harness and the transient sweep do exactly this).
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  const RunBudget* budget = nullptr);

// Scheduling-granularity heuristic for parallel_for_chunked: about 8
// chunks per worker, so work-stealing can still balance uneven task
// costs while the per-chunk pool handoff (an atomic fetch_add plus a
// std::function call through a pointer) amortizes over the chunk body.
std::size_t default_chunk(int threads, std::size_t n);

// Chunked parallel_for: indices are handed to the pool in contiguous
// blocks of `chunk` (0 = default_chunk) and run in ascending order
// within each block.  Same determinism contract and exception behavior
// as parallel_for -- scheduling granularity never changes what any
// index computes.  Use this when fn(i) is too cheap to amortize a
// per-index handoff (MC samples, sweep cases); with one index per
// microsecond-scale task the handoff traffic alone can make 8 threads
// slower than serial.
void parallel_for_chunked(int threads, std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t)>& fn,
                          const RunBudget* budget = nullptr);

// The process-wide pool behind parallel_for.  Workers are started
// lazily (the pool grows to the largest worker count ever requested, up
// to a hard cap) and live for the process lifetime.  Only one
// parallel_for runs at a time -- a second caller blocks until the first
// finishes; the analyses never nest parallel sections.
class ThreadPool {
 public:
  static ThreadPool& global();

  // Runs fn over [0, n) using at most max_workers - 1 pool threads plus
  // the calling thread.  Blocks until every index has run; rethrows the
  // first captured exception.  A non-null budget stops workers claiming
  // further indices once it reports exhausted().
  void run(std::size_t n, int max_workers,
           const std::function<void(std::size_t)>& fn,
           const RunBudget* budget = nullptr);

  int size() const { return static_cast<int>(workers_.size()); }

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  void worker_loop();
  void ensure_workers(int count);

  struct Job;
  struct Impl;
  std::vector<std::thread> workers_;
  Impl* impl_;  // never freed before the workers join in ~ThreadPool
};

}  // namespace msim::core
