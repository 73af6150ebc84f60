#pragma once
// Deterministic fork-join parallelism — the one threading primitive of the
// execution core. The paper's algorithms are LOCAL, so every parallel step
// in this library (vertices of one solve, graphs of a batch, peers of a
// routed batch) is a set of independent tasks, each writing only its own
// slot of a preallocated result array; the caller reads the slots in index
// order afterwards, which keeps every output bit-identical for any worker
// count.

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace lmds::common {

/// Resolves a thread-count knob: positive values pass through, <= 0 means
/// std::thread::hardware_concurrency() (at least 1).
inline int resolve_thread_count(int threads) {
  if (threads > 0) return threads;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs fn(task, worker) once for every task in [0, tasks) on
/// min(workers, tasks) workers. Worker w runs task w first, then claims
/// further tasks from one shared counter, so tasks == workers gives each
/// worker exactly its own task. Worker 0 is the calling thread; workers <= 1
/// runs every task inline, in index order, with no allocation and no
/// atomics. After the first throw no further task is claimed; once every
/// worker has joined, the exception of the lowest failing task is rethrown
/// (claims are in index order, so that is the lowest task that would fail
/// at all — no thread is ever abandoned).
template <typename Fn>
void fork_join(int tasks, int workers, const Fn& fn) {
  workers = std::min(workers, tasks);
  if (workers <= 1) {
    for (int t = 0; t < tasks; ++t) fn(t, 0);
    return;
  }
  std::atomic<int> next{workers};
  std::atomic<bool> failed{false};
  Mutex error_mu;  // guards error + error_task (locals, so GUARDED_BY cannot
                   // name them; the catch block is the only locked path)
  std::exception_ptr error;
  int error_task = tasks;
  const auto run = [&](int w) {
    for (int t = w; t < tasks; t = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(t, w);
      } catch (...) {
        MutexLock lock(error_mu);
        if (t < error_task) {
          error = std::current_exception();
          error_task = t;
        }
        failed.store(true, std::memory_order_relaxed);
      }
      if (failed.load(std::memory_order_relaxed)) break;
    }
  };
  {
    // jthreads join on scope exit, so a failed spawn still joins the others.
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) pool.emplace_back(run, w);
    run(0);
  }
  if (error) std::rethrow_exception(error);
}

/// Runs fn(begin, end) over a partition of [0, n) into contiguous chunks,
/// one per worker (threads <= 0 picks hardware_concurrency). The first
/// exception (lowest chunk) is rethrown after all workers joined.
template <typename Fn>
void parallel_for(int n, int threads, const Fn& fn) {
  if (n <= 0) return;
  const int workers = std::min(resolve_thread_count(threads), n);
  const int chunk = (n + workers - 1) / workers;
  fork_join((n + chunk - 1) / chunk, workers, [&](int c, int) {
    fn(c * chunk, std::min(n, (c + 1) * chunk));
  });
}

}  // namespace lmds::common
