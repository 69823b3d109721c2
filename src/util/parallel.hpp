// Minimal fork-join helper for embarrassingly parallel sweeps (the quality
// benches and parameter studies evaluate hundreds of independent
// (instance, algorithm) cells; the library itself is single-threaded and
// deterministic — parallelism lives only in the drivers).
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace moldable::util {

/// CPUs the calling thread may run on: the sched_getaffinity mask's count
/// where that call exists and succeeds, else hardware_concurrency(); never
/// less than 1. Sizing a pool by the affinity mask keeps a CPU-restricted
/// process (taskset, cgroup cpusets) from oversubscribing the CPUs it was
/// given.
inline unsigned available_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs body(i) for i in [0, n) across up to `threads` std::threads with
/// static block partitioning. Exceptions from workers are captured and the
/// first one is rethrown on the calling thread after the join. body must be
/// safe to call concurrently for distinct i (the usual contract).
inline void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                         unsigned threads = available_cpus()) {
  if (n == 0) return;
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(n)));
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  const std::size_t chunk = (n + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t lo = t * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([&, lo, hi, t] {
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace moldable::util
