// Allocation budget of the dual search. Every dual call runs in scratch
// (util::ScratchArena), so once a thread's arena is warm a dual call makes
// no heap allocation, and a whole solve makes a fixed number — the
// estimator's result and the one materialized schedule — however many
// dual calls it takes and however many jobs it has. This binary replaces
// the global operator new to count the calling thread's allocations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "src/core/bounded_sched.hpp"
#include "src/core/compressible_sched.hpp"
#include "src/core/estimator.hpp"
#include "src/core/fptas.hpp"
#include "src/core/mrt.hpp"
#include "src/core/scheduler.hpp"
#include "src/jobs/generators.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace moldable::core {
namespace {

template <typename F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = t_allocations;
  f();
  return t_allocations - before;
}

struct Variant {
  Algorithm algorithm;
  procs_t machines;  ///< the FPTAS needs m >= 24 n / eps
};

const Variant kVariants[] = {
    {Algorithm::kFptas, procs_t{1} << 20},    {Algorithm::kMrt, 256},
    {Algorithm::kCompressible, 4096},         {Algorithm::kBounded, 4096},
    {Algorithm::kBoundedLinear, 4096},
};

jobs::Instance instance_for(const Variant& v, std::size_t n, std::uint64_t seed = 7) {
  return jobs::make_instance(jobs::Family::kMixed, n, v.machines, seed);
}

/// Allocations of a warm solve: the same solve runs once first, so the
/// thread's arena already holds every chunk the measured run touches.
std::size_t warm_solve_allocations(const jobs::Instance& inst, double eps, Algorithm a,
                                   int* dual_calls) {
  schedule_moldable(inst, eps, a);
  return allocations_of([&] { *dual_calls = schedule_moldable(inst, eps, a).dual_calls; });
}

TEST(AllocBudget, SolveAllocationsIndependentOfDualCallsAndJobCount) {
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(algorithm_name(v.algorithm));
    std::vector<std::size_t> counts;
    std::vector<int> calls;
    for (std::size_t n : {std::size_t{16}, std::size_t{256}}) {
      const jobs::Instance inst = instance_for(v, n);
      for (double eps : {0.1, 0.01}) {
        int dual_calls = 0;
        counts.push_back(warm_solve_allocations(inst, eps, v.algorithm, &dual_calls));
        calls.push_back(dual_calls);
      }
    }
    // The finer eps must really take more dual calls, or the comparison
    // proves nothing about a dual call's allocations.
    EXPECT_GT(calls[1], calls[0]);
    EXPECT_GT(calls[3], calls[2]);
    for (std::size_t k = 1; k < counts.size(); ++k) EXPECT_EQ(counts[k], counts[0]) << k;
    // The estimator's allotment and the one materialized schedule.
    EXPECT_EQ(counts[0], 2u);
    EXPECT_GT(calls[0], 2);
  }
}

TEST(AllocBudget, WarmDualCallsAllocateNothing) {
  const jobs::Instance inst = instance_for(kVariants[2], 64);
  const double omega = estimate_makespan(inst).omega;
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  sched::AssignmentList out(arena, inst.size());
  // 2 omega is always accepted; omega / 2 lies below OPT and is rejected.
  for (const double d : {2 * omega, 0.5 * omega}) {
    SCOPED_TRACE(d);
    const auto duals = {
        +[](const jobs::Instance& i, double dd, sched::AssignmentList& o) {
          return fptas_dual(i, dd, 0.1, o);
        },
        +[](const jobs::Instance& i, double dd, sched::AssignmentList& o) {
          return mrt_dual(i, dd, o);
        },
        +[](const jobs::Instance& i, double dd, sched::AssignmentList& o) {
          return compressible_dual(i, dd, 0.1, o);
        },
        +[](const jobs::Instance& i, double dd, sched::AssignmentList& o) {
          return bounded_dual(i, dd, 0.1, {false}, o);
        },
        +[](const jobs::Instance& i, double dd, sched::AssignmentList& o) {
          return bounded_dual(i, dd, 0.1, {true}, o);
        },
    };
    std::size_t k = 0;
    for (const auto dual : duals) {
      SCOPED_TRACE(k++);
      out.clear();
      dual(inst, d, out);  // warm
      out.clear();
      bool accepted = false;
      EXPECT_EQ(allocations_of([&] { accepted = dual(inst, d, out); }), 0u);
      if (k > 1) {
        EXPECT_EQ(accepted, d > omega);  // the (3/2 + eps)-duals
      }
    }
  }
}

bool bitwise_equal(const sched::Schedule& a, const sched::Schedule& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sched::Assignment& x = a.assignments()[i];
    const sched::Assignment& y = b.assignments()[i];
    if (x.job != y.job || x.procs != y.procs ||
        std::bit_cast<std::uint64_t>(x.start) != std::bit_cast<std::uint64_t>(y.start) ||
        std::bit_cast<std::uint64_t>(x.duration) != std::bit_cast<std::uint64_t>(y.duration))
      return false;
  }
  return true;
}

TEST(AllocBudget, ReusedScratchNeverLeaksIntoResults) {
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(algorithm_name(v.algorithm));
    const jobs::Instance a = instance_for(v, 48, 11);
    const jobs::Instance b = instance_for(v, 200, 12);
    sched::Schedule fresh;
    std::thread([&] { fresh = schedule_moldable(a, 0.05, v.algorithm).schedule; }).join();
    schedule_moldable(a, 0.05, v.algorithm);
    schedule_moldable(b, 0.05, v.algorithm);
    const sched::Schedule reused = schedule_moldable(a, 0.05, v.algorithm).schedule;
    EXPECT_TRUE(bitwise_equal(reused, fresh));
  }
}

}  // namespace
}  // namespace moldable::core
