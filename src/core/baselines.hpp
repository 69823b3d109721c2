// Baseline schedulers the paper compares against conceptually:
//
//   * Ludwig-Tiwari / Turek-Wolf-Yu style 2-approximation: the estimator's
//     minimizing allotment handed to Graham list scheduling (Section 3:
//     "the list scheduling algorithm ... produces a schedule of makespan at
//     most 2 omega");
//   * a sequential baseline (every job on one processor) — the natural
//     no-moldability straw man;
//   * an equal-share baseline (every job on max(1, m/n) processors) — the
//     naive static partitioning HPC schedulers sometimes use.
#pragma once

#include "src/core/estimator.hpp"
#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"

namespace moldable::core {

struct BaselineResult {
  sched::Schedule schedule;
  double lower_bound = 0;  ///< omega from the estimator (0 for straw men)
};

/// Estimator allotment + list scheduling: makespan <= 2 * OPT.
/// `estimate`: the instance's estimate_makespan result when the caller
/// holds it (null runs the estimator here); it never changes the result.
BaselineResult ludwig_tiwari_schedule(const jobs::Instance& instance,
                                      const EstimatorResult* estimate = nullptr);

/// Memory-aware greedy: the estimator's minimizing allotment, clamped up
/// per job to the smallest memory-feasible allotment kmin_j, then list
/// scheduled. On memory-free instances this is exactly
/// ludwig_tiwari_schedule (kmin_j == 1 everywhere). The lower bound is
/// max(omega, memory_lower_bound), both certified. Throws
/// std::invalid_argument when some job is memory-infeasible (kmin_j > m).
/// `estimate`: the instance's estimate_makespan result when the caller
/// holds it (null runs the estimator here); it never changes the result.
BaselineResult memory_greedy_schedule(const jobs::Instance& instance,
                                      const EstimatorResult* estimate = nullptr);

/// Every job sequential, list scheduled. No approximation guarantee.
BaselineResult sequential_schedule(const jobs::Instance& instance);

/// Every job on max(1, m/n) processors, list scheduled. No guarantee.
BaselineResult equal_share_schedule(const jobs::Instance& instance);

}  // namespace moldable::core
