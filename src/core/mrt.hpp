// The original Mounié-Rapine-Trystram (3/2)-dual algorithm (Section 4.1).
//
// For deadline d: remove the small jobs, place each big job in shelf S1
// (gamma_j(d) processors) or shelf S2 (gamma_j(d/2) processors) by solving
// the knapsack problem KP(J_B(d), m, d) of Eq. (6) — profit v_j(d) =
// w_j(gamma_j(d/2)) - w_j(gamma_j(d)) is the work saved by promoting j to
// S1 — then reject if the two-shelf work exceeds m d - W_S(d) (Lemma 6),
// else repair the schedule with the Lemma 7 transformation and re-add the
// small jobs (Lemma 9).
//
// The knapsack is solved exactly with the dense O(n m) dynamic program, so
// a dual call costs O(n m): this is the baseline the paper's Algorithms 1
// and 3 accelerate. The full approximation algorithm wraps the dual in the
// estimator + bisection, giving (3/2)(1 + eps_search) <= 3/2 + eps overall.
#pragma once

#include "src/core/dual_search.hpp"
#include "src/core/estimator.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::core {

/// One (3/2)-dual call at deadline d, written into `out` (see dual_search).
/// Accepted schedules have makespan <= (3/2) d; rejection certifies that no
/// schedule of makespan d exists.
bool mrt_dual(const jobs::Instance& instance, double d, sched::AssignmentList& out);

/// The same call on a fresh buffer, materialized when accepted.
DualOutcome mrt_dual(const jobs::Instance& instance, double d);

struct MrtResult {
  sched::Schedule schedule;
  double lower_bound = 0;
  int dual_calls = 0;
};

/// Full (3/2 + eps)-approximation: estimator + dual bisection around the
/// exact dual. Requires eps in (0, 1]. Running time O(log(1/eps) * n m).
/// `estimate`: the instance's estimate_makespan result when the caller
/// holds it (null runs the estimator here); it never changes the result.
MrtResult mrt_schedule(const jobs::Instance& instance, double eps,
                       const EstimatorResult* estimate = nullptr);

}  // namespace moldable::core
