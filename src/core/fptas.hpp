// Theorem 2: an FPTAS for large machine counts (Section 3).
//
// The (1+eps)-dual algorithm is one line: allot gamma_j((1+eps) d) to every
// job and run them all in parallel at time 0; reject when that needs more
// than m processors. Correctness of rejection (the heart of Theorem 2) uses
// compression: for d >= OPT, compressing every job allotted >= 4/eps
// processors with factor eps/4 frees enough processors that the canonical
// allotment fits in m whenever m >= 8n/eps — see Section 3.1 / Lemma 5.
//
// Combined with the estimator and the dual search, the full algorithm runs
// in O(n log^2 m (log m + log 1/eps)) and returns a schedule of makespan at
// most (1 + eps) OPT.
#pragma once

#include "src/core/dual_search.hpp"
#include "src/core/estimator.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::core {

/// The (1+eps_d)-dual algorithm of Theorem 2, written into `out` (see
/// dual_search). Valid (i.e. rejection is sound) whenever m >= 8n/eps_d;
/// the caller enforces that.
bool fptas_dual(const jobs::Instance& instance, double d, double eps_d,
                sched::AssignmentList& out);

/// The same call on a fresh buffer, materialized when accepted.
DualOutcome fptas_dual(const jobs::Instance& instance, double d, double eps_d);

struct FptasResult {
  sched::Schedule schedule;
  double lower_bound = 0;  ///< certified lower bound on OPT
  int dual_calls = 0;
};

/// Full FPTAS: makespan <= (1+eps) OPT. Requires eps in (0, 1] and
/// m >= 24 n / eps (the internal dual accuracy is eps/3, so the Theorem 2
/// threshold m >= 8n/eps_d becomes 24n/eps); throws std::invalid_argument
/// otherwise — callers below the threshold should use the (3/2 + eps)
/// algorithms (that is the paper's Section 3.2 composition).
/// `estimate`: the instance's estimate_makespan result when the caller
/// holds it (null runs the estimator here); it never changes the result.
FptasResult fptas_schedule(const jobs::Instance& instance, double eps,
                           const EstimatorResult* estimate = nullptr);

/// The machine-count threshold above which fptas_schedule(eps) is valid.
double fptas_machine_threshold(std::size_t n, double eps);

}  // namespace moldable::core
