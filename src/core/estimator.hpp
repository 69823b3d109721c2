// The Ludwig-Tiwari estimation algorithm (Section 3 / [18]).
//
// For an allotment a let A(a) = (1/m) sum_j w_j(a_j) (average work) and
// T(a) = max_j t_j(a_j). Both are lower bounds on the makespan of any
// schedule with allotment a, so
//     omega = min_a max(A(a), T(a)) <= OPT,
// and conversely Graham-style list scheduling of the minimizing allotment
// has makespan <= 2 max(A, T), giving OPT <= 2 omega: an estimation ratio
// of 2. (Eq. (2) of the paper prints "min" of the two quantities; the
// quantity that makes the estimator work — and what [18] computes — is the
// max, which is what we implement.)
//
// For monotone jobs the minimizing allotment can be restricted to the
// canonical family a_j = gamma_j(tau): fixing the time threshold tau, the
// work-minimal allotment meeting it is gamma_j(tau). A(tau) is then
// non-increasing and T(tau) non-decreasing in tau, so the optimum sits at a
// breakpoint tau in {t_j(k)}. We locate it by parametric search over the n
// per-job candidate ranges using weighted-median pivots: O(log(nm)) rounds,
// each evaluating one pivot.
//
// Narrowing never re-searches discarded candidates. Every pivot lies
// strictly between the last go-up pivot tau_up and the last go-down pivot
// tau_down, and gamma_j is non-increasing in tau under (P1), so
// gamma_j(tau) lies in the per-job bracket [gamma_j(tau_down),
// gamma_j(tau_up)]. An evaluation binary-searches only inside that bracket
// and keeps t_j(gamma_j) beside gamma_j, so A and T cost no further probes.
// Narrowing reuses the evaluation's gamma: go-up sets hi_j = gamma_j - 1,
// and go-down sets lo_j = gamma_j whenever t_j(gamma_j) < tau (one
// comparison; otherwise an O(log m) search). The winning evaluation's
// gamma vector is the allotment.
//
// Probe bound: a round costs one median probe per active job plus, per job,
// ceil(log2 b_j) probes for a bracket of width b_j (at most m; in the
// common case the job's remaining candidate range plus one, and a single
// value once the range is empty) — O(n log m) per round in the worst case,
// O(n log m log(nm)) overall, matching the O(n log^2 m) budget the paper
// allots to this step, and far fewer in practice since brackets shrink with
// the candidate ranges. Results are bit-identical to a search over all of
// [1, m] on every instance satisfying (P1).
#pragma once

#include <cstdint>
#include <vector>

#include "src/jobs/instance.hpp"
#include "src/util/common.hpp"

namespace moldable::core {

struct EstimatorResult {
  double omega = 0;      ///< min over breakpoints of max(A, T); omega <= OPT <= 2 omega
  double threshold = 0;  ///< the minimizing tau
  double avg_work = 0;   ///< A at the optimum
  double max_time = 0;   ///< T at the optimum
  std::vector<procs_t> allotment;  ///< gamma_j(threshold)
  int evaluations = 0;   ///< number of threshold evaluations (diagnostics)
};

/// Runs the estimator. Requires a non-empty instance with monotone jobs.
EstimatorResult estimate_makespan(const jobs::Instance& instance);

/// Number of estimate_makespan calls in this process so far (relaxed
/// atomic; diagnostics only — tests pin the one-run-per-instance rule
/// with it, and no result, digest or report reads it).
std::uint64_t estimator_runs();

}  // namespace moldable::core
