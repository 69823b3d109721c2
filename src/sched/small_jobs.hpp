// Re-adding the small jobs (Section 4.1, Lemma 9).
//
// After the transformation rules, each processor's busy time is adjacent to
// the schedule boundaries: a head segment [0, head] (shelves S0/S1, stacks)
// and a tail segment [horizon - tail, horizon] (shelf S2). The small jobs —
// those with t_j(1) <= d/2 — are inserted one processor at a time with a
// next-fit sweep over the free windows [head, horizon - tail]. Lemma 9
// guarantees this always succeeds when the schedule's total work is at most
// m*d - W_S(d): a processor is only skipped when its load exceeds
// horizon - d/2 = d, and all m processors loaded beyond d would contradict
// the work bound.
//
// Runs in O(#small jobs + #groups); groups number O(n) by construction.
#pragma once

#include <cstddef>
#include <span>

#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"
#include "src/sched/transform.hpp"

namespace moldable::sched {

struct SmallJobRef {
  std::size_t job = 0;
  double t1 = 0;  ///< t_j(1), the sequential time used for placement
};

/// Appends one single-processor assignment per small job to `schedule`.
/// Throws internal_error when a job cannot be placed (impossible under the
/// Lemma 9 work bound; reachable only if the caller skipped the bound).
void insert_small_jobs(AssignmentList& schedule, std::span<const ProcGroup> groups,
                       double horizon, std::span<const SmallJobRef> small_jobs);

}  // namespace moldable::sched
