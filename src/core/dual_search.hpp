// The dual-approximation framework of Hochbaum & Shmoys [8] (Section 3):
// a c-dual algorithm — given deadline d it either returns a schedule of
// makespan <= c*d or correctly reports that no schedule of makespan d
// exists — combined with a 2-estimator yields a c(1+eps)-approximation with
// O(log 1/eps) dual calls, by bisecting d over [omega, 2 omega].
//
// Dual calls run in scratch: the search carves two assignment buffers once
// from the thread's scratch arena, a call writes its candidate into one
// and returns accept or reject, and an accept swaps the buffers. Only the
// winning buffer becomes a sched::Schedule, once, when the search ends.
#pragma once

#include <stdexcept>
#include <utility>

#include "src/sched/schedule.hpp"
#include "src/util/arena.hpp"
#include "src/util/common.hpp"

namespace moldable::core {

/// A dual call's result for callers outside the search (tests, benches):
/// the scratch path's candidate, materialized when accepted.
struct DualOutcome {
  bool accepted = false;
  sched::Schedule schedule;  ///< valid iff accepted
};

struct DualSearchResult {
  sched::Schedule schedule;
  double d_accepted = 0;   ///< smallest accepted deadline (<= (1+eps) OPT)
  double lower_bound = 0;  ///< largest value known to be <= OPT
  int dual_calls = 0;
};

/// Bisects d in [omega, 2*omega] until the bracket is within a factor
/// (1+eps_search). Returns the schedule of the smallest accepted d, which
/// has makespan <= c * (1+eps_search) * OPT for a c-dual `dual`.
///
/// `dual(d, out)` is a dual algorithm: it writes a schedule of makespan
/// <= c*d into the empty `out` (at most `max_assignments` entries) and
/// returns true, or returns false — only when no schedule of makespan d
/// exists. It may leave partial output behind when it rejects.
/// Requires omega > 0 (use an empty schedule directly for empty instances).
template <typename Dual>
DualSearchResult dual_search(Dual&& dual, std::size_t max_assignments, double omega,
                             double eps_search) {
  if (!(omega > 0)) throw std::invalid_argument("dual_search: omega must be positive");
  if (!(eps_search > 0)) throw std::invalid_argument("dual_search: eps must be positive");

  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  sched::AssignmentList best(arena, max_assignments);
  sched::AssignmentList candidate(arena, max_assignments);
  const auto call = [&](double d) {
    candidate.clear();
    return dual(d, candidate);
  };

  DualSearchResult res;
  res.lower_bound = omega;

  // The estimator guarantees OPT <= 2 omega, so a correct dual must accept
  // d = 2 omega. Retry with small head-room to absorb floating-point edge
  // cases before declaring the dual broken.
  double hi = 2 * omega;
  int attempts = 0;
  for (;;) {
    const bool accepted = call(hi);
    ++res.dual_calls;
    if (accepted) break;
    if (++attempts > 8)
      throw internal_error("dual_search: dual rejected 2*omega repeatedly");
    hi *= 1.01;
  }
  std::swap(best, candidate);
  res.d_accepted = hi;

  double lo = omega;  // OPT >= omega always; raised on every rejection
  while (hi > lo * (1 + eps_search)) {
    const double mid = 0.5 * (lo + hi);
    const bool accepted = call(mid);
    ++res.dual_calls;
    if (accepted) {
      hi = mid;
      std::swap(best, candidate);
      res.d_accepted = mid;
    } else {
      lo = mid;  // rejection certifies OPT > mid
      res.lower_bound = mid;
    }
  }
  res.schedule = sched::Schedule(best);
  return res;
}

/// Runs one scratch-path dual call `dual(out)` on a fresh n-entry buffer
/// and materializes its schedule when it accepts.
template <typename Dual>
DualOutcome run_dual(Dual&& dual, std::size_t max_assignments) {
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  sched::AssignmentList out(arena, max_assignments);
  DualOutcome outcome;
  outcome.accepted = dual(out);
  if (outcome.accepted) outcome.schedule = sched::Schedule(out);
  return outcome;
}

}  // namespace moldable::core
