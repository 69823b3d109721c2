// Two-shelf schedules (Section 4.1, Figure 2).
//
// The MRT dual algorithm first places the big jobs into two shelves: shelf
// S1 of height d (jobs run with gamma_j(d) processors) and shelf S2 of
// height d/2 (jobs run with gamma_j(d/2) processors). S1 must fit within m
// processors (that is the knapsack constraint); S2 may overflow m — the
// schedule is deliberately infeasible at this stage and is repaired by the
// transformation rules in transform.hpp.
#pragma once

#include <cstddef>
#include <span>

#include "src/jobs/instance.hpp"
#include "src/util/arena.hpp"
#include "src/util/common.hpp"

namespace moldable::sched {

struct ShelfEntry {
  std::size_t job = 0;
  procs_t procs = 0;  ///< gamma_j(d) for S1 entries, gamma_j(d/2) for S2
  double time = 0;    ///< t_j(procs), <= d resp. <= d/2
};

struct TwoShelfSchedule {
  double d = 0;  ///< shelf-1 height; shelf 2 has height d/2
  util::ScratchList<ShelfEntry> s1;
  util::ScratchList<ShelfEntry> s2;

  procs_t procs_s1() const;
  procs_t procs_s2() const;

  /// W(J', d) of Eq. (7): total work of the two-shelf placement.
  double work() const;
};

/// Builds the two-shelf schedule for the big jobs of deadline d: jobs in
/// `shelf1` are placed with gamma_j(d) processors, the rest of `big_jobs`
/// with gamma_j(d/2). Requires gamma to be defined for every placement
/// (callers guarantee this: shelf-1 membership is forced for any job with
/// t_j(m) > d/2). Throws internal_error otherwise. The shelves live on the
/// calling thread's scratch arena, in the caller's frame.
TwoShelfSchedule build_two_shelf(const jobs::Instance& instance,
                                 std::span<const std::size_t> big_jobs,
                                 std::span<const char> in_shelf1, double d);

}  // namespace moldable::sched
