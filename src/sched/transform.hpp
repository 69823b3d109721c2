// The transformation rules of Lemma 7 (Section 4.1.1, Figure 3): turn a
// possibly-infeasible two-shelf schedule into a feasible three-shelf
// schedule of makespan (3/2)d on at most m processors.
//
// The three rules, applied exhaustively:
//   (i)   j in S1 with t_j <= (3/4)d and procs > 1 moves to shelf S0 with
//         procs-1 processors (monotony bounds its new time by 2 t_j <= 3/2 d);
//   (ii)  two S1 jobs with t <= (3/4)d and procs == 1 stack on one S0
//         processor; a single unpaired such job may instead stack on top of
//         an S1 job j' with t_{j'} > (3/4)d when t_j + t_{j'} <= (3/2)d
//         (the "split" special case of [21]);
//   (iii) an S2 job fitting the q = m - (p0 + p1) currently-free processors
//         within (3/2)d moves to S0 (if its new time exceeds d) or S1.
//
// Organization of the S1 candidates for the special case of rule (ii) is
// what distinguishes the two policies of the paper:
//   kExactHeap  — min-heap keyed by exact t_j (Section 4.1.1, O(n log n));
//   kBucketed   — O(1/delta) buckets keyed by t_j rounded down to
//                 geom(d/2, d, 1+4rho) (Section 4.3.3, O(n/delta) total).
// The special case consumes at most one candidate per transformation (there
// is at most one leftover unpaired job), so both organizations reduce to a
// running minimum that the code keeps instead of a heap or bucket table,
// with the same answer: the earliest entry among equal exact times, or the
// latest entry of the lowest bucket.
// The bucketed policy underestimates times by a factor <= (1+4rho), so a
// stacked pair may exceed (3/2)d by up to delta*d; the caller accounts for
// this in its makespan guarantee ((3/2(1+delta)^2 + delta)d in the paper).
#pragma once

#include <cstddef>
#include <span>

#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"
#include "src/sched/shelves.hpp"

namespace moldable::sched {

enum class TransformPolicy {
  kExactHeap,  ///< Section 4.1.1: exact processing times, min-heap
  kBucketed,   ///< Section 4.3.3: geometrically rounded times, bucket lists
};

/// A maximal run of processors with identical occupancy: `count` processors
/// each busy during [0, head] and [horizon - tail, horizon]. The free
/// window [head, horizon - tail] is where small jobs are inserted.
struct ProcGroup {
  procs_t count = 0;
  double head = 0;
  double tail = 0;
  bool from_s0 = false;  ///< true for S0/stacked processors; these never
                         ///< receive S2 tails (they may run past d)
};

struct ThreeShelfSchedule {
  std::span<const ProcGroup> groups;  ///< occupancy of all m processors
  procs_t p0 = 0, p1 = 0, p2 = 0;
  double horizon = 0;            ///< (3/2) d
  double slack = 0;              ///< extra height used beyond horizon
                                 ///< (only the bucketed policy, <= delta*d)
};

/// Applies the rules exhaustively, appending one placement per big job to
/// `big_jobs`. `delta` parameterizes the bucketed policy's rounding
/// (rho = (sqrt(1+delta)-1)/4 as in Lemma 16); ignored for kExactHeap.
/// The groups live on the calling thread's scratch arena, in the caller's
/// frame. Throws internal_error if the fixpoint violates Lemma 8
/// (p0 + p1 > m or p0 + p2 > m), which cannot happen when the caller's work
/// bound W <= m*d - W_S(d) holds.
ThreeShelfSchedule apply_transformation_rules(const jobs::Instance& instance,
                                              const TwoShelfSchedule& two_shelf,
                                              TransformPolicy policy, double delta,
                                              AssignmentList& big_jobs);

}  // namespace moldable::sched
