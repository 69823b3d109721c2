// Shared back-end of the three (3/2 + eps)-dual algorithms (Sections 4.1,
// 4.2.5, 4.3): small/big splitting, the work-bound test of Lemma 6 /
// Corollary 10, the Lemma 7 transformation, and Lemma 9 small-job
// insertion. Each front-end algorithm differs only in how it selects the
// shelf-1 set (exact knapsack, compressible knapsack, bounded knapsack) and
// at which deadline level d' it assembles.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/jobs/instance.hpp"
#include "src/knapsack/item.hpp"
#include "src/sched/schedule.hpp"
#include "src/sched/transform.hpp"
#include "src/util/arena.hpp"

namespace moldable::core {

/// Small/big split at deadline d (Section 4.1: small means t_j(1) <= d/2).
struct BigSmallSplit {
  util::ScratchList<std::size_t> big;
  util::ScratchList<std::size_t> small;
  double small_work = 0;  ///< W_S(d) = sum of t_j(1) over small jobs
};

/// The lists live on the calling thread's scratch arena, in the caller's
/// frame.
BigSmallSplit split_small_big(const jobs::Instance& instance, double d);

/// The shelf-1 pre-selection every (3/2 + eps)-dual opens with at deadline
/// d (Section 4.1): a big job with gamma_j(d/2) undefined (t_j(m) > d/2) is
/// forced into shelf 1 and reduces the knapsack capacity; every other big
/// job is a knapsack candidate, kept with its gamma_j(d).
struct ShelfCandidates {
  util::ScratchList<std::size_t> s1_jobs;    ///< the forced jobs (room for all big jobs)
  util::ScratchList<std::size_t> free_jobs;  ///< knapsack candidates
  util::ScratchList<procs_t> free_gamma;     ///< gamma_j(d), parallel to free_jobs
  procs_t capacity = 0;  ///< m minus the forced jobs' gamma_j(d); < 0 rejects d
};

/// Requires every job to be feasible at d (!deadline_infeasible). The lists
/// live on the calling thread's scratch arena, in the caller's frame.
ShelfCandidates shelf_candidates(const jobs::Instance& instance, double d);

/// Knapsack item of an unforced big job (Eq. (6)): size gamma_j(d), profit
/// v_j(d) = w_j(gamma_j(d/2)) - w_j(gamma_j(d)), the work saved by
/// promoting j to shelf 1.
knapsack::Item saved_work_item(const jobs::Job& job, procs_t gamma_d, double d);

/// Statistics of one assembly, for benches and EXPERIMENTS.md.
struct AssemblyStats {
  double work = 0;          ///< W(J', d) of the two-shelf schedule
  double work_bound = 0;    ///< m d - W_S(d)
  procs_t shelf1_procs = 0;
  procs_t shelf2_procs = 0;  ///< may exceed m (Fig. 2)
  procs_t p0 = 0, p1 = 0, p2 = 0;  ///< after the transformation (Fig. 3)
};

/// Assembles the final schedule at deadline level `d_level` into `out`
/// (one assignment per job; all working lists live in a scratch frame
/// rewound on return):
///   1. splits small/big at d_level; shelf 1 = s1_jobs ∩ big(d_level)
///      (Corollary 10's J''), shelf 2 = the other big jobs;
///   2. rejects (false) if shelf 1 overflows m processors or the work
///      bound W > m*d_level - W_S(d_level) fails;
///   3. applies the Lemma 7 transformation (policy/delta as given) and
///      inserts the small jobs next-fit.
/// `s1_jobs` must contain every job with t_j(m) > d_level/2 (forced jobs).
/// A transformation fixpoint that violates Lemma 8 also yields false —
/// by Lemma 7 that cannot happen when the work bound holds, so it is
/// counted separately in `stats` consumers via the thrown-path being
/// converted to rejection.
bool assemble_schedule(const jobs::Instance& instance, double d_level,
                       std::span<const std::size_t> s1_jobs, sched::TransformPolicy policy,
                       double delta, sched::AssignmentList& out,
                       AssemblyStats* stats = nullptr);

/// The scratch assembly above on a fresh buffer, materialized when it
/// succeeds (nullopt on rejection).
std::optional<sched::Schedule> assemble_schedule(const jobs::Instance& instance,
                                                 double d_level,
                                                 const std::vector<std::size_t>& s1_jobs,
                                                 sched::TransformPolicy policy,
                                                 double delta,
                                                 AssemblyStats* stats = nullptr);

/// Front-end deadline test shared by all duals: a deadline d is hopeless
/// when some job cannot finish by d even on all m machines.
bool deadline_infeasible(const jobs::Instance& instance, double d);

}  // namespace moldable::core
