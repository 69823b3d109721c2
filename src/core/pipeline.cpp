#include "src/core/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "src/core/dual_search.hpp"
#include "src/sched/shelves.hpp"
#include "src/sched/small_jobs.hpp"

namespace moldable::core {

BigSmallSplit split_small_big(const jobs::Instance& instance, double d) {
  util::ScratchArena& arena = util::scratch_arena();
  BigSmallSplit out{util::ScratchList<std::size_t>(arena, instance.size()),
                    util::ScratchList<std::size_t>(arena, instance.size())};
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const jobs::Job& job = instance.job(j);
    if (leq_tol(job.t1(), d / 2)) {
      out.small.push_back(j);
      out.small_work += job.t1();
    } else {
      out.big.push_back(j);
    }
  }
  return out;
}

bool deadline_infeasible(const jobs::Instance& instance, double d) {
  for (const jobs::Job& job : instance.jobs())
    if (!leq_tol(job.tmin(), d)) return true;
  return false;
}

ShelfCandidates shelf_candidates(const jobs::Instance& instance, double d) {
  util::ScratchArena& arena = util::scratch_arena();
  const BigSmallSplit split = split_small_big(instance, d);
  const std::size_t n_big = split.big.size();
  ShelfCandidates out{util::ScratchList<std::size_t>(arena, n_big),
                      util::ScratchList<std::size_t>(arena, n_big),
                      util::ScratchList<procs_t>(arena, n_big), instance.machines()};
  for (std::size_t j : split.big) {
    const jobs::Job& job = instance.job(j);
    const auto g1 = job.gamma(d);
    check_invariant(g1.has_value(), "dual: gamma(d) undefined after the feasibility test");
    if (!leq_tol(job.tmin(), d / 2)) {
      out.s1_jobs.push_back(j);
      out.capacity -= *g1;
    } else {
      out.free_jobs.push_back(j);
      out.free_gamma.push_back(*g1);
    }
  }
  return out;
}

knapsack::Item saved_work_item(const jobs::Job& job, procs_t gamma_d, double d) {
  const procs_t g2 = *job.gamma(d / 2);
  // Monotone work makes the profit non-negative; numerical noise is
  // clamped so the knapsack engines' precondition holds.
  return {static_cast<double>(gamma_d), std::max(0.0, job.work(g2) - job.work(gamma_d))};
}

bool assemble_schedule(const jobs::Instance& instance, double d_level,
                       std::span<const std::size_t> s1_jobs, sched::TransformPolicy policy,
                       double delta, sched::AssignmentList& out, AssemblyStats* stats) {
  const procs_t m = instance.machines();
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  const BigSmallSplit split = split_small_big(instance, d_level);

  // Shelf membership: J'' = s1_jobs ∩ big(d_level). Jobs of s1_jobs that
  // are small at this level rejoin the small set automatically (they are in
  // split.small), which is exactly the Corollary 10 argument.
  char* s1_mark = arena.alloc_zeroed<char>(instance.size());
  for (std::size_t j : s1_jobs) s1_mark[j] = 1;
  util::ScratchList<char> in_shelf1(arena, split.big.size());
  for (std::size_t j : split.big) {
    const jobs::Job& job = instance.job(j);
    const bool forced = !leq_tol(job.tmin(), d_level / 2);  // gamma(d/2) undefined
    if (forced && !s1_mark[j]) return false;  // caller broke the contract
    in_shelf1.push_back((s1_mark[j] || forced) ? 1 : 0);
  }

  const sched::TwoShelfSchedule two = sched::build_two_shelf(instance, split.big, in_shelf1,
                                                             d_level);
  const double work = two.work();
  const double bound = static_cast<double>(m) * d_level - split.small_work;
  if (stats) {
    stats->work = work;
    stats->work_bound = bound;
    stats->shelf1_procs = two.procs_s1();
    stats->shelf2_procs = two.procs_s2();
  }
  if (two.procs_s1() > m) return false;  // shelf 1 must fit as-is
  if (!leq_tol(work, bound)) return false;  // Lemma 6 rejection

  sched::ThreeShelfSchedule three;
  try {
    three = sched::apply_transformation_rules(instance, two, policy, delta, out);
  } catch (const internal_error&) {
    // Lemma 7 guarantees success under the work bound, so this path is
    // unreachable for correct inputs; treat defensively as a rejection
    // (sound: rejecting more often never violates dual correctness for
    // d < OPT, and for d >= OPT the lemma applies).
    return false;
  }

  if (stats) {
    stats->p0 = three.p0;
    stats->p1 = three.p1;
    stats->p2 = three.p2;
  }

  util::ScratchList<sched::SmallJobRef> smalls(arena, split.small.size());
  for (std::size_t j : split.small) smalls.push_back({j, instance.job(j).t1()});
  try {
    sched::insert_small_jobs(out, three.groups, three.horizon, smalls);
  } catch (const internal_error&) {
    return false;  // Lemma 9: unreachable under the work bound
  }
  return true;
}

std::optional<sched::Schedule> assemble_schedule(const jobs::Instance& instance,
                                                 double d_level,
                                                 const std::vector<std::size_t>& s1_jobs,
                                                 sched::TransformPolicy policy, double delta,
                                                 AssemblyStats* stats) {
  DualOutcome r = run_dual(
      [&](sched::AssignmentList& out) {
        return assemble_schedule(instance, d_level, s1_jobs, policy, delta, out, stats);
      },
      instance.size());
  if (!r.accepted) return std::nullopt;
  return std::move(r.schedule);
}

}  // namespace moldable::core
