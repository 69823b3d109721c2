#include "src/core/mrt.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/knapsack/dense_dp.hpp"

namespace moldable::core {

bool mrt_dual(const jobs::Instance& instance, double d, sched::AssignmentList& out) {
  if (!(d > 0)) return false;
  if (deadline_infeasible(instance, d)) return false;
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  ShelfCandidates c = shelf_candidates(instance, d);
  if (c.capacity < 0) return false;

  // Knapsack KP(J_B(d), m, d): sizes gamma_j(d), profits v_j(d) (Eq. (6)).
  util::ScratchList<knapsack::Item> items(arena, c.free_jobs.size());
  for (std::size_t i = 0; i < c.free_jobs.size(); ++i)
    items.push_back(saved_work_item(instance.job(c.free_jobs[i]), c.free_gamma[i], d));
  util::ScratchList<std::size_t> chosen(arena, items.size());
  knapsack::solve_dense(items, c.capacity, chosen);
  for (std::size_t i : chosen) c.s1_jobs.push_back(c.free_jobs[i]);

  return assemble_schedule(instance, d, c.s1_jobs, sched::TransformPolicy::kExactHeap, 0.2,
                           out);
}

DualOutcome mrt_dual(const jobs::Instance& instance, double d) {
  return run_dual([&](sched::AssignmentList& out) { return mrt_dual(instance, d, out); },
                  instance.size());
}

MrtResult mrt_schedule(const jobs::Instance& instance, double eps,
                       const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1) throw std::invalid_argument("mrt_schedule: eps in (0, 1]");
  if (instance.size() == 0) return {};
  const double omega = estimate ? estimate->omega : estimate_makespan(instance).omega;
  // (3/2)(1 + eps_s) <= 3/2 + eps  <=>  eps_s = (2/3) eps.
  const double eps_s = (2.0 / 3.0) * eps;
  DualSearchResult sr = dual_search(
      [&](double d, sched::AssignmentList& out) { return mrt_dual(instance, d, out); },
      instance.size(), omega, eps_s);
  return {std::move(sr.schedule), sr.lower_bound, sr.dual_calls};
}

}  // namespace moldable::core
