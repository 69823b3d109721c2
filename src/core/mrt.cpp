#include "src/core/mrt.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/knapsack/dense_dp.hpp"

namespace moldable::core {

DualOutcome mrt_dual(const jobs::Instance& instance, double d) {
  if (!(d > 0)) return DualOutcome::reject();
  if (deadline_infeasible(instance, d)) return DualOutcome::reject();
  const procs_t m = instance.machines();
  const BigSmallSplit split = split_small_big(instance, d);

  // Forced shelf-1 jobs: gamma_j(d/2) undefined (t_j(m) > d/2). They reduce
  // the knapsack capacity (Section 4.1).
  std::vector<std::size_t> s1_jobs;
  std::vector<std::size_t> free_jobs;  // knapsack candidates
  procs_t capacity = m;
  for (std::size_t j : split.big) {
    const jobs::Job& job = instance.job(j);
    const auto g1 = job.gamma(d);
    check_invariant(g1.has_value(), "mrt_dual: gamma(d) undefined after feasibility test");
    if (!leq_tol(job.tmin(), d / 2)) {
      s1_jobs.push_back(j);
      capacity -= *g1;
    } else {
      free_jobs.push_back(j);
    }
  }
  if (capacity < 0) return DualOutcome::reject();

  // Knapsack KP(J_B(d), m, d): sizes gamma_j(d), profits v_j(d) (Eq. (6)).
  std::vector<knapsack::Item> items;
  items.reserve(free_jobs.size());
  for (std::size_t j : free_jobs) {
    const jobs::Job& job = instance.job(j);
    const procs_t g1 = *job.gamma(d);
    const procs_t g2 = *job.gamma(d / 2);
    // Monotone work makes the profit non-negative; numerical noise is
    // clamped so the DP's precondition holds.
    const double v = std::max(0.0, job.work(g2) - job.work(g1));
    items.push_back({static_cast<double>(g1), v});
  }
  const knapsack::Solution sol = knapsack::solve_dense(items, capacity);
  for (std::size_t i : sol.chosen) s1_jobs.push_back(free_jobs[i]);

  auto schedule = assemble_schedule(instance, d, s1_jobs,
                                    sched::TransformPolicy::kExactHeap, 0.2);
  if (!schedule) return DualOutcome::reject();
  return DualOutcome::accept(std::move(*schedule));
}

MrtResult mrt_schedule(const jobs::Instance& instance, double eps,
                       const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1) throw std::invalid_argument("mrt_schedule: eps in (0, 1]");
  if (instance.size() == 0) return {};
  const double omega = estimate ? estimate->omega : estimate_makespan(instance).omega;
  // (3/2)(1 + eps_s) <= 3/2 + eps  <=>  eps_s = (2/3) eps.
  const double eps_s = (2.0 / 3.0) * eps;
  DualSearchResult sr =
      dual_search([&](double d) { return mrt_dual(instance, d); }, omega, eps_s);
  return {std::move(sr.schedule), sr.lower_bound, sr.dual_calls};
}

}  // namespace moldable::core
