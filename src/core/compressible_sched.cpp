#include "src/core/compressible_sched.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/knapsack/compressible.hpp"

namespace moldable::core {

DualOutcome compressible_dual(const jobs::Instance& instance, double d, double eps) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("compressible_dual: eps must be in (0, 1]");
  if (!(d > 0)) return DualOutcome::reject();
  if (deadline_infeasible(instance, d)) return DualOutcome::reject();

  const procs_t m = instance.machines();
  const double rho_c = eps / 6;                      // compression factor
  const double sigma = 1 - std::sqrt(1 - rho_c);     // Algorithm 2 input
  const double d_prime = (1 + 4 * rho_c) * d;        // inflated level

  const BigSmallSplit split = split_small_big(instance, d);

  std::vector<std::size_t> s1_jobs;    // forced + knapsack-selected
  std::vector<std::size_t> free_jobs;  // knapsack candidates
  procs_t capacity = m;
  for (std::size_t j : split.big) {
    const jobs::Job& job = instance.job(j);
    const auto g1 = job.gamma(d);
    check_invariant(g1.has_value(), "compressible_dual: gamma(d) undefined");
    if (!leq_tol(job.tmin(), d / 2)) {
      s1_jobs.push_back(j);
      capacity -= *g1;
    } else {
      free_jobs.push_back(j);
    }
  }
  if (capacity < 0) return DualOutcome::reject();

  // Knapsack with compressible items over the unforced big jobs.
  knapsack::CompressibleInput in;
  in.capacity = capacity;
  in.rho = sigma;
  const double wide_threshold = 1.0 / rho_c;  // J^C = {gamma_j(d) >= 1/rho_c}
  for (std::size_t j : free_jobs) {
    const jobs::Job& job = instance.job(j);
    const procs_t g1 = *job.gamma(d);
    const procs_t g2 = *job.gamma(d / 2);
    const double v = std::max(0.0, job.work(g2) - job.work(g1));
    in.items.push_back({static_cast<double>(g1), v});
    in.compressible.push_back(static_cast<double>(g1) >= wide_threshold ? 1 : 0);
  }
  in.alpha_min = wide_threshold;
  in.beta_max = capacity;
  in.nbar = static_cast<procs_t>(std::floor(static_cast<double>(capacity) * rho_c /
                                            (1 - sigma))) +
            2;
  const knapsack::CompressibleSolution sol = knapsack::solve_compressible(in);
  for (std::size_t i : sol.chosen) s1_jobs.push_back(free_jobs[i]);

  // Assemble at the inflated level: gamma_j(d') allotments shrink the
  // selected wide jobs by at least the compression the knapsack assumed
  // (Lemma 4), so shelf 1 fits in m; Corollary 10 carries the work bound.
  auto schedule = assemble_schedule(instance, d_prime, s1_jobs,
                                    sched::TransformPolicy::kExactHeap, 0.2);
  if (!schedule) return DualOutcome::reject();
  return DualOutcome::accept(std::move(*schedule));
}

CompressibleSchedResult compressible_schedule(const jobs::Instance& instance, double eps,
                                              const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("compressible_schedule: eps in (0, 1]");
  if (instance.size() == 0) return {};
  // Split eps between the dual guarantee and the bisection so that
  // (3/2 + eps_d)(1 + eps_s) <= 3/2 + eps.
  const double eps_d = eps / 2;
  const double eps_s = (eps / 2) / (1.5 + eps_d);
  const double omega = estimate ? estimate->omega : estimate_makespan(instance).omega;
  DualSearchResult sr = dual_search(
      [&](double d) { return compressible_dual(instance, d, eps_d); }, omega, eps_s);
  return {std::move(sr.schedule), sr.lower_bound, sr.dual_calls};
}

}  // namespace moldable::core
