#include "src/core/bounded_sched.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/knapsack/bounded.hpp"
#include "src/knapsack/compressible.hpp"

namespace moldable::core {

DualOutcome bounded_dual(const jobs::Instance& instance, double d, double eps,
                         const BoundedDualOptions& options) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("bounded_dual: eps must be in (0, 1]");
  if (!(d > 0)) return DualOutcome::reject();
  if (deadline_infeasible(instance, d)) return DualOutcome::reject();

  const procs_t m = instance.machines();
  const double delta = eps / 5;
  const knapsack::BoundedRounding R = knapsack::BoundedRounding::make(d, delta, m);
  const double d_prime = (1 + delta) * (1 + delta) * d;

  const BigSmallSplit split = split_small_big(instance, d);

  std::vector<std::size_t> s1_jobs;
  std::vector<std::size_t> free_jobs;
  procs_t capacity = m;
  for (std::size_t j : split.big) {
    const jobs::Job& job = instance.job(j);
    const auto g1 = job.gamma(d);
    check_invariant(g1.has_value(), "bounded_dual: gamma(d) undefined");
    if (!leq_tol(job.tmin(), d / 2)) {
      s1_jobs.push_back(j);
      capacity -= *g1;
    } else {
      free_jobs.push_back(j);
    }
  }
  if (capacity < 0) return DualOutcome::reject();

  if (!free_jobs.empty()) {
    // Round jobs into types and expand into binary containers (Sec. 4.3.1).
    std::vector<knapsack::RoundedBigJob> rounded;
    rounded.reserve(free_jobs.size());
    for (std::size_t j : free_jobs) rounded.push_back(knapsack::round_big_job(instance, j, R));
    const knapsack::BoundedInstance bk(rounded);

    // sigma: (1-sigma)^2 = (1-rho)^2 (1+rho) pays for size rounding plus
    // Lemma 16 compression (header comment).
    const double sigma = 1 - std::sqrt((1 - R.rho) * (1 - R.rho) * (1 + R.rho));
    check_invariant(sigma > 0 && sigma <= 0.25, "bounded_dual: sigma out of range");

    knapsack::CompressibleInput in;
    in.items = bk.items();
    in.compressible = bk.compressible();
    in.capacity = capacity;
    in.rho = sigma;
    const double amin = bk.min_compressible_size();
    in.alpha_min = amin > 0 ? amin : R.b;
    in.beta_max = capacity;
    in.nbar = static_cast<procs_t>(std::floor(static_cast<double>(capacity) / R.b /
                                              (1 - sigma))) +
              2;
    const knapsack::CompressibleSolution sol = knapsack::solve_compressible(in);
    for (std::size_t j : bk.unpack(sol.chosen)) s1_jobs.push_back(j);
  }

  const auto policy = options.linear_variant ? sched::TransformPolicy::kBucketed
                                             : sched::TransformPolicy::kExactHeap;
  auto schedule = assemble_schedule(instance, d_prime, s1_jobs, policy, delta);
  if (!schedule) return DualOutcome::reject();
  return DualOutcome::accept(std::move(*schedule));
}

BoundedSchedResult bounded_schedule(const jobs::Instance& instance, double eps, bool linear,
                                    const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("bounded_schedule: eps in (0, 1]");
  if (instance.size() == 0) return {};
  const double eps_d = eps / 2;
  const double eps_s = (eps / 2) / (1.5 + eps_d);
  const double omega = estimate ? estimate->omega : estimate_makespan(instance).omega;
  const BoundedDualOptions opts{linear};
  DualSearchResult sr = dual_search(
      [&](double d) { return bounded_dual(instance, d, eps_d, opts); }, omega, eps_s);
  return {std::move(sr.schedule), sr.lower_bound, sr.dual_calls};
}

}  // namespace moldable::core
