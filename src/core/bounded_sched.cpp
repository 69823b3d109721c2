#include "src/core/bounded_sched.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/knapsack/bounded.hpp"
#include "src/knapsack/compressible.hpp"

namespace moldable::core {

bool bounded_dual(const jobs::Instance& instance, double d, double eps,
                  const BoundedDualOptions& options, sched::AssignmentList& out) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("bounded_dual: eps must be in (0, 1]");
  if (!(d > 0)) return false;
  if (deadline_infeasible(instance, d)) return false;

  const procs_t m = instance.machines();
  const double delta = eps / 5;
  const knapsack::BoundedRounding R = knapsack::BoundedRounding::make(d, delta, m);
  const double d_prime = (1 + delta) * (1 + delta) * d;

  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  ShelfCandidates c = shelf_candidates(instance, d);  // s1_jobs: forced + selected
  if (c.capacity < 0) return false;

  if (!c.free_jobs.empty()) {
    // Round jobs into types and expand into binary containers (Sec. 4.3.1).
    util::ScratchList<knapsack::RoundedBigJob> rounded(arena, c.free_jobs.size());
    for (std::size_t i = 0; i < c.free_jobs.size(); ++i) {
      const std::size_t j = c.free_jobs[i];
      const auto g2 = instance.job(j).gamma(d / 2);
      check_invariant(g2.has_value(), "bounded_dual: gamma(d/2) undefined for a free job");
      rounded.push_back(knapsack::round_big_job(instance, j, c.free_gamma[i], *g2, R));
    }
    const knapsack::BoundedInstance bk(rounded);

    // sigma: (1-sigma)^2 = (1-rho)^2 (1+rho) pays for size rounding plus
    // Lemma 16 compression (header comment).
    const double sigma = 1 - std::sqrt((1 - R.rho) * (1 - R.rho) * (1 + R.rho));
    check_invariant(sigma > 0 && sigma <= 0.25, "bounded_dual: sigma out of range");

    knapsack::CompressibleParams params;
    params.capacity = c.capacity;
    params.rho = sigma;
    const double amin = bk.min_compressible_size();
    params.alpha_min = amin > 0 ? amin : R.b;
    params.beta_max = c.capacity;
    params.nbar = static_cast<procs_t>(std::floor(static_cast<double>(c.capacity) / R.b /
                                                  (1 - sigma))) +
                  2;
    util::ScratchList<std::size_t> chosen(arena, bk.num_items());
    knapsack::solve_compressible(bk.items(), bk.compressible(), params, chosen);
    bk.unpack(chosen, c.s1_jobs);
  }

  const auto policy = options.linear_variant ? sched::TransformPolicy::kBucketed
                                             : sched::TransformPolicy::kExactHeap;
  return assemble_schedule(instance, d_prime, c.s1_jobs, policy, delta, out);
}

DualOutcome bounded_dual(const jobs::Instance& instance, double d, double eps,
                         const BoundedDualOptions& options) {
  return run_dual(
      [&](sched::AssignmentList& out) { return bounded_dual(instance, d, eps, options, out); },
      instance.size());
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
      [&](double d, sched::AssignmentList& out) {
        return bounded_dual(instance, d, eps_d, opts, out);
      },
      instance.size(), omega, eps_s);
  return {std::move(sr.schedule), sr.lower_bound, sr.dual_calls};
}

}  // namespace moldable::core
