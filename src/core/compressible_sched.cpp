#include "src/core/compressible_sched.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/knapsack/compressible.hpp"

namespace moldable::core {

bool compressible_dual(const jobs::Instance& instance, double d, double eps,
                       sched::AssignmentList& out) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("compressible_dual: eps must be in (0, 1]");
  if (!(d > 0)) return false;
  if (deadline_infeasible(instance, d)) return false;

  const double rho_c = eps / 6;                      // compression factor
  const double sigma = 1 - std::sqrt(1 - rho_c);     // Algorithm 2 input
  const double d_prime = (1 + 4 * rho_c) * d;        // inflated level

  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  ShelfCandidates c = shelf_candidates(instance, d);  // s1_jobs: forced + selected
  if (c.capacity < 0) return false;

  // Knapsack with compressible items over the unforced big jobs.
  const double wide_threshold = 1.0 / rho_c;  // J^C = {gamma_j(d) >= 1/rho_c}
  util::ScratchList<knapsack::Item> items(arena, c.free_jobs.size());
  util::ScratchList<char> compressible(arena, c.free_jobs.size());
  for (std::size_t i = 0; i < c.free_jobs.size(); ++i) {
    items.push_back(saved_work_item(instance.job(c.free_jobs[i]), c.free_gamma[i], d));
    compressible.push_back(static_cast<double>(c.free_gamma[i]) >= wide_threshold ? 1 : 0);
  }
  knapsack::CompressibleParams params;
  params.capacity = c.capacity;
  params.rho = sigma;
  params.alpha_min = wide_threshold;
  params.beta_max = c.capacity;
  params.nbar = static_cast<procs_t>(std::floor(static_cast<double>(c.capacity) * rho_c /
                                                (1 - sigma))) +
                2;
  util::ScratchList<std::size_t> chosen(arena, items.size());
  knapsack::solve_compressible(items, compressible, params, chosen);
  for (std::size_t i : chosen) c.s1_jobs.push_back(c.free_jobs[i]);

  // Assemble at the inflated level: gamma_j(d') allotments shrink the
  // selected wide jobs by at least the compression the knapsack assumed
  // (Lemma 4), so shelf 1 fits in m; Corollary 10 carries the work bound.
  return assemble_schedule(instance, d_prime, c.s1_jobs, sched::TransformPolicy::kExactHeap,
                           0.2, out);
}

DualOutcome compressible_dual(const jobs::Instance& instance, double d, double eps) {
  return run_dual(
      [&](sched::AssignmentList& out) { return compressible_dual(instance, d, eps, out); },
      instance.size());
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
      [&](double d, sched::AssignmentList& out) {
        return compressible_dual(instance, d, eps_d, out);
      },
      instance.size(), omega, eps_s);
  return {std::move(sr.schedule), sr.lower_bound, sr.dual_calls};
}

}  // namespace moldable::core
