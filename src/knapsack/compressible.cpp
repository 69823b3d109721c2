#include "src/knapsack/compressible.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "src/knapsack/geom_grid.hpp"
#include "src/knapsack/pairlist.hpp"

namespace moldable::knapsack {

double solve_compressible(std::span<const Item> items, std::span<const char> compressible,
                          const CompressibleParams& params,
                          util::ScratchList<std::size_t>& chosen) {
  if (!(params.rho > 0) || params.rho > 0.25)
    throw std::invalid_argument("solve_compressible: rho must be in (0, 1/4]");
  if (items.size() != compressible.size())
    throw std::invalid_argument("solve_compressible: compressible flags size mismatch");
  if (params.capacity < 0) throw std::invalid_argument("solve_compressible: negative capacity");
  for (const Item& it : items)
    if (it.size < 0 || it.profit < 0)
      throw std::invalid_argument("solve_compressible: negative size or profit");

  const double rho = params.rho;
  const double rho_eff = 2 * rho - rho * rho;
  const double C = static_cast<double>(params.capacity);
  const procs_t beta_max = std::clamp<procs_t>(params.beta_max, 0, params.capacity);

  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);

  // Split the instance (original index kept for the final answer).
  const std::size_t n = items.size();
  util::ScratchList<Item> comp(arena, n), incomp(arena, n);
  util::ScratchList<std::size_t> comp_idx(arena, n), incomp_idx(arena, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (compressible[i]) {
      comp.push_back(items[i]);
      comp_idx.push_back(i);
    } else {
      incomp.push_back(items[i]);
      incomp_idx.push_back(i);
    }
  }
  // Both halves' chosen sets, allocated before any run opens its frame.
  util::ScratchList<std::size_t> comp_local(arena, comp.size());
  util::ScratchList<std::size_t> incomp_local(arena, incomp.size());

  const auto finish = [&] {
    const std::size_t first = chosen.size();
    for (std::size_t i : comp_local) chosen.push_back(comp_idx[i]);
    for (std::size_t i : incomp_local) chosen.push_back(incomp_idx[i]);
    std::sort(chosen.begin() + first, chosen.end());
    double profit = 0;
    double compressed_size = 0;
    for (std::size_t k = first; k < chosen.size(); ++k) {
      const std::size_t i = chosen[k];
      profit += items[i].profit;
      const double s = static_cast<double>(items[i].size);
      compressed_size += compressible[i] ? (1 - rho_eff) * s : s;
    }
    check_invariant(leq_tol(compressed_size, C),
                    "Theorem 15 violated: compressed solution exceeds capacity");
    return profit;
  };

  if (comp.empty()) {
    // Degenerate case: a plain knapsack over the incompressible items, one
    // forward run at beta_max.
    const auto cap = static_cast<double>(beta_max);
    ParetoRun(incomp, cap).solve(cap, incomp_local);
    return finish();
  }

  // Line 1 of Algorithm 2: there must always be C - beta_max space for the
  // compressible items, so alpha_min can be raised to that.
  double alpha_min = std::max(params.alpha_min, 1.0);
  alpha_min = std::max(alpha_min, C - static_cast<double>(beta_max));

  // Line 2: A = geom(alpha_min / (1-rho), C, 1/(1-rho)). Consecutive
  // elements satisfy alpha_i - alpha_{i-1} = rho * alpha_i exactly, the
  // premise of Lemma 12.
  const double x = 1.0 / (1.0 - rho);
  const double L = alpha_min * x;
  const std::span<const double> A = geom_set(arena, L, std::max(C, L), x);

  // Lines 3-4: the capacity left for incompressible items at each split.
  // beta(alpha) = C - (1-rho) * alpha >= 0 since alpha <= C / (1-rho).
  util::ScratchList<double> betas(arena, A.size() + 1);
  betas.push_back(static_cast<double>(beta_max));  // the alpha = 0 split
  for (double a : A) betas.push_back(std::max(0.0, C - (1 - rho) * a));
  double* comp_profit = arena.alloc_zeroed<double>(A.size() + 1);  // index 0 = alpha 0

  // Line 5: all incompressible sub-problems in one pass (Section 4.2.4). The
  // same forward run later reconstructs the winning split's set, so it is
  // cut at max(betas) and kept alive (arena frame) until the end.
  const ParetoRun incomp_run(incomp, *std::max_element(betas.begin(), betas.end()));

  // Line 6: all compressible sub-problems. Two engines:
  //  * when the normalization grid is at least as fine as the integral
  //    capacity range, normalization buys nothing — use the exact list
  //    (the grid stops growing at that size, since it is thrown away);
  //  * otherwise the normalized arena DP of Lemma 12.
  const double max_alpha = A.back();
  const std::size_t exact_points = static_cast<std::size_t>(params.capacity) + 2;
  const NormalizationGrid grid(A, alpha_min, rho, std::max<procs_t>(params.nbar, 1),
                               exact_points);
  std::optional<NormalizedPairList> norm_dp;
  bool exact_engine = grid.size() >= exact_points;  // grid finer than the integers
  if (!exact_engine) {
    try {
      norm_dp.emplace(comp, grid);
    } catch (const std::invalid_argument&) {
      exact_engine = true;  // arena blow-up: instance too dense for grid
    }
  }
  // The exact engine is one forward run up to max(A), shared by every split
  // like incomp_run (declared after it, so its arena frame unwinds first).
  std::optional<ParetoRun> comp_run;
  if (exact_engine) comp_run.emplace(comp, max_alpha);
  for (std::size_t ai = 0; ai < A.size(); ++ai)
    comp_profit[ai + 1] =
        exact_engine ? comp_run->profit_at(A[ai]) : norm_dp->profit_at(A[ai]);

  // Lines 7-9: combine and keep the best split.
  std::size_t best_split = 0;
  double best_total = -1;
  for (std::size_t k = 0; k < betas.size(); ++k) {
    const double total = comp_profit[k] + incomp_run.profit_at(betas[k]);
    if (total > best_total) {
      best_total = total;
      best_split = k;
    }
  }

  // Reconstruct both halves of the winning split.
  if (best_split > 0) {
    const double alpha = A[best_split - 1];
    if (exact_engine)
      comp_run->solve(alpha, comp_local);
    else
      norm_dp->reconstruct(alpha, comp_local);
  }
  incomp_run.solve(betas[best_split], incomp_local);
  return finish();
}

CompressibleSolution solve_compressible(const CompressibleInput& input) {
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  util::ScratchList<std::size_t> chosen(arena, input.items.size());
  CompressibleSolution sol;
  sol.profit = solve_compressible(input.items, input.compressible, input, chosen);
  sol.chosen.assign(chosen.begin(), chosen.end());
  sol.rho_effective = 2 * input.rho - input.rho * input.rho;
  for (std::size_t i : sol.chosen) {
    const double s = static_cast<double>(input.items[i].size);
    sol.compressed_size += input.compressible[i] ? (1 - sol.rho_effective) * s : s;
  }
  return sol;
}

}  // namespace moldable::knapsack
