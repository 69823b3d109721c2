// Algorithm 2 (Section 4.2.5, Theorem 15): knapsack with compressible items.
//
// An instance (I, Ic, C, rho) asks for a set I' maximizing profit subject to
//     sum_{i in I' ∩ Ic} (1-rho) s(i)  +  sum_{i in I' \ Ic} s(i)  <=  C.
//
// Algorithm 2 splits the capacity between compressible and incompressible
// items (Lemma 11), enumerates only O((1/rho) log(C/alpha_min)) candidate
// splits from a geometric progression (Definition 13 / Lemma 14), solves all
// incompressible sub-problems in one pass (Section 4.2.4) and all
// compressible sub-problems with the adaptive normalization of Lemma 12.
//
// Guarantee (Theorem 15): the returned set has profit at least
// OPT(I, ∅, C, 0) — the optimum *without* compression — and is feasible for
// compression factor rho' = 2 rho - rho^2 (half the compressibility pays for
// the capacity split approximation, half for the normalization).
#pragma once

#include <span>
#include <vector>

#include "src/knapsack/item.hpp"
#include "src/util/arena.hpp"

namespace moldable::knapsack {

/// Algorithm 2's parameters, everything but the items.
struct CompressibleParams {
  procs_t capacity = 0;            ///< C
  double rho = 0;                  ///< compression factor, in (0, 1/4]
  double alpha_min = 1;            ///< lower bound on any non-zero compressible space
                                   ///< (e.g. the minimum compressible item size)
  procs_t beta_max = 0;            ///< upper bound on incompressible space usage
  procs_t nbar = 1;                ///< max #compressible items in any solution
};

struct CompressibleInput : CompressibleParams {
  std::vector<Item> items;
  std::vector<char> compressible;  ///< parallel to items
};

struct CompressibleSolution {
  std::vector<std::size_t> chosen;
  double profit = 0;
  double rho_effective = 0;  ///< 2 rho - rho^2: the factor under which the
                             ///< solution is guaranteed feasible
  /// Compressed size sum_{Ic}(1-rho_eff) s + sum_{rest} s, for diagnostics.
  double compressed_size = 0;
};

/// Runs Algorithm 2. Throws std::invalid_argument on malformed input
/// (rho outside (0, 1/4], negative sizes, mismatched vectors).
CompressibleSolution solve_compressible(const CompressibleInput& input);

/// The same solve on borrowed items, with the chosen indices (ascending)
/// appended to `chosen`, which needs room for items.size() more; returns
/// the profit. All working memory is scratch: no heap allocation.
double solve_compressible(std::span<const Item> items, std::span<const char> compressible,
                          const CompressibleParams& params,
                          util::ScratchList<std::size_t>& chosen);

}  // namespace moldable::knapsack
