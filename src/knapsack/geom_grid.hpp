// Geometric value sets (Definition 13) and the adaptive normalization grid
// of Lemma 12 / Figure 4.
//
// geom(L, U, x) = { L * x^i : i = 0, ..., ceil(log_x(U/L)) } — note the last
// element may overshoot U by a factor < x. Lemma 14: for 1 < x < 2 its
// cardinality is O(log(U/L) / (x-1)).
//
// The NormalizationGrid partitions [alpha_0, alpha_k] into intervals
// I(i) = [alpha_{i-1}, alpha_i), each subdivided into subintervals of width
// U_i = rho / ((1-rho) * nbar) * alpha_i, and normalizes a size s down to
// the lower edge of its subinterval. Per Lemma 12 each interval has O(nbar)
// subintervals, so the whole grid has O(nbar * |A|) points; a solution of at
// most nbar normalized additions underestimates its true size by at most
// nbar * U_i, which compression absorbs (Eq. (14)).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/util/arena.hpp"
#include "src/util/common.hpp"

namespace moldable::knapsack {

/// Definition 13. Requires 0 < L <= U and x > 1.
std::vector<double> geom_set(double L, double U, double x);

/// The same set carved from `arena` (valid until the caller's frame
/// rewinds).
std::span<const double> geom_set(util::ScratchArena& arena, double L, double U, double x);

/// gcheck-round-down: max{a' in geom(L,U,x) : a' <= a}. Requires a >= L.
double round_down_geom(double a, double L, double U, double x);

/// ghat-round-up: min{a' in geom(L,U,x) : a' >= a}. Requires a <= max geom.
double round_up_geom(double a, double L, double U, double x);

/// Storage lives on the calling thread's scratch arena inside a frame the
/// destructor rewinds: grids, pair lists and runs are destroyed in LIFO
/// order (see ParetoRun).
class NormalizationGrid {
 public:
  /// `capacities` = A sorted ascending with alpha_{i} - alpha_{i-1} <=
  /// rho * alpha_i (satisfied by geometric sets of ratio 1/(1-rho));
  /// alpha_0 = alpha_min is the lower bound on any non-zero capacity.
  /// `nbar` is the bound on normalized additions per solution; callers that
  /// reconstruct solutions by divide-and-conquer must double it (each
  /// combine step adds one extra normalization).
  ///
  /// Construction stops as soon as size() reaches `max_points`: a caller
  /// that only wants the grid below some size learns size() >= max_points
  /// without paying for the rest. Such a grid is incomplete — use it for
  /// that size test only.
  NormalizationGrid(std::span<const double> capacities, double alpha_min, double rho,
                    procs_t nbar, std::size_t max_points = SIZE_MAX);
  NormalizationGrid(const NormalizationGrid&) = delete;
  NormalizationGrid& operator=(const NormalizationGrid&) = delete;

  /// Largest grid point <= s, or nullopt when s exceeds the largest
  /// capacity's interval (the pair is infeasible for every capacity in A).
  std::optional<double> normalize(double s) const;

  /// Number of grid points (Figure 4's subinterval count + 1 for zero).
  std::size_t size() const { return points_len_; }

  /// Subinterval count of interval I(i), for the Figure 4 bench.
  std::span<const std::size_t> per_interval_counts() const { return per_interval_; }

  double max_value() const { return points_[points_len_ - 1]; }
  std::span<const double> points() const { return {points_, points_len_}; }

 private:
  util::ScratchArena::Frame frame_;
  const double* points_ = nullptr;  ///< sorted ascending, starts at 0
  std::size_t points_len_ = 0;
  util::ScratchList<std::size_t> per_interval_;
};

}  // namespace moldable::knapsack
