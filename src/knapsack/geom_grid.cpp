#include "src/knapsack/geom_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moldable::knapsack {

std::span<const double> geom_set(util::ScratchArena& arena, double L, double U, double x) {
  if (!(L > 0) || U < L) throw std::invalid_argument("geom_set: need 0 < L <= U");
  if (!(x > 1)) throw std::invalid_argument("geom_set: need x > 1");
  const auto count =
      static_cast<std::size_t>(std::ceil(std::log(U / L) / std::log(x))) + 1;
  double* out = arena.alloc<double>(count);
  double v = L;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = v;
    v *= x;
  }
  return {out, count};
}

std::vector<double> geom_set(double L, double U, double x) {
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  const std::span<const double> set = geom_set(arena, L, U, x);
  return {set.begin(), set.end()};
}

double round_down_geom(double a, double L, double U, double x) {
  if (a < L * (1 - kRelTol)) throw std::invalid_argument("round_down_geom: a < L");
  // Index via logarithms, then fix up against floating-point drift by
  // checking the neighbours.
  const double raw = std::log(a / L) / std::log(x);
  auto i = static_cast<std::int64_t>(std::floor(raw + kRelTol));
  const auto imax = static_cast<std::int64_t>(std::ceil(std::log(U / L) / std::log(x)));
  i = std::clamp<std::int64_t>(i, 0, imax);
  double v = L * std::pow(x, static_cast<double>(i));
  while (v > a * (1 + kRelTol) && i > 0) v = L * std::pow(x, static_cast<double>(--i));
  while (i + 1 <= imax && L * std::pow(x, static_cast<double>(i + 1)) <= a * (1 + kRelTol))
    v = L * std::pow(x, static_cast<double>(++i));
  return v;
}

double round_up_geom(double a, double L, double U, double x) {
  const auto imax = static_cast<std::int64_t>(std::ceil(std::log(U / L) / std::log(x)));
  if (a <= L) return L;
  const double raw = std::log(a / L) / std::log(x);
  auto i = static_cast<std::int64_t>(std::ceil(raw - kRelTol));
  i = std::clamp<std::int64_t>(i, 0, imax);
  double v = L * std::pow(x, static_cast<double>(i));
  while (v < a * (1 - kRelTol) && i < imax) v = L * std::pow(x, static_cast<double>(++i));
  while (i - 1 >= 0 && L * std::pow(x, static_cast<double>(i - 1)) >= a * (1 - kRelTol))
    v = L * std::pow(x, static_cast<double>(--i));
  if (v < a * (1 - kRelTol))
    throw std::invalid_argument("round_up_geom: a exceeds the largest grid value");
  return v;
}

NormalizationGrid::NormalizationGrid(std::span<const double> capacities, double alpha_min,
                                     double rho, procs_t nbar, std::size_t max_points)
    : frame_(util::scratch_arena()) {
  if (capacities.empty()) throw std::invalid_argument("NormalizationGrid: empty capacity set");
  if (!(rho > 0) || rho > 0.5) throw std::invalid_argument("NormalizationGrid: rho out of (0, 0.5]");
  if (nbar < 1) nbar = 1;
  util::ScratchArena& arena = util::scratch_arena();
  std::span<const double> sorted = capacities;
  if (!std::is_sorted(capacities.begin(), capacities.end())) {
    double* copy = arena.alloc<double>(capacities.size());
    std::copy(capacities.begin(), capacities.end(), copy);
    std::sort(copy, copy + capacities.size());
    sorted = {copy, capacities.size()};
  }
  if (!(alpha_min > 0) || alpha_min > sorted.front() * (1 + kRelTol))
    throw std::invalid_argument("NormalizationGrid: need 0 < alpha_min <= min capacity");
  per_interval_ = util::ScratchList<std::size_t>(arena, sorted.size());

  // The point count is known only once the walk ends, so points grow in
  // doubling arena blocks (the abandoned ones go with this grid's frame).
  double* points = nullptr;
  std::size_t len = 0, cap = 0;
  const auto push = [&](double p) {
    if (len == cap) {
      cap = cap ? 2 * cap : 64;
      double* grown = arena.alloc<double>(cap);
      std::copy(points, points + len, grown);
      points = grown;
    }
    points[len++] = p;
  };
  const auto publish = [&] {
    points_ = points;
    points_len_ = len;
  };

  push(0.0);
  double prev = alpha_min;  // alpha_0 of Lemma 12
  for (double alpha : sorted) {
    if (alpha <= prev) continue;  // skip duplicates / degenerate intervals
    const double U = rho / ((1 - rho) * static_cast<double>(nbar)) * alpha;
    // Subinterval lower edges inside [prev, alpha): max(l*U, prev) for
    // l in [floor(prev/U), floor(alpha/U)].
    const auto lmin = static_cast<std::int64_t>(std::floor(prev / U));
    const auto lmax = static_cast<std::int64_t>(std::floor(alpha / U));
    std::size_t count = 0;
    for (std::int64_t l = lmin; l <= lmax; ++l) {
      const double edge = std::max(static_cast<double>(l) * U, prev);
      if (edge >= alpha) break;
      const double back = points[len - 1];
      if (edge > back * (1 + kRelTol) || back == 0.0) {
        if (edge > back) {
          push(edge);
          ++count;
          if (len >= max_points) {
            publish();
            return;
          }
        }
      }
    }
    per_interval_.push_back(count);
    prev = alpha;
  }
  push(prev);  // the largest capacity itself is representable
  publish();
}

std::optional<double> NormalizationGrid::normalize(double s) const {
  if (s <= 0) return 0.0;
  if (s > max_value() * (1 + kRelTol)) return std::nullopt;
  // Largest point <= s.
  const double* it = std::upper_bound(points_, points_ + points_len_, s * (1 + kRelTol));
  return *std::prev(it);
}

}  // namespace moldable::knapsack
