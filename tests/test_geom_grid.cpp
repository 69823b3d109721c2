// Tests for geometric sets (Definition 13 / Lemma 14) and the adaptive
// normalization grid (Lemma 12 / Figure 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/knapsack/geom_grid.hpp"

namespace moldable::knapsack {
namespace {

TEST(GeomSet, ContainsEndpointsAndRatio) {
  const auto g = geom_set(2.0, 32.0, 2.0);
  ASSERT_GE(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 2.0);
  // Last element reaches or overshoots U by < x.
  EXPECT_GE(g.back(), 32.0);
  EXPECT_LT(g.back(), 64.0 * (1 + 1e-12));
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_NEAR(g[i] / g[i - 1], 2.0, 1e-9);
}

TEST(GeomSet, SingleElementWhenLEqualsU) {
  const auto g = geom_set(5.0, 5.0, 1.5);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g[0], 5.0);
}

TEST(GeomSet, ValidatesArguments) {
  EXPECT_THROW(geom_set(0.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(geom_set(2.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(geom_set(1.0, 2.0, 1.0), std::invalid_argument);
}

TEST(GeomSet, Lemma14CardinalityBound) {
  // |geom(L, U, x)| = O(log(U/L)/(x-1)) for 1 < x < 2.
  for (double x : {1.01, 1.1, 1.5, 1.9}) {
    for (double ratio : {10.0, 1e3, 1e6}) {
      const auto g = geom_set(1.0, ratio, x);
      const double bound = 2 * std::log(ratio) / (x - 1) + 2;
      EXPECT_LE(static_cast<double>(g.size()), bound) << "x=" << x << " U/L=" << ratio;
    }
  }
}

TEST(GeomRounding, DownAndUpAreGridValuesBracketingA) {
  const double L = 1.0, U = 100.0, x = 1.3;
  for (double a : {1.0, 1.29, 1.31, 7.7, 42.0, 99.0}) {
    const double down = round_down_geom(a, L, U, x);
    const double up = round_up_geom(a, L, U, x);
    EXPECT_LE(down, a * (1 + 1e-9));
    EXPECT_GE(up, a * (1 - 1e-9));
    EXPECT_GE(a / down, 1 - 1e-9);
    EXPECT_LT(a / down, x * (1 + 1e-9));  // down loses at most factor x
    EXPECT_LT(up / a, x * (1 + 1e-9));    // up gains at most factor x
  }
}

TEST(GeomRounding, ExactGridValuesAreFixedPoints) {
  const double L = 2.0, U = 64.0, x = 2.0;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    EXPECT_NEAR(round_down_geom(v, L, U, x), v, 1e-9);
    EXPECT_NEAR(round_up_geom(v, L, U, x), v, 1e-9);
  }
}

TEST(GeomRounding, OutOfRangeThrows) {
  EXPECT_THROW(round_down_geom(0.5, 1.0, 10.0, 2.0), std::invalid_argument);
  EXPECT_THROW(round_up_geom(100.0, 1.0, 10.0, 2.0), std::invalid_argument);
}

// ------------------------------------------------------ NormalizationGrid ---

TEST(NormalizationGrid, NormalizeIsMonotoneUnderestimate) {
  const double rho = 0.1;
  const std::vector<double> caps = geom_set(10.0 / (1 - rho), 1000.0, 1.0 / (1 - rho));
  const NormalizationGrid grid(caps, 10.0, rho, 5);
  double prev = 0;
  for (double s = 0.5; s < grid.max_value(); s *= 1.17) {
    const auto n = grid.normalize(s);
    ASSERT_TRUE(n.has_value());
    EXPECT_LE(*n, s * (1 + 1e-9));
    EXPECT_GE(*n, prev - 1e-12);  // monotone
    prev = *n;
  }
  EXPECT_FALSE(grid.normalize(grid.max_value() * 1.5).has_value());
  EXPECT_DOUBLE_EQ(grid.normalize(0.0).value(), 0.0);
}

TEST(NormalizationGrid, UnderestimateBoundedBySubintervalWidth) {
  // Within [alpha_{i-1}, alpha_i) the loss is < U_i = rho/((1-rho) nbar) a_i.
  const double rho = 0.125;
  const procs_t nbar = 8;
  const std::vector<double> caps = geom_set(16.0 / (1 - rho), 4096.0, 1.0 / (1 - rho));
  const NormalizationGrid grid(caps, 16.0, rho, nbar);
  for (double s = 16.0; s <= grid.max_value(); s *= 1.07) {
    const auto n = grid.normalize(s);
    ASSERT_TRUE(n.has_value());
    // Conservative bound: U at the largest capacity covering s.
    const double umax = rho / ((1 - rho) * static_cast<double>(nbar)) * (s / (1 - rho));
    EXPECT_LE(s - *n, umax + 1e-9) << "s=" << s;
  }
}

TEST(NormalizationGrid, Lemma12IntervalCounts) {
  // Each interval I(i) gets O(nbar) subintervals: (1-rho) nbar + 1 plus
  // slack for boundary effects (Eq. (16)).
  const double rho = 0.1;
  const procs_t nbar = 20;
  const std::vector<double> caps = geom_set(50.0 / (1 - rho), 1e6, 1.0 / (1 - rho));
  const NormalizationGrid grid(caps, 50.0, rho, nbar);
  for (std::size_t c : grid.per_interval_counts())
    EXPECT_LE(c, static_cast<std::size_t>((1 - rho) * nbar) + 2);
  // Total size O(nbar * |A|).
  EXPECT_LE(grid.size(), (static_cast<std::size_t>(nbar) + 2) * (caps.size() + 2));
}

TEST(NormalizationGrid, StopsGrowingAtMaxPoints) {
  // Algorithm 2 only asks whether the grid reaches capacity + 2 points. A
  // grid capped at max_points must answer that exactly like the full grid,
  // and must be the full grid whenever it stays below the cap.
  const double rho = 0.1;
  const std::vector<double> caps = geom_set(50.0 / (1 - rho), 1e5, 1.0 / (1 - rho));
  const NormalizationGrid full(caps, 50.0, rho, 20);
  ASSERT_GT(full.size(), 40u);
  for (std::size_t limit : {std::size_t{2}, std::size_t{17}, full.size() - 1, full.size(),
                            full.size() + 1, SIZE_MAX}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const NormalizationGrid capped(caps, 50.0, rho, 20, limit);
    EXPECT_EQ(capped.size() >= limit, full.size() >= limit);
    if (capped.size() < limit) {
      EXPECT_TRUE(std::ranges::equal(capped.points(), full.points()));
    } else {
      EXPECT_EQ(capped.size(), limit);
      EXPECT_TRUE(std::equal(capped.points().begin(), capped.points().end(),
                             full.points().begin()));
    }
  }
}

TEST(NormalizationGrid, ValidatesArguments) {
  const std::vector<double> ten = {10.0};
  EXPECT_THROW(NormalizationGrid({}, 1.0, 0.1, 5), std::invalid_argument);
  EXPECT_THROW(NormalizationGrid(ten, 0.0, 0.1, 5), std::invalid_argument);
  EXPECT_THROW(NormalizationGrid(ten, 20.0, 0.1, 5), std::invalid_argument);
  EXPECT_THROW(NormalizationGrid(ten, 1.0, 0.9, 5), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::knapsack
