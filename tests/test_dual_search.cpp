// Tests for the Hochbaum-Shmoys dual-approximation bisection.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/dual_search.hpp"

namespace moldable::core {
namespace {

// Synthetic dual: accepts iff d >= opt, writing a one-assignment schedule
// whose makespan is c * d.
auto synthetic_dual(double opt, double c, int* calls = nullptr) {
  return [=](double d, sched::AssignmentList& out) {
    if (calls) ++*calls;
    if (d < opt) return false;
    out.push_back({0, 0.0, 1, c * d});
    return true;
  };
}

TEST(DualSearch, ConvergesToOpt) {
  const double opt = 7.3;
  const DualSearchResult r = dual_search(synthetic_dual(opt, 1.5), 1, opt / 1.9, 0.01);
  EXPECT_LE(r.d_accepted, opt * 1.011);
  EXPECT_GE(r.d_accepted, opt * (1 - 1e-9));
  EXPECT_LE(r.schedule.makespan(), 1.5 * opt * 1.011);
  EXPECT_LE(r.lower_bound, opt);
}

TEST(DualSearch, CallCountLogarithmic) {
  for (double eps : {0.5, 0.1, 0.01, 0.001}) {
    int calls = 0;
    const double opt = 10.0;
    dual_search(synthetic_dual(opt, 1.0, &calls), 1, opt / 2, eps);
    EXPECT_LE(calls, static_cast<int>(std::ceil(std::log2(1.0 / eps))) + 4) << eps;
  }
}

TEST(DualSearch, AcceptsAtTwoOmegaImmediately) {
  // If OPT == 2*omega the first call must accept (dual contract).
  const double opt = 4.0;
  const DualSearchResult r = dual_search(synthetic_dual(opt, 1.0), 1, 2.0, 0.25);
  EXPECT_GE(r.d_accepted, opt * (1 - 1e-9));
}

TEST(DualSearch, ThrowsWhenDualBroken) {
  // A dual rejecting everything violates its contract at 2*omega.
  const auto broken = [](double, sched::AssignmentList&) { return false; };
  EXPECT_THROW(dual_search(broken, 1, 1.0, 0.1), internal_error);
}

TEST(DualSearch, ValidatesArguments) {
  EXPECT_THROW(dual_search(synthetic_dual(1, 1), 1, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(dual_search(synthetic_dual(1, 1), 1, 1.0, 0.0), std::invalid_argument);
}

TEST(DualSearch, LowerBoundRaisedByRejections) {
  const double opt = 1.9;
  const DualSearchResult r = dual_search(synthetic_dual(opt, 1.0), 1, 1.0, 0.001);
  // omega = 1: OPT = 1.9 close to 2*omega: many rejections raise the bound.
  EXPECT_GE(r.lower_bound, opt * 0.99);
  EXPECT_LE(r.lower_bound, opt);
}

}  // namespace
}  // namespace moldable::core
