// Table 1 reproduction: running times of the three (3/2 + eps)-dual
// algorithms (and the O(nm) MRT baseline they improve upon).
//
//   row 1  Algorithm 1   (Sec 4.2.5)  O(n (log m + n log(eps m)))
//   row 2  Algorithm 3   (Sec 4.3)    O(n (1/e^2 log m (log m/e + log^3(em)) + log n))
//   row 3  Algorithm 3L  (Sec 4.3.3)  O(n  1/e^2 log m (log m/e + log^3(em)))
//
// We time one dual call at d = 1.5 * omega (a representative accepting
// call) across sweeps in n, m, and eps. Shapes, not absolute numbers: rows
// 1-3 stay polylog in m while the MRT baseline grows ~m. The n and eps
// sweeps do not assert a shape; they print each column's log-log slope
// fitted to that sweep's own times (the exponent k of time ~ n^k, or of
// time ~ (1/eps)^k), so the claim printed is the one measured. The
// bounds above are worst cases: on the mixed family row 1 need not show
// its n^2 term, nor rows 2-3 their 1/eps^2 factor.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/bounded_sched.hpp"
#include "src/core/compressible_sched.hpp"
#include "src/core/estimator.hpp"
#include "src/core/mrt.hpp"
#include "src/jobs/generators.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace moldable;
using core::BoundedDualOptions;

struct Timing {
  double mrt = -1, alg1 = -1, alg3 = -1, alg3l = -1;
};

Timing time_duals(const jobs::Instance& inst, double eps, bool run_mrt, int reps = 3) {
  const core::EstimatorResult est = core::estimate_makespan(inst);
  const double d = 1.5 * est.omega;
  Timing t;
  auto best_of = [&](auto&& fn) {
    double best = 1e18;
    for (int r = 0; r < reps; ++r) {
      util::Timer timer;
      auto out = fn();
      best = std::min(best, timer.millis());
      if (!out.accepted) return -1.0;  // should not happen at 1.5 omega... keep visible
    }
    return best;
  };
  if (run_mrt) t.mrt = best_of([&] { return core::mrt_dual(inst, d); });
  t.alg1 = best_of([&] { return core::compressible_dual(inst, d, eps); });
  t.alg3 = best_of([&] { return core::bounded_dual(inst, d, eps, BoundedDualOptions{false}); });
  t.alg3l = best_of([&] { return core::bounded_dual(inst, d, eps, BoundedDualOptions{true}); });
  return t;
}

std::string ms(double v) { return v < 0 ? "n/a" : util::fmt(v, 4); }

/// Least-squares slope of log(y) against log(x) over the points with
/// y > 0 (skipped cells are -1): the exponent k of a y ~ x^k fit. NaN with
/// fewer than two points.
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int k = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!(y[i] > 0)) continue;
    const double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++k;
  }
  if (k < 2) return std::numeric_limits<double>::quiet_NaN();
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

/// "name k" for each column, the slope printed to two decimals.
std::string slopes(const std::vector<double>& x,
                   const std::vector<std::pair<std::string, std::vector<double>>>& columns) {
  std::string out;
  for (const auto& [name, y] : columns) {
    const double k = loglog_slope(x, y);
    out += (out.empty() ? "" : ", ") + name + " " + (std::isnan(k) ? "n/a" : util::fmt(k, 2));
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Table 1 reproduction: per-dual-call running times (ms) ===\n"
            << "Dual call at d = 1.5*omega, mixed instance family.\n\n";

  {
    std::cout << "--- sweep n (m = 4n, eps = 0.25) ---\n";
    util::Table t({"n", "m", "mrt(nm)", "alg1", "alg3", "alg3-linear", "alg3l/n us"});
    std::vector<double> xs, mrt, alg1, alg3, alg3l;
    for (std::size_t n : {64, 128, 256, 512, 1024, 2048, 4096}) {
      const procs_t m = static_cast<procs_t>(4 * n);
      const jobs::Instance inst = jobs::make_instance(jobs::Family::kMixed, n, m, 42);
      const Timing tm = time_duals(inst, 0.25, /*run_mrt=*/m <= 8192);
      t.add_row({std::to_string(n), std::to_string(m), ms(tm.mrt), ms(tm.alg1),
                 ms(tm.alg3), ms(tm.alg3l),
                 util::fmt(tm.alg3l * 1000 / static_cast<double>(n), 3)});
      xs.push_back(static_cast<double>(n));
      mrt.push_back(tm.mrt);
      alg1.push_back(tm.alg1);
      alg3.push_back(tm.alg3);
      alg3l.push_back(tm.alg3l);
    }
    t.print(std::cout);
    std::cout << "shape check, log-log slope of time vs n (1 = linear, 2 = quadratic; "
                 "m = 4n, so mrt's n*m is 2): "
              << slopes(xs, {{"mrt", mrt}, {"alg1", alg1}, {"alg3", alg3},
                             {"alg3-linear", alg3l}})
              << ".\n\n";
  }

  {
    std::cout << "--- sweep m (n = 256, eps = 0.25) ---\n";
    util::Table t({"m", "mrt(nm)", "alg1", "alg3", "alg3-linear"});
    for (int p = 9; p <= 22; p += 2) {
      const procs_t m = procs_t{1} << p;
      const jobs::Instance inst = jobs::make_instance(jobs::Family::kMixed, 256, m, 43);
      const Timing tm = time_duals(inst, 0.25, /*run_mrt=*/m <= (1 << 15));
      t.add_row({"2^" + std::to_string(p), ms(tm.mrt), ms(tm.alg1), ms(tm.alg3),
                 ms(tm.alg3l)});
    }
    t.print(std::cout);
    std::cout << "shape check: mrt explodes with m; the others grow polylog(m).\n\n";
  }

  {
    std::cout << "--- sweep eps (n = 512, m = 2048) ---\n";
    util::Table t({"eps", "alg1", "alg3", "alg3-linear"});
    const jobs::Instance inst = jobs::make_instance(jobs::Family::kMixed, 512, 2048, 44);
    std::vector<double> xs, alg1, alg3, alg3l;
    for (double eps : {0.5, 0.25, 0.1, 0.05}) {
      const Timing tm = time_duals(inst, eps, false);
      t.add_row({util::fmt(eps, 3), ms(tm.alg1), ms(tm.alg3), ms(tm.alg3l)});
      xs.push_back(1 / eps);
      alg1.push_back(tm.alg1);
      alg3.push_back(tm.alg3);
      alg3l.push_back(tm.alg3l);
    }
    t.print(std::cout);
    std::cout << "shape check, log-log slope of time vs 1/eps (0 = flat, 2 = the "
                 "1/eps^2 worst case): "
              << slopes(xs, {{"alg1", alg1}, {"alg3", alg3}, {"alg3-linear", alg3l}})
              << ".\n";
  }
  return 0;
}
