// Reference implementation of the Ludwig-Tiwari estimator.
//
// This is the estimator src/core/estimator.cpp shipped before its gamma
// searches were confined to per-job brackets: every round re-searches all
// of [1, m] for every job, and the final allotment is n fresh searches. It
// is kept verbatim, header-only and outside the library, as the ground
// truth the production estimator is differentially fuzzed against
// (tests/test_estimator_differential.cpp): on every monotone instance both
// must return the same omega, threshold, A, T, allotment and evaluation
// count, bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/core/estimator.hpp"

namespace moldable::core::reference {


namespace detail {

struct Evaluation {
  bool feasible = false;  ///< gamma defined for every job
  double avg_work = 0;
  double max_time = 0;
  double omega() const { return std::max(avg_work, max_time); }
};

inline Evaluation evaluate(const jobs::Instance& inst, double tau) {
  Evaluation ev;
  double work = 0;
  double tmax = 0;
  for (const jobs::Job& job : inst.jobs()) {
    const auto g = job.gamma(tau);
    if (!g) return ev;  // infeasible: some job cannot meet tau even on m
    work += job.work(*g);
    tmax = std::max(tmax, job.time(*g));
  }
  ev.feasible = true;
  ev.avg_work = work / static_cast<double>(inst.machines());
  ev.max_time = tmax;
  return ev;
}

}  // namespace detail

inline EstimatorResult estimate_makespan(const jobs::Instance& inst) {
  if (inst.size() == 0)
    throw std::invalid_argument("estimate_makespan: empty instance");
  const std::size_t n = inst.size();
  const procs_t m = inst.machines();

  EstimatorResult best;
  best.omega = std::numeric_limits<double>::infinity();
  int evals = 0;

  auto consider = [&](double tau) {
    const detail::Evaluation ev = detail::evaluate(inst, tau);
    ++evals;
    if (ev.feasible && ev.omega() < best.omega) {
      best.omega = ev.omega();
      best.threshold = tau;
      best.avg_work = ev.avg_work;
      best.max_time = ev.max_time;
    }
    return ev;
  };

  // tau_min = max_j t_j(m) is always feasible and seeds the incumbent.
  double tau_min = 0;
  for (const jobs::Job& job : inst.jobs()) tau_min = std::max(tau_min, job.tmin());
  consider(tau_min);

  // Per-job candidate ranges [lo_j, hi_j] over processor counts; candidate
  // thresholds are t_j(k). Weighted-median pivoting discards >= 1/4 of the
  // remaining candidates per round (ties included: both narrowing rules
  // remove candidates equal to the pivot, which has just been evaluated).
  std::vector<procs_t> lo(n, 1), hi(n, m);

  struct Weighted {
    double value;
    double weight;
  };
  std::vector<Weighted> medians;
  for (int round = 0; round < 200; ++round) {
    medians.clear();
    double total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (lo[j] > hi[j]) continue;
      const double w = static_cast<double>(hi[j] - lo[j] + 1);
      const procs_t mid = lo[j] + (hi[j] - lo[j]) / 2;
      medians.push_back({inst.job(j).time(mid), w});
      total += w;
    }
    if (medians.empty()) break;
    // Weighted median of the per-job medians.
    std::sort(medians.begin(), medians.end(),
              [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
    double acc = 0;
    double tau = medians.back().value;
    for (const Weighted& wv : medians) {
      acc += wv.weight;
      if (acc * 2 >= total) {
        tau = wv.value;
        break;
      }
    }

    const detail::Evaluation ev = consider(tau);
    const bool go_up = !ev.feasible || ev.avg_work > ev.max_time;
    for (std::size_t j = 0; j < n; ++j) {
      if (lo[j] > hi[j]) continue;
      const jobs::Job& job = inst.job(j);
      if (go_up) {
        // Every tau' <= tau has omega(tau') >= A(tau') >= A(tau) = omega(tau)
        // (or is infeasible): drop candidates with value <= tau, i.e. keep
        // k < gamma_j(tau).
        const auto g = job.gamma(tau);
        if (g) hi[j] = std::min(hi[j], *g - 1);
      } else {
        // Every tau' >= tau has omega(tau') >= T(tau') >= T(tau) = omega(tau):
        // drop candidates with value >= tau, i.e. keep k > last_at_least(tau).
        lo[j] = std::max(lo[j], job.last_at_least(tau) + 1);
      }
    }
  }

  check_invariant(std::isfinite(best.omega), "estimator: no feasible threshold found");

  best.allotment.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto g = inst.job(j).gamma(best.threshold);
    check_invariant(g.has_value(), "estimator: winning threshold lost feasibility");
    best.allotment[j] = *g;
  }
  best.evaluations = evals;
  return best;
}

}  // namespace moldable::core::reference
