#include "src/core/fptas.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/estimator.hpp"

namespace moldable::core {

bool fptas_dual(const jobs::Instance& instance, double d, double eps_d,
                sched::AssignmentList& out) {
  const double deadline = (1 + eps_d) * d;
  procs_t used = 0;
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const jobs::Job& job = instance.job(j);
    const auto g = job.gamma(deadline);
    if (!g) return false;  // t_j(m) > (1+eps)d >= d: no d-schedule
    used += *g;
    if (used > instance.machines()) return false;
    out.push_back({j, 0.0, *g, job.time(*g)});
  }
  return true;
}

DualOutcome fptas_dual(const jobs::Instance& instance, double d, double eps_d) {
  return run_dual(
      [&](sched::AssignmentList& out) { return fptas_dual(instance, d, eps_d, out); },
      instance.size());
}

double fptas_machine_threshold(std::size_t n, double eps) {
  return 24.0 * static_cast<double>(n) / eps;
}

FptasResult fptas_schedule(const jobs::Instance& instance, double eps,
                           const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("fptas_schedule: eps must be in (0, 1]");
  if (instance.size() == 0) return {};
  const double eps_d = eps / 3;  // dual accuracy
  const double eps_s = eps / 3;  // bisection accuracy; (1+e/3)^2 <= 1+e on (0,1]
  if (static_cast<double>(instance.machines()) < 8.0 * static_cast<double>(instance.size()) / eps_d)
    throw std::invalid_argument(
        "fptas_schedule: requires m >= 24 n / eps (Theorem 2 regime); use the "
        "(3/2+eps) algorithms below the threshold");

  const double omega = estimate ? estimate->omega : estimate_makespan(instance).omega;
  DualSearchResult sr = dual_search(
      [&](double d, sched::AssignmentList& out) { return fptas_dual(instance, d, eps_d, out); },
      instance.size(), omega, eps_s);

  FptasResult out;
  out.schedule = std::move(sr.schedule);
  out.lower_bound = sr.lower_bound;
  out.dual_calls = sr.dual_calls;
  return out;
}

}  // namespace moldable::core
