#include "src/core/scheduler.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/baselines.hpp"
#include "src/core/bounded_sched.hpp"
#include "src/core/compressible_sched.hpp"
#include "src/core/fptas.hpp"
#include "src/core/exact.hpp"
#include "src/core/mrt.hpp"

namespace moldable::core {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAuto: return "auto";
    case Algorithm::kFptas: return "fptas";
    case Algorithm::kMrt: return "mrt";
    case Algorithm::kCompressible: return "algorithm1";
    case Algorithm::kBounded: return "algorithm3";
    case Algorithm::kBoundedLinear: return "algorithm3-linear";
    case Algorithm::kLudwigTiwari: return "lt-2approx";
  }
  return "unknown";
}

ScheduleResult schedule_moldable(const jobs::Instance& instance, double eps, Algorithm algo,
                                 const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("schedule_moldable: eps must be in (0, 1]");

  ScheduleResult out;
  if (instance.size() == 0) {
    out.used = algo;
    out.ratio_vs_lower = 1;
    out.guarantee = 1;
    return out;
  }

  if (algo == Algorithm::kAuto) {
    const bool fptas_ok = static_cast<double>(instance.machines()) >=
                          fptas_machine_threshold(instance.size(), eps);
    algo = fptas_ok ? Algorithm::kFptas : Algorithm::kBoundedLinear;
  }
  out.used = algo;

  switch (algo) {
    case Algorithm::kFptas: {
      FptasResult r = fptas_schedule(instance, eps, estimate);
      out.schedule = std::move(r.schedule);
      out.lower_bound = r.lower_bound;
      out.dual_calls = r.dual_calls;
      out.guarantee = 1 + eps;
      break;
    }
    case Algorithm::kMrt: {
      MrtResult r = mrt_schedule(instance, eps, estimate);
      out.schedule = std::move(r.schedule);
      out.lower_bound = r.lower_bound;
      out.dual_calls = r.dual_calls;
      out.guarantee = 1.5 + eps;
      break;
    }
    case Algorithm::kCompressible: {
      CompressibleSchedResult r = compressible_schedule(instance, eps, estimate);
      out.schedule = std::move(r.schedule);
      out.lower_bound = r.lower_bound;
      out.dual_calls = r.dual_calls;
      out.guarantee = 1.5 + eps;
      break;
    }
    case Algorithm::kBounded:
    case Algorithm::kBoundedLinear: {
      BoundedSchedResult r =
          bounded_schedule(instance, eps, algo == Algorithm::kBoundedLinear, estimate);
      out.schedule = std::move(r.schedule);
      out.lower_bound = r.lower_bound;
      out.dual_calls = r.dual_calls;
      out.guarantee = 1.5 + eps;
      break;
    }
    case Algorithm::kLudwigTiwari: {
      BaselineResult r = ludwig_tiwari_schedule(instance, estimate);
      out.schedule = std::move(r.schedule);
      out.lower_bound = r.lower_bound;
      out.guarantee = 2;
      break;
    }
    case Algorithm::kAuto:
      throw internal_error("schedule_moldable: auto not resolved");
  }

  out.makespan = out.schedule.makespan();
  out.ratio_vs_lower = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
  return out;
}

ScheduleResult ptas_schedule(const jobs::Instance& instance, double eps,
                             const EstimatorResult* estimate) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("ptas_schedule: eps must be in (0, 1]");
  const bool fptas_ok = static_cast<double>(instance.machines()) >=
                        fptas_machine_threshold(instance.size(), eps);
  if (fptas_ok || instance.size() == 0)
    return schedule_moldable(instance, eps, Algorithm::kFptas, estimate);

  // Substituted [14] branch: exact for tiny instances, (3/2+eps) otherwise.
  const ExactLimits limits;
  if (instance.size() <= limits.max_jobs && instance.machines() <= limits.max_machines) {
    if (auto exact = solve_exact(instance, limits)) {
      ScheduleResult out;
      out.schedule = std::move(exact->schedule);
      out.used = Algorithm::kAuto;  // the exact branch has no enum of its own
      out.lower_bound = exact->makespan;
      out.makespan = exact->makespan;
      out.ratio_vs_lower = 1;
      out.guarantee = 1;
      return out;
    }
  }
  return schedule_moldable(instance, eps, Algorithm::kBoundedLinear, estimate);
}

}  // namespace moldable::core
