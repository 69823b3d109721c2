#include "src/core/estimator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "src/util/arena.hpp"

namespace moldable::core {

namespace {

std::atomic<std::uint64_t> g_runs{0};

/// One job's search state. [lo, hi] is the job's remaining candidate range
/// (thresholds t_j(k), lo <= k <= hi); [g_lo, g_hi] brackets gamma_j(tau)
/// for every pivot the search can still produce.
struct JobState {
  procs_t lo = 1, hi = 0;
  procs_t g_lo = 1;   ///< gamma_j(last go-down pivot); 1 before any
  procs_t g_hi = 0;   ///< gamma_j(last go-up pivot); 0 = none (no such pivot, or undefined there)
  double t_hi = 0;    ///< t_j(g_hi)
  procs_t g = 0;      ///< gamma_j(tau) of the latest evaluation; 0 = undefined
  double t = 0;       ///< t_j(g)
};

/// gamma_j(tau) searched inside the job's bracket, with t_j(gamma_j)
/// stored beside it. pred(k) = leq_tol(t_j(k), tau) is monotone in k under
/// (P1), so the least k satisfying it is the same whatever interval the
/// search starts from, as long as pred(top) holds and pred(below) fails.
void search_gamma(const jobs::Job& job, double tau, JobState& s) {
  procs_t top = s.g_hi;
  double t_top = s.t_hi;
  if (top == 0) {
    if (!leq_tol(job.tmin(), tau)) {
      s.g = 0;  // even m processors are too slow
      return;
    }
    top = job.machines();
    t_top = job.tmin();
  }
  procs_t below = s.g_lo - 1;  // pred(below) fails (below = 0: none known)
  if (below == 0) {
    if (leq_tol(job.t1(), tau)) {
      s.g = 1;
      s.t = job.t1();
      return;
    }
    below = 1;
  }
  while (top - below > 1) {
    const procs_t mid = below + (top - below) / 2;
    const double t = job.time(mid);
    if (leq_tol(t, tau)) {
      top = mid;
      t_top = t;
    } else {
      below = mid;
    }
  }
  s.g = top;
  s.t = t_top;
}

struct Evaluation {
  bool feasible = false;  ///< gamma defined for every job
  double avg_work = 0;
  double max_time = 0;
  double omega() const { return std::max(avg_work, max_time); }
};

/// Computes gamma_j(tau) for every job (the narrowing step reads all of
/// them, feasible or not), then A and T from the stored (gamma_j, t_j).
Evaluation evaluate(const jobs::Instance& inst, double tau, std::span<JobState> state) {
  bool feasible = true;
  for (std::size_t j = 0; j < state.size(); ++j) {
    search_gamma(inst.job(j), tau, state[j]);
    feasible = feasible && state[j].g != 0;
  }
  Evaluation ev;
  if (!feasible) return ev;
  double work = 0;
  double tmax = 0;
  for (const JobState& s : state) {
    work += static_cast<double>(s.g) * s.t;
    tmax = std::max(tmax, s.t);
  }
  ev.feasible = true;
  ev.avg_work = work / static_cast<double>(inst.machines());
  ev.max_time = tmax;
  return ev;
}

struct Weighted {
  double value;
  double weight;
};

/// Sums of integral weights below 2^53 are exact in any order.
constexpr double kExactSumLimit = 9007199254740992.0;

/// Up to this many candidates the sort (an insertion sort at that size)
/// beats the selection's partition passes (selection vs sort on the
/// development host: about 190 vs 130 ns at 16 candidates, 1.0-1.6 vs
/// 1.9 us at 64).
constexpr std::size_t kSelectAbove = 32;

/// The weighted lower median: the least value v whose weight at or below
/// v reaches half the total, i.e. the first v of the value-sorted list
/// where the running weight sum crosses total/2. When `total` is below
/// kExactSumLimit every partial sum is exact, so that crossing depends only
/// on the multiset and an expected-linear selection finds it: nth_element
/// picks a pivot, two partitions split the range into < = > pivot, and the
/// search continues in the side holding the crossing. At or above the
/// limit the running sum rounds, so the sort and its summation order stay;
/// short lists keep the sort too, which is faster there.
double weighted_median(std::span<Weighted> medians, double total) {
  const auto by_value = [](const Weighted& a, const Weighted& b) { return a.value < b.value; };
  if (!(total < kExactSumLimit) || medians.size() <= kSelectAbove) {
    std::sort(medians.begin(), medians.end(), by_value);
    double acc = 0;
    for (const Weighted& wv : medians) {
      acc += wv.weight;
      if (acc * 2 >= total) return wv.value;
    }
    return medians.back().value;
  }
  Weighted* lo = medians.data();
  Weighted* hi = lo + medians.size();
  double below = 0;  // weight of everything left of [lo, hi)
  for (;;) {
    Weighted* mid = lo + (hi - lo) / 2;
    std::nth_element(lo, mid, hi, by_value);
    const double p = mid->value;
    Weighted* lt_end = std::partition(lo, mid, [p](const Weighted& w) { return w.value < p; });
    Weighted* eq_end = std::partition(mid, hi, [p](const Weighted& w) { return w.value == p; });
    double lt = 0, eq = 0;
    for (const Weighted* w = lo; w != lt_end; ++w) lt += w->weight;
    for (const Weighted* w = lt_end; w != eq_end; ++w) eq += w->weight;
    if ((below + lt) * 2 >= total) {
      hi = lt_end;
    } else if ((below + lt + eq) * 2 >= total) {
      return p;
    } else {
      below += lt + eq;
      lo = eq_end;
    }
  }
}

}  // namespace

std::uint64_t estimator_runs() { return g_runs.load(std::memory_order_relaxed); }

EstimatorResult estimate_makespan(const jobs::Instance& inst) {
  g_runs.fetch_add(1, std::memory_order_relaxed);
  if (inst.size() == 0)
    throw std::invalid_argument("estimate_makespan: empty instance");
  const std::size_t n = inst.size();
  const procs_t m = inst.machines();

  // The per-job states and the pivot candidates are scratch; only the
  // result (and its allotment) outlives the run.
  util::ScratchArena& arena = util::scratch_arena();
  const util::ScratchArena::Frame frame(arena);
  const std::span<JobState> state(arena.alloc<JobState>(n), n);
  for (JobState& s : state) s = JobState{1, m};
  Weighted* medians = arena.alloc<Weighted>(n);

  EstimatorResult best;
  best.omega = std::numeric_limits<double>::infinity();
  best.allotment.resize(n);
  int evals = 0;

  auto consider = [&](double tau) {
    const Evaluation ev = evaluate(inst, tau, state);
    ++evals;
    if (ev.feasible && ev.omega() < best.omega) {
      best.omega = ev.omega();
      best.threshold = tau;
      best.avg_work = ev.avg_work;
      best.max_time = ev.max_time;
      for (std::size_t j = 0; j < n; ++j) best.allotment[j] = state[j].g;
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
  // Every later pivot therefore lies strictly between the last go-up pivot
  // and the last go-down pivot, which is what makes the gamma brackets
  // valid.
  for (int round = 0; round < 200; ++round) {
    std::size_t active = 0;
    double total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const JobState& s = state[j];
      if (s.lo > s.hi) continue;
      const double w = static_cast<double>(s.hi - s.lo + 1);
      const procs_t mid = s.lo + (s.hi - s.lo) / 2;
      medians[active++] = {inst.job(j).time(mid), w};
      total += w;
    }
    if (active == 0) break;
    // Weighted median of the per-job medians.
    const double tau = weighted_median({medians, active}, total);

    const Evaluation ev = consider(tau);
    const bool go_up = !ev.feasible || ev.avg_work > ev.max_time;
    for (std::size_t j = 0; j < n; ++j) {
      JobState& s = state[j];
      const bool active = s.lo <= s.hi;
      if (go_up) {
        // Every tau' <= tau has omega(tau') >= A(tau') >= A(tau) = omega(tau)
        // (or is infeasible): drop candidates with value <= tau, i.e. keep
        // k < gamma_j(tau). Later pivots exceed tau, so gamma_j(tau) caps
        // their gamma_j.
        if (s.g == 0) continue;
        if (active) s.hi = std::min(s.hi, s.g - 1);
        s.g_hi = s.g;
        s.t_hi = s.t;
      } else {
        // Every tau' >= tau has omega(tau') >= T(tau') >= T(tau) = omega(tau):
        // drop candidates with value >= tau, i.e. keep k > last_at_least(tau).
        // When t_j(gamma_j) < tau that is gamma_j - 1 (t_j(gamma_j - 1)
        // exceeds tau beyond the tolerance); otherwise search for it. Later
        // pivots fall below tau, so gamma_j(tau) floors their gamma_j.
        if (active) {
          const procs_t last = s.t < tau ? s.g - 1 : inst.job(j).last_at_least(tau);
          s.lo = std::max(s.lo, last + 1);
        }
        s.g_lo = s.g;
      }
    }
  }

  check_invariant(std::isfinite(best.omega), "estimator: no feasible threshold found");
  best.evaluations = evals;
  return best;
}

}  // namespace moldable::core
