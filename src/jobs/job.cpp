#include "src/jobs/job.hpp"

#include <stdexcept>
#include <utility>

namespace moldable::jobs {

Job::Job(PtfPtr f, procs_t m, std::string name)
    : f_(std::move(f)), m_(m), name_(std::move(name)) {
  if (!f_) throw std::invalid_argument("Job: null processing-time oracle");
  if (m_ < 1) throw std::invalid_argument("Job: machine count must be >= 1");
  t1_ = f_->at(1);
  tm_ = f_->at(m_);
}

double Job::time(procs_t k) const {
  if (k < 1 || k > m_) throw std::invalid_argument("Job::time: k out of [1, m]");
  if (k == 1) return t1_;
  if (k == m_) return tm_;
  return f_->at(k);
}

std::optional<procs_t> Job::gamma(double t) const {
  // leq_tol: deadlines are derived from sums/products of doubles; a job
  // whose time equals the deadline up to rounding must count as feasible,
  // otherwise dual algorithms would reject makespans that are achievable.
  if (!leq_tol(tm_, t)) return std::nullopt;
  if (leq_tol(t1_, t)) return 1;
  // Search least k with time(k) <= t in (1, m]. Every probe lies strictly
  // between 1 and m, so it goes to the oracle directly.
  procs_t lo = 1, hi = m_;  // time(lo) > t, time(hi) <= t
  while (hi - lo > 1) {
    const procs_t mid = lo + (hi - lo) / 2;
    if (leq_tol(f_->at(mid), t))
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

procs_t Job::last_at_least(double t) const {
  // Largest k with time(k) >= t (no tolerance: this is a search aid, not a
  // feasibility decision; estimator correctness only needs consistency).
  if (t1_ < t) return 0;
  if (tm_ >= t) return m_;
  procs_t lo = 1, hi = m_;  // time(lo) >= t, time(hi) < t; probes in (1, m)
  while (hi - lo > 1) {
    const procs_t mid = lo + (hi - lo) / 2;
    if (f_->at(mid) >= t)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace moldable::jobs
