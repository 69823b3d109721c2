#include "src/knapsack/bounded.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "src/knapsack/geom_grid.hpp"

namespace moldable::knapsack {

BoundedRounding BoundedRounding::make(double d, double delta, procs_t m) {
  if (!(d > 0)) throw std::invalid_argument("BoundedRounding: d must be positive");
  if (!(delta > 0) || delta > 1)
    throw std::invalid_argument("BoundedRounding: delta must be in (0, 1]");
  BoundedRounding r;
  r.d = d;
  r.delta = delta;
  r.m = m;
  r.rho = (std::sqrt(1.0 + delta) - 1.0) / 4.0;  // (1+4rho)^2 = 1+delta
  r.b = 1.0 / (2 * r.rho - r.rho * r.rho);
  return r;
}

namespace {

/// gamma_check_j(s) of Eq. (25): exact when <= b, else rounded down to
/// geom(b, m, 1+rho).
double round_count(procs_t gamma, const BoundedRounding& r) {
  const double g = static_cast<double>(gamma);
  if (g <= r.b) return g;
  return round_down_geom(g, r.b, static_cast<double>(r.m), 1.0 + r.rho);
}

/// t_check_j(s) of Lemma 17: processing time rounded down to
/// geom(s/2, s, 1+4rho). Big-job times at the canonical allotment always
/// lie in (s/2, s] (Lemma 17's halving argument), so the grid covers them.
double round_time(double t, double s, const BoundedRounding& r) {
  return round_down_geom(std::min(t, s), s / 2, s, 1.0 + 4 * r.rho);
}

}  // namespace

RoundedBigJob round_big_job(const jobs::Instance& instance, std::size_t j,
                            const BoundedRounding& r) {
  const jobs::Job& job = instance.job(j);
  const auto g1 = job.gamma(r.d);
  const auto g2 = job.gamma(r.d / 2);
  check_invariant(g1.has_value() && g2.has_value(),
                  "round_big_job: gamma undefined (job must be unforced and feasible)");
  RoundedBigJob out;
  out.job = j;
  out.gamma_d = *g1;
  out.gamma_d2 = *g2;
  out.compressible = static_cast<double>(*g1) > r.b;
  out.size = round_count(*g1, r);

  const double s2 = round_count(*g2, r);
  if (s2 < r.b) {
    // Narrow in S2: exact profit, then Eq. (26).
    const double v = job.work(*g2) - job.work(*g1);
    const double lo = (r.delta / 2) * r.d;
    if (v < lo) {
      out.profit = 0;
    } else {
      out.profit = round_up_geom(v, lo, (r.b / 2) * r.d, 1.0 + r.delta / r.b);
    }
  } else {
    // Wide in S2: profit from rounded times and counts. Independent
    // down-rounding can make the difference marginally negative; clamp.
    const double td = round_time(job.time(*g1), r.d, r);
    const double td2 = round_time(job.time(*g2), r.d / 2, r);
    out.profit = std::max(0.0, td2 * s2 - td * out.size);
  }
  return out;
}

BoundedInstance::BoundedInstance(const std::vector<RoundedBigJob>& rounded) {
  // Group by exact (size, profit): both live on shared geometric grids, so
  // equality is meaningful. Compressibility is determined by the size
  // (size > b iff rounded), stored alongside for belt and braces.
  std::map<std::pair<double, double>, std::size_t> key_to_type;
  std::vector<char> type_comp;
  for (const RoundedBigJob& rb : rounded) {
    const auto key = std::make_pair(rb.size, rb.profit);
    auto [it, inserted] = key_to_type.try_emplace(key, members_.size());
    if (inserted) {
      members_.emplace_back();
      type_size_.push_back(rb.size);
      type_comp.push_back(rb.compressible ? 1 : 0);
    }
    check_invariant(type_comp[it->second] == (rb.compressible ? 1 : 0),
                    "BoundedInstance: inconsistent compressibility within a type");
    members_[it->second].push_back(rb.job);
  }

  // Binary container expansion: multiplicities 1, 2, 4, ..., 2^{k-1} and a
  // remainder, which together represent every count in [0, c_t].
  for (std::size_t t = 0; t < members_.size(); ++t) {
    auto count = static_cast<procs_t>(members_[t].size());
    procs_t mult = 1;
    while (count > 0) {
      const procs_t take = std::min(mult, count);
      items_.push_back({type_size_[t] * static_cast<double>(take),
                        /*profit computed from any member's profit*/ 0.0});
      containers_.push_back({t, take});
      compressible_.push_back(type_comp[t]);
      count -= take;
      mult *= 2;
    }
  }
  // Fill container profits now that multiplicities are fixed (profit is the
  // per-type unit profit times the multiplicity). Unit profit is recovered
  // from the type key; we kept sizes, so recompute from the rounded list.
  std::vector<double> type_profit(members_.size(), 0.0);
  for (const auto& [key, type] : key_to_type) type_profit[type] = key.second;
  for (std::size_t i = 0; i < items_.size(); ++i)
    items_[i].profit = type_profit[containers_[i].type] *
                       static_cast<double>(containers_[i].mult);
}

double BoundedInstance::min_compressible_size() const {
  double best = 0;
  bool any = false;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (!compressible_[i]) continue;
    if (!any || items_[i].size < best) best = items_[i].size;
    any = true;
  }
  return any ? best : 0;
}

std::vector<std::size_t> BoundedInstance::unpack(
    const std::vector<std::size_t>& chosen_containers) const {
  std::vector<procs_t> per_type(members_.size(), 0);
  for (std::size_t i : chosen_containers) {
    check_invariant(i < containers_.size(), "unpack: container index out of range");
    per_type[containers_[i].type] += containers_[i].mult;
  }
  std::vector<std::size_t> jobs;
  for (std::size_t t = 0; t < members_.size(); ++t) {
    check_invariant(per_type[t] <= static_cast<procs_t>(members_[t].size()),
                    "unpack: selected multiplicity exceeds type population");
    for (procs_t k = 0; k < per_type[t]; ++k)
      jobs.push_back(members_[t][static_cast<std::size_t>(k)]);
  }
  return jobs;
}

}  // namespace moldable::knapsack
