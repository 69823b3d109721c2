#include "src/knapsack/bounded.hpp"

#include <algorithm>
#include <cmath>
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
  return round_big_job(instance, j, *g1, *g2, r);
}

RoundedBigJob round_big_job(const jobs::Instance& instance, std::size_t j, procs_t gamma_d,
                            procs_t gamma_d2, const BoundedRounding& r) {
  const jobs::Job& job = instance.job(j);
  RoundedBigJob out;
  out.job = j;
  out.gamma_d = gamma_d;
  out.gamma_d2 = gamma_d2;
  out.compressible = static_cast<double>(gamma_d) > r.b;
  out.size = round_count(gamma_d, r);

  const double s2 = round_count(gamma_d2, r);
  if (s2 < r.b) {
    // Narrow in S2: exact profit, then Eq. (26).
    const double v = job.work(gamma_d2) - job.work(gamma_d);
    const double lo = (r.delta / 2) * r.d;
    if (v < lo) {
      out.profit = 0;
    } else {
      out.profit = round_up_geom(v, lo, (r.b / 2) * r.d, 1.0 + r.delta / r.b);
    }
  } else {
    // Wide in S2: profit from rounded times and counts. Independent
    // down-rounding can make the difference marginally negative; clamp.
    const double td = round_time(job.time(gamma_d), r.d, r);
    const double td2 = round_time(job.time(gamma_d2), r.d / 2, r);
    out.profit = std::max(0.0, td2 * s2 - td * out.size);
  }
  return out;
}

BoundedInstance::BoundedInstance(std::span<const RoundedBigJob> rounded)
    : arena_(util::scratch_arena()), frame_(arena_) {
  // Group by exact (size, profit): both live on shared geometric grids, so
  // equality is meaningful. Sorting positions by (key, position) lays each
  // type out as one run whose first entry is its first appearance.
  const std::size_t n = rounded.size();
  const auto key_less = [&](std::size_t a, std::size_t b) {
    return std::make_pair(rounded[a].size, rounded[a].profit) <
           std::make_pair(rounded[b].size, rounded[b].profit);
  };
  std::size_t* order = arena_.alloc<std::size_t>(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order, order + n, [&](std::size_t a, std::size_t b) {
    return key_less(a, b) || (!key_less(b, a) && a < b);
  });
  struct Run {
    std::size_t begin, end;  ///< positions in `order`
  };
  util::ScratchList<Run> runs(arena_, n);
  for (std::size_t i = 0; i < n;) {
    std::size_t e = i + 1;
    while (e < n && !key_less(order[i], order[e])) ++e;
    runs.push_back({i, e});
    i = e;
  }
  // Type ids follow first appearance, the order a key-to-type table would
  // hand them out in.
  std::sort(runs.begin(), runs.end(),
            [&](const Run& a, const Run& b) { return order[a.begin] < order[b.begin]; });

  members_ = util::ScratchList<std::size_t>(arena_, n);
  type_begin_ = util::ScratchList<std::size_t>(arena_, runs.size() + 1);
  // Binary container expansion: multiplicities 1, 2, 4, ..., 2^{k-1} and a
  // remainder, which together represent every count in [0, c_t] with at
  // most c_t containers.
  items_ = util::ScratchList<Item>(arena_, n);
  compressible_ = util::ScratchList<char>(arena_, n);
  containers_ = util::ScratchList<Container>(arena_, n);
  for (const Run& run : runs) {
    const std::size_t type = type_begin_.size();
    const RoundedBigJob& first = rounded[order[run.begin]];
    type_begin_.push_back(members_.size());
    for (std::size_t k = run.begin; k < run.end; ++k) {
      // Compressibility is determined by the size (size > b iff rounded);
      // checked per type for belt and braces.
      check_invariant(rounded[order[k]].compressible == first.compressible,
                      "BoundedInstance: inconsistent compressibility within a type");
      members_.push_back(rounded[order[k]].job);
    }
    auto count = static_cast<procs_t>(run.end - run.begin);
    procs_t mult = 1;
    while (count > 0) {
      const procs_t take = std::min(mult, count);
      items_.push_back({first.size * static_cast<double>(take),
                        first.profit * static_cast<double>(take)});
      containers_.push_back({type, take});
      compressible_.push_back(first.compressible ? 1 : 0);
      count -= take;
      mult *= 2;
    }
  }
  type_begin_.push_back(members_.size());
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

void BoundedInstance::unpack(std::span<const std::size_t> chosen_containers,
                             util::ScratchList<std::size_t>& jobs) const {
  const util::ScratchArena::Frame frame(arena_);
  procs_t* per_type = arena_.alloc_zeroed<procs_t>(num_types());
  for (std::size_t i : chosen_containers) {
    check_invariant(i < containers_.size(), "unpack: container index out of range");
    per_type[containers_[i].type] += containers_[i].mult;
  }
  for (std::size_t t = 0; t < num_types(); ++t) {
    const std::size_t begin = type_begin_[t];
    check_invariant(per_type[t] <= static_cast<procs_t>(type_begin_[t + 1] - begin),
                    "unpack: selected multiplicity exceeds type population");
    for (procs_t k = 0; k < per_type[t]; ++k)
      jobs.push_back(members_[begin + static_cast<std::size_t>(k)]);
  }
}

std::vector<std::size_t> BoundedInstance::unpack(
    std::span<const std::size_t> chosen_containers) const {
  const util::ScratchArena::Frame frame(arena_);
  util::ScratchList<std::size_t> jobs(arena_, members_.size());
  unpack(chosen_containers, jobs);
  return {jobs.begin(), jobs.end()};
}

}  // namespace moldable::knapsack
