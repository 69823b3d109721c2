#include "src/sched/transform.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace moldable::sched {

namespace {

/// One S1 occupant that survived classification with t > (3/4)d ("category
/// three" in Section 4.1.1) — the candidates for hosting the special case of
/// rule (ii).
struct Cat3Entry {
  std::size_t job;
  procs_t procs;
  double time;  ///< exact processing time
  bool host = false;  ///< selected as special-case host
};

/// The category-3 entry the special case of rule (ii) would take, keyed
/// either by exact time (the Section 4.1.1 min-heap's top: least time,
/// earliest entry among ties) or by the time rounded down to
/// geom(d/2, d, 1+4rho) (the Section 4.3.3 buckets: lowest bucket, its
/// latest entry). Only one entry is ever taken, so the running minimum
/// answers exactly what the heap or bucket table would.
class Cat3Min {
 public:
  Cat3Min(TransformPolicy policy, double d, double rho)
      : policy_(policy), d_(d), log_ratio_(std::log1p(4 * rho)) {}

  void push(double t, std::size_t idx) {
    if (policy_ == TransformPolicy::kExactHeap) {
      if (!any_ || t < time_) set(idx, t, 0);
    } else {
      const int b = bucket_of(t);
      if (!any_ || b <= bucket_) set(idx, t, b);
    }
  }

  /// The entry with the smallest key together with the key value used for
  /// the "fits under (3/2)d" test (exact time, or its rounded underestimate).
  std::optional<std::pair<std::size_t, double>> min() const {
    if (!any_) return std::nullopt;
    if (policy_ == TransformPolicy::kExactHeap) return std::make_pair(idx_, time_);
    // Key = lower edge of the geometric bucket: underestimates the exact
    // time by a factor of at most (1 + 4 rho), which is what the makespan
    // slack bound of Section 4.3.3 accounts for.
    return std::make_pair(idx_, (d_ / 2) * std::exp(static_cast<double>(bucket_) * log_ratio_));
  }

 private:
  void set(std::size_t idx, double t, int b) {
    any_ = true;
    idx_ = idx;
    time_ = t;
    bucket_ = b;
  }

  int bucket_of(double t) const {
    // Index of the geom(d/2, d, 1+4rho) value just below t; category-3
    // times lie in ((3/4)d, d], so indices span O(1/rho) values.
    return static_cast<int>(std::floor(std::log(t / (d_ / 2)) / log_ratio_));
  }

  TransformPolicy policy_;
  double d_;
  double log_ratio_;
  bool any_ = false;
  std::size_t idx_ = 0;
  double time_ = 0;
  int bucket_ = 0;
};

}  // namespace

ThreeShelfSchedule apply_transformation_rules(const jobs::Instance& instance,
                                              const TwoShelfSchedule& two_shelf,
                                              TransformPolicy policy, double delta,
                                              AssignmentList& big_jobs) {
  const double d = two_shelf.d;
  const double H = 1.5 * d;
  const procs_t m = instance.machines();
  const double rho = (std::sqrt(1.0 + delta) - 1.0) / 4.0;  // Lemma 16

  ThreeShelfSchedule out;
  out.horizon = H;

  // Every list is bounded by the big-job count: each job adds at most one
  // group to S0 and one to S1 (a special-case host adds to both, and takes
  // the pending job's place), at most one category-3 entry and at most one
  // remaining S2 entry.
  util::ScratchArena& arena = util::scratch_arena();
  const std::size_t n_big = two_shelf.s1.size() + two_shelf.s2.size();
  util::ScratchList<ProcGroup> s0_groups(arena, n_big + 1);  // never receive S2 tails
  util::ScratchList<ProcGroup> s1_groups(arena, n_big + 1);  // may receive S2 tails
  util::ScratchList<Cat3Entry> cat3(arena, n_big);
  util::ScratchList<ShelfEntry> remaining_s2(arena, two_shelf.s2.size());
  Cat3Min index(policy, d, rho);
  std::optional<std::pair<std::size_t, double>> pending;  // cat-2 single

  procs_t p0 = 0, p1 = 0, p2 = 0;

  // Classifies an S1 occupant (either an original shelf-1 job or one moved
  // in by rule (iii)) and applies rules (i)/(ii) immediately.
  auto classify = [&](std::size_t job, procs_t procs, double time) {
    if (leq_tol(time, 0.75 * d) && procs > 1) {
      // Rule (i): drop one processor, move to S0. By Eq. (27)/(28)
      // (monotone work, procs >= 2) the new time is at most doubled.
      const procs_t np = procs - 1;
      const double nt = instance.job(job).time(np);
      check_invariant(leq_tol(nt, H), "rule (i): time after compression exceeds (3/2)d");
      big_jobs.push_back({job, 0.0, np, nt});
      s0_groups.push_back({np, nt, 0.0, true});
      p0 += np;
    } else if (leq_tol(time, 0.75 * d)) {  // procs == 1
      if (pending) {
        // Rule (ii): stack the pair on one S0 processor.
        const auto [pj, pt] = *pending;
        pending.reset();
        big_jobs.push_back({pj, 0.0, 1, pt});
        big_jobs.push_back({job, pt, 1, time});
        check_invariant(leq_tol(pt + time, H), "rule (ii): stacked pair exceeds (3/2)d");
        s0_groups.push_back({1, pt + time, 0.0, true});
        p0 += 1;
        p1 -= 1;  // the pending job was provisionally counted in S1
      } else {
        pending = {job, time};
        p1 += 1;  // occupies an S1 processor until paired or finalized
      }
    } else {
      // Category 3: stays in S1; candidate host for the special case.
      cat3.push_back({job, procs, time, false});
      index.push(time, cat3.size() - 1);
      p1 += procs;
    }
  };

  for (const auto& e : two_shelf.s1) classify(e.job, e.procs, e.time);

  // Rule (iii), single pass: q = m - (p0 + p1) only shrinks, so a job that
  // does not fit now never fits later; one scan reaches the fixpoint.
  for (const auto& e : two_shelf.s2) {
    const procs_t q = m - p0 - p1;
    const auto g = (q >= 1) ? instance.job(e.job).gamma(H) : std::nullopt;
    if (g && *g <= q) {
      const double nt = instance.job(e.job).time(*g);
      if (!leq_tol(nt, d)) {
        // Moves to S0 with its own processors for the full horizon.
        big_jobs.push_back({e.job, 0.0, *g, nt});
        s0_groups.push_back({*g, nt, 0.0, true});
        p0 += *g;
      } else {
        classify(e.job, *g, nt);
      }
    } else {
      remaining_s2.push_back(e);
      p2 += e.procs;
    }
  }

  // Resolve a leftover unpaired category-2 job: special case of rule (ii).
  double special_stack_end = 0;
  if (pending) {
    const auto top = index.min();
    if (top && leq_tol(top->second + pending->second, H)) {
      Cat3Entry& host = cat3[top->first];
      host.host = true;
      // The pending job runs on one of the host's processors right after
      // the host finishes (conceptually the host donates one processor to
      // S0). With the bucketed policy the key underestimates the host's
      // exact time, so the stack may exceed H by at most 4rho * t_host.
      big_jobs.push_back({pending->first, host.time, 1, pending->second});
      special_stack_end = host.time + pending->second;
      out.slack = std::max(out.slack, special_stack_end - H);
      // Accounting: the host donates one of its processors to S0 (-1 from
      // p1, +1 to p0) and the pending job releases its provisional S1
      // processor (-1 from p1).
      p0 += 1;
      p1 -= 2;
      pending.reset();
    } else {
      // No host: the job simply stays in S1 (already counted in p1).
      big_jobs.push_back({pending->first, 0.0, 1, pending->second});
      s1_groups.push_back({1, pending->second, 0.0, false});
      pending.reset();
    }
  }

  // Emit S1 placements and groups for category-3 entries (delayed so that a
  // special-case host can split its processor block).
  for (const Cat3Entry& e : cat3) {
    big_jobs.push_back({e.job, 0.0, e.procs, e.time});
    if (e.host) {
      // One processor carries the stacked job (already placed above) and is
      // accounted as S0; the rest stay plain S1.
      if (e.procs > 1) s1_groups.push_back({e.procs - 1, e.time, 0.0, false});
      s0_groups.push_back({1, special_stack_end, 0.0, true});
    } else {
      s1_groups.push_back({e.procs, e.time, 0.0, false});
    }
  }

  check_invariant(p0 + p1 <= m, "Lemma 8 violated: p0 + p1 > m");
  check_invariant(p0 + p2 <= m, "Lemma 8 violated: p0 + p2 > m");

  // Remaining S2 jobs run against the horizon: [H - t, H].
  for (const auto& e : remaining_s2) big_jobs.push_back({e.job, H - e.time, e.procs, e.time});

  // Merge occupancies into per-processor groups. Order for receiving S2
  // tails: idle processors first, then S1 processors (whose jobs end by d,
  // so a tail of length <= d/2 starting at H - t >= d never overlaps).
  util::ScratchList<ProcGroup> head_pool(arena, s1_groups.size() + 1);
  const procs_t idle = m - p0 - p1;
  if (idle > 0) head_pool.push_back({idle, 0.0, 0.0, false});
  for (const auto& g : s1_groups) head_pool.push_back(g);

  // Each S2 piece either finishes its job or exhausts a head-pool group.
  util::ScratchList<ProcGroup> merged(
      arena, remaining_s2.size() + 2 * head_pool.size() + s0_groups.size());
  std::size_t hp = 0;
  for (const auto& e : remaining_s2) {
    procs_t need = e.procs;
    while (need > 0) {
      check_invariant(hp < head_pool.size(), "S2 tail does not fit next to S0 block");
      ProcGroup& g = head_pool[hp];
      const procs_t take = std::min(need, g.count);
      merged.push_back({take, g.head, e.time, false});
      g.count -= take;
      need -= take;
      if (g.count == 0) ++hp;
    }
  }
  for (; hp < head_pool.size(); ++hp)
    if (head_pool[hp].count > 0) merged.push_back(head_pool[hp]);
  for (const auto& g : s0_groups) merged.push_back(g);

  procs_t total = 0;
  for (const auto& g : merged) total += g.count;
  check_invariant(total == m, "processor groups do not cover m");

  out.groups = merged;
  out.p0 = p0;
  out.p1 = p1;
  out.p2 = p2;
  return out;
}

}  // namespace moldable::sched
