// Tests for the Lemma 7 transformation rules (Section 4.1.1, Figure 3),
// both the exact-heap policy and the Section 4.3.3 bucketed policy.
#include <gtest/gtest.h>

#include <memory>

#include "src/jobs/generators.hpp"
#include "src/sched/transform.hpp"
#include "src/sched/validator.hpp"

namespace moldable::sched {
namespace {

using jobs::Instance;
using jobs::Job;
using jobs::TableTime;

Instance table_instance(std::vector<std::vector<double>> tables, procs_t m) {
  std::vector<Job> jv;
  for (auto& t : tables) jv.emplace_back(std::make_shared<TableTime>(std::move(t)), m);
  return Instance(std::move(jv), m);
}

// The transformation's result with its big-job placements and groups
// copied off the scratch arena.
struct Transformed {
  Schedule big_jobs;
  std::vector<ProcGroup> groups;
  procs_t p0 = 0, p1 = 0, p2 = 0;
  double slack = 0;
};

// Convenience: run the transformation on a hand-built two-shelf schedule.
Transformed run(const Instance& inst, const std::vector<std::size_t>& s1,
                       const std::vector<std::size_t>& s2, double d,
                       TransformPolicy policy = TransformPolicy::kExactHeap,
                       double delta = 0.2) {
  std::vector<std::size_t> big;
  std::vector<char> in_s1;
  for (std::size_t j : s1) {
    big.push_back(j);
    in_s1.push_back(1);
  }
  for (std::size_t j : s2) {
    big.push_back(j);
    in_s1.push_back(0);
  }
  util::ScratchArena arena;
  const util::ArenaScope scope(&arena);
  const TwoShelfSchedule two = build_two_shelf(inst, big, in_s1, d);
  AssignmentList big_jobs(arena, big.size());
  const ThreeShelfSchedule t = apply_transformation_rules(inst, two, policy, delta, big_jobs);
  return {Schedule(big_jobs), {t.groups.begin(), t.groups.end()}, t.p0, t.p1, t.p2, t.slack};
}

procs_t group_total(const Transformed& t) {
  procs_t total = 0;
  for (const auto& g : t.groups) total += g.count;
  return total;
}

TEST(Transform, RuleOneMovesShortWideJobToS0) {
  // d = 8. Job: t = [10, 5, 5, 5]: gamma(8) = 2, t(2) = 5 <= 6 = (3/4)d,
  // procs > 1 -> rule (i): S0 with 1 processor, duration t(1) = 10 <= 12.
  const Instance inst = table_instance({{10, 5, 5, 5}}, 4);
  const auto t = run(inst, {0}, {}, 8.0);
  EXPECT_EQ(t.p0, 1);
  EXPECT_EQ(t.p1, 0);
  ASSERT_EQ(t.big_jobs.size(), 1u);
  const auto& a = t.big_jobs.assignments()[0];
  EXPECT_EQ(a.procs, 1);
  EXPECT_DOUBLE_EQ(a.duration, 10.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_EQ(group_total(t), 4);
}

TEST(Transform, RuleTwoPairsSequentialJobs) {
  // d = 8. Two jobs with t1 = 5 <= 6, gamma(8) = 1: stacked on one S0 proc.
  const Instance inst = table_instance({{5, 5}, {5.5, 5.5}}, 2);
  const auto t = run(inst, {0, 1}, {}, 8.0);
  EXPECT_EQ(t.p0, 1);
  EXPECT_EQ(t.p1, 0);
  ASSERT_EQ(t.big_jobs.size(), 2u);
  // One starts at 0, the other right after.
  double starts[2] = {t.big_jobs.assignments()[0].start, t.big_jobs.assignments()[1].start};
  std::sort(std::begin(starts), std::end(starts));
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  EXPECT_GT(starts[1], 0.0);
  EXPECT_TRUE(validate(t.big_jobs, inst).ok);
  EXPECT_EQ(group_total(t), 2);
}

TEST(Transform, SpecialCaseStacksOnHost) {
  // d = 8. X: t1 = 4.5 (cat 2, unpaired); H: t1 = 7 > 6 (cat 3).
  // 4.5 + 7 = 11.5 <= 12 = (3/2)d: X runs on H's processor after H.
  const Instance inst = table_instance({{4.5, 4.5}, {7, 7}}, 2);
  const auto t = run(inst, {0, 1}, {}, 8.0);
  EXPECT_EQ(t.p0, 1);
  EXPECT_EQ(t.p1, 0);
  const auto& as = t.big_jobs.assignments();
  ASSERT_EQ(as.size(), 2u);
  // X (job 0) starts exactly when H finishes.
  for (const auto& a : as)
    if (a.job == 0) {
      EXPECT_DOUBLE_EQ(a.start, 7.0);
      EXPECT_DOUBLE_EQ(a.start + a.duration, 11.5);
    }
  EXPECT_TRUE(validate(t.big_jobs, inst).ok);
  EXPECT_EQ(group_total(t), 2);
  EXPECT_DOUBLE_EQ(t.slack, 0.0);
}

TEST(Transform, UnpairedJobStaysInS1WhenNoHostFits) {
  // d = 8. X: t1 = 5.5; H: t1 = 7: 5.5 + 7 = 12.5 > 12: no stacking.
  const Instance inst = table_instance({{5.5, 5.5}, {7, 7}}, 2);
  const auto t = run(inst, {0, 1}, {}, 8.0);
  EXPECT_EQ(t.p0, 0);
  EXPECT_EQ(t.p1, 2);
  for (const auto& a : t.big_jobs.assignments()) EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_TRUE(validate(t.big_jobs, inst).ok);
}

TEST(Transform, RuleThreeMovesS2JobIntoFreeProcessors) {
  // d = 8, m = 4. S1: one cat-3 job on 1 proc (t = 7). S2: job 1 with
  // t = [8, 4, 4, 4]: gamma(d/2) = 2. Rule (iii): q = 3, gamma(12) = 1
  // (t1 = 8 <= 12) and t(1) = 8 <= d, so the job moves into S1 where it
  // lands in category 3 (8 > 6). Shelf 2 empties.
  const Instance inst = table_instance({{7, 7, 7, 7}, {8, 4, 4, 4}}, 4);
  const auto t = run(inst, {0}, {1}, 8.0);
  EXPECT_EQ(t.p2, 0);
  EXPECT_EQ(t.p1, 2);  // both jobs sit in S1 on one processor each
  const auto v = validate(t.big_jobs, inst);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_LE(t.big_jobs.makespan(), 12.0 * (1 + 1e-9));
}

TEST(Transform, S2JobStaysWhenTooWide) {
  // d = 8, m = 2. S1 occupies both processors with cat-3 jobs; the S2 job
  // cannot move (q = 0) and anchors at the horizon.
  const Instance inst = table_instance({{7, 7}, {6.5, 6.5}, {8, 4}}, 2);
  const auto t = run(inst, {0, 1}, {2}, 8.0);
  EXPECT_EQ(t.p2, 2);  // processors, not jobs: the S2 job is 2 wide
  for (const auto& a : t.big_jobs.assignments())
    if (a.job == 2) {
      EXPECT_NEAR(a.start + a.duration, 12.0, 1e-9);  // ends at horizon
    }
  // Processor sharing: S1 job ends by 8 <= start of S2 job (12 - 4 = 8).
  EXPECT_TRUE(validate(t.big_jobs, inst).ok);
}

TEST(Transform, BucketedPolicyBoundsSlack) {
  // Bucketed keys underestimate the host time, so a special-case stack may
  // exceed (3/2)d by at most ~delta*d.
  const double delta = 0.3;
  // Host exact time 7.9 rounds down to ~7.71 on the geom(4, 8, 1+4rho)
  // grid, so the bucketed test 7.71 + 4.2 <= 12 passes while the exact sum
  // 12.1 exceeds the horizon: the stack overshoots by slack <= delta * d.
  const Instance inst = table_instance({{4.2, 4.2}, {7.9, 7.9}}, 2);
  const auto t = run(inst, {0, 1}, {}, 8.0, TransformPolicy::kBucketed, delta);
  EXPECT_TRUE(validate(t.big_jobs, inst).ok);
  EXPECT_EQ(t.p0, 1);  // the stack happened
  EXPECT_GT(t.slack, 0.0);
  EXPECT_LE(t.slack, delta * 8.0 + 1e-9);
  EXPECT_LE(t.big_jobs.makespan(), 12.0 + delta * 8.0 + 1e-9);
}

TEST(Transform, GroupsCoverAllMachinesAcrossRandomInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = jobs::make_instance(jobs::Family::kMixed, 20, 16, seed);
    const double d = 2.2 * inst.trivial_lower_bound();
    std::vector<std::size_t> s1, s2;
    for (std::size_t j = 0; j < inst.size(); ++j) {
      const jobs::Job& job = inst.job(j);
      if (job.t1() <= d / 2) continue;
      if (!job.gamma(d / 2)) {
        s1.push_back(j);  // forced
      } else if (j % 2 == 0) {
        s1.push_back(j);
      } else {
        s2.push_back(j);
      }
    }
    // Keep S1 within m processors (drop overflow into S2) so the premise
    // of the transformation holds.
    procs_t used = 0;
    std::vector<std::size_t> s1_ok;
    for (std::size_t j : s1) {
      const procs_t g = *inst.job(j).gamma(d);
      if (used + g <= 16) {
        used += g;
        s1_ok.push_back(j);
      } else if (inst.job(j).gamma(d / 2)) {
        s2.push_back(j);
      }
    }
    Transformed t;
    try {
      t = run(inst, s1_ok, s2, d);
    } catch (const internal_error&) {
      continue;  // arbitrary selections may violate Lemma 8's premise
    }
    EXPECT_EQ(group_total(t), 16) << "seed=" << seed;
    // The big-jobs schedule alone leaves the small jobs unscheduled, so
    // check capacity and per-assignment durations directly instead of the
    // full validator.
    EXPECT_LE(t.big_jobs.peak_procs(), 16) << "seed=" << seed;
    for (const auto& a : t.big_jobs.assignments()) {
      EXPECT_NEAR(a.duration, inst.job(a.job).time(a.procs),
                  1e-9 * std::max(1.0, a.duration));
      EXPECT_GE(a.start, -1e-9);
    }
    EXPECT_LE(t.big_jobs.makespan(), 1.5 * d * (1 + 1e-9) + t.slack) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace moldable::sched
