// Direct tests for the shared dual-algorithm back-end (core/pipeline):
// small/big splitting, the Lemma 6 work-bound rejection, forced-job
// contracts, and the assembly statistics.
#include <gtest/gtest.h>

#include "src/core/estimator.hpp"
#include "src/core/pipeline.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(SplitSmallBig, ThresholdIsHalfD) {
  const Instance inst = make_instance(Family::kMixed, 30, 64, 3);
  const double d = 2 * inst.trivial_lower_bound();
  const BigSmallSplit split = split_small_big(inst, d);
  EXPECT_EQ(split.small.size() + split.big.size(), inst.size());
  double ws = 0;
  for (std::size_t j : split.small) {
    EXPECT_LE(inst.job(j).t1(), d / 2 * (1 + 1e-9));
    ws += inst.job(j).t1();
  }
  for (std::size_t j : split.big) EXPECT_GT(inst.job(j).t1(), d / 2 * (1 - 1e-9));
  EXPECT_NEAR(split.small_work, ws, 1e-9 * std::max(1.0, ws));
}

TEST(SplitSmallBig, ExtremeDeadlines) {
  const Instance inst = make_instance(Family::kAmdahl, 10, 32, 5);
  // Huge d: everything small. Tiny d: everything big.
  EXPECT_EQ(split_small_big(inst, 1e12).big.size(), 0u);
  EXPECT_EQ(split_small_big(inst, 1e-9).small.size(), 0u);
}

TEST(DeadlineInfeasible, DetectsImpossibleDeadlines) {
  const Instance inst = make_instance(Family::kAmdahl, 5, 16, 7);
  EXPECT_TRUE(deadline_infeasible(inst, inst.min_time_bound() * 0.9));
  EXPECT_FALSE(deadline_infeasible(inst, inst.min_time_bound() * 1.1));
}

TEST(AssembleSchedule, RejectsWhenForcedJobMissing) {
  // A job with t(m) > d/2 must be passed in s1_jobs; omitting it is a
  // caller bug that assemble converts to a rejection.
  std::vector<jobs::Job> jv;
  jv.emplace_back(std::make_shared<jobs::AmdahlTime>(10.0, 0.0), 4);  // constant 10
  const Instance inst(std::move(jv), 4);
  const double d = 12.0;  // d/2 = 6 < 10 = t(m): forced
  EXPECT_FALSE(assemble_schedule(inst, d, {}, sched::TransformPolicy::kExactHeap, 0.2)
                   .has_value());
  // Including it succeeds (one big job alone trivially fits).
  const auto ok = assemble_schedule(inst, d, {0}, sched::TransformPolicy::kExactHeap, 0.2);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(sched::validate(*ok, inst).ok);
}

TEST(AssembleSchedule, WorkBoundRejection) {
  // Shelf-2 placement of every big job maximizes work; with a deadline just
  // above OPT/1.5 the bound md - W_S must eventually reject.
  const Instance inst = make_instance(Family::kPowerLaw, 20, 32, 9);
  const EstimatorResult est = estimate_makespan(inst);
  // At a hopeless level every selection is rejected (work bound or forced
  // contract): pick d far below omega.
  AssemblyStats stats;
  const auto out = assemble_schedule(inst, est.omega * 0.2, {},
                                     sched::TransformPolicy::kExactHeap, 0.2, &stats);
  EXPECT_FALSE(out.has_value());
}

TEST(AssembleSchedule, StatsAreConsistent) {
  const Instance inst = make_instance(Family::kMixed, 24, 64, 11);
  const EstimatorResult est = estimate_makespan(inst);
  const double d = 2 * est.omega;
  const BigSmallSplit split = split_small_big(inst, d);
  // Everything into shelf 1 (gamma(d) always defined at 2*omega; total may
  // exceed m, in which case assemble rejects — try shrinking).
  const std::vector<std::size_t> s1(split.big.begin(), split.big.end());
  AssemblyStats stats;
  const auto out =
      assemble_schedule(inst, d, s1, sched::TransformPolicy::kExactHeap, 0.2, &stats);
  if (!out) GTEST_SKIP() << "all-in-shelf-1 infeasible for this instance";
  EXPECT_GE(stats.work_bound, 0);
  EXPECT_LE(stats.work, stats.work_bound * (1 + 1e-9));
  EXPECT_LE(stats.shelf1_procs, inst.machines());
  EXPECT_EQ(stats.shelf2_procs, 0);
  EXPECT_LE(stats.p0 + stats.p1, inst.machines());
  EXPECT_TRUE(sched::validate(*out, inst).ok);
}

TEST(AssembleSchedule, SmallJobsReintegrated) {
  // d large enough that some jobs are small: they must appear in the final
  // schedule on one processor each.
  const Instance inst = make_instance(Family::kHighVariance, 40, 64, 13);
  const EstimatorResult est = estimate_makespan(inst);
  const double d = 2 * est.omega;
  const BigSmallSplit split = split_small_big(inst, d);
  if (split.small.empty()) GTEST_SKIP() << "no small jobs at this deadline";
  std::vector<std::size_t> s1;
  procs_t used = 0;
  for (std::size_t j : split.big) {
    const auto g = inst.job(j).gamma(d);
    if (g && used + *g <= inst.machines() && inst.job(j).gamma(d / 2)) {
      s1.push_back(j);
      used += *g;
    } else if (!inst.job(j).gamma(d / 2)) {
      s1.push_back(j);  // forced
      used += g.value_or(0);
    }
  }
  const auto out = assemble_schedule(inst, d, s1, sched::TransformPolicy::kExactHeap, 0.2);
  ASSERT_TRUE(out.has_value());
  for (std::size_t j : split.small) {
    bool found = false;
    for (const auto& a : out->assignments())
      if (a.job == j) {
        found = true;
        EXPECT_EQ(a.procs, 1);
      }
    EXPECT_TRUE(found) << "small job " << j << " missing";
  }
}

TEST(AssembleSchedule, BucketedPolicySlackWithinDelta) {
  const Instance inst = make_instance(Family::kMixed, 30, 48, 17);
  const EstimatorResult est = estimate_makespan(inst);
  const double d = 2 * est.omega;
  const double delta = 0.3;
  const BigSmallSplit split = split_small_big(inst, d);
  std::vector<std::size_t> s1;
  for (std::size_t j : split.big)
    if (!inst.job(j).gamma(d / 2)) s1.push_back(j);
  const auto out = assemble_schedule(inst, d, s1, sched::TransformPolicy::kBucketed, delta);
  if (!out) GTEST_SKIP();
  EXPECT_LE(out->makespan(), 1.5 * d + delta * d + 1e-9);
  EXPECT_TRUE(sched::validate(*out, inst).ok);
}

}  // namespace
}  // namespace moldable::core
