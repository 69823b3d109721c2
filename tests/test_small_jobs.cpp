// Tests for next-fit small-job insertion (Lemma 9).
#include <gtest/gtest.h>

#include "src/sched/small_jobs.hpp"
#include "src/util/common.hpp"

namespace moldable::sched {
namespace {

// Runs the insertion into a scratch buffer and returns its placements.
Schedule insert(const std::vector<ProcGroup>& groups, double horizon,
                const std::vector<SmallJobRef>& smalls) {
  util::ScratchArena arena;
  AssignmentList out(arena, smalls.size());
  insert_small_jobs(out, groups, horizon, smalls);
  return Schedule(out);
}

TEST(SmallJobs, FillsFreeWindows) {
  // Horizon 12; two processors with head 6 (free 6 each).
  const std::vector<ProcGroup> groups = {{2, 6.0, 0.0, false}};
  const std::vector<SmallJobRef> smalls = {{0, 4.0}, {1, 4.0}, {2, 2.0}};
  const Schedule s = insert(groups, 12.0, smalls);
  ASSERT_EQ(s.size(), 3u);
  // Next-fit: job 0 at [6,10] on proc 1; job 1 does not fit after it (free
  // 2 < 4) -> proc 2 at [6,10]; job 2 fits after job 1 at [10,12].
  EXPECT_DOUBLE_EQ(s.assignments()[0].start, 6.0);
  EXPECT_DOUBLE_EQ(s.assignments()[1].start, 6.0);
  EXPECT_DOUBLE_EQ(s.assignments()[2].start, 10.0);
}

TEST(SmallJobs, RespectsTails) {
  // free window = [2, 12 - 5] = 5 long.
  const std::vector<ProcGroup> groups = {{1, 2.0, 5.0, false}};
  const Schedule s = insert(groups, 12.0, {{0, 5.0}});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.assignments()[0].start, 2.0);
  EXPECT_DOUBLE_EQ(s.assignments()[0].duration, 5.0);
}

TEST(SmallJobs, SkipsFullGroupsWholesale) {
  const std::vector<ProcGroup> groups = {
      {3, 11.5, 0.0, false},  // free 0.5: useless for t1 = 1
      {1, 0.0, 0.0, false},
  };
  const Schedule s = insert(groups, 12.0, {{0, 1.0}, {1, 1.0}});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.assignments()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s.assignments()[1].start, 1.0);
}

TEST(SmallJobs, ThrowsWhenNothingFits) {
  const std::vector<ProcGroup> groups = {{2, 11.0, 0.5, false}};
  EXPECT_THROW(insert(groups, 12.0, {{0, 3.0}}), internal_error);
}

TEST(SmallJobs, EmptySmallSetIsNoop) {
  const Schedule s = insert({}, 12.0, {});
  EXPECT_TRUE(s.empty());
}

TEST(SmallJobs, LemmaNineCapacityArgument) {
  // Work-bound scenario: m = 4 processors, horizon 3/2 d with d = 8;
  // shelf load leaves total free time >= total small work -> must fit.
  const std::vector<ProcGroup> groups = {
      {1, 8.0, 0.0, false}, {1, 6.0, 4.0, false}, {2, 0.0, 0.0, false}};
  // Free: 4 + 2 + 12 + 12 = 30. Small jobs: 12 jobs of 2.0 (t1 <= d/2 = 4).
  std::vector<SmallJobRef> smalls;
  for (std::size_t i = 0; i < 12; ++i) smalls.push_back({i, 2.0});
  const Schedule s = insert(groups, 12.0, smalls);
  EXPECT_EQ(s.size(), 12u);
  // All placements within the horizon.
  for (const auto& a : s.assignments()) {
    EXPECT_GE(a.start, 0.0);
    EXPECT_LE(a.start + a.duration, 12.0 + 1e-9);
  }
}

}  // namespace
}  // namespace moldable::sched
