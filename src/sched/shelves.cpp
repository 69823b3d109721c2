#include "src/sched/shelves.hpp"

namespace moldable::sched {

procs_t TwoShelfSchedule::procs_s1() const {
  procs_t p = 0;
  for (const auto& e : s1) p += e.procs;
  return p;
}

procs_t TwoShelfSchedule::procs_s2() const {
  procs_t p = 0;
  for (const auto& e : s2) p += e.procs;
  return p;
}

double TwoShelfSchedule::work() const {
  double w = 0;
  for (const auto& e : s1) w += static_cast<double>(e.procs) * e.time;
  for (const auto& e : s2) w += static_cast<double>(e.procs) * e.time;
  return w;
}

TwoShelfSchedule build_two_shelf(const jobs::Instance& instance,
                                 std::span<const std::size_t> big_jobs,
                                 std::span<const char> in_shelf1, double d) {
  util::ScratchArena& arena = util::scratch_arena();
  std::size_t in_s1 = 0;
  for (std::size_t i = 0; i < big_jobs.size(); ++i) in_s1 += in_shelf1[i] ? 1 : 0;
  TwoShelfSchedule ts{d, util::ScratchList<ShelfEntry>(arena, in_s1),
                      util::ScratchList<ShelfEntry>(arena, big_jobs.size() - in_s1)};
  for (std::size_t i = 0; i < big_jobs.size(); ++i) {
    const std::size_t j = big_jobs[i];
    const jobs::Job& job = instance.job(j);
    const double deadline = in_shelf1[i] ? d : d / 2;
    const auto g = job.gamma(deadline);
    check_invariant(g.has_value(),
                    "build_two_shelf: gamma undefined for a shelf placement");
    ShelfEntry e{j, *g, job.time(*g)};
    (in_shelf1[i] ? ts.s1 : ts.s2).push_back(e);
  }
  return ts;
}

}  // namespace moldable::sched
