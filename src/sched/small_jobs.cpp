#include "src/sched/small_jobs.hpp"

#include <algorithm>

namespace moldable::sched {

void insert_small_jobs(AssignmentList& schedule, std::span<const ProcGroup> groups,
                       double horizon, std::span<const SmallJobRef> small_jobs) {
  if (small_jobs.empty()) return;

  std::size_t gi = 0;         // current group
  procs_t used = 0;           // processors of the current group already passed
  double cur_head = gi < groups.size() ? groups[0].head : 0;

  auto advance_proc = [&]() {
    // Move to the next processor: first within the group, else next group.
    if (gi < groups.size() && used + 1 < groups[gi].count) {
      ++used;
      cur_head = groups[gi].head;
    } else {
      ++gi;
      used = 0;
      if (gi < groups.size()) cur_head = groups[gi].head;
    }
  };

  for (const SmallJobRef& sj : small_jobs) {
    for (;;) {
      check_invariant(gi < groups.size(),
                      "Lemma 9 violated: small job does not fit on any processor");
      const double free = horizon - cur_head - groups[gi].tail;
      if (leq_tol(sj.t1, free)) {
        schedule.push_back({sj.job, cur_head, 1, sj.t1});
        cur_head += sj.t1;
        break;
      }
      const bool fresh = cur_head <= groups[gi].head + kRelTol * std::max(1.0, groups[gi].head);
      if (fresh) {
        // All processors of this group look identical: skip the group. This
        // is the "discard the whole group" step that makes the sweep linear.
        ++gi;
        used = 0;
        if (gi < groups.size()) cur_head = groups[gi].head;
      } else {
        advance_proc();
      }
    }
  }
}

}  // namespace moldable::sched
