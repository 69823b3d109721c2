// Unified front-end: the paper's composition of its algorithms.
//
//   * m large (Theorem 2 regime): the FPTAS — ratio 1 + eps;
//   * otherwise: one of the (3/2 + eps) algorithms; the default is the
//     linear variant of Algorithm 3 (Table 1, row 3), the paper's headline.
//
// (Section 3.2's full PTAS would plug the Jansen-Thöle PTAS [14] into the
// small-m branch; that external algorithm is out of scope here — see
// DESIGN.md "Substitutions" — so the small-m branch guarantees 3/2 + eps.)
#pragma once

#include <string>

#include "src/core/estimator.hpp"
#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"

namespace moldable::core {

enum class Algorithm {
  kAuto,           ///< FPTAS when valid, else Algorithm 3 (linear variant)
  kFptas,          ///< Theorem 2 (requires m >= 24 n / eps)
  kMrt,            ///< Section 4.1 baseline, O(nm) per dual call
  kCompressible,   ///< Algorithm 1 (Section 4.2.5), Table 1 row 1
  kBounded,        ///< Algorithm 3 (Section 4.3), Table 1 row 2
  kBoundedLinear,  ///< Algorithm 3 linear variant (Section 4.3.3), row 3
  kLudwigTiwari,   ///< estimator + list scheduling: the classic 2-approx
};

std::string algorithm_name(Algorithm a);

struct ScheduleResult {
  sched::Schedule schedule;
  Algorithm used = Algorithm::kAuto;
  double lower_bound = 0;   ///< certified lower bound on OPT
  double makespan = 0;
  double ratio_vs_lower = 0;  ///< makespan / lower_bound (>= true ratio)
  int dual_calls = 0;
  double guarantee = 0;     ///< proven approximation factor of `used`
};

/// Schedules the instance with approximation parameter eps in (0, 1].
/// Guarantee: makespan <= (1 + eps) OPT in the FPTAS regime, else
/// (3/2 + eps) OPT ((2) for kLudwigTiwari, where eps is ignored).
/// `estimate` (optional) is the instance's Ludwig-Tiwari estimate when the
/// caller already holds it — every algorithm opens with that estimate, so a
/// caller running several algorithms on one instance computes it once.
/// Null runs estimate_makespan inside. It never changes the result.
ScheduleResult schedule_moldable(const jobs::Instance& instance, double eps,
                                 Algorithm algo = Algorithm::kAuto,
                                 const EstimatorResult* estimate = nullptr);

/// The Section 3.2 PTAS composition. The paper splits on m >= 8n/eps:
/// above, the Theorem 2 FPTAS gives (1+eps); below, it invokes the
/// Jansen-Thoele PTAS [14] — an external algorithm this library substitutes
/// (see DESIGN.md): instances within the exact solver's caps are solved
/// optimally (guarantee 1), everything else falls back to Algorithm 3 with
/// guarantee 3/2+eps. The returned `guarantee` field reports which branch
/// ran; callers needing a true PTAS for mid-size low-m instances must
/// accept the documented substitution. `estimate` as in schedule_moldable.
ScheduleResult ptas_schedule(const jobs::Instance& instance, double eps,
                             const EstimatorResult* estimate = nullptr);

}  // namespace moldable::core
