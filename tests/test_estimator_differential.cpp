// Differential fuzz of the bracketed Ludwig-Tiwari estimator against the
// full-range reference (tests/estimator_reference.hpp): on every instance
// both must return the same omega, threshold, A, T, allotment and
// evaluation count, bit for bit. The instance mix covers every generator
// family, long table plateaus (pivot ties), rigid, logarithmic and scaled
// oracles, m in {1, 2, 3, 4096, 2^40}, single-job instances, and jobs whose
// times sit within kRelTol of one another. A second suite checks that every
// built-in solver returns the same bits whether it is handed the estimate
// or runs the estimator itself.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/estimator.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/generators.hpp"
#include "src/util/prng.hpp"
#include "tests/estimator_reference.hpp"

namespace moldable::core {
namespace {

using jobs::Instance;
using jobs::Job;

constexpr procs_t kMachineCounts[] = {1, 2, 3, 4096, procs_t{1} << 40};

/// Compares both estimators on `inst`; returns false (after reporting) on
/// the first differing field so a failing sweep stops at its first witness.
bool same_bits(const Instance& inst, const std::string& what) {
  const EstimatorResult got = estimate_makespan(inst);
  const EstimatorResult want = reference::estimate_makespan(inst);
  const auto b = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(b(got.omega), b(want.omega)) << what;
  EXPECT_EQ(b(got.threshold), b(want.threshold)) << what;
  EXPECT_EQ(b(got.avg_work), b(want.avg_work)) << what;
  EXPECT_EQ(b(got.max_time), b(want.max_time)) << what;
  EXPECT_EQ(got.allotment, want.allotment) << what;
  EXPECT_EQ(got.evaluations, want.evaluations) << what;
  return b(got.omega) == b(want.omega) && b(got.threshold) == b(want.threshold) &&
         b(got.avg_work) == b(want.avg_work) && b(got.max_time) == b(want.max_time) &&
         got.allotment == want.allotment && got.evaluations == want.evaluations;
}

procs_t pick_m(util::Prng& rng, bool table) {
  // Tables are Theta(m) per job: cap them at 4096.
  const int options = table ? 4 : 5;
  return kMachineCounts[rng.uniform_int(0, options - 1)];
}

/// n in [1, cap], biased small where m is huge (each probe sequence there is
/// ~40 deep, and the reference re-runs it for every job in every round).
std::size_t pick_n(util::Prng& rng, procs_t m) {
  const std::int64_t cap = m > 4096 ? 6 : 16;
  return static_cast<std::size_t>(rng.uniform_int(1, cap));
}

TEST(EstimatorDifferential, EveryGeneratorFamily) {
  util::Prng rng(0xE571);
  std::size_t checked = 0;
  for (int round = 0; round < 6000; ++round) {
    for (const jobs::Family family : jobs::all_families()) {
      const bool table = family == jobs::Family::kTable;
      const procs_t m = pick_m(rng, table);
      const std::size_t n = pick_n(rng, m);
      const std::uint64_t seed = rng.next_u64();
      const Instance inst = jobs::make_instance(family, n, m, seed);
      ASSERT_TRUE(same_bits(inst, jobs::family_name(family) + " n=" + std::to_string(n) +
                                      " m=" + std::to_string(m) +
                                      " seed=" + std::to_string(seed)));
      ++checked;
    }
  }
  EXPECT_EQ(checked, 54000u);
}

/// A non-increasing table drawn from a handful of shared levels: long
/// plateaus inside a job and equal values across jobs, so pivots tie.
std::vector<double> plateau_table(util::Prng& rng, procs_t m, double unit) {
  std::vector<double> t(static_cast<std::size_t>(m));
  std::int64_t level = rng.uniform_int(1, 12);
  for (procs_t k = 0; k < m; ++k) {
    if (k > 0 && level > 1 && rng.bernoulli(0.05)) level -= rng.uniform_int(1, level - 1);
    t[static_cast<std::size_t>(k)] = unit * static_cast<double>(level);
  }
  return t;
}

TEST(EstimatorDifferential, TablePlateausTieAtPivots) {
  util::Prng rng(0x71E5);
  std::size_t checked = 0;
  for (int i = 0; i < 16000; ++i) {
    const procs_t m = pick_m(rng, /*table=*/true);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, m >= 4096 ? 4 : 12));
    const double unit = rng.bernoulli(0.5) ? 1.0 : rng.log_uniform(0.01, 100.0);
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < n; ++j)
      jobs.emplace_back(std::make_shared<jobs::TableTime>(plateau_table(rng, m, unit),
                                                          /*require_monotone_work=*/false),
                        m);
    ASSERT_TRUE(same_bits(Instance(std::move(jobs), m), "plateau table i=" + std::to_string(i)));
    ++checked;
  }
  EXPECT_EQ(checked, 16000u);
}

/// More than 32 jobs: while over 32 candidates stay active, the pivot
/// comes from the weighted quickselect rather than the sort. Generator
/// families alternate with plateau tables, whose levels tie across jobs.
TEST(EstimatorDifferential, ManyJobsTakeTheSelectionPath) {
  util::Prng rng(0x5E1EC7);
  const auto families = jobs::all_families();
  constexpr procs_t kMachines[] = {2, 3, 64, 4096};
  std::size_t checked = 0;
  for (int i = 0; i < 400; ++i) {
    const procs_t m = kMachines[i % 4];
    const auto n = static_cast<std::size_t>(rng.uniform_int(33, 200));
    const std::string what = "i=" + std::to_string(i) + " n=" + std::to_string(n);
    if (i % 2 == 0) {
      const jobs::Family family = families[static_cast<std::size_t>(i / 2) % families.size()];
      ASSERT_TRUE(same_bits(jobs::make_instance(family, n, m, rng.next_u64()), what));
    } else {
      std::vector<Job> jobs;
      for (std::size_t j = 0; j < n; ++j)
        jobs.emplace_back(std::make_shared<jobs::TableTime>(plateau_table(rng, m, 1.0),
                                                            /*require_monotone_work=*/false),
                          m);
      ASSERT_TRUE(same_bits(Instance(std::move(jobs), m), "plateau " + what));
    }
    ++checked;
  }
  EXPECT_EQ(checked, 400u);
}

TEST(EstimatorDifferential, RigidLogAndScaledOracles) {
  util::Prng rng(0x51D);
  std::size_t checked = 0;
  for (int i = 0; i < 16000; ++i) {
    const procs_t m = pick_m(rng, /*table=*/false);
    const std::size_t n = pick_n(rng, m);
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < n; ++j) {
      const double t = rng.log_uniform(1.0, 1000.0);
      jobs::PtfPtr f;
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          const procs_t size = static_cast<procs_t>(
              rng.uniform_int(1, static_cast<std::int64_t>(std::min<procs_t>(m, 1 << 20))));
          f = std::make_shared<jobs::RigidStepTime>(t, size, t * rng.uniform_real(1.0, 50.0));
          break;
        }
        case 1:
          f = std::make_shared<jobs::LogSpeedupTime>(t);
          break;
        default:
          f = std::make_shared<jobs::ScaledTime>(
              std::make_shared<jobs::AmdahlTime>(t, rng.uniform01()),
              rng.log_uniform(0.1, 10.0));
          break;
      }
      jobs.emplace_back(std::move(f), m);
    }
    ASSERT_TRUE(same_bits(Instance(std::move(jobs), m), "oracle mix i=" + std::to_string(i)));
    ++checked;
  }
  EXPECT_EQ(checked, 16000u);
}

TEST(EstimatorDifferential, SingleJobInstances) {
  util::Prng rng(0x1);
  std::size_t checked = 0;
  for (int i = 0; i < 8000; ++i) {
    const jobs::Family family = jobs::all_families()[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(jobs::all_families().size()) - 1))];
    const procs_t m = pick_m(rng, family == jobs::Family::kTable);
    ASSERT_TRUE(same_bits(jobs::make_instance(family, 1, m, rng.next_u64()),
                          "single job " + jobs::family_name(family) + " i=" + std::to_string(i)));
    ++checked;
  }
  EXPECT_EQ(checked, 8000u);
}

TEST(EstimatorDifferential, JobTimesWithinTolerance) {
  // Every job is one base oracle scaled by 1 + e_j with |e_j| at or below
  // kRelTol, so t_i(k) and t_j(k) compare equal under leq_tol in both
  // directions and the pivots land on near-ties.
  util::Prng rng(0x70E);
  std::size_t checked = 0;
  for (int i = 0; i < 8000; ++i) {
    const bool table = rng.bernoulli(0.3);
    const procs_t m = pick_m(rng, table);
    const std::size_t n = pick_n(rng, m);
    const double t1 = rng.log_uniform(0.5, 500.0);
    jobs::PtfPtr base;
    if (table)
      base = std::make_shared<jobs::TableTime>(jobs::random_monotone_table(m, t1, rng.next_u64()));
    else
      base = std::make_shared<jobs::AmdahlTime>(t1, rng.uniform01());
    std::vector<Job> jobs;
    for (std::size_t j = 0; j < n; ++j) {
      const double e = kRelTol * rng.uniform_real(-1.0, 1.0) * (rng.bernoulli(0.5) ? 1.0 : 1e-3);
      jobs.emplace_back(std::make_shared<jobs::ScaledTime>(base, 1.0 + e), m);
    }
    ASSERT_TRUE(same_bits(Instance(std::move(jobs), m), "near ties i=" + std::to_string(i)));
    ++checked;
  }
  EXPECT_EQ(checked, 8000u);
}

/// Every field of a ScheduleResult, bit for bit.
void expect_same_result(const ScheduleResult& a, const ScheduleResult& b,
                        const std::string& what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(a.used, b.used) << what;
  EXPECT_EQ(bits(a.lower_bound), bits(b.lower_bound)) << what;
  EXPECT_EQ(bits(a.makespan), bits(b.makespan)) << what;
  EXPECT_EQ(bits(a.ratio_vs_lower), bits(b.ratio_vs_lower)) << what;
  EXPECT_EQ(bits(a.guarantee), bits(b.guarantee)) << what;
  EXPECT_EQ(a.dual_calls, b.dual_calls) << what;
  const auto& x = a.schedule.assignments();
  const auto& y = b.schedule.assignments();
  ASSERT_EQ(x.size(), y.size()) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].job, y[i].job) << what << " assignment " << i;
    EXPECT_EQ(bits(x[i].start), bits(y[i].start)) << what << " assignment " << i;
    EXPECT_EQ(x[i].procs, y[i].procs) << what << " assignment " << i;
    EXPECT_EQ(bits(x[i].duration), bits(y[i].duration)) << what << " assignment " << i;
  }
}

TEST(EstimateCarry, EveryBuiltinVariantIsBitwiseEqualGivenTheEstimate) {
  // Instances reaching every branch: the (3/2 + eps) algorithms, the FPTAS
  // regime (m >= 24 n / eps), the exact solver's caps, and the memory axis.
  std::vector<Instance> instances;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    instances.push_back(jobs::make_instance(jobs::Family::kMixed, 12, 32, seed));
    instances.push_back(jobs::make_instance(jobs::Family::kTable, 5, 6, seed));
    instances.push_back(jobs::make_instance(jobs::Family::kAmdahl, 4, 4096, seed));
    instances.push_back(jobs::make_instance(jobs::Family::kLogSpeedup, 3, 8, seed));
    jobs::GeneratorConfig mem;
    mem.memory_capacity = 4;
    mem.mem_min = 1;
    mem.mem_max = 12;
    instances.push_back(jobs::make_instance(jobs::Family::kPowerLaw, 6, 8, seed, mem));
  }
  const engine::AlgorithmRegistry& registry = engine::AlgorithmRegistry::global();
  std::size_t compared = 0;
  for (const std::string& name : registry.names()) {
    for (const Instance& inst : instances) {
      const EstimatorResult est = estimate_makespan(inst);
      for (const double eps : {0.1, 0.5}) {
        const std::string what = name + " on " + inst.name() + " m=" +
                                 std::to_string(inst.machines()) + " eps=" + std::to_string(eps);
        engine::SolverConfig plain;
        plain.eps = eps;
        engine::SolverConfig given = plain;
        given.estimate = &est;
        ScheduleResult a, b;
        std::string error_a, error_b;
        try {
          a = registry.solve(name, inst, plain);
        } catch (const std::exception& e) {
          error_a = e.what();
        }
        try {
          b = registry.solve(name, inst, given);
        } catch (const std::exception& e) {
          error_b = e.what();
        }
        EXPECT_EQ(error_a, error_b) << what;
        if (error_a.empty() && error_b.empty()) {
          expect_same_result(a, b, what);
          ++compared;
        }
      }
    }
  }
  // Every variant solved something (the failures are capability and regime
  // errors, raised identically either way).
  EXPECT_GE(compared, registry.names().size() * 4);
}

}  // namespace
}  // namespace moldable::core
