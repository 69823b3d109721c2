// Batch-engine tests: spec parsing, the combined-certificate semantics
// (min makespan / max lower bound), winner selection determinism across
// thread counts, all-variants-fail isolation, the one-variant single-solver
// mode (auto resolution, failure isolation, memoization, stats ladders),
// the early-cancel rule on mock solvers, the per-attempt guarantee check,
// and the one-estimator-run-per-instance rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "src/core/estimator.hpp"
#include "src/core/scheduler.hpp"
#include "src/engine/portfolio.hpp"
#include "src/jobs/generators.hpp"

namespace moldable::engine {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

std::vector<Instance> small_batch(std::size_t count, procs_t m = 64) {
  std::vector<Instance> batch;
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(make_instance(families[i % families.size()], 16, m, 100 + i));
  return batch;
}

TEST(PortfolioSpec, ParsesAndTrims) {
  EXPECT_EQ(parse_portfolio_spec("fptas,mrt"),
            (std::vector<std::string>{"fptas", "mrt"}));
  EXPECT_EQ(parse_portfolio_spec(" fptas ,\tmrt , lt-2approx"),
            (std::vector<std::string>{"fptas", "mrt", "lt-2approx"}));
  EXPECT_EQ(parse_portfolio_spec("auto"), (std::vector<std::string>{"auto"}));
}

TEST(PortfolioSpec, RejectsEmptyAndDuplicates) {
  EXPECT_THROW(parse_portfolio_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("fptas,,mrt"), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("fptas,"), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("mrt,mrt"), std::invalid_argument);
  // Duplicates must be caught after trimming (the canonical name is what
  // would run twice), and the diagnostic must name the offender clearly.
  EXPECT_THROW(parse_portfolio_spec("fptas, fptas"), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("fptas,mrt,exact,mrt"), std::invalid_argument);
  try {
    parse_portfolio_spec("fptas,fptas");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    EXPECT_NE(what.find("'fptas'"), std::string::npos) << what;
  }
}

TEST(PortfolioSolver, InvalidConfigThrowsUpFront) {
  const auto batch = small_batch(2);
  PortfolioConfig empty;
  EXPECT_THROW(PortfolioSolver().solve(batch, empty), std::invalid_argument);

  PortfolioConfig unknown;
  unknown.variants = {"mrt", "no-such-solver"};
  try {
    PortfolioSolver().solve(batch, unknown);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known:"), std::string::npos);
  }

  PortfolioConfig duplicate;
  duplicate.variants = {"mrt", "mrt"};
  EXPECT_THROW(PortfolioSolver().solve(batch, duplicate), std::invalid_argument);

  PortfolioConfig bad_eps;
  bad_eps.variants = {"mrt"};
  bad_eps.eps = 0;
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_eps), std::invalid_argument);
}

TEST(PortfolioSolver, SingleVariantMatchesTheRegistrySolve) {
  const auto batch = small_batch(12);
  PortfolioConfig pc;
  pc.variants = {"algorithm1"};
  pc.eps = 0.25;
  const PortfolioResult p = PortfolioSolver().solve(batch, pc);
  EXPECT_TRUE(p.single_variant);

  SolverConfig sc;
  sc.eps = 0.25;
  for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
    const core::ScheduleResult direct =
        AlgorithmRegistry::global().solve("algorithm1", batch[i], sc);
    const PortfolioOutcome& o = p.outcomes[i];
    ASSERT_TRUE(o.ok) << i;
    ASSERT_EQ(o.attempts.size(), 1u);
    EXPECT_EQ(o.winner, "algorithm1");
    EXPECT_EQ(o.attempts[0].solver(), "algorithm1");
    EXPECT_DOUBLE_EQ(o.makespan, direct.makespan);
    EXPECT_DOUBLE_EQ(o.lower_bound, direct.lower_bound);
    EXPECT_DOUBLE_EQ(o.attempts[0].ratio, direct.ratio_vs_lower);
    EXPECT_DOUBLE_EQ(o.guarantee, direct.guarantee);
    EXPECT_EQ(o.attempts[0].dual_calls, direct.dual_calls);
  }
  ASSERT_EQ(p.per_variant.size(), 1u);
  EXPECT_EQ(p.per_variant[0].wins, p.solved);
  EXPECT_EQ(p.per_variant[0].solved, p.solved);
  EXPECT_DOUBLE_EQ(p.per_variant[0].gap_mean, 0.0);
  EXPECT_DOUBLE_EQ(p.per_variant[0].gap_max, 0.0);
}

TEST(PortfolioSolver, CombinedCertificateIsAtLeastAsTightAsEveryVariant) {
  const auto batch = small_batch(18);
  PortfolioConfig pc;
  pc.variants = {"mrt", "algorithm1", "lt-2approx"};
  pc.eps = 0.3;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, batch.size());

  for (const PortfolioOutcome& o : r.outcomes) {
    ASSERT_TRUE(o.ok) << o.index;
    ASSERT_EQ(o.attempts.size(), 3u);
    bool winner_attains_best = false;
    for (const VariantAttempt& a : o.attempts) {
      if (!a.ok) continue;
      EXPECT_LE(o.makespan, a.makespan) << o.index << " " << a.algorithm;
      EXPECT_GE(o.lower_bound, a.lower_bound) << o.index << " " << a.algorithm;
      EXPECT_LE(o.ratio, a.ratio + 1e-12) << o.index << " " << a.algorithm;
      if (a.algorithm == o.winner) {
        winner_attains_best = a.makespan == o.makespan;
        EXPECT_GE(o.guarantee, 0);
        EXPECT_LE(o.guarantee, a.guarantee);
      }
    }
    EXPECT_TRUE(winner_attains_best) << o.index;
    EXPECT_GE(o.ratio, 1.0 - 1e-9) << o.index;
  }
}

TEST(PortfolioSolver, DeterministicAcrossThreadCounts) {
  const auto batch = small_batch(24);
  PortfolioConfig serial;
  serial.variants = {"mrt", "algorithm3-linear", "lt-2approx"};
  serial.threads = 1;
  PortfolioConfig parallel = serial;
  parallel.threads = 5;

  const PortfolioResult a = PortfolioSolver().solve(batch, serial);
  const PortfolioResult b = PortfolioSolver().solve(batch, parallel);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), PortfolioSolver().solve(batch, serial).digest());

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const PortfolioOutcome& x = a.outcomes[i];
    const PortfolioOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.ok, y.ok);
    EXPECT_DOUBLE_EQ(x.makespan, y.makespan);
    EXPECT_DOUBLE_EQ(x.lower_bound, y.lower_bound);
    EXPECT_DOUBLE_EQ(x.ratio, y.ratio);
    EXPECT_DOUBLE_EQ(x.guarantee, y.guarantee);
    // Winner identity is deterministic whenever the best makespan is
    // attained by exactly one variant (wall time only breaks exact ties).
    std::size_t best_count = 0;
    for (const VariantAttempt& att : x.attempts)
      if (att.ok && att.makespan == x.makespan) ++best_count;
    if (best_count == 1) {
      EXPECT_EQ(x.winner, y.winner) << i;
    }
    ASSERT_EQ(x.attempts.size(), y.attempts.size());
    for (std::size_t v = 0; v < x.attempts.size(); ++v) {
      EXPECT_EQ(x.attempts[v].ok, y.attempts[v].ok);
      EXPECT_DOUBLE_EQ(x.attempts[v].makespan, y.attempts[v].makespan);
      EXPECT_DOUBLE_EQ(x.attempts[v].lower_bound, y.attempts[v].lower_bound);
    }
  }
}

TEST(PortfolioSolver, AllVariantsFailIsIsolatedToTheOffendingInstance) {
  // `exact` hard-caps at tiny instances and `fptas` requires a large machine
  // count relative to n: the middle instance violates both, so every variant
  // fails on it, while its neighbours solve via `exact`.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 4, 8, 21));
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over both caps
  batch.push_back(make_instance(Family::kMixed, 4, 8, 23));
  PortfolioConfig pc;
  pc.variants = {"exact", "fptas"};
  pc.eps = 0.5;
  pc.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_TRUE(r.outcomes[1].winner.empty());
  for (const VariantAttempt& a : r.outcomes[1].attempts) {
    EXPECT_FALSE(a.ok);
    EXPECT_FALSE(a.error.empty()) << a.algorithm;
  }
  EXPECT_TRUE(r.outcomes[2].ok);
  EXPECT_EQ(r.outcomes[0].winner, "exact");
  // fptas never solves anything here. On the tiny outer instances `exact`
  // completes at the certified lower bound (omega == OPT for these), so the
  // early-cancel rule excludes fptas there — only the middle instance, where
  // exact itself fails, records an fptas *failure*.
  ASSERT_EQ(r.per_variant.size(), 2u);
  EXPECT_EQ(r.per_variant[1].algorithm, "fptas");
  EXPECT_EQ(r.per_variant[1].solved, 0u);
  EXPECT_EQ(r.per_variant[1].failed, 1u);
  EXPECT_EQ(r.per_variant[1].cancelled, 2u);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(r.outcomes[1].attempts[1].outcome, AttemptOutcome::kFailed);
  EXPECT_EQ(r.outcomes[2].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(r.cancelled_attempts, 2u);
  EXPECT_GT(r.per_variant[1].wall_total, 0);
}

Instance memory_capped(std::uint64_t seed) {
  Instance inst = make_instance(Family::kAmdahl, 4, 8, seed);
  inst.set_memory_capacity(4.0);
  inst.set_job_memory({10.0, 1.0, 6.0, 3.0});  // kmin = {3, 1, 2, 1}
  return inst;
}

TEST(PortfolioSolver, MemoryBlindVariantsAreDroppedFromCappedInstances) {
  // A mixed portfolio degrades gracefully: the memory-constrained middle
  // instance runs only the memory-aware lane, its neighbours run both.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kAmdahl, 4, 8, 31));
  batch.push_back(memory_capped(32));
  batch.push_back(make_instance(Family::kAmdahl, 4, 8, 33));
  PortfolioConfig pc;
  pc.variants = {"lt-2approx", "mem-greedy"};
  pc.eps = 0.5;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, 3u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.outcomes[1].attempts.size(), 1u);  // blind lane dropped, not failed
  EXPECT_EQ(r.outcomes[1].attempts[0].algorithm, "mem-greedy");
  EXPECT_EQ(r.outcomes[1].winner, "mem-greedy");
  EXPECT_EQ(r.outcomes[0].attempts.size(), 2u);
  EXPECT_EQ(r.outcomes[2].attempts.size(), 2u);

  // The filter is part of the deterministic plan: digests match across
  // thread counts.
  PortfolioConfig serial = pc;
  serial.threads = 1;
  PortfolioConfig parallel = pc;
  parallel.threads = 4;
  EXPECT_EQ(PortfolioSolver().solve(batch, serial).digest(),
            PortfolioSolver().solve(batch, parallel).digest());
}

TEST(PortfolioSolver, AllBlindPortfolioFailsClosedOnCappedInstance) {
  std::vector<Instance> batch;
  batch.push_back(memory_capped(41));
  PortfolioConfig pc;
  pc.variants = {"lt-2approx", "algorithm1"};
  pc.eps = 0.5;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_FALSE(r.outcomes[0].ok);
  ASSERT_EQ(r.outcomes[0].attempts.size(), 2u);
  for (const VariantAttempt& a : r.outcomes[0].attempts) {
    EXPECT_FALSE(a.ok);
    EXPECT_NE(a.error.find("capability:"), std::string::npos) << a.error;
    EXPECT_NE(a.error.find(a.algorithm), std::string::npos) << a.error;
  }
}

TEST(PortfolioSolver, WinCountsAndLatencySplitAreConsistent) {
  const auto batch = small_batch(20);
  PortfolioConfig pc;
  pc.variants = {"algorithm1", "lt-2approx"};
  pc.threads = 3;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  ASSERT_EQ(r.per_variant.size(), 2u);

  std::size_t wins = 0;
  for (const VariantStats& s : r.per_variant) {
    wins += s.wins;
    EXPECT_LE(s.wall.p50, s.wall.p99);
    EXPECT_LE(s.wall.p99, s.wall.max);
    EXPECT_GE(s.gap_mean, 0);
    EXPECT_LE(s.gap_mean, s.gap_max + 1e-12);
  }
  EXPECT_EQ(wins, r.solved);  // exactly one winner per solved instance
  EXPECT_LE(r.queue.p50, r.queue.p99);
  EXPECT_LE(r.queue.p99, r.queue.max);

  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_GE(o.queue_seconds, 0);
    double attempt_sum = 0;
    for (const VariantAttempt& a : o.attempts) attempt_sum += a.wall_seconds;
    EXPECT_DOUBLE_EQ(o.compute_seconds, attempt_sum);
  }
}

TEST(PortfolioSolver, OrderTieBreakIsDeterministicUnderExactTies) {
  // Two names bound to the same solver tie on every instance. Under
  // kPortfolioOrder the first-listed name must win everywhere, run after
  // run; the combined certificate is unaffected either way.
  AlgorithmRegistry registry;
  const SolverFn same = [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  };
  registry.add("first", same);
  registry.add("second", same);

  const auto batch = small_batch(10);
  PortfolioConfig pc;
  pc.variants = {"second", "first"};  // deliberately not alphabetical
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.threads = 3;

  for (int run = 0; run < 3; ++run) {
    const PortfolioResult r = PortfolioSolver(registry).solve(batch, pc);
    EXPECT_EQ(r.solved, batch.size());
    for (const PortfolioOutcome& o : r.outcomes) EXPECT_EQ(o.winner, "second") << o.index;
    ASSERT_EQ(r.per_variant.size(), 2u);
    EXPECT_EQ(r.per_variant[0].wins, batch.size());  // "second" is listed first
    EXPECT_EQ(r.per_variant[1].wins, 0u);
  }

  // The tie-break changes only the label: digests match the wall-time mode.
  PortfolioConfig wall = pc;
  wall.tie_break = TieBreak::kWallTime;
  EXPECT_EQ(PortfolioSolver(registry).solve(batch, pc).digest(),
            PortfolioSolver(registry).solve(batch, wall).digest());
}

TEST(PortfolioSolver, WallPercentileLadderIncludesP90) {
  const auto batch = small_batch(30);
  PortfolioConfig pc;
  pc.variants = {"algorithm1", "lt-2approx"};
  pc.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  for (const VariantStats& s : r.per_variant) {
    EXPECT_LE(s.wall.p50, s.wall.p90) << s.algorithm;
    EXPECT_LE(s.wall.p90, s.wall.p99) << s.algorithm;
    EXPECT_LE(s.wall.p99, s.wall.max) << s.algorithm;
    EXPECT_GT(s.wall.p90, 0) << s.algorithm;  // 30 attempts: p90 is a real sample
  }
}

TEST(PortfolioSolver, MemoServesDuplicatesWithUnchangedDigest) {
  auto batch = small_batch(6);
  batch.push_back(batch[2]);  // intra-batch duplicate
  PortfolioConfig pc;
  pc.variants = {"mrt", "lt-2approx"};
  pc.threads = 3;

  const PortfolioResult plain = PortfolioSolver().solve(batch, pc);
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult memo = PortfolioSolver().solve(batch, pc, &store);
  EXPECT_EQ(plain.memo_hits, 0u);
  EXPECT_EQ(memo.memo_hits, 1u);
  EXPECT_EQ(memo.memo_misses, 6u);
  EXPECT_EQ(memo.digest(), plain.digest());
  // The served slot reports zero compute cost but the full outcome.
  const PortfolioOutcome& served = memo.outcomes.back();
  EXPECT_TRUE(served.ok);
  EXPECT_EQ(served.winner, memo.outcomes[2].winner);
  EXPECT_DOUBLE_EQ(served.compute_seconds, 0.0);

  // A second batch against the same store hits on every stored instance.
  const PortfolioResult replay = PortfolioSolver().solve(batch, pc, &store);
  EXPECT_EQ(replay.memo_hits, batch.size());
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_EQ(replay.digest(), plain.digest());
}

TEST(PortfolioSolver, ZeroJobInstanceReportsRatioOne) {
  // A zero-job instance has lower bound 0; the engine must report the core
  // convention (ratio 1) on the outcome as on the attempt.
  const std::vector<Instance> batch{Instance({}, 4, "empty")};
  PortfolioConfig pc;
  pc.variants = {"lt-2approx"};
  const PortfolioResult p = PortfolioSolver().solve(batch, pc);
  const core::ScheduleResult direct =
      AlgorithmRegistry::global().solve("lt-2approx", batch[0], {});
  ASSERT_TRUE(p.outcomes[0].ok) << p.outcomes[0].attempts[0].error;
  EXPECT_DOUBLE_EQ(p.outcomes[0].ratio, 1.0);
  EXPECT_DOUBLE_EQ(p.outcomes[0].attempts[0].ratio, direct.ratio_vs_lower);
  EXPECT_DOUBLE_EQ(p.outcomes[0].makespan, direct.makespan);
}

TEST(PortfolioSolver, EmptyBatch) {
  PortfolioConfig pc;
  pc.variants = {"mrt"};
  const PortfolioResult r = PortfolioSolver().solve({}, pc);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].wins, 0u);
  EXPECT_EQ(r.digest(), PortfolioSolver().solve({}, pc).digest());
}

// ------------------------------------------ one-variant single-solver mode --

TEST(PortfolioSolver, OneVariantMatchesDirectSolve) {
  const Instance inst = make_instance(Family::kPowerLaw, 24, 128, 11);
  PortfolioConfig config;
  config.variants = {"algorithm3-linear"};
  config.eps = 0.25;
  const PortfolioResult r = PortfolioSolver().solve({inst}, config);
  ASSERT_EQ(r.outcomes.size(), 1u);
  ASSERT_TRUE(r.outcomes[0].ok) << r.outcomes[0].attempts[0].error;

  const core::ScheduleResult direct =
      core::schedule_moldable(inst, 0.25, core::Algorithm::kBoundedLinear);
  EXPECT_DOUBLE_EQ(r.outcomes[0].makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(r.outcomes[0].lower_bound, direct.lower_bound);
  EXPECT_EQ(r.outcomes[0].attempts[0].solver(), "algorithm3-linear");
  EXPECT_EQ(r.solved, 1u);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].solved, 1u);
  EXPECT_DOUBLE_EQ(r.per_variant[0].ratio.p50, r.outcomes[0].attempts[0].ratio);
  EXPECT_DOUBLE_EQ(r.per_variant[0].ratio.max, r.outcomes[0].attempts[0].ratio);
}

TEST(PortfolioSolver, OneVariantEmptyBatch) {
  PortfolioConfig config;
  config.variants = {"auto"};
  const PortfolioResult r = PortfolioSolver().solve({}, config);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 0u);
  for (const VariantStats& s : r.per_variant) {
    EXPECT_EQ(s.wins, 0u);
    EXPECT_EQ(s.solved, 0u);
    EXPECT_EQ(s.failed, 0u);
  }
  EXPECT_EQ(r.digest(), PortfolioSolver().solve({}, config).digest());
}

TEST(PortfolioSolver, OneVariantInvalidConfigThrowsUpFront) {
  const auto batch = small_batch(2);
  PortfolioConfig bad_name;
  bad_name.variants = {"no-such-solver"};
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_name), std::invalid_argument);
  PortfolioConfig bad_eps;
  bad_eps.variants = {"auto"};
  bad_eps.eps = 0;
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_eps), std::invalid_argument);
  bad_eps.eps = 1.5;
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_eps), std::invalid_argument);
}

TEST(PortfolioSolver, OneVariantDeterministicAcrossThreadCounts) {
  const auto batch = small_batch(24);
  for (const char* algorithm : {"auto", "algorithm1", "lt-2approx"}) {
    PortfolioConfig serial;
    serial.variants = {algorithm};
    serial.threads = 1;
    PortfolioConfig parallel = serial;
    parallel.threads = 5;

    const PortfolioResult a = PortfolioSolver().solve(batch, serial);
    const PortfolioResult b = PortfolioSolver().solve(batch, parallel);
    EXPECT_EQ(a.digest(), b.digest()) << algorithm;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok);
      EXPECT_EQ(a.outcomes[i].attempts[0].solver(), b.outcomes[i].attempts[0].solver());
      EXPECT_DOUBLE_EQ(a.outcomes[i].makespan, b.outcomes[i].makespan);
      EXPECT_DOUBLE_EQ(a.outcomes[i].ratio, b.outcomes[i].ratio);
    }
  }
}

TEST(PortfolioSolver, OneVariantAutoResolvesPerInstanceAndSplitsItsStats) {
  // n=4 on m=512 is deep in the FPTAS regime; n=64 on m=64 is not. Under
  // "auto" the two must resolve to different solvers, digest under their
  // resolved names, and split the stats table by them.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kAmdahl, 4, 512, 3));
  batch.push_back(make_instance(Family::kAmdahl, 64, 64, 3));
  PortfolioConfig config;
  config.variants = {"auto"};
  config.eps = 0.5;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  ASSERT_EQ(r.solved, 2u);
  EXPECT_EQ(r.outcomes[0].attempts[0].solver(), "fptas");
  EXPECT_EQ(r.outcomes[1].attempts[0].solver(), "algorithm3-linear");
  EXPECT_EQ(r.outcomes[0].attempts[0].algorithm, "auto");
  ASSERT_EQ(r.per_variant.size(), 2u);
  EXPECT_EQ(r.per_variant[0].variant, "auto");
  EXPECT_EQ(r.per_variant[0].algorithm, "algorithm3-linear");
  EXPECT_EQ(r.per_variant[1].algorithm, "fptas");
  EXPECT_EQ(r.per_variant[0].wins + r.per_variant[1].wins, 2u);

  // The resolved name is digest-covered (the single-solver layout).
  PortfolioResult relabelled = r;
  relabelled.outcomes[0].attempts[0].resolved.clear();
  EXPECT_NE(relabelled.digest(), r.digest());
}

TEST(PortfolioSolver, OneVariantFailureIsIsolatedToTheOffendingInstance) {
  // `exact` hard-caps at n <= 7, m <= 8: the middle instance violates the
  // cap and must fail alone while its neighbours solve.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 4, 8, 21));
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 4, 8, 23));
  PortfolioConfig config;
  config.variants = {"exact"};
  config.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_FALSE(r.outcomes[1].attempts[0].error.empty());
  EXPECT_TRUE(r.outcomes[2].ok);
  EXPECT_EQ(r.cancelled_attempts, 0u);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].solved, 2u);
  EXPECT_EQ(r.per_variant[0].failed, 1u);
}

TEST(PortfolioSolver, OneVariantCapabilityErrorIsIsolatedPerInstance) {
  // A memory-capped instance routed to a blind variant yields the named
  // capability error on that slot alone — the batch itself never aborts.
  std::vector<Instance> batch = small_batch(2, 8);
  batch.insert(batch.begin() + 1, memory_capped(5));
  PortfolioConfig config;
  config.variants = {"lt-2approx"};
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  ASSERT_FALSE(r.outcomes[1].ok);
  EXPECT_NE(r.outcomes[1].attempts[0].error.find("capability:"), std::string::npos)
      << r.outcomes[1].attempts[0].error;
  EXPECT_TRUE(r.outcomes[2].ok);
}

TEST(PortfolioSolver, MemoryAwareVariantIsDeterministicAcrossThreadCounts) {
  std::vector<Instance> batch;
  for (std::size_t i = 0; i < 12; ++i) batch.push_back(memory_capped(50 + i));
  for (const char* algorithm : {"mem-greedy", "mem-exact"}) {
    PortfolioConfig serial;
    serial.variants = {algorithm};
    serial.eps = 0.5;
    serial.threads = 1;
    PortfolioConfig parallel = serial;
    parallel.threads = 4;
    const PortfolioResult a = PortfolioSolver().solve(batch, serial);
    const PortfolioResult b = PortfolioSolver().solve(batch, parallel);
    EXPECT_EQ(a.failed, 0u) << algorithm;
    EXPECT_EQ(a.digest(), b.digest()) << algorithm;
  }
}

TEST(PortfolioSolver, RatioLadderIsOrderedAndWithinTheGuarantee) {
  const auto batch = small_batch(40);
  PortfolioConfig config;
  config.variants = {"lt-2approx"};
  config.threads = 3;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  ASSERT_EQ(r.per_variant.size(), 1u);
  const VariantStats& s = r.per_variant[0];
  EXPECT_EQ(s.solved, 40u);
  EXPECT_LE(s.ratio.p50, s.ratio.p90);
  EXPECT_LE(s.ratio.p90, s.ratio.p99);
  EXPECT_LE(s.ratio.p99, s.ratio.max);
  EXPECT_LE(s.ratio_mean, s.ratio.max);
  EXPECT_GE(s.ratio.p50, 1.0 - 1e-9);
  EXPECT_LE(s.ratio.max, 2.0 + 1e-9);  // Ludwig-Tiwari guarantee
  EXPECT_LE(s.wall.p50, s.wall.max);
}

TEST(PortfolioSolver, OneVariantMemoServesDuplicatesWithUnchangedDigest) {
  auto batch = small_batch(5);
  batch.push_back(batch[1]);  // two intra-batch duplicates
  batch.push_back(batch[3]);
  PortfolioConfig config;
  config.variants = {"lt-2approx"};
  config.threads = 3;

  const PortfolioResult plain = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(plain.memo_hits, 0u);  // no store, no tally

  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult memo = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(memo.memo_hits, 2u);
  EXPECT_EQ(memo.memo_misses, 5u);
  EXPECT_EQ(store.size(), 5u);
  // Memoization must not move any algorithmic output: identical digest,
  // identical per-outcome fields, fresh index stamps on the served slots.
  EXPECT_EQ(memo.digest(), plain.digest());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(memo.outcomes[i].index, i);
    EXPECT_DOUBLE_EQ(memo.outcomes[i].makespan, plain.outcomes[i].makespan);
  }
  // Served slots did not solve: zero compute, and the originals kept theirs.
  EXPECT_DOUBLE_EQ(memo.outcomes[5].compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(memo.outcomes[6].compute_seconds, 0.0);
  EXPECT_GT(memo.outcomes[1].compute_seconds, 0.0);

  // Cross-batch reuse: a replay against the same store is all hits, and the
  // hit/miss tallies are thread-count independent (the plan is serial).
  PortfolioConfig serial = config;
  serial.threads = 1;
  exec::MemoStore<PortfolioOutcome> store2;
  EXPECT_EQ(PortfolioSolver().solve(batch, serial, &store2).memo_hits, memo.memo_hits);
  const PortfolioResult replay = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(replay.memo_hits, batch.size());
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_EQ(replay.digest(), plain.digest());
}

TEST(PortfolioSolver, MemoKeyDistinguishesConfigs) {
  // The same instance under a different variant list or eps must not alias
  // in the store: the config is folded into every memo key.
  const auto batch = small_batch(2);
  exec::MemoStore<PortfolioOutcome> store;
  PortfolioConfig a;
  a.variants = {"lt-2approx"};
  EXPECT_EQ(PortfolioSolver().solve(batch, a, &store).memo_hits, 0u);

  PortfolioConfig b = a;
  b.eps = 0.5;
  EXPECT_EQ(PortfolioSolver().solve(batch, b, &store).memo_hits, 0u);

  PortfolioConfig c = a;
  c.variants = {"mrt"};
  EXPECT_EQ(PortfolioSolver().solve(batch, c, &store).memo_hits, 0u);

  PortfolioConfig d = a;
  d.variants = {"lt-2approx", "mrt"};  // a portfolio that starts with it
  EXPECT_EQ(PortfolioSolver().solve(batch, d, &store).memo_hits, 0u);

  // The original config still hits.
  EXPECT_EQ(PortfolioSolver().solve(batch, a, &store).memo_hits, batch.size());
}

TEST(PortfolioSolver, MemoizedFailuresAreServedToo) {
  // A failing instance (exact over its caps) is cached like any other
  // outcome — replaying it must not re-run the doomed solve or change
  // counts.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // duplicate
  PortfolioConfig config;
  config.variants = {"exact"};
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult r = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(r.memo_hits, 1u);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_EQ(r.outcomes[1].attempts[0].error, r.outcomes[0].attempts[0].error);
}

TEST(PortfolioSolver, QueueAndComputeLatenciesAreSplit) {
  const auto batch = small_batch(30);
  PortfolioConfig config;
  config.variants = {"lt-2approx"};
  config.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);

  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_GE(o.queue_seconds, 0) << o.index;
    EXPECT_GE(o.compute_seconds, 0) << o.index;
    // Pickup cannot come after the whole-batch wall clock.
    EXPECT_LE(o.queue_seconds, r.wall_seconds + 1e-6) << o.index;
  }
  ASSERT_EQ(r.per_variant.size(), 1u);
  const VariantStats& s = r.per_variant[0];
  EXPECT_LE(s.queue.p50, s.queue.p90);
  EXPECT_LE(s.queue.p90, s.queue.p99);
  EXPECT_LE(s.queue.p99, s.queue.max);
  // On 2 threads over 30 instances some instance queues behind its shard.
  EXPECT_GT(s.queue.max, 0);

  // The latency fields must not leak into the digest: same batch + config
  // re-solved gives the same digest even though timings differ.
  EXPECT_EQ(r.digest(), PortfolioSolver().solve(batch, config).digest());
}

// ------------------------------------------------ early-cancel rule (mock) --

/// A valid schedule running every job back to back on `procs` processors:
/// trivially capacity-feasible, deterministic, and its makespan shrinks as
/// `procs` grows (per-job times are non-increasing). The mocks below use it
/// to emit better/worse results without real solving.
core::ScheduleResult stacked_result(const Instance& inst, procs_t procs) {
  core::ScheduleResult out;
  double now = 0;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    const double t = inst.job(j).time(procs);
    out.schedule.add({j, now, procs, t});
    now += t;
  }
  out.makespan = now;
  out.lower_bound = inst.size() == 0 ? 0 : inst.trivial_lower_bound();
  out.ratio_vs_lower = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
  // Stacking proves no approximation factor, and the portfolio fails an
  // attempt whose makespan exceeds its claimed factor times its own bound.
  out.guarantee = 0;
  return out;
}

/// One moldable job with strictly-decreasing times, so a single-job
/// instance's estimator bound omega equals t(m) exactly — the regime where
/// a full-width completion is provably optimal and *decides* the instance.
Instance single_job_instance(procs_t m, std::uint64_t seed) {
  return make_instance(Family::kAmdahl, 1, m, seed);
}

/// Completes with the full-machine stacked schedule — on a single-job
/// instance its makespan equals omega, so it decides.
core::ScheduleResult optimal_mock(const Instance& i, const SolverConfig&) {
  return stacked_result(i, i.machines());
}

/// Completes with the worst (1-processor) stacked schedule.
core::ScheduleResult weak_mock(const Instance& i, const SolverConfig&) {
  return stacked_result(i, 1);
}

TEST(PortfolioSolver, DecidedInstanceSkipsLaterVariantsEntirely) {
  // After the decider completes at the certified bound, the later variant
  // must never even start — early-cancel cuts the tail.
  AlgorithmRegistry registry;
  std::atomic<int> later_started{0};
  registry.add("decider", optimal_mock);
  registry.add("later", [&](const Instance& i, const SolverConfig& c) {
    later_started.fetch_add(1, std::memory_order_relaxed);
    return weak_mock(i, c);
  });

  const std::vector<Instance> batch{single_job_instance(8, 17),
                                    single_job_instance(8, 19)};
  PortfolioConfig pc;
  pc.variants = {"decider", "later"};
  const PortfolioResult r = PortfolioSolver(registry).solve(batch, pc);

  EXPECT_EQ(later_started.load(), 0);
  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_EQ(o.winner, "decider");
    EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCancelled);
    // Cancelled attempts are canonical stubs: no certificate fields at all.
    EXPECT_DOUBLE_EQ(o.attempts[1].makespan, 0.0);
    EXPECT_DOUBLE_EQ(o.attempts[1].lower_bound, 0.0);
    EXPECT_DOUBLE_EQ(o.attempts[1].wall_seconds, 0.0);  // never ran
  }
  EXPECT_EQ(r.cancelled_attempts, 2u);
  ASSERT_EQ(r.per_variant.size(), 2u);
  EXPECT_EQ(r.per_variant[1].cancelled, 2u);
  EXPECT_EQ(r.per_variant[1].failed, 0u);  // cancelled != failed in the table
}

TEST(PortfolioSolver, DecisionProofTightensTheCombinedCertificate) {
  // The decider's self-reported bound is deliberately loose. Its peer (who
  // might have certified tighter) is skipped — but the decision itself is
  // a proof of optimality (makespan <= omega <= OPT), so the combined
  // certificate folds omega in instead of regressing to the loose bound.
  AlgorithmRegistry registry;
  registry.add("loose-optimal", [](const Instance& i, const SolverConfig&) {
    core::ScheduleResult r = stacked_result(i, i.machines());
    r.lower_bound = r.makespan / 10;  // certified, but needlessly weak
    r.ratio_vs_lower = 10;
    return r;
  });
  registry.add("weak", weak_mock);

  const std::vector<Instance> batch{single_job_instance(8, 29)};
  PortfolioConfig pc;
  pc.variants = {"loose-optimal", "weak"};
  const PortfolioResult r = PortfolioSolver(registry).solve(batch, pc);
  ASSERT_EQ(r.solved, 1u);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_DOUBLE_EQ(r.outcomes[0].lower_bound, r.outcomes[0].makespan);
  EXPECT_DOUBLE_EQ(r.outcomes[0].ratio, 1.0);
}

TEST(PortfolioSolver, NonDecidingInstanceKeepsEveryAttempt) {
  // No variant reaches the certified bound: nothing may be skipped, and
  // the combined certificate must cover every completed attempt.
  AlgorithmRegistry registry;
  registry.add("weak-a", weak_mock);
  registry.add("weak-b", weak_mock);

  const std::vector<Instance> batch{make_instance(Family::kMixed, 6, 32, 23)};
  PortfolioConfig pc;
  pc.variants = {"weak-a", "weak-b"};
  const PortfolioResult r = PortfolioSolver(registry).solve(batch, pc);
  EXPECT_EQ(r.cancelled_attempts, 0u);
  EXPECT_EQ(r.outcomes[0].attempts[0].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCompleted);
}

// ---------------------------------------------------- guarantee check --

TEST(PortfolioSolver, AttemptOverItsGuaranteeFails) {
  // A valid schedule is not enough: a lane whose makespan exceeds its
  // claimed factor times its own certified bound breaks the paper's
  // guarantee and fails, in single-solver mode and beside a peer alike.
  AlgorithmRegistry registry = AlgorithmRegistry::global();
  registry.add("over-promise", [](const Instance& i, const SolverConfig&) {
    core::ScheduleResult r = stacked_result(i, 1);  // valid, jobs back to back
    r.guarantee = 1.5;
    return r;
  });
  const std::vector<Instance> batch{make_instance(Family::kAmdahl, 8, 32, 41)};
  const core::ScheduleResult claim = registry.at("over-promise")(batch[0], SolverConfig{});
  ASSERT_GT(claim.makespan, 1.5 * claim.lower_bound * 1.01);  // the witness is far over

  PortfolioConfig one;
  one.variants = {"over-promise"};
  const PortfolioResult single = PortfolioSolver(registry).solve(batch, one);
  EXPECT_EQ(single.failed, 1u);
  EXPECT_EQ(single.outcomes[0].attempts[0].outcome, AttemptOutcome::kFailed);
  EXPECT_EQ(single.outcomes[0].attempts[0].error.rfind("guarantee violated:", 0), 0u)
      << single.outcomes[0].attempts[0].error;

  PortfolioConfig two;
  two.variants = {"over-promise", "mrt"};
  const PortfolioResult pair = PortfolioSolver(registry).solve(batch, two);
  ASSERT_EQ(pair.solved, 1u);
  EXPECT_EQ(pair.outcomes[0].attempts[0].outcome, AttemptOutcome::kFailed);
  EXPECT_EQ(pair.outcomes[0].winner, "mrt");

  // A claim of 0 proves no factor and is never checked.
  registry.add("no-claim", [](const Instance& i, const SolverConfig&) {
    return stacked_result(i, 1);
  });
  one.variants = {"no-claim"};
  EXPECT_EQ(PortfolioSolver(registry).solve(batch, one).solved, 1u);
}

// ------------------------------------------ one estimator run per instance --

TEST(PortfolioSolver, MultiLaneInstanceRunsTheEstimatorOnce) {
  // Every lane below opens with the Ludwig-Tiwari estimator; the portfolio
  // computes it once per instance (for the early-cancel omega) and hands it
  // to every lane.
  const auto batch = small_batch(12, 32);
  PortfolioConfig config;
  config.variants = {"mrt", "algorithm1", "algorithm3", "algorithm3-linear", "lt-2approx",
                     "auto", "ptas"};
  config.threads = 2;
  std::uint64_t before = core::estimator_runs();
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(core::estimator_runs() - before, batch.size());
  EXPECT_EQ(r.solved, batch.size());

  // Carried estimates fund every lane: no run at all, same digest.
  std::vector<std::optional<core::EstimatorResult>> estimates;
  for (const Instance& inst : batch) estimates.push_back(core::estimate_makespan(inst));
  config.estimates = &estimates;
  before = core::estimator_runs();
  const PortfolioResult carried = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(core::estimator_runs() - before, 0u);
  EXPECT_EQ(carried.digest(), r.digest());

  // A single lane has no early-cancel: its solver runs the estimator itself
  // unless one is carried.
  config.variants = {"algorithm3-linear"};
  config.estimates = nullptr;
  before = core::estimator_runs();
  const PortfolioResult lone = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(core::estimator_runs() - before, batch.size());
  config.estimates = &estimates;
  before = core::estimator_runs();
  EXPECT_EQ(PortfolioSolver().solve(batch, config).digest(), lone.digest());
  EXPECT_EQ(core::estimator_runs() - before, 0u);
}

}  // namespace
}  // namespace moldable::engine
