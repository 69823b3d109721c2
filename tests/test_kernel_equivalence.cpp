// Bitwise equivalence of the optimized knapsack kernels against the
// retained scalar reference implementations (knapsack/reference.hpp — the
// verbatim pre-optimization code).
//
// The perf PR's contract is that vectorization, the flat take bitmap, and
// arena scratch change *speed only*: every profit is the same IEEE bit
// pattern, every decision bit and reconstruction identical. That is what
// keeps the engine digests stable, so these tests compare bit for bit
// (memcmp on doubles, exact chosen-index equality) — never with tolerances —
// across hand-picked edge shapes and a randomized fuzz sweep: empty input,
// capacity 0/1/exact-fit, duplicate items, zero-size and over-capacity
// items, and size mixes straddling the SIMD word threshold (sz < 64 scalar
// path vs sz >= 64 word path). The pair-list reconstruction's frontier
// reuse is checked on deep recursion trees (n up to 300), on the real-valued
// geometric sizes of Section 4.3 bounded instances, and through ParetoRun's
// shared-run contract. Warm-arena repetitions (with runs nested the way
// Algorithm 2 nests them) guard against stale scratch leaking into results,
// a 4-thread/1-thread portfolio digest cross-check exercises the arena
// plumbing end to end, and pinned engine digests catch any drift at all.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/core/estimator.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/portfolio.hpp"
#include "src/jobs/generators.hpp"
#include "src/knapsack/bounded.hpp"
#include "src/knapsack/dense_dp.hpp"
#include "src/knapsack/pairlist.hpp"
#include "src/knapsack/reference.hpp"
#include "src/util/arena.hpp"
#include "src/util/prng.hpp"

namespace moldable::knapsack {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void expect_rows_identical(const std::vector<double>& ref,
                           const std::vector<double>& opt, const char* what) {
  ASSERT_EQ(ref.size(), opt.size()) << what;
  ASSERT_EQ(std::memcmp(ref.data(), opt.data(), ref.size() * sizeof(double)), 0)
      << what << ": profit row differs bitwise";
}

void expect_solutions_identical(const Solution& ref, const Solution& opt,
                                const char* what) {
  EXPECT_EQ(bits(ref.profit), bits(opt.profit)) << what << ": profit bits";
  EXPECT_EQ(ref.chosen, opt.chosen) << what << ": chosen sets";
}

void expect_pareto_identical(const std::vector<ParetoPoint>& ref,
                             const std::vector<ParetoPoint>& opt, const char* what) {
  ASSERT_EQ(ref.size(), opt.size()) << what << ": frontier length";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bits(ref[i].size), bits(opt[i].size)) << what << " point " << i;
    ASSERT_EQ(bits(ref[i].profit), bits(opt[i].profit)) << what << " point " << i;
  }
}

/// Runs every kernel pair on (items, capacity) and asserts bitwise equality.
void check_all(const std::vector<Item>& items, procs_t capacity, const char* what) {
  expect_rows_identical(reference::dense_profit_row(items, capacity),
                        dense_profit_row(items, capacity), what);
  expect_solutions_identical(reference::solve_dense(items, capacity),
                             solve_dense(items, capacity), what);
  const auto cap_d = static_cast<double>(capacity);
  expect_pareto_identical(reference::exact_pareto(items, cap_d),
                          exact_pareto(items, cap_d), what);
  if (!items.empty())  // both pairlist solvers require a non-empty frontier
    expect_solutions_identical(reference::solve_pairlist(items, cap_d),
                               solve_pairlist(items, cap_d), what);
}

TEST(KernelEquivalence, EmptyAndTinyInputs) {
  check_all({}, 0, "n=0 cap=0");
  check_all({}, 100, "n=0 cap=100");
  check_all({{1, 5}}, 0, "cap=0");
  check_all({{1, 5}}, 1, "cap=1 exact fit");
  check_all({{2, 5}}, 1, "cap=1 nothing fits");
}

TEST(KernelEquivalence, DuplicatesAndDegenerateItems) {
  // Duplicate items hit the same-size/better-profit merge rule; zero-size
  // and over-capacity items hit the skip branches in both implementations.
  const std::vector<Item> items = {{3, 7},  {3, 7},  {3, 7},  {0, 2},
                                   {0, 0},  {50, 99}, {5, 7},  {5, 7.0000001},
                                   {1, 0},  {4, 4}};
  for (procs_t cap : {procs_t{0}, procs_t{1}, procs_t{9}, procs_t{10},
                      procs_t{11}, procs_t{16}, procs_t{200}})
    check_all(items, cap, "duplicates/degenerate");
}

TEST(KernelEquivalence, ExactFitCapacity) {
  // Capacity equal to the optimum's total size: the walk-back must land on
  // identical take bits at the boundary cell.
  const std::vector<Item> items = {{64, 10}, {128, 25}, {32, 9}, {64, 11}};
  check_all(items, 64 + 128 + 32 + 64, "exact fit all");
  check_all(items, 128 + 64, "exact fit subset");
}

TEST(KernelEquivalence, SizesStraddlingTheSimdWordThreshold) {
  // sz < 64 takes the scalar take path, sz >= 64 the word kernel; a mix in
  // one instance exercises the partial-word boundaries between them.
  std::vector<Item> items;
  for (procs_t s : {procs_t{1}, procs_t{63}, procs_t{64}, procs_t{65},
                    procs_t{127}, procs_t{128}, procs_t{1000}})
    items.push_back({static_cast<double>(s), static_cast<double>(s) * 1.5});
  for (procs_t cap : {procs_t{63}, procs_t{64}, procs_t{65}, procs_t{191},
                      procs_t{1024}, procs_t{1447}})
    check_all(items, cap, "word-threshold straddle");
}

TEST(KernelEquivalence, RandomizedFuzz) {
  util::Prng rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    const procs_t cap = rng.uniform_int(0, trial % 3 == 0 ? 64 : 4096);
    std::vector<Item> items;
    for (int i = 0; i < n; ++i) {
      // Mostly feasible sizes, occasionally zero or over-capacity.
      const auto roll = rng.uniform_int(0, 9);
      procs_t s;
      if (roll == 0)
        s = 0;
      else if (roll == 1)
        s = cap + rng.uniform_int(1, 10);
      else
        s = rng.uniform_int(1, cap > 1 ? cap : 1);
      items.push_back({static_cast<double>(s), rng.uniform_real(0, 50)});
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n) +
                 " cap=" + std::to_string(cap));
    check_all(items, cap, "fuzz");
  }
}

TEST(KernelEquivalence, WarmArenaRepeatsAreIdentical) {
  // Solve twice on one explicitly installed arena: the second run bumps
  // through memory the first run dirtied, and must still match the fresh
  // reference bit for bit (alloc_zeroed, not chunk freshness, is what the
  // kernels may rely on).
  util::Prng rng(99);
  std::vector<Item> items;
  for (int i = 0; i < 64; ++i)
    items.push_back({static_cast<double>(rng.uniform_int(1, 512)),
                     rng.uniform_real(0.1, 20)});
  const procs_t cap = 1024;

  util::ScratchArena arena;
  util::ArenaScope scope(&arena);
  const Solution ref = reference::solve_dense(items, cap);
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    expect_solutions_identical(ref, solve_dense(items, cap), "warm dense");
    expect_solutions_identical(reference::solve_pairlist(items, cap),
                               solve_pairlist(items, static_cast<double>(cap)),
                               "warm pairlist");
  }
  EXPECT_GT(arena.capacity_bytes(), 0u);  // the kernels actually used it
}

/// The shared-run contract: one ParetoRun cut at `run_cap` answers every
/// capacity in `caps` (all <= run_cap) exactly like a fresh reference run
/// cut there — profit_at against the reference frontier's optimum, solve
/// against reference::solve_pairlist, bit for bit. A capacity a hair below
/// a frontier point (inside its kRelTol window) can make the reference's
/// reconstruction miss the forward optimum and fail its "lost profit"
/// check; the run must then fail the same way.
void check_run(const std::vector<Item>& items, double run_cap,
               const std::vector<double>& caps, const char* what) {
  const ParetoRun run(items, run_cap);
  for (double c : caps) {
    SCOPED_TRACE(testing::Message() << what << " c=" << c << " run_cap=" << run_cap);
    ASSERT_LE(c, run_cap);
    EXPECT_EQ(bits(reference::exact_pareto(items, c).back().profit), bits(run.profit_at(c)))
        << "profit_at";
    Solution ref;
    try {
      ref = reference::solve_pairlist(items, c);
    } catch (const internal_error&) {
      EXPECT_THROW(run.solve(c), internal_error);
      continue;
    }
    expect_solutions_identical(ref, run.solve(c), what);
  }
}

/// Capacities below `cap` that stress the frontier's cut: fractions of it,
/// exact frontier point sizes, and sizes nudged just inside and just past
/// the kRelTol window around them.
std::vector<double> probe_capacities(const std::vector<Item>& items, double cap,
                                     util::Prng& rng) {
  std::vector<double> caps = {cap, 0.0, cap / 2, cap * 0.37, cap * 0.9};
  const auto front = reference::exact_pareto(items, cap);
  for (int t = 0; t < 4; ++t) {
    const double s = front[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(front.size()) - 1))]
                         .size;
    for (double c : {s, s * (1 - 5e-10), s * (1 - 2e-9), std::nextafter(s, 0.0)})
      if (c >= 0 && c <= cap) caps.push_back(c);
  }
  return caps;
}

TEST(KernelEquivalence, SharedRunAnswersEveryLowerCapacity) {
  util::Prng rng(4242);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    const procs_t cap = rng.uniform_int(1, 2048);
    std::vector<Item> items;
    for (int i = 0; i < n; ++i)
      items.push_back({static_cast<double>(rng.uniform_int(0, cap)), rng.uniform_real(0, 50)});
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto cap_d = static_cast<double>(cap);
    check_run(items, cap_d, probe_capacities(items, cap_d, rng), "integer sizes");
  }
  // The contract is only promised for 0 <= c <= the run's capacity.
  const std::vector<Item> items = {{3, 4}, {5, 6}};
  const ParetoRun run(items, 7);
  EXPECT_THROW(run.solve(7.5), std::invalid_argument);
  EXPECT_THROW(run.solve(-1), std::invalid_argument);
}

TEST(KernelEquivalence, DeepSpinesAndOddSplits) {
  // n up to 300 gives recursion trees nine levels deep whose left spines
  // are kept as snapshots; odd n gives uneven splits. Sizes are integral
  // on some trials and arbitrary reals on the others.
  util::Prng rng(300300);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(41, 300)) | (trial % 2);
    const bool real_sizes = trial % 3 == 1;
    const double cap = real_sizes ? rng.uniform_real(50, 400)
                                  : static_cast<double>(rng.uniform_int(64, 3000));
    std::vector<Item> items;
    for (int i = 0; i < n; ++i) {
      const double s = real_sizes ? rng.uniform_real(0.5, cap / 4)
                                  : static_cast<double>(rng.uniform_int(0, cap / 3));
      items.push_back({s, rng.uniform_real(0, 40)});
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n));
    expect_pareto_identical(reference::exact_pareto(items, cap), exact_pareto(items, cap),
                            "deep");
    expect_solutions_identical(reference::solve_pairlist(items, cap),
                               solve_pairlist(items, cap), "deep");
    check_run(items, cap, {cap * 0.61, cap * 0.2}, "deep");
  }
}

/// Containers of the Section 4.3 bounded instance of `inst` at deadline d:
/// real-valued sizes on the geometric grid of Eq. (25), the exact shape the
/// dual calls of Algorithm 3L hand to Algorithm 2.
std::vector<Item> bounded_items(const jobs::Instance& inst, double d, double delta) {
  const BoundedRounding r = BoundedRounding::make(d, delta, inst.machines());
  std::vector<RoundedBigJob> rounded;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    const jobs::Job& job = inst.job(j);
    if (job.t1() <= d / 2 || !leq_tol(job.tmin(), d / 2)) continue;  // small or forced
    rounded.push_back(round_big_job(inst, j, r));
  }
  return BoundedInstance(rounded).items();
}

TEST(KernelEquivalence, BoundedInstanceGeometricSizes) {
  util::Prng rng(1743);
  std::size_t shapes = 0;
  for (std::size_t f = 0; f < 4; ++f) {
    const jobs::Instance inst =
        jobs::make_instance(jobs::all_families()[f], 96, 1024, 510 + f);
    const double omega = core::estimate_makespan(inst).omega;
    for (double d_factor : {1.0, 1.3, 1.7}) {
      for (double delta : {0.05, 0.3}) {
        const auto items = bounded_items(inst, d_factor * omega, delta);
        if (items.empty()) continue;
        ++shapes;
        SCOPED_TRACE("family " + std::to_string(f) + " d=" + std::to_string(d_factor) +
                     " delta=" + std::to_string(delta) +
                     " items=" + std::to_string(items.size()));
        const auto cap = static_cast<double>(inst.machines());
        expect_solutions_identical(reference::solve_pairlist(items, cap),
                                   solve_pairlist(items, cap), "bounded");
        check_run(items, cap, probe_capacities(items, cap, rng), "bounded");
      }
    }
  }
  EXPECT_GE(shapes, 12u);  // the generated family really yields bounded instances
}

TEST(KernelEquivalence, NestedSolvesInsideLiveRunsOnAWarmArena) {
  // Algorithm 2's arena order: a run for the incompressible items lives
  // while the compressible side builds its own run and solves, then the
  // outer run solves on top. Every nested frame must unwind before the one
  // below it and leave no stale frontier behind — on an arena warmed (and
  // dirtied) by the previous pass.
  util::Prng rng(777);
  std::vector<Item> outer, inner;
  for (int i = 0; i < 90; ++i)
    outer.push_back({static_cast<double>(rng.uniform_int(1, 300)), rng.uniform_real(0, 9)});
  for (int i = 0; i < 70; ++i)
    inner.push_back({rng.uniform_real(1, 200), rng.uniform_real(0, 9)});
  const Solution ref_outer = reference::solve_pairlist(outer, 1500);
  const Solution ref_outer_lo = reference::solve_pairlist(outer, 700);
  const Solution ref_inner = reference::solve_pairlist(inner, 900);
  const Solution ref_inner_lo = reference::solve_pairlist(inner, 333.5);

  util::ScratchArena arena;
  util::ArenaScope scope(&arena);
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const std::size_t used = arena.used_bytes();
    {
      const ParetoRun outer_run(outer, 1500);
      expect_solutions_identical(ref_inner, solve_pairlist(inner, 900), "nested solve");
      {
        const ParetoRun inner_run(inner, 900);
        expect_solutions_identical(ref_inner_lo, inner_run.solve(333.5), "inner run");
        expect_solutions_identical(ref_outer_lo, outer_run.solve(700), "outer under inner");
      }
      expect_solutions_identical(ref_outer, outer_run.solve(1500), "outer run");
      expect_solutions_identical(ref_inner, solve_pairlist(inner, 900), "nested again");
    }
    EXPECT_EQ(arena.used_bytes(), used) << "every frame unwound";
  }
  EXPECT_GT(arena.capacity_bytes(), 0u);
}

// With SolverConfig::arena plumbed through every registry wrapper and
// per-thread arenas installed by the batch/portfolio engines, spreading a
// portfolio batch over 4 workers (each warming its own arena on a different
// instance subset) must reproduce the 1-thread digest bit for bit — arenas
// recycle memory, never results.
TEST(KernelEquivalence, PortfolioDigestMatchesAcrossThreadsWithArenasEnabled) {
  std::vector<jobs::Instance> family;
  for (std::uint64_t s = 0; s < 12; ++s)
    family.push_back(jobs::make_instance(jobs::all_families()[s % 4], 24,
                                         procs_t{256} << (s % 4), 7700 + s));

  engine::PortfolioConfig config;
  config.variants = {"mrt", "algorithm1", "algorithm3-linear"};
  config.tie_break = engine::TieBreak::kPortfolioOrder;

  config.threads = 1;
  const engine::PortfolioResult one = engine::PortfolioSolver().solve(family, config);
  EXPECT_EQ(one.solved, family.size());

  config.threads = 4;
  const engine::PortfolioResult four = engine::PortfolioSolver().solve(family, config);
  EXPECT_EQ(four.digest(), one.digest());
  EXPECT_EQ(four.cancelled_attempts, one.cancelled_attempts);
}

// The bit-identity gate for kernel rewrites: the batch digests of the two
// knapsack-heavy paper algorithms over a fixed paper-scale family (n = 256
// jobs on m = 4096 machines, so Algorithm 3L's dual calls run Algorithm 2
// over the bounded container expansion), pinned to the values the kernels
// produced before the pair-list frontier reuse. Any drift in a profit bit or
// a chosen set shows up here. Digests are promised per toolchain (x86-64
// GCC, glibc libm); on another libm, re-derive them at a known-good commit.
TEST(KernelEquivalence, PinnedEngineDigestsAtPaperScale) {
  std::vector<jobs::Instance> family;
  const auto families = jobs::all_families();
  for (std::size_t f = 0; f < 4; ++f)
    for (std::uint64_t seed : {std::uint64_t{31}, std::uint64_t{32}})
      family.push_back(jobs::make_instance(families[f], 256, 4096, seed));

  const struct {
    const char* algorithm;
    std::uint64_t digest;
  } pins[] = {
      {"algorithm3-linear", 0x874c269bad303418ULL},
      {"algorithm1", 0xdaf943f32361f521ULL},
  };
  for (const auto& pin : pins) {
    engine::PortfolioConfig config;
    config.variants = {pin.algorithm};
    config.threads = 1;
    const engine::PortfolioResult r = engine::PortfolioSolver().solve(family, config);
    EXPECT_EQ(r.solved, family.size()) << pin.algorithm;
    EXPECT_EQ(r.digest(), pin.digest)
        << pin.algorithm << ": digest 0x" << std::hex << r.digest();
  }
}

}  // namespace
}  // namespace moldable::knapsack
