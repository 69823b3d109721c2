// Execution-core tests: AlgorithmRegistry name lookup and capabilities, the
// bounded memo store's LRU contract as the batch engine drives it (a
// one-variant PortfolioSolver), and the affinity-aware default worker
// count. The engine's own cases live in test_portfolio.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/core/scheduler.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/registry.hpp"
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

TEST(Registry, ListsEveryBuiltinVariant) {
  const auto names = AlgorithmRegistry::global().names();
  for (const char* expected :
       {"auto", "fptas", "mrt", "algorithm1", "algorithm3", "algorithm3-linear",
        "lt-2approx", "mem-exact", "mem-greedy", "ptas", "exact"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin: " << expected;
  }
  EXPECT_EQ(names.size(), 11u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, CapabilityFlagsMarkTheMemoryAwareVariants) {
  const AlgorithmRegistry& r = AlgorithmRegistry::global();
  EXPECT_TRUE(r.memory_aware("mem-greedy"));
  EXPECT_TRUE(r.memory_aware("mem-exact"));
  for (const char* blind :
       {"auto", "fptas", "mrt", "algorithm1", "algorithm3", "algorithm3-linear",
        "lt-2approx", "ptas", "exact"})
    EXPECT_FALSE(r.memory_aware(blind)) << blind;
  EXPECT_THROW(r.caps("no-such-solver"), std::invalid_argument);
}

Instance memory_capped_instance(std::uint64_t seed = 5, double capacity = 4.0) {
  Instance inst = make_instance(Family::kAmdahl, 4, 8, seed);
  inst.set_memory_capacity(capacity);
  inst.set_job_memory({10.0, 1.0, 6.0, 3.0});  // kmin = {3, 1, 2, 1}
  return inst;
}

TEST(Registry, MemoryBlindVariantsFailClosedOnMemoryCappedInstances) {
  const Instance capped = memory_capped_instance();
  // Every memory-blind builtin refuses with the named capability error …
  try {
    AlgorithmRegistry::global().solve("lt-2approx", capped, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("capability:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("lt-2approx"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(AlgorithmRegistry::global().solve("auto", capped, {}),
               std::invalid_argument);
  // … while the memory-aware variants solve it, and every builtin still
  // solves the same instance with the memory axis stripped.
  SolverConfig config;
  config.eps = 0.5;
  for (const char* aware : {"mem-greedy", "mem-exact"}) {
    const core::ScheduleResult r =
        AlgorithmRegistry::global().solve(aware, capped, config);
    EXPECT_GT(r.makespan, 0) << aware;
  }
  const Instance plain = make_instance(Family::kAmdahl, 4, 8, 5);
  EXPECT_NO_THROW(AlgorithmRegistry::global().solve("lt-2approx", plain, config));
}

TEST(Registry, SolvesUnderEveryBuiltinName) {
  const Instance tiny = make_instance(Family::kMixed, 4, 8, 7);        // exact-solvable
  const Instance wide = make_instance(Family::kAmdahl, 4, 512, 7);     // FPTAS regime
  SolverConfig config;
  config.eps = 0.5;
  for (const auto& name : AlgorithmRegistry::global().names()) {
    const Instance& inst = name == "fptas" ? wide : tiny;
    const core::ScheduleResult r = AlgorithmRegistry::global().solve(name, inst, config);
    EXPECT_GT(r.makespan, 0) << name;
    EXPECT_GE(r.makespan, r.lower_bound * (1 - 1e-9)) << name;
  }
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
  const Instance inst = make_instance(Family::kAmdahl, 4, 8, 1);
  try {
    AlgorithmRegistry::global().solve("no-such-solver", inst, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("algorithm3-linear"), std::string::npos);
  }
}

TEST(Registry, RejectsDuplicateAndEmptyNames) {
  AlgorithmRegistry r;
  r.add("x", [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  });
  EXPECT_TRUE(r.contains("x"));
  EXPECT_THROW(r.add("x", [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  }),
               std::invalid_argument);
  EXPECT_THROW(r.add("", [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  }),
               std::invalid_argument);
  EXPECT_THROW(r.add("y", SolverFn{}), std::invalid_argument);
}

TEST(MemoStoreLru, EvictsLeastRecentlyUsedAtCapacity) {
  exec::MemoStore<int> store(2);
  EXPECT_EQ(store.capacity(), 2u);
  store.insert(1, 10);
  store.insert(2, 20);
  ASSERT_NE(store.find(1), nullptr);  // touch: key 1 is now most recent
  store.insert(3, 30);                // evicts key 2, the LRU entry
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_TRUE(store.contains(3));
  // Re-inserting an existing key refreshes recency without growing.
  store.insert(1, 99);
  EXPECT_EQ(*store.find(1), 10);  // first insertion still wins
  store.insert(4, 40);            // now 3 is the LRU entry
  EXPECT_FALSE(store.contains(3));
  EXPECT_EQ(store.evictions(), 2u);
}

TEST(MemoStoreLru, ZeroCapacityIsUnbounded) {
  exec::MemoStore<int> store;
  for (int k = 0; k < 1000; ++k) store.insert(static_cast<std::uint64_t>(k), k);
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(MemoStoreLru, CapacityOneThrashIsDeterministic) {
  // The degenerate bound: every fresh insertion evicts the previous entry.
  // Within one batch [A, B, A, B] the duplicates still hit (the serial plan
  // chains them to their earlier in-batch slot), and across a replay the
  // thrash pattern repeats exactly.
  auto batch = small_batch(2);
  batch.push_back(batch[0]);
  batch.push_back(batch[1]);
  PortfolioConfig config;
  config.variants = {"lt-2approx"};

  const std::uint64_t plain_digest = PortfolioSolver().solve(batch, config).digest();
  exec::MemoStore<PortfolioOutcome> store(1);
  const PortfolioResult first = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(first.memo_hits, 2u);
  EXPECT_EQ(first.memo_misses, 2u);
  EXPECT_EQ(store.evictions(), 1u);  // B's insert evicted A
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(first.digest(), plain_digest);

  // Replay: the store holds only B. A misses (recompute), B hits from the
  // store, the duplicates hit in-batch or from the store — and A's fresh
  // insert evicts B again.
  const PortfolioResult replay = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(replay.memo_hits, 3u);
  EXPECT_EQ(replay.memo_misses, 1u);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_EQ(replay.digest(), plain_digest);
}

TEST(MemoStoreLru, PromisedHitsSurviveEvictionByFreshInserts) {
  // Regression test for the two-pass finalize: the plan promises the last
  // slot a store-served outcome, but the five fresh inserts before it would
  // evict that entry from a capacity-1 store if reads and writes
  // interleaved. All store reads must happen before the first insert.
  auto fresh = small_batch(6);
  std::vector<Instance> seed = {fresh[0]};
  std::vector<Instance> batch(fresh.begin() + 1, fresh.end());
  batch.push_back(fresh[0]);  // promised from the store, at the end

  PortfolioConfig config;
  config.variants = {"lt-2approx"};
  exec::MemoStore<PortfolioOutcome> store(1);
  PortfolioSolver().solve(seed, config, &store);  // store = {A}

  const PortfolioResult r = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(r.memo_hits, 1u);
  EXPECT_EQ(r.memo_misses, 5u);
  EXPECT_EQ(r.solved, 6u);
  EXPECT_EQ(r.digest(), PortfolioSolver().solve(batch, config).digest());
}

TEST(MemoStoreLru, EvictionCountsAreThreadCountIndependent) {
  // A batch with duplicates over a small store, solved at 1 and 8 threads
  // with fresh stores: the hit/miss/eviction tallies and the digest must
  // match exactly — the LRU sequence lives in the serial plan/finalize
  // phases, never inside the shard loop.
  auto batch = small_batch(24);
  for (std::size_t i = 0; i < 8; ++i) batch.push_back(batch[i * 2]);

  PortfolioConfig serial;
  serial.variants = {"lt-2approx"};
  serial.threads = 1;
  PortfolioConfig parallel = serial;
  parallel.threads = 8;

  exec::MemoStore<PortfolioOutcome> store1(4);
  exec::MemoStore<PortfolioOutcome> store8(4);
  const PortfolioResult a = PortfolioSolver().solve(batch, serial, &store1);
  const PortfolioResult b = PortfolioSolver().solve(batch, parallel, &store8);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.memo_misses, b.memo_misses);
  EXPECT_EQ(store1.evictions(), store8.evictions());
  EXPECT_GT(store1.evictions(), 0u);  // 24 distinct keys through capacity 4
  EXPECT_EQ(store1.size(), 4u);
  EXPECT_EQ(a.digest(), b.digest());
}

#if defined(__linux__)
TEST(ExecCore, ResolveThreadsZeroHonoursCpuAffinity) {
  // A thread pinned to one CPU must get one default worker, however many
  // CPUs the host has — hardware_concurrency() would oversubscribe it.
  cpu_set_t current;
  CPU_ZERO(&current);
  ASSERT_EQ(sched_getaffinity(0, sizeof(current), &current), 0);
  int first = 0;
  while (!CPU_ISSET(first, &current)) ++first;

  unsigned pinned_default = 0, pinned_explicit = 0;
  int pin_status = -1;
  std::thread worker([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    pin_status = sched_setaffinity(0, sizeof(one), &one);  // this thread only
    pinned_default = exec::resolve_threads(0);
    pinned_explicit = exec::resolve_threads(3);
  });
  worker.join();
  ASSERT_EQ(pin_status, 0);
  EXPECT_EQ(pinned_default, 1u);
  EXPECT_EQ(pinned_explicit, 3u);  // an explicit count is never capped
  EXPECT_EQ(exec::resolve_threads(0), static_cast<unsigned>(CPU_COUNT(&current)));
}
#endif

}  // namespace
}  // namespace moldable::engine
