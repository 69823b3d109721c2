// Engine-layer tests: AlgorithmRegistry name lookup and the BatchSolver's
// sharding contract — determinism across thread counts, empty/singleton
// batches, per-algorithm aggregation, per-instance failure isolation, and
// the affinity-aware default worker count.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/core/scheduler.hpp"
#include "src/engine/batch_solver.hpp"
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

TEST(BatchSolver, CapabilityErrorIsIsolatedPerInstance) {
  // A memory-capped instance routed to a blind variant yields the named
  // capability error on that slot alone — the batch itself never aborts.
  std::vector<Instance> batch = small_batch(2, 8);
  batch.insert(batch.begin() + 1, memory_capped_instance());
  BatchConfig config;
  config.algorithm = "lt-2approx";
  const BatchResult r = BatchSolver().solve(batch, config);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  ASSERT_FALSE(r.outcomes[1].ok);
  EXPECT_NE(r.outcomes[1].error.find("capability:"), std::string::npos)
      << r.outcomes[1].error;
  EXPECT_TRUE(r.outcomes[2].ok);
}

TEST(BatchSolver, MemoryAwareBatchIsDeterministicAcrossThreadCounts) {
  std::vector<Instance> batch;
  for (std::size_t i = 0; i < 12; ++i) batch.push_back(memory_capped_instance(50 + i));
  for (const char* algorithm : {"mem-greedy", "mem-exact"}) {
    BatchConfig serial;
    serial.algorithm = algorithm;
    serial.eps = 0.5;
    serial.threads = 1;
    BatchConfig parallel = serial;
    parallel.threads = 4;
    const BatchResult a = BatchSolver().solve(batch, serial);
    const BatchResult b = BatchSolver().solve(batch, parallel);
    EXPECT_EQ(a.failed, 0u) << algorithm;
    EXPECT_EQ(a.digest(), b.digest()) << algorithm;
  }
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

TEST(BatchSolver, EmptyBatch) {
  const BatchSolver solver;
  const BatchResult r = solver.solve({}, {});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_TRUE(r.per_algorithm.empty());
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.digest(), solver.solve({}, {}).digest());
}

TEST(BatchSolver, SingleInstanceMatchesDirectSolve) {
  const Instance inst = make_instance(Family::kPowerLaw, 24, 128, 11);
  BatchConfig config;
  config.algorithm = "algorithm3-linear";
  config.eps = 0.25;
  const BatchResult r = BatchSolver().solve({inst}, config);
  ASSERT_EQ(r.outcomes.size(), 1u);
  ASSERT_TRUE(r.outcomes[0].ok) << r.outcomes[0].error;

  const core::ScheduleResult direct =
      core::schedule_moldable(inst, 0.25, core::Algorithm::kBoundedLinear);
  EXPECT_DOUBLE_EQ(r.outcomes[0].makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(r.outcomes[0].lower_bound, direct.lower_bound);
  EXPECT_EQ(r.outcomes[0].algorithm, "algorithm3-linear");
  EXPECT_EQ(r.solved, 1u);
  ASSERT_EQ(r.per_algorithm.size(), 1u);
  EXPECT_EQ(r.per_algorithm[0].count, 1u);
  EXPECT_DOUBLE_EQ(r.per_algorithm[0].ratio_p50, r.outcomes[0].ratio);
  EXPECT_DOUBLE_EQ(r.per_algorithm[0].ratio_max, r.outcomes[0].ratio);
}

TEST(BatchSolver, DeterministicAcrossThreadCounts) {
  const auto batch = small_batch(24);
  for (const char* algorithm : {"auto", "algorithm1", "lt-2approx"}) {
    BatchConfig serial;
    serial.algorithm = algorithm;
    serial.threads = 1;
    BatchConfig parallel = serial;
    parallel.threads = 5;

    const BatchResult a = BatchSolver().solve(batch, serial);
    const BatchResult b = BatchSolver().solve(batch, parallel);
    EXPECT_EQ(a.digest(), b.digest()) << algorithm;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok);
      EXPECT_EQ(a.outcomes[i].algorithm, b.outcomes[i].algorithm);
      EXPECT_DOUBLE_EQ(a.outcomes[i].makespan, b.outcomes[i].makespan);
      EXPECT_DOUBLE_EQ(a.outcomes[i].ratio, b.outcomes[i].ratio);
    }
  }
}

TEST(BatchSolver, AutoResolvesPerInstanceAndAggregatesByResolvedName) {
  // n=4 on m=512 is deep in the FPTAS regime; n=64 on m=64 is not. Under
  // "auto" the two must resolve to different solvers and be aggregated
  // under their resolved names.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kAmdahl, 4, 512, 3));
  batch.push_back(make_instance(Family::kAmdahl, 64, 64, 3));
  BatchConfig config;
  config.eps = 0.5;
  const BatchResult r = BatchSolver().solve(batch, config);
  ASSERT_EQ(r.solved, 2u);
  EXPECT_EQ(r.outcomes[0].algorithm, "fptas");
  EXPECT_EQ(r.outcomes[1].algorithm, "algorithm3-linear");
  ASSERT_EQ(r.per_algorithm.size(), 2u);
  EXPECT_EQ(r.per_algorithm[0].algorithm, "algorithm3-linear");
  EXPECT_EQ(r.per_algorithm[1].algorithm, "fptas");
}

TEST(BatchSolver, FailureIsIsolatedToTheOffendingInstance) {
  // `exact` hard-caps at n <= 7, m <= 8: the middle instance violates the
  // cap and must fail alone while its neighbours solve.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 4, 8, 21));
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 4, 8, 23));
  BatchConfig config;
  config.algorithm = "exact";
  config.threads = 2;
  const BatchResult r = BatchSolver().solve(batch, config);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_FALSE(r.outcomes[1].error.empty());
  EXPECT_TRUE(r.outcomes[2].ok);
  ASSERT_EQ(r.per_algorithm.size(), 1u);
  EXPECT_EQ(r.per_algorithm[0].count, 2u);
  EXPECT_EQ(r.per_algorithm[0].failed, 1u);
}

TEST(BatchSolver, InvalidConfigThrowsUpFront) {
  const auto batch = small_batch(2);
  BatchConfig bad_name;
  bad_name.algorithm = "no-such-solver";
  EXPECT_THROW(BatchSolver().solve(batch, bad_name), std::invalid_argument);
  BatchConfig bad_eps;
  bad_eps.eps = 0;
  EXPECT_THROW(BatchSolver().solve(batch, bad_eps), std::invalid_argument);
  bad_eps.eps = 1.5;
  EXPECT_THROW(BatchSolver().solve(batch, bad_eps), std::invalid_argument);
}

TEST(BatchSolver, PercentilesAreOrdered) {
  const auto batch = small_batch(40);
  BatchConfig config;
  config.algorithm = "lt-2approx";
  config.threads = 3;
  const BatchResult r = BatchSolver().solve(batch, config);
  ASSERT_EQ(r.per_algorithm.size(), 1u);
  const AlgorithmStats& s = r.per_algorithm[0];
  EXPECT_EQ(s.count, 40u);
  EXPECT_LE(s.ratio_p50, s.ratio_p90);
  EXPECT_LE(s.ratio_p90, s.ratio_p99);
  EXPECT_LE(s.ratio_p99, s.ratio_max);
  EXPECT_GE(s.ratio_p50, 1.0 - 1e-9);
  EXPECT_LE(s.ratio_max, 2.0 + 1e-9);  // Ludwig-Tiwari guarantee
  EXPECT_LE(s.wall_p50, s.wall_max);
}

TEST(BatchSolver, MemoServesDuplicatesWithUnchangedDigest) {
  auto batch = small_batch(5);
  batch.push_back(batch[1]);  // two intra-batch duplicates
  batch.push_back(batch[3]);
  BatchConfig config;
  config.algorithm = "lt-2approx";
  config.threads = 3;

  const BatchResult plain = BatchSolver().solve(batch, config);
  EXPECT_EQ(plain.memo_hits, 0u);  // no store, no tally

  exec::MemoStore<InstanceOutcome> store;
  const BatchResult memo = BatchSolver().solve(batch, config, &store);
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
  EXPECT_DOUBLE_EQ(memo.outcomes[5].wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(memo.outcomes[6].wall_seconds, 0.0);
  EXPECT_GT(memo.outcomes[1].wall_seconds, 0.0);

  // Cross-batch reuse: a replay against the same store is all hits, and the
  // hit/miss tallies are thread-count independent (the plan is serial).
  BatchConfig serial = config;
  serial.threads = 1;
  exec::MemoStore<InstanceOutcome> store2;
  const BatchResult serial_memo = BatchSolver().solve(batch, serial, &store2);
  EXPECT_EQ(serial_memo.memo_hits, memo.memo_hits);
  const BatchResult replay = BatchSolver().solve(batch, config, &store);
  EXPECT_EQ(replay.memo_hits, batch.size());
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_EQ(replay.digest(), plain.digest());
}

TEST(BatchSolver, MemoKeyDistinguishesConfigs) {
  // The same instance under a different algorithm or eps must not alias in
  // the store: the config is folded into every memo key.
  const auto batch = small_batch(2);
  exec::MemoStore<InstanceOutcome> store;
  BatchConfig a;
  a.algorithm = "lt-2approx";
  const BatchResult first = BatchSolver().solve(batch, a, &store);
  EXPECT_EQ(first.memo_hits, 0u);

  BatchConfig b = a;
  b.eps = 0.5;
  const BatchResult other_eps = BatchSolver().solve(batch, b, &store);
  EXPECT_EQ(other_eps.memo_hits, 0u);  // different eps: no false hits

  BatchConfig c = a;
  c.algorithm = "mrt";
  const BatchResult other_algo = BatchSolver().solve(batch, c, &store);
  EXPECT_EQ(other_algo.memo_hits, 0u);  // different solver: no false hits

  const BatchResult again = BatchSolver().solve(batch, a, &store);
  EXPECT_EQ(again.memo_hits, batch.size());  // the original config still hits
}

TEST(BatchSolver, MemoizedFailuresAreServedToo) {
  // A failing instance (exact over its caps) is cached like any other
  // outcome — replaying it must not re-run the doomed solve or change
  // counts.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // duplicate
  BatchConfig config;
  config.algorithm = "exact";
  exec::MemoStore<InstanceOutcome> store;
  const BatchResult r = BatchSolver().solve(batch, config, &store);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(r.memo_hits, 1u);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_EQ(r.outcomes[1].error, r.outcomes[0].error);
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
  BatchConfig config;
  config.algorithm = "lt-2approx";

  const std::uint64_t plain_digest = BatchSolver().solve(batch, config).digest();
  exec::MemoStore<InstanceOutcome> store(1);
  const BatchResult first = BatchSolver().solve(batch, config, &store);
  EXPECT_EQ(first.memo_hits, 2u);
  EXPECT_EQ(first.memo_misses, 2u);
  EXPECT_EQ(store.evictions(), 1u);  // B's insert evicted A
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(first.digest(), plain_digest);

  // Replay: the store holds only B. A misses (recompute), B hits from the
  // store, the duplicates hit in-batch or from the store — and A's fresh
  // insert evicts B again.
  const BatchResult replay = BatchSolver().solve(batch, config, &store);
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

  BatchConfig config;
  config.algorithm = "lt-2approx";
  exec::MemoStore<InstanceOutcome> store(1);
  BatchSolver().solve(seed, config, &store);  // store = {A}

  const BatchResult r = BatchSolver().solve(batch, config, &store);
  EXPECT_EQ(r.memo_hits, 1u);
  EXPECT_EQ(r.memo_misses, 5u);
  EXPECT_EQ(r.solved, 6u);
  EXPECT_EQ(r.digest(), BatchSolver().solve(batch, config).digest());
}

TEST(MemoStoreLru, EvictionCountsAreThreadCountIndependent) {
  // A batch with duplicates over a small store, solved at 1 and 8 threads
  // with fresh stores: the hit/miss/eviction tallies and the digest must
  // match exactly — the LRU sequence lives in the serial plan/finalize
  // phases, never inside the shard loop.
  auto batch = small_batch(24);
  for (std::size_t i = 0; i < 8; ++i) batch.push_back(batch[i * 2]);

  BatchConfig serial;
  serial.algorithm = "lt-2approx";
  serial.threads = 1;
  BatchConfig parallel = serial;
  parallel.threads = 8;

  exec::MemoStore<InstanceOutcome> store1(4);
  exec::MemoStore<InstanceOutcome> store8(4);
  const BatchResult a = BatchSolver().solve(batch, serial, &store1);
  const BatchResult b = BatchSolver().solve(batch, parallel, &store8);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.memo_misses, b.memo_misses);
  EXPECT_EQ(store1.evictions(), store8.evictions());
  EXPECT_GT(store1.evictions(), 0u);  // 24 distinct keys through capacity 4
  EXPECT_EQ(store1.size(), 4u);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(BatchSolver, QueueAndComputeLatenciesAreSplit) {
  const auto batch = small_batch(30);
  BatchConfig config;
  config.algorithm = "lt-2approx";
  config.threads = 2;
  const BatchResult r = BatchSolver().solve(batch, config);

  for (const InstanceOutcome& o : r.outcomes) {
    EXPECT_GE(o.queue_seconds, 0) << o.index;
    EXPECT_GE(o.wall_seconds, 0) << o.index;
    // Pickup + compute cannot exceed the whole-batch wall clock.
    EXPECT_LE(o.queue_seconds, r.wall_seconds + 1e-6) << o.index;
  }
  ASSERT_EQ(r.per_algorithm.size(), 1u);
  const AlgorithmStats& s = r.per_algorithm[0];
  EXPECT_LE(s.queue_p50, s.queue_p90);
  EXPECT_LE(s.queue_p90, s.queue_p99);
  EXPECT_LE(s.queue_p99, s.queue_max);
  // On 2 threads over 30 instances some instance queues behind its shard.
  EXPECT_GT(s.queue_max, 0);

  // The latency fields must not leak into the digest: same batch + config
  // re-solved gives the same digest even though timings differ.
  EXPECT_EQ(r.digest(), BatchSolver().solve(batch, config).digest());
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
