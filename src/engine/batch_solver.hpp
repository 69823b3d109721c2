// BatchSolver: the throughput-oriented entry point of the library.
//
// A batch is a vector of independent instances; the solver shards them
// across worker threads (util::parallel_for, static block partitioning) and
// runs the registry solver named in the config on each. Results are written
// into a per-index slot, so every algorithmic output (makespans, bounds,
// ratios, resolved algorithm names, per-algorithm percentiles, the digest)
// is a pure function of (batch, config.algorithm, config.eps) — bitwise
// identical at --threads 1 and --threads N. Only the wall-clock fields
// depend on the thread count.
//
// A solver failure on one instance (e.g. `exact` over its caps) is recorded
// in that instance's outcome and never poisons the rest of the batch; a
// worker crash (non-exception) is outside the model, as everywhere else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/exec_core.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::engine {

/// Per-batch solver selection and execution knobs.
struct BatchConfig {
  std::string algorithm = "auto";  ///< registry name to run on every instance
  double eps = 0.1;                ///< approximation parameter, in (0, 1]
  unsigned threads = 0;            ///< worker threads; 0 = all available CPUs
};

/// Outcome for one instance of the batch, index-aligned with the input.
///
/// Determinism: every field except the two latency fields is a pure
/// function of (instance, config.algorithm, config.eps) — bitwise identical
/// across runs and thread counts. `queue_seconds` and `wall_seconds` are
/// steady-clock measurements and vary run to run. (`error` is deterministic
/// but, like the latency fields, excluded from the digest: exception text
/// is not part of the stability contract.)
struct InstanceOutcome {
  std::size_t index = 0;
  bool ok = false;
  std::string error;      ///< what() of the solver's exception when !ok
  std::string algorithm;  ///< resolved solver that ran (auto picks per instance)
  double makespan = 0;
  double lower_bound = 0;     ///< certified lower bound on OPT
  double ratio = 0;           ///< makespan / lower_bound
  double guarantee = 0;       ///< proven factor of the resolved solver
  int dual_calls = 0;
  /// Batch submission -> this instance picked up by its worker shard
  /// (steady clock). Under static block partitioning this is the time spent
  /// behind earlier instances of the same shard, so on oversubscribed
  /// machines it captures the queueing that `wall_seconds` used to conflate.
  /// Not deterministic.
  double queue_seconds = 0;
  /// Pure solve (compute) time for this instance. Not deterministic. Zero
  /// for an outcome served from the memo cache (no solving happened).
  double wall_seconds = 0;

  /// Mixes this outcome's digest-covered fields into `h` exactly as
  /// BatchResult::digest() does, but under the caller-chosen index —
  /// the hook the stream layer uses to fold window outcomes into one
  /// rolling digest with stream-global indices, guaranteeing equality with
  /// a one-shot batch digest over the concatenated windows.
  void mix_digest(std::uint64_t& h, std::size_t digest_index) const;
};

/// Aggregate over all outcomes that resolved to one algorithm name.
/// Percentiles are nearest-rank over the successful outcomes. The wall
/// percentiles measure compute only; the queue percentiles measure shard
/// queueing only. (Per instance, queue_seconds + wall_seconds is the
/// end-to-end latency; the percentiles of the two distributions are NOT
/// additive — don't derive an end-to-end pXX by summing them.)
struct AlgorithmStats {
  std::string algorithm;
  std::size_t count = 0;   ///< successful outcomes
  std::size_t failed = 0;
  double ratio_mean = 0;
  double ratio_p50 = 0, ratio_p90 = 0, ratio_p99 = 0, ratio_max = 0;
  double wall_total = 0;
  double wall_p50 = 0, wall_p90 = 0, wall_p99 = 0, wall_max = 0;
  double queue_p50 = 0, queue_p90 = 0, queue_p99 = 0, queue_max = 0;
};

/// Result of one BatchSolver::solve call.
struct BatchResult {
  std::vector<InstanceOutcome> outcomes;      ///< index-aligned with the batch
  std::vector<AlgorithmStats> per_algorithm;  ///< sorted by algorithm name
  std::size_t solved = 0;
  std::size_t failed = 0;
  double wall_seconds = 0;  ///< whole-batch wall clock
  /// Memoization tally (both zero when no memo store was passed). A hit is
  /// an outcome served without solving — a duplicate of an earlier index of
  /// this batch, or of an instance a prior batch stored. hits + misses ==
  /// batch size when memoization is on, and both counts are deterministic
  /// (the memo plan is computed serially before dispatch).
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;

  /// FNV-1a over every algorithmic field of every outcome in batch order:
  /// (index, ok, algorithm, makespan, lower_bound, ratio, guarantee,
  /// dual_calls). Two runs of the same batch+config produce the same digest
  /// regardless of thread count — the determinism check used by the
  /// batch_service driver and the tests.
  ///
  /// Stability contract: stable across thread counts and repeated runs on
  /// the same build; NOT stable across configs (algorithm/eps changes), and
  /// not promised across compilers or libm versions (solvers do real
  /// floating-point work). queue_seconds/wall_seconds are deliberately
  /// excluded (the only non-deterministic fields), as is the error text of
  /// failed outcomes (exception messages are not part of the contract).
  std::uint64_t digest() const;
};

class BatchSolver {
 public:
  /// The registry must outlive the solver (the global registry always does).
  explicit BatchSolver(const AlgorithmRegistry& registry = AlgorithmRegistry::global());

  /// Solves every instance. Throws std::invalid_argument up front when
  /// config names an unknown algorithm or eps is out of range; per-instance
  /// solver errors are recorded in the outcomes instead of thrown.
  ///
  /// `memo` (optional) enables digest-keyed memoization: instances whose
  /// canonical text form was already solved — earlier in this batch or in a
  /// prior batch sharing the store — reuse the stored outcome instead of
  /// re-solving. Because solvers are pure, the algorithmic fields (and thus
  /// the digest) are bitwise identical with and without memoization; only
  /// the timing fields differ (served outcomes report zero compute). The
  /// store is read and extended serially around the shard loop; sharing one
  /// store between concurrent solve calls is not supported.
  BatchResult solve(const std::vector<jobs::Instance>& batch, const BatchConfig& config,
                    exec::MemoStore<InstanceOutcome>* memo = nullptr) const;

 private:
  const AlgorithmRegistry* registry_;
};

}  // namespace moldable::engine
