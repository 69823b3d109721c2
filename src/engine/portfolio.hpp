// PortfolioSolver: try several registry variants per instance, keep the best.
//
// It is the library's one batch engine. A one-variant configuration is the
// single-solver mode (`--algorithm X`): one lane per instance, no
// early-cancel, each outcome digested in the single-solver layout (see
// PortfolioOutcome::mix_digest) — and its schedule validated like every
// other lane's.
//
// One estimate per instance: every variant that opens with the
// Ludwig-Tiwari estimator receives the instance's estimate through
// SolverConfig::estimate — carried in by the caller
// (PortfolioConfig::estimates) or, when the early-cancel rule needs omega,
// computed once here — instead of re-running it per lane.
//
// Capability filtering (memory axis): a memory-constrained instance tries
// only the memory-aware subset of its planned lanes — memory-blind variants
// are auto-dropped per instance (deterministically: instance content and
// registry capabilities are both memo-key-covered). When no planned lane is
// memory-aware the instance fails closed with the named capability error on
// every lane, never a memory-overcommitted schedule.
//
// For every instance of a batch the configured variants run one after
// another inside the instance's worker shard, and the portfolio keeps the
// best *valid* schedule per instance — validity is re-checked with
// sched::validate, not just assumed from solver success — combining the
// variants' certificates:
//
//   * makespan     = min over completed variants (the kept schedule's),
//   * lower_bound  = max over completed variants (each bound is
//                    independently certified, so the max certifies too);
//                    on a *decided* instance (see below) the estimator's
//                    omega is folded in as well — the decision proof is a
//                    certificate, and stubbed variants must not weaken the
//                    combined bound,
//   * ratio        = makespan / lower_bound (tighter than any single
//                    variant's self-reported ratio),
//   * guarantee    = min proven factor among the variants that achieved the
//                    best makespan.
//
// A lane completes only when its schedule passes sched::validate AND its
// makespan is within its own proven factor of its own lower bound
// (guarantee > 0; 0 means no proven factor): a violation fails the
// attempt as "guarantee violated: ...".
//
// Early-cancel rule: each instance first gets the Ludwig-Tiwari
// estimator's certified lower bound omega (<= OPT). The variants run in
// portfolio order; the first completed variant whose valid makespan is
// <= omega *decides* the instance — no peer can produce a strictly better
// schedule, because every certified lower bound sandwiches OPT under that
// makespan — and every LATER variant is skipped outright, recorded as a
// kCancelled attempt (a deterministic stub: name + outcome only). The
// skipped set is therefore a pure function of (batch, variants, eps):
// completed results are pure and the decision threshold omega is
// deterministic.
//
// All combined certificate fields are pure functions of (batch, variants,
// eps) and enter the digest. The *winner name* is tie-broken by makespan,
// then (under the default TieBreak::kWallTime) wall time, then portfolio
// order: wall time is measured, so under an exact makespan tie the winner
// label (and the per-variant win counts derived from it) may differ between
// runs. TieBreak::kPortfolioOrder drops the wall-time step — ties go to the
// earliest variant in portfolio order, making the full win-count table a
// pure function of (batch, variants, eps), reproducible for CI comparison.
// Winner identity and all wall/queue fields are excluded from the digest
// under either tie-break mode — see PortfolioResult::digest().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/estimator.hpp"
#include "src/engine/exec_core.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::engine {

/// Parses a comma-separated variant list ("fptas,mrt,lt-2approx") into
/// names, trimming surrounding whitespace. Throws std::invalid_argument for
/// an empty spec, an empty element, or a duplicate name (duplicates would
/// skew the win table and waste an attempt). Names are NOT checked against
/// a registry here — PortfolioSolver::solve does that up front so the error
/// carries the known-name list.
std::vector<std::string> parse_portfolio_spec(const std::string& spec);

/// How an exact makespan tie picks the labelled winner (the combined
/// certificate is unaffected — only the winner name and win counts change).
enum class TieBreak {
  kWallTime,        ///< fastest tied variant wins (measured; may vary run to run)
  kPortfolioOrder,  ///< earliest tied variant in portfolio order wins (deterministic)
};

struct PortfolioConfig {
  std::vector<std::string> variants;  ///< registry names to try, in order
  double eps = 0.1;                   ///< approximation parameter, in (0, 1]
  unsigned threads = 0;               ///< worker threads; 0 = all available CPUs
  TieBreak tie_break = TieBreak::kWallTime;  ///< winner selection under ties
  /// Optional per-instance execution plans (the policy layer's down-shift /
  /// prior-seeding hook), index-aligned with the batch; null = every
  /// instance runs the full portfolio in config order. Each inner vector
  /// lists `variants` indices in seeding order: that order IS the canonical
  /// attempt order for the instance — the early-cancel walk and the digest
  /// both follow it — so a plan deterministically changes the
  /// outcome (and must be reproduced to reproduce the digest). An empty
  /// inner vector (or a missing entry past the vector's end) is the
  /// identity plan: full portfolio, config order, bitwise identical to a
  /// plan-free solve and sharing its memo entries; non-identity plans are
  /// salted into the memo key so they never alias. Entries must be valid,
  /// duplicate-free variant indices. The pointee must outlive solve().
  const std::vector<std::vector<std::uint16_t>>* variant_plans = nullptr;
  /// Optional per-instance Ludwig-Tiwari estimates the caller already holds
  /// (the stream layer's admission probe), index-aligned with the batch. A
  /// nullopt entry, or a missing entry past the vector's end, carries
  /// nothing. Each instance runs the estimator at most once: a carried
  /// estimate funds the early-cancel omega and is handed to every lane
  /// (SolverConfig::estimate); without one, a multi-lane instance computes
  /// it once here. Estimates never change an outcome and never enter the
  /// memo key. Each entry must be its instance's estimate_makespan result.
  /// The pointee must outlive solve().
  const std::vector<std::optional<core::EstimatorResult>>* estimates = nullptr;
};

/// How one variant's attempt on one instance ended.
enum class AttemptOutcome : unsigned char {
  kCompleted = 0,  ///< ran to completion and produced a valid schedule
  kFailed = 1,     ///< threw, or produced an invalid schedule or one over its guarantee
  kCancelled = 2,  ///< excluded by the early-cancel rule (deterministic stub)
};

/// One variant's run on one instance. Every field except wall_seconds is
/// deterministic; the digest covers the deterministic fields minus `error`
/// (exception text is not part of the stability contract). A kCancelled
/// attempt is a canonical stub — name + outcome, all certificate fields
/// zero — the variant never ran.
struct VariantAttempt {
  std::string algorithm;  ///< the configured variant name
  /// The algorithm `auto` resolved to on this instance
  /// (core::algorithm_name of the result's `used`); empty for every other
  /// variant and for an `auto` attempt that did not complete.
  std::string resolved;
  AttemptOutcome outcome = AttemptOutcome::kFailed;
  bool ok = false;    ///< outcome == kCompleted (kept for ergonomic checks)
  std::string error;  ///< solver exception or validator message when failed
  double makespan = 0;
  double lower_bound = 0;
  double ratio = 0;
  double guarantee = 0;
  int dual_calls = 0;
  /// This variant's measured compute time (not deterministic); 0 for a
  /// cancelled attempt.
  double wall_seconds = 0;

  /// The solver that produced this attempt: `resolved` when set, else the
  /// variant name.
  const std::string& solver() const { return resolved.empty() ? algorithm : resolved; }
};

/// Combined outcome for one instance, index-aligned with the batch.
struct PortfolioOutcome {
  std::size_t index = 0;
  bool ok = false;      ///< at least one variant produced a valid schedule
  std::string winner;   ///< best variant (makespan, then wall, then order)
  double makespan = 0;      ///< best makespan across completed variants
  double lower_bound = 0;   ///< best (max) certified lower bound
  double ratio = 0;         ///< makespan / lower_bound
  double guarantee = 0;     ///< min proven factor among makespan-best variants
  double queue_seconds = 0;    ///< batch start -> shard pickup (not deterministic)
  double compute_seconds = 0;  ///< sum of variant walls; 0 when memo-served
  /// One per planned lane, in plan order (= portfolio order without a
  /// variant plan; a down-shifted instance has a single attempt).
  std::vector<VariantAttempt> attempts;

  /// Mixes the digest-covered fields into `h` exactly as
  /// PortfolioResult::digest() does, under a caller-chosen index — the
  /// stream layer's rolling-digest hook, which keeps a stream digest equal
  /// to the one-shot digest over the concatenated windows.
  ///
  /// Two layouts. A multi-variant portfolio mixes (index, ok, makespan,
  /// lower_bound, ratio, guarantee) and per attempt (algorithm, outcome,
  /// ok, makespan, lower_bound, ratio, guarantee, dual_calls). A
  /// `single_variant` configuration mixes its one attempt as a single
  /// solver run: (index, ok, solver(), makespan, lower_bound, ratio,
  /// guarantee, dual_calls) — so `--algorithm X` and a one-entry
  /// `--portfolio X` are the same run with the same digest.
  void mix_digest(std::uint64_t& h, std::size_t digest_index, bool single_variant) const;
};

/// Aggregate over one (variant, solver) row of the batch: one row per
/// configured variant, except that `auto` splits by the algorithm each
/// completed attempt resolved to (its failed and cancelled attempts stay
/// under "auto"). Every percentile is nearest-rank.
struct VariantStats {
  std::string variant;    ///< configured registry name
  std::string algorithm;  ///< VariantAttempt::solver() of the row's attempts
  std::size_t wins = 0;    ///< instances where this row's attempt was the winner
  std::size_t solved = 0;  ///< completed (valid-schedule) attempts
  std::size_t failed = 0;  ///< failed attempts (cancelled NOT included)
  /// Attempts excluded by the early-cancel rule. Deterministic (the rule
  /// is).
  std::size_t cancelled = 0;
  /// Self-reported makespan / lower_bound of the completed attempts.
  double ratio_mean = 0;
  exec::Percentiles ratio;
  /// Quality gap of a completed attempt: makespan / best_makespan - 1,
  /// i.e. how far behind the per-instance winner this variant was (0 when it
  /// matched the best). Mean/max over its completed attempts.
  double gap_mean = 0;
  double gap_max = 0;
  /// Shard pickup time of the instances behind the completed attempts.
  exec::Percentiles queue;
  /// Wall stats cover ALL attempts — failed ones burn compute before
  /// throwing, and cancelled ones report 0.
  double wall_total = 0;
  exec::Percentiles wall;
};

struct PortfolioResult {
  std::vector<PortfolioOutcome> outcomes;   ///< index-aligned with the batch
  /// Portfolio order; within a variant, sorted by solver name.
  std::vector<VariantStats> per_variant;
  /// The configuration named exactly one variant: outcomes digest in the
  /// single-solver layout (see PortfolioOutcome::mix_digest).
  bool single_variant = false;
  std::size_t solved = 0;  ///< instances with at least one valid schedule
  std::size_t failed = 0;  ///< instances where every variant failed
  /// Total attempts excluded by the early-cancel rule (sum of the
  /// per-variant `cancelled` counts). Deterministic.
  std::size_t cancelled_attempts = 0;
  double wall_seconds = 0;  ///< whole-batch wall clock
  /// Memoization tally (both zero when no memo store was passed). A hit is
  /// an outcome served without solving — a duplicate of an earlier index of
  /// this batch, or of an instance a prior batch stored. hits + misses ==
  /// batch size when memoization is on, and both counts are deterministic
  /// (the memo plan is computed serially before dispatch).
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  /// Batch-level shard-pickup latency percentiles over all outcomes (queue
  /// time is a property of the instance's shard slot, shared by every
  /// variant tried on it). Not deterministic, excluded from the digest.
  exec::Percentiles queue;

  /// FNV-1a over every outcome's deterministic fields in batch order (see
  /// PortfolioOutcome::mix_digest for the two layouts). Winner names, win
  /// counts, error text and all wall/queue fields are excluded — they may
  /// legitimately differ between runs (see file comment).
  ///
  /// Stability contract: equal across thread counts and repeated runs of
  /// the same batch + config on the same build; NOT stable across configs,
  /// and not promised across compilers or libm versions (solvers do real
  /// floating-point work).
  std::uint64_t digest() const;
};

class PortfolioSolver {
 public:
  /// The registry must outlive the solver (the global registry always does).
  explicit PortfolioSolver(const AlgorithmRegistry& registry = AlgorithmRegistry::global());

  /// Runs config.variants on every instance. Throws std::invalid_argument
  /// up front when the variant list is empty, contains an unknown or
  /// duplicate name, or eps is out of range; per-instance solver errors
  /// and invalid schedules are recorded in the outcomes instead of thrown.
  /// A single-variant portfolio is the single-solver mode: one lane, no
  /// early-cancel, and no estimator call beyond the one its solver makes
  /// (none when config.estimates carries the instance's estimate).
  ///
  /// `memo` (optional) enables digest-keyed memoization: instances whose
  /// content was already solved under this config — earlier in this batch
  /// or in a prior batch sharing the store — reuse the stored outcome
  /// (winner label included) instead of re-solving. Solvers are pure, so
  /// the digest is unchanged; served outcomes report zero compute. The
  /// store is read and extended serially around the shard loop; sharing
  /// one store between concurrent solve calls is not supported.
  PortfolioResult solve(const std::vector<jobs::Instance>& batch,
                        const PortfolioConfig& config,
                        exec::MemoStore<PortfolioOutcome>* memo = nullptr) const;

 private:
  const AlgorithmRegistry* registry_;
};

}  // namespace moldable::engine
