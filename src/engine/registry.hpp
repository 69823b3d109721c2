// AlgorithmRegistry: the engine's name -> solver map.
//
// The core layer exposes each paper algorithm through its own entry point
// (schedule_moldable + an Algorithm enum, ptas_schedule, solve_exact). The
// batch engine and its drivers instead select solvers by *name* at run time
// (CLI flags, service configs), so this registry wraps every variant behind
// one uniform `solve(instance, config)` signature:
//
//   auto, fptas, mrt, algorithm1, algorithm3, algorithm3-linear  (the enum)
//   lt-2approx                                                   (baseline)
//   ptas                                                         (Section 3.2)
//   exact                                                        (tiny refs)
//   mem-greedy, mem-exact                          (memory-aware variants)
//
// Registries are value types; `global()` returns the shared immutable
// instance holding the built-ins. Custom variants (ablations, tuned eps
// schedules) can be added to a copy without touching the core layer.
//
// Capability flags: each entry declares whether it understands the memory
// axis (`SolverCaps::memory_aware`). The paper algorithms predate the axis
// and silently ignore footprints, which would produce memory-overcommitted
// "valid-looking" schedules — so the engines fail closed instead: a
// memory-constrained instance routed to a memory-blind variant yields the
// named capability error (check_capability), never a wrong schedule.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/scheduler.hpp"
#include "src/jobs/instance.hpp"
#include "src/util/arena.hpp"

namespace moldable::engine {

/// Per-call solver parameters. Kept separate from core's positional
/// arguments so new knobs (time limits, seeds) extend one struct instead of
/// every solver signature.
struct SolverConfig {
  double eps = 0.1;  ///< approximation parameter, in (0, 1]
  /// Scratch memory for the solver's hot kernels (dense DP rows, Pareto
  /// merge buffers). When non-null, the built-in wrappers install it as the
  /// thread's active ScratchArena for the duration of the solve, letting an
  /// engine reuse one warm arena across thousands of solves on the same
  /// worker. When null, kernels fall back to the per-thread default arena —
  /// still allocation-free in steady state, just not shared with the
  /// engine's other bookkeeping. Arenas recycle memory only; they never
  /// change results (the determinism digests are the enforced contract).
  util::ScratchArena* arena = nullptr;
  /// The instance's Ludwig-Tiwari estimate when the caller already holds it
  /// (the portfolio computes it once per instance and hands it to every
  /// lane). Non-owning, like `arena`: solvers that open with the estimator
  /// use it instead of re-running it; null makes them run it themselves.
  /// It never changes a result and never enters a memo key. The pointee
  /// must be the estimate of the instance being solved.
  const core::EstimatorResult* estimate = nullptr;
};

/// A registered solver variant: maps (instance, config) to a ScheduleResult,
/// reporting failure by throwing (std::exception derivatives only).
///
/// Contract required by the batch engine (PortfolioSolver):
///   * pure — the result is a function of the arguments alone (no hidden
///     state, no randomness, no wall-clock dependence); this is what makes
///     the engine's digests stable across thread counts;
///   * thread-compatible — concurrent calls on distinct instances are safe
///     (all built-ins are; custom variants must not share mutable state);
///   * certified — `lower_bound` must be a valid lower bound on OPT and the
///     returned schedule must pass sched::validate (portfolio mode
///     re-checks and demotes violations to per-instance failures).
using SolverFn =
    std::function<core::ScheduleResult(const jobs::Instance&, const SolverConfig&)>;

/// Declared capabilities of a registered variant. Defaults describe the
/// pre-memory-axis contract, so existing custom registrations keep their
/// (fail-closed) behavior without a signature change.
struct SolverCaps {
  /// True when the solver honors the instance's `mem`/`memcap` constraint
  /// (every returned allotment is memory-feasible and the certified lower
  /// bound folds in memory_lower_bound()). Memory-blind variants are never
  /// handed a memory-constrained instance — see check_capability().
  bool memory_aware = false;
};

/// Name -> SolverFn map behind the engines' run-time solver selection.
/// See the file comment for the built-in names. Lookup is O(log n); batch
/// callers resolve once outside their worker loops.
class AlgorithmRegistry {
 public:
  /// Empty registry (for tests / custom variant sets).
  AlgorithmRegistry() = default;

  /// A registry populated with every built-in solver variant.
  static AlgorithmRegistry with_builtins();

  /// Shared immutable registry of the built-ins.
  static const AlgorithmRegistry& global();

  /// Registers `fn` under `name` with the given capabilities (default:
  /// memory-blind). Throws std::invalid_argument when the name is empty or
  /// already taken (silent override would make batch configs ambiguous).
  void add(std::string name, SolverFn fn, SolverCaps caps = {});

  bool contains(const std::string& name) const;

  /// Declared capabilities of `name` (same throwing contract as at()).
  const SolverCaps& caps(const std::string& name) const;
  /// Shorthand: caps(name).memory_aware.
  bool memory_aware(const std::string& name) const;

  /// Fail-closed capability gate: throws std::invalid_argument with a
  /// message starting "capability:" when `instance` is memory-constrained
  /// and `name` is memory-blind. solve() runs it before every call, and the
  /// batch engine applies the same rule to each lane, so a blind variant can
  /// never silently produce a memory-overcommitted schedule. No-op for memory-free instances and memory-aware variants.
  void check_capability(const std::string& name, const jobs::Instance& instance) const;

  /// Sorted solver names (stable across runs; used by --help output).
  std::vector<std::string> names() const;

  /// Looks up `name`; throws std::invalid_argument with the known-name list
  /// when it is not registered. The reference stays valid as long as the
  /// registry does (batch callers resolve once, outside their worker loop).
  const SolverFn& at(const std::string& name) const;

  /// Looks up `name`, runs check_capability, and runs it (same throwing
  /// contract as at(); the capability error when a memory-constrained
  /// instance meets a memory-blind variant).
  core::ScheduleResult solve(const std::string& name, const jobs::Instance& instance,
                             const SolverConfig& config) const;

 private:
  struct Entry {
    SolverFn fn;
    SolverCaps caps;
  };
  std::map<std::string, Entry> solvers_;
};

}  // namespace moldable::engine
