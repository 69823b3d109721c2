#include "src/engine/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/baselines.hpp"
#include "src/core/exact.hpp"

namespace moldable::engine {

namespace {

SolverFn enum_solver(core::Algorithm algo) {
  return [algo](const jobs::Instance& instance, const SolverConfig& config) {
    // The scope makes config.arena visible to every hot loop below this
    // frame (util::scratch_arena) — no core signature changes.
    util::ArenaScope arena_scope(config.arena);
    return core::schedule_moldable(instance, config.eps, algo, config.estimate);
  };
}

core::ScheduleResult solve_exact_wrapped(const jobs::Instance& instance,
                                         const SolverConfig& config) {
  util::ArenaScope arena_scope(config.arena);
  auto exact = core::solve_exact(instance);  // throws over the hard caps
  if (!exact)
    throw std::runtime_error("exact: node budget exceeded for instance '" +
                             instance.name() + "'");
  core::ScheduleResult out;
  out.schedule = std::move(exact->schedule);
  out.lower_bound = exact->makespan;
  out.makespan = exact->makespan;
  out.ratio_vs_lower = 1;
  out.guarantee = 1;
  return out;
}

core::ScheduleResult memory_greedy_wrapped(const jobs::Instance& instance,
                                           const SolverConfig& config) {
  util::ArenaScope arena_scope(config.arena);
  core::BaselineResult b = core::memory_greedy_schedule(instance, config.estimate);
  core::ScheduleResult out;
  out.schedule = std::move(b.schedule);
  out.lower_bound = b.lower_bound;
  out.makespan = out.schedule.makespan();
  out.ratio_vs_lower = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
  // On memory-free instances this IS lt-2approx (kmin == 1 everywhere), so
  // the 2 omega bound holds; the clamped schedule under a binding memory
  // constraint has no proven factor.
  out.guarantee = instance.memory_constrained() ? 0 : 2;
  return out;
}

}  // namespace

AlgorithmRegistry AlgorithmRegistry::with_builtins() {
  AlgorithmRegistry r;
  for (core::Algorithm a :
       {core::Algorithm::kAuto, core::Algorithm::kFptas, core::Algorithm::kMrt,
        core::Algorithm::kCompressible, core::Algorithm::kBounded,
        core::Algorithm::kBoundedLinear, core::Algorithm::kLudwigTiwari})
    r.add(core::algorithm_name(a), enum_solver(a));
  r.add("ptas", [](const jobs::Instance& instance, const SolverConfig& config) {
    util::ArenaScope arena_scope(config.arena);
    return core::ptas_schedule(instance, config.eps, config.estimate);
  });
  r.add("exact", solve_exact_wrapped);
  // The memory-aware pair. mem-exact reuses solve_exact, whose allotment
  // search is memory-aware (kmin-clamped) by construction — under the
  // distinct name the capability gate can route memory-constrained
  // instances to it while "exact" keeps the memory-blind contract.
  r.add("mem-greedy", memory_greedy_wrapped, SolverCaps{/*memory_aware=*/true});
  r.add("mem-exact", solve_exact_wrapped, SolverCaps{/*memory_aware=*/true});
  return r;
}

const AlgorithmRegistry& AlgorithmRegistry::global() {
  static const AlgorithmRegistry instance = with_builtins();
  return instance;
}

void AlgorithmRegistry::add(std::string name, SolverFn fn, SolverCaps caps) {
  if (name.empty()) throw std::invalid_argument("registry: empty solver name");
  if (!fn) throw std::invalid_argument("registry: null solver for '" + name + "'");
  if (!solvers_.emplace(std::move(name), Entry{std::move(fn), caps}).second)
    throw std::invalid_argument("registry: duplicate solver name");
}

bool AlgorithmRegistry::contains(const std::string& name) const {
  return solvers_.count(name) != 0;
}

const SolverCaps& AlgorithmRegistry::caps(const std::string& name) const {
  at(name);  // uniform unknown-name diagnostic
  return solvers_.find(name)->second.caps;
}

bool AlgorithmRegistry::memory_aware(const std::string& name) const {
  return caps(name).memory_aware;
}

void AlgorithmRegistry::check_capability(const std::string& name,
                                         const jobs::Instance& instance) const {
  if (!instance.memory_constrained()) return;
  if (memory_aware(name)) return;
  throw std::invalid_argument("capability: variant '" + name +
                              "' is memory-blind but instance '" + instance.name() +
                              "' is memory-constrained (mem/memcap set)");
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& [name, entry] : solvers_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

const SolverFn& AlgorithmRegistry::at(const std::string& name) const {
  const auto it = solvers_.find(name);
  if (it == solvers_.end()) {
    std::ostringstream msg;
    msg << "registry: unknown algorithm '" << name << "'; known:";
    for (const auto& n : names()) msg << ' ' << n;
    throw std::invalid_argument(msg.str());
  }
  return it->second.fn;
}

core::ScheduleResult AlgorithmRegistry::solve(const std::string& name,
                                              const jobs::Instance& instance,
                                              const SolverConfig& config) const {
  const SolverFn& fn = at(name);
  check_capability(name, instance);
  return fn(instance, config);
}

}  // namespace moldable::engine
