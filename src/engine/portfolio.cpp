#include "src/engine/portfolio.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>

#include "src/engine/exec_core.hpp"
#include "src/engine/policy.hpp"
#include "src/sched/validator.hpp"
#include "src/util/common.hpp"

namespace moldable::engine {

namespace {

using detail::fnv1a_mix;
using detail::fnv1a_mix_double;

std::vector<VariantStats> aggregate(const std::vector<PortfolioOutcome>& outcomes,
                                    const std::vector<std::string>& variants) {
  struct Row {
    VariantStats stats;
    std::vector<double> ratios, gaps, queues, walls;
  };
  // Rows are keyed by (portfolio position, solver that ran), so std::map
  // orders them by portfolio order, then solver name; the views point into
  // `outcomes` and `variants`, which outlive the map. Attempts are keyed
  // back to their variant by NAME, not slot: under per-instance variant
  // plans the attempt list is a (possibly shrunken) permutation of the
  // portfolio, so positions no longer line up.
  std::map<std::pair<std::size_t, std::string_view>, Row> rows;

  for (const PortfolioOutcome& o : outcomes) {
    for (const VariantAttempt& a : o.attempts) {
      const std::size_t v = static_cast<std::size_t>(
          std::find(variants.begin(), variants.end(), a.algorithm) - variants.begin());
      if (v == variants.size()) continue;  // foreign cache entry; not ours to count
      const auto [it, fresh] = rows.try_emplace({v, a.solver()});
      Row& row = it->second;
      if (fresh) {
        row.ratios.reserve(outcomes.size());
        row.queues.reserve(outcomes.size());
        row.walls.reserve(outcomes.size());
      }
      VariantStats& s = row.stats;
      // Wall stats cover every attempt: a variant that burns time before
      // failing still costs the portfolio, and hiding that would make
      // expensive never-winning variants look free in the table.
      row.walls.push_back(a.wall_seconds);
      if (a.outcome == AttemptOutcome::kCancelled) {
        ++s.cancelled;
        continue;
      }
      if (!a.ok) {
        ++s.failed;
        continue;
      }
      ++s.solved;
      if (a.algorithm == o.winner) ++s.wins;
      row.ratios.push_back(a.ratio);
      row.queues.push_back(o.queue_seconds);
      if (o.makespan > 0) row.gaps.push_back(a.makespan / o.makespan - 1.0);
    }
  }
  // A variant nothing was attempted with still gets its (empty) row.
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto next = rows.lower_bound({v, std::string_view()});
    if (next == rows.end() || next->first.first != v) rows[{v, variants[v]}];
  }

  std::vector<VariantStats> out;
  out.reserve(rows.size());
  const auto mean = [](const std::vector<double>& xs) {
    double sum = 0;
    for (double x : xs) sum += x;
    return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
  };
  for (auto& [key, row] : rows) {
    VariantStats& s = row.stats;
    s.variant = variants[key.first];
    s.algorithm = std::string(key.second);
    s.ratio_mean = mean(row.ratios);
    s.ratio = exec::percentiles_of(row.ratios);
    s.gap_mean = mean(row.gaps);
    if (!row.gaps.empty()) s.gap_max = *std::max_element(row.gaps.begin(), row.gaps.end());
    s.queue = exec::percentiles_of(row.queues);
    for (double w : row.walls) s.wall_total += w;
    s.wall = exec::percentiles_of(row.walls);
    out.push_back(std::move(s));
  }
  return out;
}

/// Config part of the memo key: variant list, eps, and the tie-break mode —
/// the winner label is stored in the cached outcome, so outcomes produced
/// under different tie-break rules must not alias.
std::uint64_t config_memo_key(const PortfolioConfig& config) {
  std::uint64_t h = detail::kFnvOffsetBasis;
  const char tag[] = "portfolio";
  fnv1a_mix(h, tag, sizeof(tag));
  for (const std::string& v : config.variants) {
    fnv1a_mix(h, v.data(), v.size());
    const char sep = ',';
    fnv1a_mix(h, &sep, sizeof(sep));
  }
  fnv1a_mix_double(h, config.eps);
  const unsigned char tie = config.tie_break == TieBreak::kPortfolioOrder ? 1 : 0;
  fnv1a_mix(h, &tie, sizeof(tie));
  return h;
}

/// Fills an attempt as the canonical excluded stub: name + kCancelled, every
/// certificate field zero, no wall time (the variant never ran).
void stub_cancelled(VariantAttempt& a, const std::string& algorithm) {
  a = VariantAttempt{};
  a.algorithm = algorithm;
  a.outcome = AttemptOutcome::kCancelled;
  a.error = "cancelled: an earlier variant completed at the certified lower bound";
}

}  // namespace

std::vector<std::string> parse_portfolio_spec(const std::string& spec) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    std::string name = trim(spec.substr(pos, comma - pos));
    if (name.empty())
      throw std::invalid_argument("portfolio: empty variant name in spec '" + spec + "'");
    if (std::find(names.begin(), names.end(), name) != names.end())
      throw std::invalid_argument(
          "portfolio: duplicate variant '" + name +
          "' (each variant may appear once — duplicates would skew the win "
          "table and waste an attempt)");
    names.push_back(std::move(name));
    pos = comma + 1;
  }
  return names;
}

void PortfolioOutcome::mix_digest(std::uint64_t& h, std::size_t digest_index,
                                  bool single_variant) const {
  fnv1a_mix(h, &digest_index, sizeof(digest_index));
  const auto mix_certificate = [&h](const auto& c) {
    fnv1a_mix_double(h, c.makespan);
    fnv1a_mix_double(h, c.lower_bound);
    fnv1a_mix_double(h, c.ratio);
    fnv1a_mix_double(h, c.guarantee);
  };
  if (single_variant) {
    // The single-solver layout, from the one lane's attempt.
    const VariantAttempt& a = attempts.front();
    const unsigned char ok_byte = a.ok ? 1 : 0;
    fnv1a_mix(h, &ok_byte, sizeof(ok_byte));
    const std::string& name = a.solver();
    fnv1a_mix(h, name.data(), name.size());
    mix_certificate(a);
    fnv1a_mix(h, &a.dual_calls, sizeof(a.dual_calls));
    return;
  }
  const unsigned char ok_byte = ok ? 1 : 0;
  fnv1a_mix(h, &ok_byte, sizeof(ok_byte));
  mix_certificate(*this);
  for (const VariantAttempt& a : attempts) {
    fnv1a_mix(h, a.algorithm.data(), a.algorithm.size());
    const unsigned char outcome_byte = static_cast<unsigned char>(a.outcome);
    fnv1a_mix(h, &outcome_byte, sizeof(outcome_byte));
    const unsigned char aok = a.ok ? 1 : 0;
    fnv1a_mix(h, &aok, sizeof(aok));
    mix_certificate(a);
    fnv1a_mix(h, &a.dual_calls, sizeof(a.dual_calls));
  }
}

std::uint64_t PortfolioResult::digest() const {
  std::uint64_t h = detail::kFnvOffsetBasis;
  for (const PortfolioOutcome& o : outcomes) o.mix_digest(h, o.index, single_variant);
  return h;
}

PortfolioSolver::PortfolioSolver(const AlgorithmRegistry& registry)
    : registry_(&registry) {}

PortfolioResult PortfolioSolver::solve(const std::vector<jobs::Instance>& batch,
                                       const PortfolioConfig& config,
                                       exec::MemoStore<PortfolioOutcome>* memo) const {
  if (config.variants.empty())
    throw std::invalid_argument("portfolio: variant list is empty");
  if (!(config.eps > 0) || config.eps > 1)
    throw std::invalid_argument("portfolio: eps must be in (0, 1]");

  // Validate and resolve in one pass, outside the worker loop (the registry
  // reference contract). at() throws with the known-name list.
  std::vector<const SolverFn*> solvers;
  solvers.reserve(config.variants.size());
  for (std::size_t v = 0; v < config.variants.size(); ++v) {
    const SolverFn& fn = registry_->at(config.variants[v]);
    for (std::size_t w = 0; w < v; ++w)
      if (config.variants[w] == config.variants[v])
        throw std::invalid_argument("portfolio: duplicate variant '" +
                                    config.variants[v] + "'");
    solvers.push_back(&fn);
  }

  const std::size_t n_variants = config.variants.size();

  // Capability table and `auto` lanes, resolved once — the worker loop
  // below must not do registry lookups or name compares. `identity` is the
  // plan-free lane order, shared read-only by every worker.
  std::vector<char> mem_aware(n_variants, 0), is_auto(n_variants, 0);
  std::vector<std::uint16_t> identity(n_variants);
  for (std::size_t v = 0; v < n_variants; ++v) {
    mem_aware[v] = registry_->memory_aware(config.variants[v]) ? 1 : 0;
    is_auto[v] = config.variants[v] == "auto" ? 1 : 0;
    identity[v] = static_cast<std::uint16_t>(v);
  }

  // Resolve slot i's execution plan: null = identity (full portfolio in
  // config order). Explicit identity permutations are canonicalized to null
  // here so they memoize, digest, and salt exactly like a plan-free solve.
  const auto plan_of = [&](std::size_t i) -> const std::vector<std::uint16_t>* {
    if (!config.variant_plans || i >= config.variant_plans->size()) return nullptr;
    const std::vector<std::uint16_t>& p = (*config.variant_plans)[i];
    if (p.empty()) return nullptr;
    if (p.size() == n_variants) {
      bool identity = true;
      for (std::size_t l = 0; l < p.size(); ++l)
        if (p[l] != l) { identity = false; break; }
      if (identity) return nullptr;
    }
    return &p;
  };
  if (config.variant_plans) {
    for (const std::vector<std::uint16_t>& p : *config.variant_plans) {
      std::vector<char> seen(n_variants, 0);
      for (const std::uint16_t v : p) {
        if (v >= n_variants)
          throw std::invalid_argument("portfolio: variant plan index out of range");
        if (seen[v])
          throw std::invalid_argument("portfolio: duplicate variant in plan");
        seen[v] = 1;
      }
    }
  }

  PortfolioResult result;
  result.outcomes.resize(batch.size());
  result.single_variant = n_variants == 1;

  exec::MemoPlan plan;
  if (memo) {
    // A non-identity plan changes the outcome, so it must change the memo
    // key: salt each planned slot with a hash of its plan. Identity slots
    // keep salt 0 and share entries with plan-free runs.
    std::vector<std::uint64_t> salts;
    if (config.variant_plans) {
      salts.assign(batch.size(), 0);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::vector<std::uint16_t>* p = plan_of(i);
        if (!p) continue;
        std::uint64_t s = detail::kFnvOffsetBasis;
        const char tag[] = "variant-plan";
        fnv1a_mix(s, tag, sizeof(tag));
        for (const std::uint16_t v : *p) fnv1a_mix(s, &v, sizeof(v));
        salts[i] = s != 0 ? s : 1;  // 0 is the "unsalted" sentinel
      }
    }
    plan = exec::plan_memo(batch, config_memo_key(config),
                           [&](std::uint64_t key) { return memo->contains(key); },
                           salts.empty() ? nullptr : &salts);
    result.memo_hits = plan.hits;
    result.memo_misses = plan.misses;
  }

  // One variant's attempt, run to completion or failure. Pure except for
  // the wall stamp.
  const auto run_attempt = [&](std::size_t i, std::size_t v, VariantAttempt& a) {
    a.algorithm = config.variants[v];
    util::Timer attempt_timer;
    try {
      SolverConfig solver_config;
      solver_config.eps = config.eps;
      // Warm per-thread scratch: each shard worker gets its own arena, so
      // reuse is safe under any interleaving.
      solver_config.arena = &util::thread_scratch_arena();
      const core::ScheduleResult r = (*solvers[v])(batch[i], solver_config);
      const sched::ValidationResult check = sched::validate(r.schedule, batch[i]);
      if (!check.ok)
        throw std::runtime_error("invalid schedule: " + check.errors.front());
      if (is_auto[v]) a.resolved = core::algorithm_name(r.used);
      a.outcome = AttemptOutcome::kCompleted;
      a.ok = true;
      a.error.clear();
      a.makespan = r.makespan;
      a.lower_bound = r.lower_bound;
      a.ratio = r.ratio_vs_lower;
      a.guarantee = r.guarantee;
      a.dual_calls = r.dual_calls;
    } catch (const std::exception& e) {
      a.outcome = AttemptOutcome::kFailed;
      a.ok = false;
      a.error = e.what();
    }
    a.wall_seconds = attempt_timer.seconds();
  };

  const exec::ShardTiming timing = exec::run_sharded(
      batch.size(), config.threads, memo ? &plan : nullptr, [&](std::size_t i) {
        PortfolioOutcome& out = result.outcomes[i];
        // The instance's execution plan maps lanes (attempt slots) to
        // config-variant indices; without a plan, lane l IS variant l. The
        // plan order is the canonical order for everything below — the
        // early-cancel walk and the digest.
        const std::vector<std::uint16_t>* lane_vars = plan_of(i);
        if (!lane_vars) lane_vars = &identity;
        // Capability filter (memory axis): a memory-constrained instance
        // tries only the memory-aware subset of its planned lanes — blind
        // variants are dropped, not failed, so a mixed portfolio degrades
        // gracefully. Deterministic: a pure function of instance content and
        // the registry's declared capabilities, both memo-key-covered. When
        // NO planned lane is capable the instance fails closed: every lane
        // reports the named capability error.
        std::vector<std::uint16_t> capable;
        if (batch[i].memory_constrained()) {
          for (const std::uint16_t v : *lane_vars)
            if (mem_aware[v]) capable.push_back(v);
          if (capable.empty()) {
            out.attempts.resize(lane_vars->size());
            for (std::size_t lane = 0; lane < lane_vars->size(); ++lane) {
              VariantAttempt& a = out.attempts[lane];
              a.algorithm = config.variants[(*lane_vars)[lane]];
              a.outcome = AttemptOutcome::kFailed;
              a.ok = false;
              a.error = "capability: variant '" + a.algorithm +
                        "' is memory-blind but instance '" + batch[i].name() +
                        "' is memory-constrained (mem/memcap set)";
            }
            return;
          }
          lane_vars = &capable;
        }
        const std::size_t lanes = lane_vars->size();
        const auto variant_of = [&](std::size_t lane) -> std::size_t {
          return (*lane_vars)[lane];
        };
        out.attempts.resize(lanes);
        // A single-lane instance (single-variant portfolio, or a
        // down-shifted plan) has no peers to cancel and must stay bitwise
        // equal to solving that one variant alone, so it skips the decision
        // machinery (and the estimator call funding it) entirely.
        const double omega = lanes > 1
                                 ? certified_lower_bound(batch[i])
                                 : -std::numeric_limits<double>::infinity();

        // The early-cancel walk, in plan order: run each lane until one
        // completes at or below omega and so decides the instance; every
        // later lane becomes the canonical kCancelled stub without running.
        bool decided = false;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          VariantAttempt& a = out.attempts[lane];
          if (decided) {
            stub_cancelled(a, config.variants[variant_of(lane)]);
            continue;
          }
          run_attempt(i, variant_of(lane), a);
          decided = a.ok && a.makespan <= omega;
        }

        // Combine the canonical attempts: best makespan, max certified
        // bound, tie-break-mode winner label.
        std::size_t winner = lanes;  // sentinel: none yet
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const VariantAttempt& a = out.attempts[lane];
          out.compute_seconds += a.wall_seconds;
          if (!a.ok) continue;
          if (!out.ok) {
            out.ok = true;
            out.makespan = a.makespan;
            out.lower_bound = a.lower_bound;
            out.guarantee = a.guarantee;
            winner = lane;
            continue;
          }
          out.lower_bound = std::max(out.lower_bound, a.lower_bound);
          if (a.makespan < out.makespan) {
            out.makespan = a.makespan;
            out.guarantee = a.guarantee;
            winner = lane;
          } else if (a.makespan == out.makespan) {
            out.guarantee = std::min(out.guarantee, a.guarantee);
            // kPortfolioOrder keeps the earliest tied lane (winner < lane by
            // construction); kWallTime hands the label to a faster tie.
            if (config.tie_break == TieBreak::kWallTime &&
                a.wall_seconds < out.attempts[winner].wall_seconds)
              winner = lane;
          }
        }
        if (out.ok) {
          out.winner = config.variants[variant_of(winner)];
          // A decided instance carries a proof the code would otherwise
          // discard: the decision fired because makespan <= omega <= OPT,
          // and omega is itself a certified bound — fold it in so the
          // combined certificate does not regress when cancelled variants'
          // (possibly tighter) bounds are stubbed away. Deterministic:
          // `decided` and omega are pure functions of the instance.
          if (decided) out.lower_bound = std::max(out.lower_bound, omega);
          // Same convention as core::ScheduleResult: a degenerate zero lower
          // bound (e.g. a zero-job instance) reports ratio 1.
          out.ratio = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
        }
      });
  result.wall_seconds = timing.wall_seconds;

  // Serial finalize, two passes. Pass 1 serves every store-promised slot
  // before anything is inserted: under a bounded (LRU) store, recording a
  // fresh outcome can evict an entry the plan promised to serve — plan_memo
  // probed the store before the shard loop ran — so all store reads must
  // precede the first write. Pass 2 resolves in-batch duplicates (slot
  // j < i is already final), stamps index/queue, and stores fresh
  // outcomes. Served slots zero the compute cost — nothing was solved.
  if (memo) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (plan.source[i] != exec::MemoPlan::kFromStore) continue;
      PortfolioOutcome& out = result.outcomes[i];
      out = *memo->find(plan.key[i]);
      out.compute_seconds = 0;
      for (VariantAttempt& a : out.attempts) a.wall_seconds = 0;
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PortfolioOutcome& out = result.outcomes[i];
    if (memo && !plan.computes(i) && plan.source[i] != exec::MemoPlan::kFromStore) {
      out = result.outcomes[plan.source[i]];
      out.compute_seconds = 0;
      for (VariantAttempt& a : out.attempts) a.wall_seconds = 0;
    }
    out.index = i;
    out.queue_seconds = timing.queue_seconds[i];
    if (memo && plan.computes(i) && plan.memoizable[i]) memo->insert(plan.key[i], out);
  }

  for (const PortfolioOutcome& o : result.outcomes)
    (o.ok ? result.solved : result.failed)++;
  result.per_variant = aggregate(result.outcomes, config.variants);
  for (const VariantStats& s : result.per_variant)
    result.cancelled_attempts += s.cancelled;

  std::vector<double> queues;
  queues.reserve(result.outcomes.size());
  for (const PortfolioOutcome& o : result.outcomes) queues.push_back(o.queue_seconds);
  result.queue = exec::percentiles_of(queues);
  return result;
}

}  // namespace moldable::engine
