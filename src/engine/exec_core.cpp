#include "src/engine/exec_core.hpp"

#include <cmath>
#include <limits>
#include <string_view>

#include "src/jobs/io.hpp"

namespace moldable::engine::exec {

unsigned resolve_threads(unsigned configured) {
  if (configured != 0) return configured;
  return util::available_cpus();
}

Percentiles percentiles_of(std::vector<double>& samples) {
  Percentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = detail::percentile_sorted(samples, 50);
  p.p90 = detail::percentile_sorted(samples, 90);
  p.p99 = detail::percentile_sorted(samples, 99);
  p.max = samples.back();
  return p;
}

namespace {

/// walk_content's sink for the memo key: FNV-1a over a tagged binary form
/// of the content. Every item is a tag byte plus a fixed-width value or a
/// length-prefixed token, so the byte sequence decodes back to the item
/// sequence, and two instances mix the same bytes exactly when write_instance
/// would print the same content lines for them (given single-token job
/// names, which is all the reader produces).
struct KeySink {
  std::uint64_t h;

  void tag(char t) { detail::fnv1a_mix(h, &t, 1); }
  void token(std::string_view s) {
    const std::uint64_t size = s.size();
    detail::fnv1a_mix(h, &size, sizeof(size));
    detail::fnv1a_mix(h, s.data(), s.size());
  }
  void key(std::string_view k) {
    tag('K');
    token(k);
  }
  void word(std::string_view w) {
    tag('W');
    token(w);
  }
  void real(double v) {
    tag('R');
    // The text prints every NaN as "nan" or "-nan"; keep only the sign.
    if (std::isnan(v)) v = std::copysign(std::numeric_limits<double>::quiet_NaN(), v);
    detail::fnv1a_mix_double(h, v);
  }
  void integer(std::int64_t v) {
    tag('I');
    detail::fnv1a_mix(h, &v, sizeof(v));
  }
  void end() { tag('\n'); }
};

}  // namespace

std::optional<std::uint64_t> memo_key(const jobs::Instance& instance,
                                      std::uint64_t config_key) {
  // The key covers the instance's content — what write_instance emits after
  // the header, metadata directives included — minus the instance name:
  // loaders invent fallback names (the file stem, the stream reader's
  // "stream-<ordinal>"), so keying on the name would make every unnamed
  // duplicate unique and silently defeat memoization. The name affects no
  // algorithmic output and is excluded from every digest, so dropping it
  // here is safe. An instance outside the serializable catalogue has no
  // stable identity at all and is simply never memoized rather than
  // guessed at.
  KeySink sink{config_key};
  if (jobs::walk_content(instance, sink) != nullptr) return std::nullopt;
  return sink.h;
}

MemoPlan plan_memo(const std::vector<jobs::Instance>& batch, std::uint64_t config_key,
                   const std::function<bool(std::uint64_t)>& in_store,
                   const std::vector<std::uint64_t>* salts) {
  MemoPlan plan;
  const std::size_t n = batch.size();
  plan.source.assign(n, MemoPlan::kCompute);
  plan.key.assign(n, 0);
  plan.memoizable.assign(n, 0);

  std::unordered_map<std::uint64_t, std::size_t> first_seen;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<std::uint64_t> key = memo_key(batch[i], config_key);
    if (key && salts && i < salts->size() && (*salts)[i] != 0) {
      const std::uint64_t salt = (*salts)[i];
      detail::fnv1a_mix(*key, &salt, sizeof(salt));
    }
    if (!key) {
      ++plan.misses;  // computes, and can never be served from anywhere
      continue;
    }
    plan.key[i] = *key;
    plan.memoizable[i] = 1;
    if (in_store && in_store(*key)) {
      plan.source[i] = MemoPlan::kFromStore;
      ++plan.hits;
      continue;
    }
    const auto it = first_seen.find(*key);
    if (it != first_seen.end()) {
      plan.source[i] = it->second;
      ++plan.hits;
    } else {
      first_seen.emplace(*key, i);
      ++plan.misses;
    }
  }
  return plan;
}

}  // namespace moldable::engine::exec
