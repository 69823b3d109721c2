// Span recording for the serve benchmark's traced pass.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into each layer (the instance source, the solver registry, the
// window hook), kept in memory, and written out when the run ends. A span
// has a kind, a parent, a request id (the arrival's 1-based position in the
// stream; 0 = none) and a [start, end) interval in nanoseconds from the
// pass start. A span's self time is its duration minus the part of it that
// its child spans cover (see covered_ns).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/scheduler.hpp"
#include "src/jobs/instance.hpp"
#include "src/sched/validator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point base) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - base).count();
}

/// Total length of the union of [start, end) intervals.
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, lo = 0, hi = -1;
  for (const auto& [s, e] : iv) {
    if (s > hi) {
      if (hi > lo) total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

enum class SpanKind : std::uint8_t { kStream, kParse, kWindow, kSolve, kValidate };

struct Span {
  SpanKind kind = SpanKind::kStream;
  std::uint16_t variant = 0;  ///< solver variant index (solve spans)
  std::int32_t parent = -1;   ///< span index; -1 for the pass root
  std::uint64_t request = 0;  ///< arrival position, 1-based; 0 = none
  std::int64_t start_ns = 0, end_ns = 0;
};

/// Per-variant solve tally of the traced pass.
struct VariantTally {
  std::size_t calls = 0, failed = 0;
  std::vector<double> us;  ///< duration of every completed solve
};

/// Thread-safe span sink plus the schedule checks made on every solve. The
/// serve thread records parse and window spans; solver calls may arrive
/// from the engine's worker threads, so everything goes through one mutex.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> variants)
      : variants_(std::move(variants)), tallies_(variants_.size()) {
    spans_.push_back(Span{});  // index 0: the pass root (engine.stream)
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void start() { base_ = Clock::now(); }
  std::int64_t now() const { return ns_since(base_); }
  void finish(std::int64_t end_ns) { spans_[0].end_ns = end_ns; }

  std::size_t variant_index(const std::string& name) const {
    return static_cast<std::size_t>(
        std::find(variants_.begin(), variants_.end(), name) - variants_.begin());
  }
  const std::vector<std::string>& variants() const { return variants_; }

  /// One InstanceSource::next call; `instance` is the parsed record, if any.
  void parse(std::int64_t t0, std::int64_t t1, std::uint64_t request,
             const moldable::jobs::Instance* instance) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{SpanKind::kParse, 0, 0, request, t0, t1});
    if (instance) {
      // A stamp seen twice (unstamped duplicates all read 0) names no request.
      const auto [it, fresh] = request_of_arrival_.emplace(instance->arrival(), request);
      if (!fresh) it->second = 0;
    }
  }

  /// A solve that threw (failure or cancellation).
  void solve_failed(std::size_t v, std::int64_t t0, std::int64_t t1,
                    const moldable::jobs::Instance& instance) {
    std::lock_guard<std::mutex> lock(mu_);
    ++tallies_[v].calls;
    ++tallies_[v].failed;
    spans_.push_back(Span{SpanKind::kSolve, static_cast<std::uint16_t>(v), -1,
                          request_of(instance), t0, t1});
  }

  /// A solve that returned `result`; `check` is sched::validate on it, run
  /// over [t1, t2). Records both spans and applies the schedule checks.
  void solved(std::size_t v, const moldable::jobs::Instance& instance,
              const moldable::core::ScheduleResult& result,
              const moldable::sched::ValidationResult& check, std::int64_t t0,
              std::int64_t t1, std::int64_t t2) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t request = request_of(instance);
    ++tallies_[v].calls;
    tallies_[v].us.push_back(static_cast<double>(t1 - t0) / 1e3);
    spans_.push_back(Span{SpanKind::kSolve, static_cast<std::uint16_t>(v), -1, request, t0, t1});
    spans_.push_back(Span{SpanKind::kValidate, 0, -1, request, t1, t2});
    ++schedules_;
    dual_calls_ += result.dual_calls;
    if (result.lower_bound > 0) ratio_sum_ += result.makespan / result.lower_bound;
    const std::string where = variants_[v] + " on request " + std::to_string(request);
    if (!check.ok)
      fail(where + ": invalid schedule: " +
           (check.errors.empty() ? std::string("?") : check.errors.front()));
    if (result.guarantee > 0 &&
        result.makespan > result.guarantee * result.lower_bound * (1 + 1e-9))
      fail(where + ": makespan " + std::to_string(result.makespan) + " exceeds guarantee " +
           std::to_string(result.guarantee) + " x lower bound " +
           std::to_string(result.lower_bound));
  }

  /// The window hook: the window ended now and solved for `wall_seconds`.
  /// Every solve/validate span since the previous window is its child.
  void window(std::int64_t end_ns, double wall_seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto id = static_cast<std::int32_t>(spans_.size());
    for (std::size_t i = unparented_; i < spans_.size(); ++i)
      if (spans_[i].parent < 0) spans_[i].parent = id;
    spans_.push_back(Span{SpanKind::kWindow, 0, 0, 0,
                          end_ns - static_cast<std::int64_t>(wall_seconds * 1e9), end_ns});
    unparented_ = spans_.size();
  }

  // Read after the pass (no concurrent writers left).
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<VariantTally>& tallies() const { return tallies_; }
  std::size_t schedules() const { return schedules_; }
  double ratio_mean() const { return schedules_ ? ratio_sum_ / schedules_ : 0; }
  double dual_calls_mean() const {
    return schedules_ ? static_cast<double>(dual_calls_) / schedules_ : 0;
  }
  /// Failed schedule checks; the first few messages are kept.
  std::size_t failures() const { return failures_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Busy time (sum of durations) and covered time (union) of one kind.
  std::int64_t busy_ns(SpanKind kind) const {
    std::int64_t total = 0;
    for (const Span& s : spans_)
      if (s.kind == kind) total += s.end_ns - s.start_ns;
    return total;
  }
  std::int64_t cover_ns(std::initializer_list<SpanKind> kinds) const {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const Span& s : spans_)
      if (std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end())
        iv.emplace_back(s.start_ns, s.end_ns);
    return covered_ns(std::move(iv));
  }

  /// Tab-separated span dump: id, name, parent, request, start_us, end_us.
  void write(std::ostream& os) const {
    static const char* const kNames[] = {"engine.stream", "jobs.parse", "engine.window",
                                         "engine.solve", "sched.validate"};
    os << "id\tname\tparent\trequest\tstart_us\tend_us\n" << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << i << '\t' << kNames[static_cast<int>(s.kind)];
      if (s.kind == SpanKind::kSolve) os << '/' << variants_[s.variant];
      os << '\t' << s.parent << '\t' << s.request << '\t' << s.start_ns / 1e3 << '\t'
         << s.end_ns / 1e3 << '\n';
    }
  }

 private:
  // Caller holds mu_. The solver sees no tag, so the request is found by
  // arrival stamp, which the generator draws afresh for every record.
  std::uint64_t request_of(const moldable::jobs::Instance& instance) const {
    const auto it = request_of_arrival_.find(instance.arrival());
    return it == request_of_arrival_.end() ? 0 : it->second;
  }
  void fail(std::string message) {
    if (errors_.size() < 8) errors_.push_back(std::move(message));
    ++failures_;
  }

  Clock::time_point base_ = Clock::now();
  const std::vector<std::string> variants_;
  std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::size_t unparented_ = 1;
  std::unordered_map<double, std::uint64_t> request_of_arrival_;
  std::vector<VariantTally> tallies_;
  std::size_t schedules_ = 0;
  long long dual_calls_ = 0;
  double ratio_sum_ = 0;
  std::size_t failures_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
