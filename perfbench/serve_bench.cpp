// serve_bench: the in-process serve benchmark.
//
//   serve_bench --workload NAME --seed N --seconds S [--trace 0|1] [--smoke]
//               [--spans FILE]
//
// One run, in one fresh process:
//   1. set-up, three times (once with --smoke): generate the workload's
//      storm with traffic::TrafficGenerator from the seed, then serve a
//      warm-up prefix. setup_s is the median.
//   2. closed-loop passes for S seconds (at least one): the whole storm is
//      served through engine::StreamSolver::run with the global registry
//      and a source that is always ready. Latency runs from entry into the
//      source's next() call that yields an arrival to its on_served call.
//   3. one open-loop pass: a prefix paced at the workload's fixed rate
//      (arrival stamps rescaled), the source spin-waiting and yielding a
//      flush marker when idle. Latency runs from each record's due time.
//   4. one traced pass: the same storm through a wrapped source and a
//      wrapped registry that record spans and check every schedule
//      (sched::validate, makespan <= guarantee x lower bound). Its digest
//      and counts must equal the closed-loop ones.
//   5. with --trace 1, the remaining layers are timed by calling their
//      public functions on the same instances and served outcomes.
//
// Prints one JSON object on stdout: correctness, the values to pin, the
// end-to-end metrics and (with --trace 1) the per-layer metrics. Exits 1
// when an in-process check fails, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "perfbench/trace.hpp"
#include "src/core/estimator.hpp"
#include "src/engine/exec_core.hpp"
#include "src/engine/policy.hpp"
#include "src/engine/stream_solver.hpp"
#include "src/jobs/io.hpp"
#include "src/net/framing.hpp"
#include "src/traffic/traffic_gen.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace moldable;
using perfbench::Clock;
using perfbench::ns_since;
using perfbench::SpanKind;
using perfbench::Tracer;

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median as Python's statistics.median gives it (mean of the middle pair).
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// --------------------------------------------------------------- workloads --

struct Workload {
  traffic::TrafficConfig traffic;
  engine::StreamConfig serve;
  std::size_t warmup_records = 0;  ///< served once per set-up
  double open_rate = 0;            ///< open-loop arrivals per second
  std::size_t open_records = 0;    ///< open-loop prefix length
};

/// The four workloads (see perfbench/README.md for why each exists). Smoke
/// mode shrinks every size so all four run in seconds.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.traffic.curve = "const:rate=1000";
  w.traffic.seed = seed;
  w.serve.threads = 1;
  if (name == "storm" || name == "storm-2t") {
    w.traffic.horizon = smoke ? 2 : 100;
    if (name == "storm-2t") w.serve.threads = 2;
    w.warmup_records = smoke ? 200 : 5000;
    w.open_rate = 10000;
    w.open_records = smoke ? 1000 : 20000;
  } else if (name == "paper-scale") {
    w.traffic.horizon = 100;
    w.traffic.max_arrivals = smoke ? 12 : 1000;
    w.traffic.jobs_min = 256;  // every instance has exactly 256 jobs
    w.traffic.jobs_cap = 256;
    w.traffic.machines = 4096;
    w.warmup_records = smoke ? 2 : 16;
    w.open_rate = 60;
    w.open_records = smoke ? 6 : 180;
  } else if (name == "deadline-mix") {
    w.traffic.horizon = smoke ? 2 : 60;
    w.traffic.classes = traffic::parse_class_mix("batch=0.4,interactive=0.6");
    w.traffic.duplicate_every = 4;
    w.serve.variants = {"mrt", "algorithm1", "algorithm3-linear"};
    w.serve.memo = true;
    w.serve.memo_capacity = 256;
    w.serve.class_deadlines = {{"interactive", 30.0}};
    w.serve.shed = true;
    w.warmup_records = smoke ? 200 : 5000;
    w.open_rate = 7000;
    w.open_records = smoke ? 700 : 14000;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (storm, storm-2t, paper-scale, deadline-mix)");
  }
  return w;
}

/// Byte offsets of every record header, plus the text's end as a sentinel.
std::vector<std::size_t> record_offsets(const std::string& text) {
  static const std::string kHeader = "moldable-instance";
  std::vector<std::size_t> at;
  for (std::size_t pos = 0; pos < text.size();) {
    if (text.compare(pos, kHeader.size(), kHeader) == 0) at.push_back(pos);
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  at.push_back(text.size());
  return at;
}

/// The `arrival` stamp of each of the first n records. A record without
/// one (the generator's fixed duplicate) inherits its predecessor's.
std::vector<double> arrival_stamps(const std::string& text,
                                   const std::vector<std::size_t>& offsets, std::size_t n) {
  std::vector<double> out;
  double last = 0;
  for (std::size_t i = 0; i < n && i + 1 < offsets.size(); ++i) {
    const std::size_t at = text.find("\narrival ", offsets[i]);
    if (at != std::string::npos && at < offsets[i + 1])
      last = std::strtod(text.c_str() + at + 9, nullptr);
    out.push_back(last);
  }
  return out;
}

/// A read-only istream over a slice of the generated text, without a copy.
class TextBuf : public std::streambuf {
 public:
  TextBuf(const std::string& text, std::size_t size) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + size);
  }
};

// ----------------------------------------------------------------- sources --

/// The closed-loop source: always ready. Tags each arrival with its 1-based
/// position (the routing cookie the engine hands back in on_served), stamps
/// its entry time, and with a tracer records one parse span per next().
class MeteredSource : public engine::InstanceSource {
 public:
  MeteredSource(std::istream& is, Clock::time_point base, Tracer* tracer)
      : reader_(is), base_(base), tracer_(tracer) {}

  bool next(jobs::StreamRecord& record) override {
    const std::int64_t t0 = ns_since(base_);
    const bool more = reader_.next(record);
    if (!more || record.flush) {
      if (tracer_) tracer_->parse(t0, ns_since(base_), 0, nullptr);
      return more;
    }
    record.tag = ++arrivals_;
    entry_ns_.push_back(t0);
    if (tracer_) tracer_->parse(t0, ns_since(base_), record.tag, record.ok ? &record.instance : nullptr);
    return true;
  }
  std::vector<std::string> preamble() const override { return reader_.preamble(); }

  const std::vector<std::int64_t>& entry_ns() const { return entry_ns_; }

 private:
  jobs::InstanceStreamReader reader_;
  Clock::time_point base_;
  Tracer* tracer_;
  std::uint64_t arrivals_ = 0;
  std::vector<std::int64_t> entry_ns_;
};

/// The open-loop source: record i is due at due_ns[i]. While the next one
/// is not due it yields one flush marker (so the engine serves what it has
/// buffered, as net::SocketServer does when its sessions drain) and then
/// spin-waits on the serve thread.
class PacedSource : public engine::InstanceSource {
 public:
  PacedSource(std::istream& is, std::vector<std::int64_t> due_ns, Clock::time_point base)
      : reader_(is), due_(std::move(due_ns)), base_(base) {}

  bool next(jobs::StreamRecord& record) override {
    if (i_ == due_.size()) return false;
    std::int64_t t = ns_since(base_);
    if (t < due_[i_]) {
      if (unflushed_) {
        unflushed_ = false;
        record = jobs::StreamRecord{};
        record.flush = true;
        return true;
      }
      while ((t = ns_since(base_)) < due_[i_]) {
      }
    }
    lag_max_ns_ = std::max(lag_max_ns_, t - due_[i_]);
    if (!reader_.next(record)) return false;
    record.tag = ++i_;
    unflushed_ = true;
    return true;
  }

  std::int64_t lag_max_ns() const { return lag_max_ns_; }

 private:
  jobs::InstanceStreamReader reader_;
  std::vector<std::int64_t> due_;
  Clock::time_point base_;
  std::size_t i_ = 0;
  bool unflushed_ = false;
  std::int64_t lag_max_ns_ = 0;
};

/// A registry with every built-in variant wrapped: each call is timed and
/// its schedule checked (sched::validate, guarantee) through the tracer.
/// The wrapper returns the inner result unchanged, so outputs and digests
/// are those of the global registry.
engine::AlgorithmRegistry traced_registry(Tracer& tracer) {
  const engine::AlgorithmRegistry& global = engine::AlgorithmRegistry::global();
  engine::AlgorithmRegistry traced;
  for (const std::string& name : global.names()) {
    const std::size_t v = tracer.variant_index(name);
    engine::SolverFn inner = global.at(name);
    traced.add(
        name,
        [inner, v, &tracer](const jobs::Instance& instance, const engine::SolverConfig& config) {
          const std::int64_t t0 = tracer.now();
          core::ScheduleResult result;
          try {
            result = inner(instance, config);
          } catch (...) {
            tracer.solve_failed(v, t0, tracer.now(), instance);
            throw;
          }
          const std::int64_t t1 = tracer.now();
          const sched::ValidationResult check = sched::validate(result.schedule, instance);
          tracer.solved(v, instance, result, check, t0, t1, tracer.now());
          return result;
        },
        global.caps(name));
  }
  return traced;
}

// ------------------------------------------------------------------ passes --

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// What the engine must reproduce exactly on every pass of one storm.
struct Counts {
  std::uint64_t digest = 0;
  std::size_t arrivals = 0, solved = 0, failed = 0, malformed = 0, shed = 0;
  std::size_t memo_hits = 0, memo_misses = 0, memo_evictions = 0, cancelled = 0;

  bool operator==(const Counts&) const = default;
};

Counts counts_of(const engine::StreamResult& r, std::size_t arrivals) {
  return Counts{r.rolling_digest, arrivals,      r.solved,      r.failed,
                r.malformed,      r.shed,        r.memo_hits,   r.memo_misses,
                r.memo_evictions, r.cancelled_attempts};
}

struct Served {
  std::uint64_t index = 0;
  bool ok = false;
  double queue_s = 0, compute_s = 0;
};

struct PassResult {
  Counts counts;
  double wall_s = 0, cpu_s = 0;
  std::vector<double> latency_ms;  ///< served arrivals (shed ones have none)
  std::vector<Served> served;      ///< in on_served order; traced pass only
  std::vector<double> window_ms;   ///< traced pass only
};

/// One closed-loop pass over text[0, size). With a tracer, the wrapped
/// registry serves and spans are recorded; otherwise the global registry.
PassResult closed_pass(const Workload& w, const std::string& text, std::size_t size,
                       Tracer* tracer) {
  TextBuf buf(text, size);
  std::istream is(&buf);
  const engine::AlgorithmRegistry registry =
      tracer ? traced_registry(*tracer) : engine::AlgorithmRegistry();
  const engine::StreamSolver solver(tracer ? registry : engine::AlgorithmRegistry::global());

  PassResult out;
  std::vector<std::int64_t> served_ns;
  engine::StreamConfig config = w.serve;
  const Clock::time_point base = Clock::now();
  if (tracer) tracer->start();
  MeteredSource source(is, base, tracer);
  config.on_served = [&](std::size_t index, std::uint64_t tag, bool ok, double q, double c) {
    if (served_ns.size() < tag) served_ns.resize(tag, -1);
    served_ns[tag - 1] = ns_since(base);
    if (tracer) out.served.push_back(Served{index, ok, q, c});
  };
  const auto on_window = [&](const engine::WindowStats& s) {
    if (!tracer) return;
    tracer->window(tracer->now(), s.wall_seconds);
    out.window_ms.push_back(s.wall_seconds * 1e3);
  };
  const double cpu0 = cpu_seconds();
  const engine::StreamResult r = solver.run(source, config, on_window);
  out.wall_s = static_cast<double>(ns_since(base)) / 1e9;
  out.cpu_s = cpu_seconds() - cpu0;
  if (tracer) tracer->finish(tracer->now());
  out.counts = counts_of(r, source.entry_ns().size());
  for (std::size_t i = 0; i < served_ns.size(); ++i)
    if (served_ns[i] >= 0)
      out.latency_ms.push_back(static_cast<double>(served_ns[i] - source.entry_ns()[i]) / 1e6);
  return out;
}

struct OpenResult {
  Counts counts;
  std::vector<double> latency_ms;
  double lag_max_ms = 0;
};

OpenResult open_pass(const Workload& w, const std::string& text,
                     const std::vector<std::size_t>& offsets) {
  const std::size_t n = std::min(w.open_records, offsets.size() - 1);
  const std::vector<double> stamps = arrival_stamps(text, offsets, n);
  // Rescale the Poisson stamps so the prefix arrives at open_rate on average.
  const double span_s = n > 1 ? stamps.back() - stamps.front() : 0;
  const double scale = span_s > 0 ? (static_cast<double>(n) / w.open_rate) / span_s : 0;
  constexpr std::int64_t kLeadNs = 1'000'000;
  std::vector<std::int64_t> due;
  for (const double a : stamps)
    due.push_back(kLeadNs + static_cast<std::int64_t>((a - stamps.front()) * scale * 1e9));

  TextBuf buf(text, offsets[n]);
  std::istream is(&buf);
  const Clock::time_point base = Clock::now();
  PacedSource source(is, due, base);
  std::vector<std::int64_t> served_ns(n, -1);
  engine::StreamConfig config = w.serve;
  config.on_served = [&](std::size_t, std::uint64_t tag, bool, double, double) {
    served_ns[tag - 1] = ns_since(base);
  };
  const engine::StreamResult r = engine::StreamSolver().run(source, config);
  OpenResult out;
  out.counts = counts_of(r, n);
  for (std::size_t i = 0; i < n; ++i)
    if (served_ns[i] >= 0)
      out.latency_ms.push_back(static_cast<double>(served_ns[i] - due[i]) / 1e6);
  out.lag_max_ms = static_cast<double>(source.lag_max_ns()) / 1e6;
  return out;
}

// -------------------------------------------------------- per-layer probes --

struct LayerTimes {
  double estimator_us = 0, admission_us = 0, memo_plan_us = 0;
  double encode_us = 0, decode_us = 0;
};

/// Times the layers the serve loop calls internally, through their public
/// functions, on the storm's instances (re-read one window at a time) and
/// on the traced pass's served outcomes.
LayerTimes probe_layers(const Workload& w, const std::string& text,
                        const std::vector<Served>& served, std::vector<std::string>& errors) {
  LayerTimes t;
  TextBuf buf(text, text.size());
  std::istream is(&buf);
  jobs::InstanceStreamReader reader(is);
  std::unordered_set<std::uint64_t> store;
  std::int64_t est_ns = 0, adm_ns = 0, plan_ns = 0;
  std::size_t instances = 0;
  double sink = 0;
  std::vector<jobs::Instance> window;
  jobs::StreamRecord record;
  bool more = true;
  while (more) {
    window.clear();
    while (window.size() < w.serve.window && (more = reader.next(record)))
      if (record.ok) window.push_back(std::move(record.instance));
    if (window.empty()) break;
    Clock::time_point t0 = Clock::now();
    for (const jobs::Instance& inst : window) sink += core::estimate_makespan(inst).omega;
    est_ns += ns_since(t0);
    t0 = Clock::now();
    for (const jobs::Instance& inst : window) sink += engine::certified_lower_bound(inst);
    adm_ns += ns_since(t0);
    t0 = Clock::now();
    const engine::exec::MemoPlan plan = engine::exec::plan_memo(
        window, 0x9e3779b97f4a7c15ULL, [&](std::uint64_t k) { return store.count(k) != 0; });
    plan_ns += ns_since(t0);
    for (std::size_t i = 0; i < window.size(); ++i)
      if (plan.memoizable[i]) store.insert(plan.key[i]);
    instances += window.size();
  }
  if (!std::isfinite(sink)) errors.push_back("estimator returned a non-finite bound");
  const double per = instances ? 1e3 * static_cast<double>(instances) : 1;
  t.estimator_us = static_cast<double>(est_ns) / per;
  t.admission_us = static_cast<double>(adm_ns) / per;
  t.memo_plan_us = static_cast<double>(plan_ns) / per;

  // One RESULT frame per served arrival, encoded then decoded.
  Clock::time_point t0 = Clock::now();
  std::string wire;
  for (const Served& s : served)
    wire += net::encode(net::ResultFrame{1, s.index, s.ok, s.queue_s, s.compute_s});
  t.encode_us = static_cast<double>(ns_since(t0)) / 1e3 / std::max<std::size_t>(served.size(), 1);
  t0 = Clock::now();
  net::FrameDecoder decoder;
  decoder.feed(wire);
  net::Frame frame;
  std::size_t decoded = 0;
  bool match = true;
  while (decoder.next(frame)) {
    const net::ResultFrame f = net::decode_result(frame);
    match = match && decoded < served.size() && f.index == served[decoded].index &&
            f.ok == served[decoded].ok;
    ++decoded;
  }
  t.decode_us = static_cast<double>(ns_since(t0)) / 1e3 / std::max<std::size_t>(served.size(), 1);
  if (!match || decoded != served.size() || decoder.failed())
    errors.push_back("RESULT frames did not round-trip");
  return t;
}

// ------------------------------------------------------------------- host --

/// Busy-loop throughput of all hardware threads at once over that of one:
/// the cores this process can actually use (nproc may overstate it).
double effective_cores() {
  const auto spin = [](std::chrono::milliseconds d) {
    const auto end = Clock::now() + d;
    std::uint64_t n = 0, x = 88172645463325252ULL;
    while (true) {
      for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      n += 4096;
      if (Clock::now() >= end) return n + (x == 0);  // x keeps the loop live
    }
  };
  const std::uint64_t one = spin(std::chrono::milliseconds(60));
  const unsigned k = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint64_t> counts(k);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < k; ++i)
    threads.emplace_back([&, i] { counts[i] = spin(std::chrono::milliseconds(60)); });
  for (std::thread& t : threads) t.join();
  std::uint64_t all = 0;
  for (const std::uint64_t c : counts) all += c;
  return one ? static_cast<double>(all) / static_cast<double>(one) : 0;
}

// ------------------------------------------------------------------- json --

std::string quote(const std::string& v) {
  std::string q = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + "\"";
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char b[64];
    std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, b);
  }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  JsonObject& metric(const std::string& key, double v, const std::string& unit) {
    return raw(key, JsonObject().num("value", v).str("unit", unit).text());
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ',';
    out += std::to_string(v);
  }
  return out + "]";
}

std::string hex(std::uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(v));
  return b;
}

std::string counts_json(const Counts& c) {
  return JsonObject()
      .str("digest", hex(c.digest))
      .num("arrivals", static_cast<double>(c.arrivals))
      .num("solved", static_cast<double>(c.solved))
      .num("failed", static_cast<double>(c.failed))
      .num("malformed", static_cast<double>(c.malformed))
      .num("shed", static_cast<double>(c.shed))
      .num("memo_hits", static_cast<double>(c.memo_hits))
      .num("memo_misses", static_cast<double>(c.memo_misses))
      .num("memo_evictions", static_cast<double>(c.memo_evictions))
      .num("cancelled_attempts", static_cast<double>(c.cancelled))
      .text();
}

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload, spans;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false, smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value(), have_workload = true;
    else if (arg == "--seed") a.seed = std::stoull(value()), have_seed = true;
    else if (arg == "--seconds") a.seconds = std::stod(value()), have_seconds = true;
    else if (arg == "--trace") a.trace = value() != "0";
    else if (arg == "--spans") a.spans = value();
    else if (arg == "--smoke") a.smoke = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (!have_workload || !have_seed || !have_seconds || !(a.seconds >= 0))
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.smoke);
  std::vector<std::string> errors;

  // 1. Set-up: generate, then warm up on a prefix. Every generation must
  // produce the same bytes.
  std::string text;
  std::vector<std::size_t> offsets;
  std::vector<double> setup_s, emit_s;
  std::uint64_t text_hash = 0;
  for (int rep = 0; rep < (args.smoke ? 1 : 3); ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::ostringstream os;
    traffic::TrafficGenerator(w.traffic).write(os);
    text = std::move(os).str();
    emit_s.push_back(static_cast<double>(ns_since(t0)) / 1e9);
    offsets = record_offsets(text);
    const std::size_t warm = offsets[std::min(w.warmup_records, offsets.size() - 1)];
    closed_pass(w, text, warm, nullptr);
    setup_s.push_back(static_cast<double>(ns_since(t0)) / 1e9);
    const std::uint64_t h = std::hash<std::string>{}(text);
    if (rep > 0 && h != text_hash) errors.push_back("generation is not deterministic");
    text_hash = h;
  }

  // 2. Closed-loop passes for the requested time; per-pass statistics.
  Counts counts;
  std::vector<double> rate, cpu, p50, p90, p99, wall;
  std::size_t passes = 0, attempted = 0, failed = 0, latency_samples = 0;
  const Clock::time_point measure = Clock::now();
  do {
    const PassResult p = closed_pass(w, text, text.size(), nullptr);
    if (passes++ == 0) counts = p.counts;
    if (!(p.counts == counts))
      errors.push_back("closed-loop pass " + std::to_string(passes) +
                       " differs from pass 1: " + counts_json(p.counts));
    const auto n = static_cast<double>(p.counts.arrivals);
    wall.push_back(p.wall_s);
    rate.push_back(n / p.wall_s);
    cpu.push_back(p.cpu_s * 1e6 / n);
    p50.push_back(quantile(p.latency_ms, 0.50));
    p90.push_back(quantile(p.latency_ms, 0.90));
    p99.push_back(quantile(p.latency_ms, 0.99));
    attempted += p.counts.arrivals;
    failed += p.counts.failed + p.counts.malformed;
    latency_samples = p.latency_ms.size();
  } while (static_cast<double>(ns_since(measure)) / 1e9 < args.seconds);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (counts.solved + counts.failed + counts.shed + counts.malformed != counts.arrivals)
    errors.push_back("arrivals lost: " + counts_json(counts));

  // 3. Open loop.
  const OpenResult open = open_pass(w, text, offsets);
  if (open.counts.solved + open.counts.failed + open.counts.shed != open.counts.arrivals)
    errors.push_back("open-loop arrivals lost: " + counts_json(open.counts));

  // 4. Traced pass: spans plus a check of every schedule.
  Tracer tracer(engine::AlgorithmRegistry::global().names());
  const PassResult traced = closed_pass(w, text, text.size(), &tracer);
  if (!(traced.counts == counts))
    errors.push_back("traced pass differs from untraced: " + counts_json(traced.counts) +
                     " vs " + counts_json(counts));
  if (tracer.failures() != 0) {
    errors.push_back(std::to_string(tracer.failures()) + " schedule check(s) failed");
    for (const std::string& e : tracer.errors()) errors.push_back(e);
  }
  if (tracer.schedules() == 0) errors.push_back("no schedule reached the wrapped registry");
  if (w.serve.variants.empty()) {
    // Single-solver mode: one registry call per computed instance.
    std::size_t calls = 0;
    for (const perfbench::VariantTally& t : tracer.tallies()) calls += t.calls;
    const std::size_t computed = w.serve.memo ? counts.memo_misses : counts.solved + counts.failed;
    if (calls != computed)
      errors.push_back("registry saw " + std::to_string(calls) + " solves for " +
                       std::to_string(computed) + " computed instances");
  }

  const double arrivals = static_cast<double>(counts.arrivals);

  JsonObject e2e;
  e2e.metric("arrivals_per_s", median(rate), "1/s")
      .metric("cpu_us_per_arrival", median(cpu), "us")
      .metric("latency_p50_ms", median(p50), "ms")
      .metric("latency_p90_ms", median(p90), "ms")
      .metric("makespan_ratio_mean", tracer.ratio_mean(), "1")
      .metric("served_frac", static_cast<double>(counts.solved) / arrivals, "1")
      .metric("peak_rss_mb", peak_rss_mb, "MB")
      .metric("setup_s", median(setup_s), "s");

  JsonObject layers;
  JsonObject variants;
  if (args.trace) {
    const LayerTimes lt = probe_layers(w, text, traced.served, errors);
    const double traced_ns = static_cast<double>(tracer.spans()[0].end_ns);
    const double parse_ns = static_cast<double>(tracer.busy_ns(SpanKind::kParse));
    const double solve_cover = static_cast<double>(tracer.cover_ns({SpanKind::kSolve}));
    const double check_cover = static_cast<double>(tracer.cover_ns({SpanKind::kValidate}));
    const double inner_cover =
        static_cast<double>(tracer.cover_ns({SpanKind::kSolve, SpanKind::kValidate}));
    const double all_cover = static_cast<double>(
        tracer.cover_ns({SpanKind::kParse, SpanKind::kSolve, SpanKind::kValidate}));
    const double window_ns = static_cast<double>(tracer.busy_ns(SpanKind::kWindow));
    std::vector<double> solve_us, queue_us;
    for (const Served& s : traced.served) queue_us.push_back(s.queue_s * 1e6);
    for (const perfbench::VariantTally& t : tracer.tallies())
      solve_us.insert(solve_us.end(), t.us.begin(), t.us.end());
    const std::size_t checks = tracer.schedules();
    const double lookups = static_cast<double>(counts.memo_hits + counts.memo_misses);

    layers.metric("jobs.parse_us", parse_ns / 1e3 / arrivals, "us")
        .metric("jobs.parse_share", parse_ns / traced_ns, "1")
        .metric("engine.solve_us_p50", quantile(solve_us, 0.50), "us")
        .metric("engine.solve_us_p99", quantile(solve_us, 0.99), "us")
        .metric("engine.solve_share", solve_cover / traced_ns, "1");
    for (const char* name : {"auto", "mrt", "algorithm1", "algorithm3-linear"}) {
      const perfbench::VariantTally& t = tracer.tallies()[tracer.variant_index(name)];
      layers.metric(std::string("engine.solve_calls.") + name, static_cast<double>(t.calls),
                    "count");
      layers.metric(std::string("engine.solve_failed.") + name, static_cast<double>(t.failed),
                    "count");
    }
    layers.metric("core.estimator_us", lt.estimator_us, "us")
        .metric("core.dual_calls_mean", tracer.dual_calls_mean(), "1")
        .metric("engine.loop_self_share", (traced_ns - all_cover) / traced_ns, "1")
        .metric("engine.exec_self_share", (window_ns - inner_cover) / traced_ns, "1")
        .metric("engine.admission_us", lt.admission_us, "us")
        .metric("exec.memo_plan_us", lt.memo_plan_us, "us")
        .metric("engine.memo_hit_ratio",
                lookups > 0 ? static_cast<double>(counts.memo_hits) / lookups : 0, "1")
        .metric("engine.memo_evictions", static_cast<double>(counts.memo_evictions), "count")
        .metric("engine.shed", static_cast<double>(counts.shed), "count")
        .metric("engine.shed_frac", static_cast<double>(counts.shed) / arrivals, "1")
        .metric("engine.error_frac",
                static_cast<double>(counts.failed + counts.malformed) / arrivals, "1")
        .metric("engine.cancelled_attempts", static_cast<double>(counts.cancelled), "count")
        .metric("engine.queue_us_p50", quantile(queue_us, 0.50), "us")
        .metric("engine.queue_us_p99", quantile(queue_us, 0.99), "us")
        .metric("engine.window_ms_p50", quantile(traced.window_ms, 0.50), "ms")
        .metric("sched.validate_us",
                checks ? static_cast<double>(tracer.busy_ns(SpanKind::kValidate)) / 1e3 / checks
                       : 0,
                "us")
        .metric("net.encode_us", lt.encode_us, "us")
        .metric("net.decode_us", lt.decode_us, "us")
        .metric("traffic.emit_s", median(emit_s), "s")
        .metric("engine.latency_p99_ms", median(p99), "ms")
        .metric("engine.open_p50_ms", quantile(open.latency_ms, 0.50), "ms")
        .metric("engine.open_p99_ms", quantile(open.latency_ms, 0.99), "ms")
        .metric("traffic.generator_lag_ms_max", open.lag_max_ms, "ms")
        .metric("trace.overhead_frac", (traced_ns - check_cover) / 1e9 / median(wall) - 1, "1");
    for (std::size_t v = 0; v < tracer.variants().size(); ++v) {
      const perfbench::VariantTally& t = tracer.tallies()[v];
      if (t.calls == 0) continue;
      variants.raw(tracer.variants()[v], JsonObject()
                                             .num("calls", static_cast<double>(t.calls))
                                             .num("failed", static_cast<double>(t.failed))
                                             .num("p50_us", quantile(t.us, 0.50))
                                             .num("p99_us", quantile(t.us, 0.99))
                                             .text());
    }
    if (!args.spans.empty()) {
      std::ofstream spans(args.spans);
      tracer.write(spans);
      if (!spans) errors.push_back("cannot write spans to " + args.spans);
    }
  }

  std::string error_list = "[";
  for (const std::string& e : errors) {
    if (error_list.size() > 1) error_list += ',';
    error_list += quote(e);
  }
  error_list += "]";
  JsonObject out;
  out.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .raw("smoke", args.smoke ? "true" : "false")
      .raw("correct", errors.empty() ? "true" : "false")
      .raw("errors", error_list)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .raw("pin", counts_json(counts))
      .raw("samples", JsonObject()
                          .num("passes", static_cast<double>(passes))
                          .raw("pass_wall_s", json_list(wall))
                          .raw("pass_p50_ms", json_list(p50))
                          .raw("pass_p90_ms", json_list(p90))
                          .raw("pass_p99_ms", json_list(p99))
                          .num("latency_per_pass", static_cast<double>(latency_samples))
                          .num("open_latency", static_cast<double>(open.latency_ms.size()))
                          .num("schedules_checked", static_cast<double>(tracer.schedules()))
                          .text())
      .raw("build", JsonObject()
                        .str("compiler", __VERSION__)
                        .str("build_type", PERFBENCH_BUILD_TYPE)
                        .num("effective_cores", effective_cores())
                        .text())
      .raw("end_to_end", e2e.text());
  if (args.trace) out.raw("per_layer", layers.text()).raw("per_variant", variants.text());
  std::cout << out.text() << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 1;
  }
}
