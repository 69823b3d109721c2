#include "src/jobs/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace moldable::jobs {

namespace {

/// Distinct from plain std::invalid_argument so the oracle-constructor
/// catch below can tell an already-located parse error from a raw oracle
/// validation error (and not wrap the line prefix twice).
struct ParseError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw ParseError("instance parse error, line " + std::to_string(line) + ": " + msg);
}

/// write_instance's sink for walk_content: the text format itself.
struct TextSink {
  std::ostream& os;
  void key(std::string_view k) { os << k; }
  void word(std::string_view w) { os << ' ' << w; }
  void real(double v) { os << ' ' << v; }
  void integer(std::int64_t v) { os << ' ' << v; }
  void end() { os << '\n'; }
};

/// The whitespace set of `std::istream >>` in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// from_chars reports result_out_of_range both for a value too large for a
/// double, which `istream >>` rejects, and for one that rounds to zero,
/// which it accepts as a signed zero. `t` is a scanned real token with at
/// least one nonzero mantissa digit (a zero mantissa never overflows); this
/// tells the two apart by the decimal order of magnitude of that digit.
bool overflows(std::string_view t) {
  if (t[0] == '+' || t[0] == '-') t.remove_prefix(1);
  const std::size_t e = std::min(t.find_first_of("eE"), t.size());
  const std::string_view mantissa = t.substr(0, e);
  const auto point = static_cast<std::int64_t>(std::min(mantissa.find('.'), mantissa.size()));
  const auto first = static_cast<std::int64_t>(mantissa.find_first_of("123456789"));
  const std::int64_t order = first < point ? point - first - 1 : point - first;
  std::int64_t exp = 0;  // saturated: any |exp| this large is out of range
  bool negative = false;
  for (std::size_t p = e + 1; p < t.size(); ++p) {
    if (t[p] == '-')
      negative = true;
    else if (t[p] != '+')
      exp = std::min<std::int64_t>(exp * 10 + (t[p] - '0'), std::int64_t{1} << 40);
  }
  return order + (negative ? -exp : exp) > 0;
}

/// One line, read the way `std::istream >>` reads it in the C locale: the
/// same whitespace set, the same token boundaries, the same accepted number
/// spellings and the same stopping points — so "0.5xyz" reads as 0.5 and
/// leaves "xyz" for the next extraction. The reference parser is the oracle
/// for every one of these rules.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) : s_(line) {}

  /// True when a non-space character remains (what `>> junk` tests).
  bool more() {
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
    return pos_ < s_.size();
  }

  /// True once the cursor stands at the end of the line — where an istream
  /// would have set eofbit.
  bool at_end() const { return pos_ == s_.size(); }
  std::string_view rest() const { return s_.substr(pos_); }
  std::size_t remaining() const { return s_.size() - pos_; }

  /// `>> std::string`.
  bool word(std::string_view& out) {
    if (!more()) return false;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && !is_space(s_[pos_])) ++pos_;
    out = s_.substr(start, pos_ - start);
    return true;
  }

  /// `>> double`: an optional sign, digits with at most one '.', then an
  /// exponent marker (only after a digit) with an optional sign and digits.
  /// The scan consumes that much even when the result is rejected — no
  /// mantissa digit, an exponent without digits, or an overflow.
  bool real(double& out) {
    if (!more()) return false;
    const std::size_t start = pos_;
    std::size_t p = pos_;
    if (s_[p] == '+' || s_[p] == '-') ++p;
    bool mantissa = false, point = false, sci = false, exp_digit = false;
    while (p < s_.size()) {
      const char c = s_[p];
      if (is_digit(c)) {
        (sci ? exp_digit : mantissa) = true;
      } else if (c == '.' && !point && !sci) {
        point = true;
      } else if ((c == 'e' || c == 'E') && !sci && mantissa) {
        sci = true;
        if (p + 1 < s_.size() && (s_[p + 1] == '+' || s_[p + 1] == '-')) ++p;
      } else {
        break;
      }
      ++p;
    }
    pos_ = p;
    if (!mantissa || (sci && !exp_digit)) return false;
    const char* first = s_.data() + start + (s_[start] == '+' ? 1 : 0);
    const char* last = s_.data() + p;
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec == std::errc::result_out_of_range) {
      if (overflows(s_.substr(start, p - start))) return false;
      out = s_[start] == '-' ? -0.0 : 0.0;
      return true;
    }
    return ec == std::errc() && ptr == last;
  }

  /// `>> long` / `>> unsigned long`: an optional sign, then decimal digits;
  /// out-of-range values fail, and a '-' on an unsigned type wraps.
  template <class Int>
  bool integer(Int& out) {
    using U = std::make_unsigned_t<Int>;
    if (!more()) return false;
    std::size_t p = pos_;
    const bool negative = s_[p] == '-';
    if (negative || s_[p] == '+') ++p;
    const U max = negative && std::is_signed_v<Int>
                      ? static_cast<U>(0) - static_cast<U>(std::numeric_limits<Int>::min())
                      : static_cast<U>(std::numeric_limits<Int>::max());
    U value = 0;
    bool digits = false, overflow = false;
    for (; p < s_.size() && is_digit(s_[p]); ++p) {
      const auto d = static_cast<U>(s_[p] - '0');
      digits = true;
      if (value > max / 10 || value * 10 > max - d)
        overflow = true;
      else
        value = value * 10 + d;
    }
    pos_ = p;
    if (!digits || overflow) return false;
    out = static_cast<Int>(negative ? static_cast<U>(0) - value : value);
    return true;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// getline over a record's text, skipping blank and comment lines.
class RecordLines {
 public:
  explicit RecordLines(std::string_view text) : text_(text) {}

  bool next(std::string_view& out) {
    while (pos_ < text_.size()) {
      const std::size_t nl = text_.find('\n', pos_);
      const std::size_t end = nl == std::string_view::npos ? text_.size() : nl;
      const std::string_view line = text_.substr(pos_, end - pos_);
      pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
      ++lineno_;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string_view::npos || line[first] == '#') continue;
      out = line;
      return true;
    }
    return false;
  }

  std::size_t lineno() const { return lineno_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t lineno_ = 0;
};

/// Reads up to `count` reals into `out`, reserving no more than the rest of
/// the line could hold (a value and its separator take two bytes at least),
/// so a hostile count cannot size the allocation.
bool read_reals(LineCursor& cur, std::uint64_t count, std::vector<double>& out) {
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(count, cur.remaining() / 2 + 1)));
  for (std::uint64_t i = 0; i < count; ++i) {
    double v = 0;
    if (!cur.real(v)) return false;
    out.push_back(v);
  }
  return true;
}

PtfPtr parse_oracle(std::string_view kind, LineCursor& js, procs_t m, std::size_t lineno) {
  if (kind == "amdahl") {
    double t1 = 0, frac = 0;
    if (!js.real(t1) || !js.real(frac)) fail(lineno, "amdahl needs <t1> <fraction>");
    return std::make_shared<AmdahlTime>(t1, frac);
  }
  if (kind == "powerlaw") {
    double t1 = 0, alpha = 0;
    if (!js.real(t1) || !js.real(alpha)) fail(lineno, "powerlaw needs <t1> <alpha>");
    return std::make_shared<PowerLawTime>(t1, alpha);
  }
  if (kind == "comm") {
    double t1 = 0, c = 0;
    if (!js.real(t1) || !js.real(c)) fail(lineno, "comm needs <t1> <comm_cost>");
    return std::make_shared<CommOverheadTime>(t1, c);
  }
  if (kind == "table") {
    std::uint64_t k = 0;
    if (!js.integer(k) || k == 0) fail(lineno, "table needs <k> values");
    if (static_cast<procs_t>(k) != m)
      fail(lineno, "table length must equal the machine count");
    std::vector<double> values;
    if (!read_reals(js, k, values)) fail(lineno, "table: too few values");
    return std::make_shared<TableTime>(std::move(values));
  }
  if (kind == "linred") {
    std::int64_t mm = 0, a = 0;
    if (!js.integer(mm) || !js.integer(a)) fail(lineno, "linred needs <machines> <a>");
    if (mm != m) fail(lineno, "linred machine count must equal the instance's");
    return std::make_shared<LinearReductionTime>(mm, a);
  }
  if (kind == "logspeed") {
    double t1 = 0;
    if (!js.real(t1)) fail(lineno, "logspeed needs <t1>");
    return std::make_shared<LogSpeedupTime>(t1);
  }
  if (kind == "rigid") {
    double t = 0, penalty = 0;
    procs_t size = 0;
    if (!js.real(t) || !js.integer(size) || !js.real(penalty))
      fail(lineno, "rigid needs <time> <size> <penalty>");
    return std::make_shared<RigidStepTime>(t, size, penalty);
  }
  fail(lineno, "unknown job kind '" + std::string(kind) + "'");
}

/// The parser behind every public entry point: one record's text in, the
/// instance out, or a ParseError with a line-numbered message.
Instance parse_record(std::string_view text, std::string default_name) {
  RecordLines lines(text);
  std::string_view line;
  if (!lines.next(line) || !line.starts_with("moldable-instance"))
    fail(lines.lineno(), "expected 'moldable-instance v1' header");
  if (!lines.next(line)) fail(lines.lineno(), "expected 'machines <m>'");

  // Optional metadata directives between the header and the machines line,
  // in any order, at most once each.
  std::string instance_name = std::move(default_name);
  double arrival = 0;
  std::string_view sla_class;
  double memory_capacity = 0;
  std::vector<double> job_memory;
  std::size_t mem_lineno = 0;  ///< where 'mem' appeared, for the count check
  bool saw_name = false, saw_arrival = false, saw_class = false;
  bool saw_memcap = false, saw_mem = false;
  for (;;) {
    const std::size_t lineno = lines.lineno();
    LineCursor ds(line);
    std::string_view kw;
    ds.word(kw);
    if (kw == "name") {
      if (saw_name) fail(lineno, "duplicate 'name' directive");
      saw_name = true;
      // A bare 'name' at the very end of the line leaves the default name
      // in place (istream getline at eof), which is what the reference does.
      if (!ds.at_end()) instance_name.assign(ds.rest());
      instance_name = trim(instance_name);
      if (instance_name.empty()) fail(lineno, "'name' directive with no name");
    } else if (kw == "arrival") {
      if (saw_arrival) fail(lineno, "duplicate 'arrival' directive");
      saw_arrival = true;
      if (!ds.real(arrival) || !std::isfinite(arrival) || arrival < 0 || ds.more())
        fail(lineno, "'arrival' needs one finite value >= 0");
    } else if (kw == "class") {
      if (saw_class) fail(lineno, "duplicate 'class' directive");
      saw_class = true;
      if (!ds.word(sla_class) || ds.more()) fail(lineno, "'class' needs exactly one token");
    } else if (kw == "memcap") {
      if (saw_memcap) fail(lineno, "duplicate 'memcap' directive");
      saw_memcap = true;
      if (!ds.real(memory_capacity) || !std::isfinite(memory_capacity) ||
          memory_capacity <= 0 || ds.more())
        fail(lineno, "'memcap' needs one finite value > 0");
    } else if (kw == "mem") {
      if (saw_mem) fail(lineno, "duplicate 'mem' directive");
      saw_mem = true;
      mem_lineno = lineno;
      std::uint64_t count = 0;
      if (!ds.integer(count) || count == 0)
        fail(lineno, "'mem' needs <count> then <count> values");
      if (!read_reals(ds, count, job_memory) ||
          !std::all_of(job_memory.begin(), job_memory.end(),
                       [](double v) { return std::isfinite(v) && v >= 0; }))
        fail(lineno, "'mem' values must be finite and >= 0");
      if (ds.more()) fail(lineno, "'mem' has trailing junk after its values");
    } else {
      break;  // not a metadata directive; must be the machines line
    }
    if (!lines.next(line)) fail(lines.lineno(), "expected 'machines <m>'");
  }

  LineCursor ms(line);
  std::string_view kw;
  procs_t m = 0;
  if (!ms.word(kw) || !ms.integer(m) || kw != "machines" || m < 1)
    fail(lines.lineno(), "expected 'machines <m>' with m >= 1");

  std::vector<Job> jv;
  while (lines.next(line)) {
    const std::size_t lineno = lines.lineno();
    LineCursor js(line);
    std::string_view job_kw, kind;
    if (!js.word(job_kw) || !js.word(kind) || job_kw != "job")
      fail(lineno, "expected 'job <kind> ...'");
    PtfPtr f;
    try {
      f = parse_oracle(kind, js, m, lineno);
    } catch (const ParseError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      fail(lineno, e.what());
    }
    std::string_view name;
    js.word(name);  // optional trailing name
    jv.emplace_back(std::move(f), m, std::string(name));
  }
  if (!job_memory.empty() && job_memory.size() != jv.size())
    fail(mem_lineno, "'mem' count " + std::to_string(job_memory.size()) +
                         " does not match the job count " + std::to_string(jv.size()));
  Instance out(std::move(jv), m, std::move(instance_name));
  out.set_arrival(arrival);                   // all validated at parse time
  out.set_sla_class(std::string(sla_class));  // above, so these cannot
  out.set_memory_capacity(memory_capacity);   // throw here
  out.set_job_memory(std::move(job_memory));
  return out;
}

}  // namespace

void write_instance(std::ostream& os, const Instance& instance) {
  // The name directive is one line and the reader trims it, so the writer
  // canonicalizes: line breaks are unrepresentable (throw, before anything
  // is written so a failed save leaves no partial output), surrounding
  // whitespace is dropped, and a whitespace-only name means unnamed. The
  // written form always round-trips to itself.
  if (instance.name().find('\n') != std::string::npos)
    throw std::invalid_argument("write_instance: instance name contains a line break");
  const std::string_view name = trim_view(instance.name());
  os << "moldable-instance v1\n";
  os.precision(17);
  if (!name.empty()) os << "name " << name << "\n";
  TextSink sink{os};
  if (const Job* unknown = walk_content(instance, sink))
    throw std::invalid_argument("write_instance: unknown oracle type for job '" +
                                unknown->name() + "'");
}

std::string to_text(const Instance& instance) {
  std::ostringstream ss;
  write_instance(ss, instance);
  return ss.str();
}

Instance read_instance(std::istream& is, std::string default_name) {
  const std::string text{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  return parse_record(text, std::move(default_name));
}

Instance from_text(const std::string& text) { return parse_record(text, {}); }

void save_instance(const std::string& path, const Instance& instance) {
  // Serialize (and validate) before opening: ofstream truncates on open, so
  // a validation throw after that point would destroy an existing file.
  const std::string text = to_text(instance);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_instance: cannot open " + path);
  os << text;
  os.flush();  // surface buffered-write errors (ENOSPC) here, not in ~ofstream
  if (!os) throw std::runtime_error("save_instance: write failed for " + path);
}

Instance load_instance(const std::string& path, std::string default_name) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_instance: cannot open " + path);
  return read_instance(is, std::move(default_name));
}

DirectoryLoad load_instances_from_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw std::runtime_error("load_instances_from_dir: not a directory: " + dir);

  // Non-throwing stat: an unreadable entry (EACCES on a network mount, a
  // dangling overlay inode) is recorded and skipped, never aborts the load.
  std::vector<fs::path> paths;
  std::vector<LoadedFile> unstatable;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::error_code entry_ec;
    const bool regular = entry.is_regular_file(entry_ec);
    if (entry_ec) {
      LoadedFile record;
      record.path = entry.path().string();
      record.error = "cannot stat: " + entry_ec.message();
      unstatable.push_back(std::move(record));
    } else if (regular) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  DirectoryLoad out;
  out.files.reserve(paths.size() + unstatable.size());
  for (LoadedFile& record : unstatable) {
    out.files.push_back(std::move(record));
    ++out.skipped;
  }
  for (const fs::path& path : paths) {
    LoadedFile record;
    record.path = path.string();
    try {
      out.instances.push_back(load_instance(record.path, path.stem().string()));
      record.ok = true;
      ++out.loaded;
    } catch (const std::exception& e) {
      record.ok = false;
      record.error = e.what();
      ++out.skipped;
    }
    out.files.push_back(std::move(record));
  }
  std::sort(out.files.begin(), out.files.end(),
            [](const LoadedFile& a, const LoadedFile& b) { return a.path < b.path; });
  return out;
}

namespace {

/// A line opens a record iff its first token is the instance header (leading
/// whitespace allowed, same rule the parser's own line scan uses).
bool is_record_header(std::string_view line) {
  const auto pos = line.find_first_not_of(" \t\r");
  return pos != std::string_view::npos && line.substr(pos).starts_with("moldable-instance");
}

bool is_flush_marker(std::string_view line) { return trim_view(line) == "moldable-flush v1"; }

}  // namespace

bool InstanceStreamReader::next(StreamRecord& record) {
  // A flush marker that terminated the previously returned record is
  // delivered now, in sequence — flush records consume no ordinal.
  if (pending_flush_) {
    pending_flush_ = false;
    record = StreamRecord{};
    record.flush = true;
    record.line = pending_flush_line_;
    record.ordinal = ordinal_;
    return true;
  }

  // Find the start of the next record. A non-blank, non-comment line outside
  // any record is itself returned as a malformed record (strictness over
  // silent skipping — a typo'd header would otherwise vanish without trace).
  if (!have_pending_) {
    for (;;) {
      if (!std::getline(*is_, line_)) return false;  // end of stream
      ++lineno_;
      const auto pos = line_.find_first_not_of(" \t\r");
      if (pos == std::string::npos) continue;
      if (line_[pos] == '#') {
        // Comments ahead of the first record are the stream's preamble — a
        // generator's manifest block, kept for reporting and replay.
        if (!saw_header_) preamble_.push_back(line_.substr(pos));
        continue;
      }
      if (is_flush_marker(line_)) {
        record = StreamRecord{};
        record.flush = true;
        record.line = lineno_;
        record.ordinal = ordinal_;
        return true;
      }
      if (is_record_header(line_)) {
        pending_header_.swap(line_);
        pending_line_ = lineno_;
        have_pending_ = true;
        saw_header_ = true;
        break;
      }
      record = StreamRecord{};
      record.line = lineno_;
      record.ordinal = ordinal_++;
      record.error = "expected 'moldable-instance v1' header, got: " + trim(line_);
      return true;
    }
  }

  // Collect the record body: everything up to the next header or EOF.
  text_.assign(pending_header_);
  text_ += '\n';
  const std::size_t start_line = pending_line_;
  have_pending_ = false;
  while (std::getline(*is_, line_)) {
    ++lineno_;
    if (is_record_header(line_)) {
      pending_header_.swap(line_);
      pending_line_ = lineno_;
      have_pending_ = true;
      break;
    }
    if (is_flush_marker(line_)) {
      // The marker ends this record like a header does; it is yielded as
      // its own flush record on the NEXT call, preserving stream order.
      pending_flush_ = true;
      pending_flush_line_ = lineno_;
      break;
    }
    text_ += line_;
    text_ += '\n';
  }

  record = StreamRecord{};
  record.line = start_line;
  record.ordinal = ordinal_++;
  try {
    record.instance = parse_record(text_, "stream-" + std::to_string(record.ordinal));
    record.ok = true;
  } catch (const std::exception& e) {
    record.ok = false;
    record.error = e.what();
  }
  return true;
}

}  // namespace moldable::jobs
