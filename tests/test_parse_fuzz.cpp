// Fuzz tests for the two parsers of untrusted bytes in serve mode.
//
// IoDifferential: the line-view instance parser (jobs/io.cpp) against the
// retained iostream parser (jobs/io_reference.hpp, the verbatim
// pre-tokenizer code). Seeded valid records over every directive and every
// job kind, byte-level mutations of them, and a corpus of numeric spellings
// that istream reads in surprising ways. Both parsers must accept or reject
// alike, with the same diagnostic text; accepted records must have the same
// to_text bytes and bit-identical arrival, class and memory values. The one
// allowed divergence is a hostile count field (`mem <count>`, `table <k>`)
// that the reference sizes an allocation from before reading any value:
// those records never reach the reference, and the production parser must
// reject them with a located diagnostic. Over the same corpus the engine's
// memo key must be equal for two instances exactly when their canonical
// texts (without the name line) are equal.
//
// FramingFuzz: net::FrameDecoder over seeded truncations, bit flips, and
// zero, oversized or random length fields, fed in random chunks. It must
// never crash; it either poisons itself with a diagnostic or yields frames
// that re-encode to exactly the bytes it consumed.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/exec_core.hpp"
#include "src/jobs/io.hpp"
#include "src/jobs/io_reference.hpp"
#include "src/net/framing.hpp"
#include "src/util/prng.hpp"

namespace moldable {
namespace {

using util::Prng;

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

template <class T>
const T& pick(Prng& rng, const std::vector<T>& pool) {
  return pool[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

// ------------------------------------------------------------- spellings --

/// A spelling of `v` that `istream >> double` reads back as exactly `v`.
std::string spell(Prng& rng, double v) {
  char buf[64];
  switch (rng.uniform_int(0, 5)) {
    case 0: {
      const auto r = std::to_chars(buf, buf + sizeof(buf), v);  // shortest
      return std::string(buf, r.ptr);
    }
    case 1:
      std::snprintf(buf, sizeof(buf), "%.17e", v);
      return buf;
    case 2:
      std::snprintf(buf, sizeof(buf), "%.17E", v);
      return buf;
    case 3: {  // leading zeros after any sign
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      std::string s = buf;
      s.insert(s[0] == '-' ? 1 : 0, "00");
      return s;
    }
    case 4: {  // explicit '+', or a trailing '.' on an integral spelling
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      std::string s = buf;
      if (s.find_first_of(".en") == std::string::npos && rng.bernoulli(0.5)) return s + ".";
      return s[0] == '-' ? s : "+" + s;
    }
    default:
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return buf;
  }
}

/// Number spellings where istream's rules are easy to get wrong: prefix
/// reads ("0.5xyz" reads 0.5 and leaves "xyz" as the next token), lone
/// signs and points, exponents without digits, hex and named values that
/// istream refuses, overflow (rejected) and underflow (accepted as zero),
/// and integer-range edges for the count and processor fields.
const std::vector<std::string> kNumberCorpus = {
    "+1",   "-1",    ".5",     "5.",     "1e",      "1e+",    "1e400", "-1e400", "1e-400",
    "-1e-400", "0x1p3", "inf",  "nan",    "-0",      "+0",     "007",   "0.5xyz", "-",
    "+",    ".",     "e5",     "1.5.5",  "1e5e5",   "--1",    "+-1",   "1E3",    "0.5e-3",
    "4.9e-324", "2e-324", "1e-99999999999999999999", "99999999999999999999",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "18446744073709551615", "18446744073709551616", "0", "2", "1,5", "1_000", "0.", "00.5e+1",
    "4", "32", "1.0000000000000002", "0.30000000000000004", "1e308", "1.7976931348623159e308"};

/// Count fields the reference would size an allocation from.
const std::vector<std::string> kHostileCounts = {"-1", "-5", "200000000", "300000000",
                                                 "18446744073709551615", "1099511627776"};

// ------------------------------------------------------------ generation --

struct Record {
  std::vector<std::string> lines;
};

/// Draws from small value pools most of the time, so that equal canonical
/// texts recur under different spellings, names and layouts.
double pooled(Prng& rng, const std::vector<double>& pool, double lo, double hi) {
  return rng.bernoulli(0.7) ? pick(rng, pool) : rng.log_uniform(lo, hi);
}

std::string sep(Prng& rng) { return pick(rng, std::vector<std::string>{" ", " ", " ", "  ", "\t", " \t"}); }

Record valid_record(Prng& rng) {
  Record r;
  const bool small_m = rng.bernoulli(0.5);
  const procs_t m = small_m ? rng.uniform_int(1, 8)
                            : pick(rng, std::vector<procs_t>{1, 4, 32, 4096, procs_t{1} << 20,
                                                             procs_t{1} << 40});
  const int n = static_cast<int>(rng.uniform_int(0, 4));
  r.lines.push_back(rng.bernoulli(0.9) ? "moldable-instance v1" : "moldable-instance v1 extra");

  std::vector<std::string> directives;
  const auto word = [&](const char* w) { return std::string(w) + sep(rng); };
  if (rng.bernoulli(0.02))
    directives.push_back(rng.bernoulli(0.5) ? "name" : "name ");  // bare: default name or error
  else if (rng.bernoulli(0.4))
    directives.push_back(word("name") +
                         pick(rng, std::vector<std::string>{"web", "web pool", " padded ", "a\tb",
                                                            "x"}));
  if (rng.bernoulli(0.5)) {
    const double t = rng.bernoulli(0.2) ? -0.0 : pooled(rng, {0, 0.5, 3, 12.25}, 1e-3, 1e3);
    directives.push_back(word("arrival") + spell(rng, t));
  }
  if (rng.bernoulli(0.5))
    directives.push_back(word("class") + pick(rng, std::vector<std::string>{"batch", "interactive",
                                                                            "default", "gold"}));
  if (rng.bernoulli(0.3)) directives.push_back(word("memcap") + spell(rng, pooled(rng, {1, 2.5, 16}, 0.1, 100)));
  if (n > 0 && rng.bernoulli(0.3)) {
    std::string mem = word("mem") + std::to_string(n);
    for (int j = 0; j < n; ++j) {
      const double v = rng.bernoulli(0.1) ? -0.0 : pooled(rng, {0, 1, 0.25, 32}, 0.01, 100);
      mem += sep(rng) + spell(rng, v);
    }
    directives.push_back(mem);
  }
  for (std::size_t i = directives.size(); i > 1; --i)
    std::swap(directives[i - 1], directives[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  r.lines.insert(r.lines.end(), directives.begin(), directives.end());
  r.lines.push_back(word("machines") + std::to_string(m));

  for (int j = 0; j < n; ++j) {
    std::string line = word("job");
    const auto num = [&](double v) { line += sep(rng) + spell(rng, v); };
    const double t1 = pooled(rng, {1, 10, 86.691060550819458}, 0.5, 1000);
    switch (rng.uniform_int(0, small_m ? 6 : 5)) {
      case 0:
        line += "amdahl";
        num(t1);
        num(rng.bernoulli(0.1) ? -0.0 : pooled(rng, {0, 0.5, 1}, 0.01, 1));
        break;
      case 1:
        line += "powerlaw";
        num(t1);
        num(pooled(rng, {0.5, 1}, 0.05, 1));
        break;
      case 2:
        line += "comm";
        num(t1);
        num(pooled(rng, {0.25, 1}, 0.01, 2));
        break;
      case 3:
        line += "linred" + sep(rng) + std::to_string(m) + sep(rng) + std::to_string(rng.uniform_int(2, 9));
        break;
      case 4:
        line += "logspeed";
        num(t1);
        break;
      case 5: {
        line += "rigid";
        num(t1);
        line += sep(rng) + std::to_string(rng.uniform_int(1, std::min<procs_t>(m, 64)));
        num(t1 * pooled(rng, {1, 4}, 1, 100));
        break;
      }
      default: {  // table, Amdahl-shaped so (P1) and (P2) hold
        line += "table" + sep(rng) + std::to_string(m);
        const double f = pooled(rng, {0, 0.5}, 0.01, 1);
        for (procs_t k = 1; k <= m; ++k) num(t1 * ((1 - f) + f / static_cast<double>(k)));
        break;
      }
    }
    if (rng.bernoulli(0.3)) line += sep(rng) + pick(rng, std::vector<std::string>{"j0", "alpha", "x"});
    r.lines.push_back(line);
  }

  // Layout noise after the header: indentation, blank and comment lines.
  for (std::size_t i = 1; i < r.lines.size(); ++i)
    if (rng.bernoulli(0.1)) r.lines[i] = pick(rng, std::vector<std::string>{" ", "\t", "  "}) + r.lines[i];
  const int extra = static_cast<int>(rng.uniform_int(0, 2));
  for (int e = 0; e < extra; ++e) {
    const auto at = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(r.lines.size())));
    r.lines.insert(r.lines.begin() + static_cast<std::ptrdiff_t>(at),
                   pick(rng, std::vector<std::string>{"", "# comment", "  # indented", " \t"}));
  }
  return r;
}

std::string join(const Record& r, const char* eol, bool final_eol) {
  std::string s;
  for (std::size_t i = 0; i < r.lines.size(); ++i) {
    s += r.lines[i];
    if (i + 1 < r.lines.size() || final_eol) s += eol;
  }
  return s;
}

/// Replaces the whitespace-delimited token `index` of `line` (counting from
/// 0) with `with`; no-op when the line is shorter.
void replace_token(std::string& line, std::size_t index, const std::string& with) {
  std::size_t pos = 0, seen = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    if (pos == line.size()) return;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (seen++ == index) {
      line.replace(pos, end - pos, with);
      return;
    }
    pos = end;
  }
}

std::size_t token_count(const std::string& line) {
  std::istringstream ss(line);
  std::string t;
  std::size_t n = 0;
  while (ss >> t) ++n;
  return n;
}

/// Line-structured mutations: a token replaced by a corpus spelling, a
/// line duplicated, dropped or swapped, a hostile count planted.
void mutate_lines(Prng& rng, Record& r) {
  if (r.lines.empty()) return;
  const auto any_line = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(r.lines.size()) - 1));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0: {
      std::string& line = r.lines[any_line()];
      const std::size_t n = token_count(line);
      if (n > 1) replace_token(line, static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(n) - 1)), pick(rng, kNumberCorpus));
      break;
    }
    case 1: {
      const std::size_t i = any_line();
      r.lines.insert(r.lines.begin() + static_cast<std::ptrdiff_t>(i), r.lines[i]);
      break;
    }
    case 2:
      r.lines.erase(r.lines.begin() + static_cast<std::ptrdiff_t>(any_line()));
      break;
    case 3:
      std::swap(r.lines[any_line()], r.lines[any_line()]);
      break;
    default: {  // hostile count: 'mem <count>' or 'machines K' + 'table K'
      const std::string count = pick(rng, kHostileCounts);
      for (std::string& line : r.lines) {
        std::istringstream ss(line);
        std::string kw, kind;
        ss >> kw >> kind;
        if (kw == "mem") replace_token(line, 1, count);
        if (kw == "machines") replace_token(line, 1, count);
        if (kw == "job" && kind == "table") replace_token(line, 2, count);
      }
      if (rng.bernoulli(0.5)) r.lines.push_back("job table " + count + " 1 1");
      break;
    }
  }
}

/// Byte-level mutations of the joined text.
void mutate_bytes(Prng& rng, std::string& s) {
  if (s.empty()) return;
  const auto any_pos = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
  };
  static const std::string kAlphabet = std::string("0123456789.eE+-# \t\v\f\r\nx") + '\0';
  switch (rng.uniform_int(0, 4)) {
    case 0:
      s[any_pos()] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
      break;
    case 1:
      s.resize(any_pos());
      break;
    case 2:
      s.insert(any_pos(), 1, kAlphabet[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))]);
      break;
    case 3: {
      const std::size_t at = s.find(' ', any_pos());
      if (at != std::string::npos) s[at] = '\t';
      break;
    }
    default:
      s.insert(any_pos(), "\r");
      break;
  }
}

/// True when a `mem` count or a `table` length in `text`, read the way the
/// reference reads it, would make the reference size an allocation beyond
/// what a sane record carries — the count-bug class.
bool hostile_count(const std::string& text) {
  constexpr std::size_t kTrusted = 4096;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kw, kind;
    std::size_t count = 0;
    if (!(ls >> kw)) continue;
    if (kw == "mem" && ls >> count && count > kTrusted) return true;
    if (kw == "job" && ls >> kind && kind == "table" && ls >> count && count > kTrusted) return true;
  }
  return false;
}

// ------------------------------------------------------------- comparing --

struct Parsed {
  bool ok = false;
  std::string error;
  jobs::Instance instance{{}, 1};
};

template <class Parse>
Parsed run(Parse&& parse) {
  Parsed p;
  try {
    p.instance = parse();
    p.ok = true;
  } catch (const std::invalid_argument& e) {
    p.error = e.what();
  }
  return p;
}

/// Empty when the two results agree; else a description of the first
/// difference.
std::string disagreement(const Parsed& ref, const Parsed& got) {
  if (ref.ok != got.ok)
    return std::string("accept/reject: reference ") + (ref.ok ? "accepts" : "rejects (" + ref.error + ")") +
           ", parser " + (got.ok ? "accepts" : "rejects (" + got.error + ")");
  if (!ref.ok) return ref.error == got.error ? "" : "diagnostic: '" + ref.error + "' vs '" + got.error + "'";
  const jobs::Instance& a = ref.instance;
  const jobs::Instance& b = got.instance;
  if (jobs::to_text(a) != jobs::to_text(b)) return "to_text bytes differ";
  if (a.name() != b.name()) return "name '" + a.name() + "' vs '" + b.name() + "'";
  if (bits(a.arrival()) != bits(b.arrival())) return "arrival bits differ";
  if (a.sla_class() != b.sla_class()) return "class differs";
  if (bits(a.memory_capacity()) != bits(b.memory_capacity())) return "memcap bits differ";
  if (a.has_job_memory() != b.has_job_memory()) return "mem presence differs";
  for (std::size_t j = 0; j < a.size(); ++j)
    if (bits(a.job_memory(j)) != bits(b.job_memory(j))) return "mem bits differ";
  return "";
}

/// The canonical text the memo key stands for: to_text without the name.
std::string content_text(const jobs::Instance& inst) {
  jobs::Instance content(inst.jobs(), inst.machines());
  content.set_arrival(inst.arrival());
  content.set_sla_class(inst.sla_class());
  content.set_memory_capacity(inst.memory_capacity());
  if (inst.has_job_memory()) {
    std::vector<double> mem;
    for (std::size_t j = 0; j < inst.size(); ++j) mem.push_back(inst.job_memory(j));
    content.set_job_memory(std::move(mem));
  }
  return jobs::to_text(content);
}

std::string printable(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n') out += "\\n\n";
    else if (c == '\t') out += "\\t";
    else if (c == '\r') out += "\\r";
    else if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    else out += c;
  }
  return out;
}

TEST(IoDifferential, ParsersAgreeOnSeededRecordsMutationsAndSpellings) {
  constexpr int kRecords = 100000;
  Prng rng(0x5EEDF00D);
  std::unordered_map<std::string, std::uint64_t> key_of_text;
  std::unordered_map<std::uint64_t, std::string> text_of_key;
  int accepted = 0, rejected = 0, hostile = 0, recurring_texts = 0;
  for (int i = 0; i < kRecords; ++i) {
    Record r = valid_record(rng);
    if (rng.bernoulli(0.05)) r.lines.insert(r.lines.begin(), rng.bernoulli(0.5) ? "# lead" : "");
    const int line_mutations = rng.bernoulli(0.5) ? static_cast<int>(rng.uniform_int(1, 2)) : 0;
    for (int k = 0; k < line_mutations; ++k) mutate_lines(rng, r);
    std::string text = join(r, rng.bernoulli(0.1) ? "\r\n" : "\n", rng.bernoulli(0.9));
    const int byte_mutations = rng.bernoulli(0.3) ? static_cast<int>(rng.uniform_int(1, 3)) : 0;
    for (int k = 0; k < byte_mutations; ++k) mutate_bytes(rng, text);
    const std::string default_name = rng.bernoulli(0.5) ? "" : "stream-" + std::to_string(i);

    const Parsed got = run([&] {
      std::istringstream in(text);
      return jobs::read_instance(in, default_name);
    });
    if (hostile_count(text)) {
      // The count-bug class: never handed to the reference, which would
      // allocate what the count says. The parser must reject it, located.
      ++hostile;
      ASSERT_FALSE(got.ok) << printable(text);
      ASSERT_EQ(got.error.rfind("instance parse error, line ", 0), 0u)
          << got.error << "\n" << printable(text);
      continue;
    }
    const Parsed ref = run([&] {
      std::istringstream in(text);
      return jobs::reference::read_instance(in, default_name);
    });
    const std::string diff = disagreement(ref, got);
    ASSERT_TRUE(diff.empty()) << "record " << i << ": " << diff << "\n" << printable(text);
    if (!got.ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::optional<std::uint64_t> key = engine::exec::memo_key(got.instance, 0x1234);
    ASSERT_TRUE(key.has_value());
    const std::string canonical = content_text(got.instance);
    const auto [t, fresh_text] = key_of_text.emplace(canonical, *key);
    const auto [k, fresh_key] = text_of_key.emplace(*key, canonical);
    ASSERT_EQ(t->second, *key) << "one canonical text, two memo keys:\n" << canonical;
    ASSERT_EQ(k->second, canonical) << "one memo key, two canonical texts";
    if (!fresh_text) ++recurring_texts;
  }
  // The corpus must exercise every branch: plenty of both verdicts, the
  // hostile class, and canonical texts that recur under other spellings.
  EXPECT_GT(accepted, kRecords / 4);
  EXPECT_GT(rejected, kRecords / 10);
  EXPECT_GT(hostile, 100);
  EXPECT_GT(recurring_texts, 1000);
}

TEST(IoDifferential, StreamReaderMatchesReferencePerRecord) {
  // Concatenated records through InstanceStreamReader: each record it
  // yields must equal the reference parse of that record's text under the
  // reader's default name, and flush markers between records must not
  // disturb ordinals.
  Prng rng(0xC0C0A);
  std::vector<std::string> records;
  std::string stream;
  while (records.size() < 5000) {
    Record r = valid_record(rng);
    if (rng.bernoulli(0.5)) mutate_lines(rng, r);
    std::string text = join(r, "\n", true);
    if (hostile_count(text)) continue;
    // Keep records whose only header line is their first one.
    std::istringstream lines(text);
    std::string line;
    bool clean = std::getline(lines, line) && line.rfind("moldable-instance", 0) == 0;
    while (clean && std::getline(lines, line))
      clean = trim_view(line).find("moldable-") != 0;
    if (!clean) continue;
    stream += text;
    if (rng.bernoulli(0.1)) stream += "moldable-flush v1\n";
    records.push_back(std::move(text));
  }
  std::istringstream in(stream);
  jobs::InstanceStreamReader reader(in);
  jobs::StreamRecord rec;
  std::size_t i = 0;
  while (reader.next(rec)) {
    if (rec.flush) continue;
    ASSERT_LT(i, records.size());
    ASSERT_EQ(rec.ordinal, i);
    Parsed got;
    got.ok = rec.ok;
    got.error = rec.error;
    if (rec.ok) got.instance = rec.instance;
    const Parsed ref = run([&] {
      std::istringstream one(records[i]);
      return jobs::reference::read_instance(one, "stream-" + std::to_string(i));
    });
    const std::string diff = disagreement(ref, got);
    ASSERT_TRUE(diff.empty()) << "record " << i << ": " << diff << "\n" << printable(records[i]);
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

// ------------------------------------------------------------ framing --

std::string random_bytes(Prng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

std::string random_frame(Prng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return net::encode(net::WelcomeFrame{rng.next_u64()});
    case 1:
      return net::encode(net::ResultFrame{rng.next_u64(), rng.next_u64(), rng.bernoulli(0.5),
                                          rng.uniform01(), rng.uniform01()});
    case 2:
      return net::encode(net::RejectFrame{
          rng.next_u64(), random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(0, 40)))});
    default:
      return net::encode(net::SummaryFrame{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                                           rng.next_u64(), rng.next_u64(), rng.next_u64(),
                                           rng.next_u64(), rng.next_u64()});
  }
}

/// Every typed decoder on `frame`: each either decodes or throws
/// std::runtime_error, never anything worse.
void decode_typed(const net::Frame& frame) {
  const auto attempt = [&](auto decode) {
    try {
      decode(frame);
    } catch (const std::runtime_error&) {
    }
  };
  attempt(net::decode_welcome);
  attempt(net::decode_result);
  attempt(net::decode_reject);
  attempt(net::decode_summary);
}

TEST(FramingFuzz, MutatedStreamsPoisonOrDecodeByteIdentically) {
  Prng rng(0xF4A3E);
  int poisoned = 0, clean = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string wire;
    std::vector<std::size_t> starts;  // frame boundaries, for length rewrites
    const int frames = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < frames; ++f) {
      starts.push_back(wire.size());
      wire += random_frame(rng);
    }
    const std::string original = wire;
    const int mutations = rng.bernoulli(0.2) ? 0 : static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < mutations && !wire.empty(); ++k) {
      const auto any_pos = [&] {
        return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      };
      switch (rng.uniform_int(0, 4)) {
        case 0:
          wire.resize(any_pos());
          break;
        case 1:
          wire[any_pos()] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
          break;
        case 2: {  // a length field set to zero, past the cap, or random
          const std::size_t at = pick(rng, starts);
          const std::uint32_t len = pick(
              rng, std::vector<std::uint32_t>{0, static_cast<std::uint32_t>(net::kMaxFrameBytes) + 1,
                                              0xFFFFFFFFu, static_cast<std::uint32_t>(rng.next_u64())});
          for (int b = 0; b < 4 && at + static_cast<std::size_t>(b) < wire.size(); ++b)
            wire[at + static_cast<std::size_t>(b)] = static_cast<char>(len >> (8 * (3 - b)));
          break;
        }
        case 3:
          wire.insert(any_pos(), random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(1, 8))));
          break;
        default:  // an unknown type byte
          wire[std::min(pick(rng, starts) + 4, wire.size() - 1)] = static_cast<char>(rng.uniform_int(5, 255));
          break;
      }
    }

    net::FrameDecoder decoder(rng.bernoulli(0.2) ? 32 : net::kMaxFrameBytes);
    std::size_t fed = 0, consumed = 0;
    net::Frame frame;
    while (fed < wire.size() && !decoder.failed()) {
      const std::size_t chunk =
          std::min(wire.size() - fed, static_cast<std::size_t>(rng.uniform_int(1, 64)));
      decoder.feed(wire.data() + fed, chunk);
      fed += chunk;
      while (decoder.next(frame)) {
        ASSERT_GE(frame.type, net::FrameType::kWelcome) << "iteration " << iter;
        ASSERT_LE(frame.type, net::FrameType::kSummary) << "iteration " << iter;
        const std::string bytes = net::encode_frame(frame.type, frame.payload);
        ASSERT_EQ(bytes, wire.substr(consumed, bytes.size())) << "iteration " << iter;
        consumed += bytes.size();
        decode_typed(frame);
      }
    }
    if (decoder.failed()) {
      ++poisoned;
      EXPECT_FALSE(decoder.error().empty());
      decoder.feed(original);  // a poisoned decoder stays poisoned
      EXPECT_FALSE(decoder.next(frame));
      EXPECT_EQ(decoder.pending_bytes(), 0u);
    } else {
      ++clean;
      ASSERT_EQ(consumed + decoder.pending_bytes(), wire.size()) << "iteration " << iter;
      if (mutations == 0) {
        EXPECT_EQ(consumed, original.size()) << "iteration " << iter;
      }
    }
  }
  EXPECT_GT(poisoned, 1000);
  EXPECT_GT(clean, 1000);
}

}  // namespace
}  // namespace moldable
