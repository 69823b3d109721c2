#include "src/jobs/io_reference.hpp"

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace moldable::jobs::reference {

namespace {

struct ParseError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

void fail(std::size_t line, const std::string& msg) {
  throw ParseError("instance parse error, line " + std::to_string(line) + ": " + msg);
}

}  // namespace

Instance read_instance(std::istream& is, std::string default_name) {
  std::string line;
  std::size_t lineno = 0;
  auto next_meaningful = [&](std::string& out) {
    while (std::getline(is, line)) {
      ++lineno;
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      out = line;
      return true;
    }
    return false;
  };

  std::string header;
  if (!next_meaningful(header) || header.rfind("moldable-instance", 0) != 0)
    fail(lineno, "expected 'moldable-instance v1' header");

  std::string mline;
  if (!next_meaningful(mline)) fail(lineno, "expected 'machines <m>'");

  // Optional metadata directives between the header and the machines line,
  // in any order, at most once each: 'name <rest of line>', 'arrival <t>',
  // 'class <token>'.
  std::string instance_name = std::move(default_name);
  double arrival = 0;
  std::string sla_class;
  double memory_capacity = 0;
  std::vector<double> job_memory;
  std::size_t mem_lineno = 0;  ///< where 'mem' appeared, for the count check
  bool saw_name = false, saw_arrival = false, saw_class = false;
  bool saw_memcap = false, saw_mem = false;
  for (;;) {
    std::istringstream ds(mline);
    std::string kw;
    ds >> kw;
    if (kw == "name") {
      if (saw_name) fail(lineno, "duplicate 'name' directive");
      saw_name = true;
      std::getline(ds, instance_name);
      instance_name = trim(instance_name);
      if (instance_name.empty()) fail(lineno, "'name' directive with no name");
    } else if (kw == "arrival") {
      if (saw_arrival) fail(lineno, "duplicate 'arrival' directive");
      saw_arrival = true;
      std::string junk;
      if (!(ds >> arrival) || !std::isfinite(arrival) || arrival < 0 || (ds >> junk))
        fail(lineno, "'arrival' needs one finite value >= 0");
    } else if (kw == "class") {
      if (saw_class) fail(lineno, "duplicate 'class' directive");
      saw_class = true;
      std::string junk;
      if (!(ds >> sla_class) || (ds >> junk))
        fail(lineno, "'class' needs exactly one token");
    } else if (kw == "memcap") {
      if (saw_memcap) fail(lineno, "duplicate 'memcap' directive");
      saw_memcap = true;
      std::string junk;
      if (!(ds >> memory_capacity) || !std::isfinite(memory_capacity) ||
          memory_capacity <= 0 || (ds >> junk))
        fail(lineno, "'memcap' needs one finite value > 0");
    } else if (kw == "mem") {
      if (saw_mem) fail(lineno, "duplicate 'mem' directive");
      saw_mem = true;
      mem_lineno = lineno;
      std::size_t count = 0;
      if (!(ds >> count) || count == 0)
        fail(lineno, "'mem' needs <count> then <count> values");
      job_memory.resize(count);
      for (double& v : job_memory)
        if (!(ds >> v) || !std::isfinite(v) || v < 0)
          fail(lineno, "'mem' values must be finite and >= 0");
      std::string junk;
      if (ds >> junk) fail(lineno, "'mem' has trailing junk after its values");
    } else {
      break;  // not a metadata directive; must be the machines line
    }
    if (!next_meaningful(mline)) fail(lineno, "expected 'machines <m>'");
  }

  std::istringstream ms(mline);
  std::string kw;
  procs_t m = 0;
  if (!(ms >> kw >> m) || kw != "machines" || m < 1)
    fail(lineno, "expected 'machines <m>' with m >= 1");

  std::vector<Job> jv;
  std::string jline;
  while (next_meaningful(jline)) {
    std::istringstream js(jline);
    std::string job_kw, kind;
    if (!(js >> job_kw >> kind) || job_kw != "job") fail(lineno, "expected 'job <kind> ...'");
    PtfPtr f;
    try {
      if (kind == "amdahl") {
        double t1, frac;
        if (!(js >> t1 >> frac)) fail(lineno, "amdahl needs <t1> <fraction>");
        f = std::make_shared<AmdahlTime>(t1, frac);
      } else if (kind == "powerlaw") {
        double t1, alpha;
        if (!(js >> t1 >> alpha)) fail(lineno, "powerlaw needs <t1> <alpha>");
        f = std::make_shared<PowerLawTime>(t1, alpha);
      } else if (kind == "comm") {
        double t1, c;
        if (!(js >> t1 >> c)) fail(lineno, "comm needs <t1> <comm_cost>");
        f = std::make_shared<CommOverheadTime>(t1, c);
      } else if (kind == "table") {
        std::size_t k = 0;
        if (!(js >> k) || k == 0) fail(lineno, "table needs <k> values");
        if (static_cast<procs_t>(k) != m)
          fail(lineno, "table length must equal the machine count");
        std::vector<double> values(k);
        for (double& v : values)
          if (!(js >> v)) fail(lineno, "table: too few values");
        f = std::make_shared<TableTime>(std::move(values));
      } else if (kind == "linred") {
        std::int64_t mm, a;
        if (!(js >> mm >> a)) fail(lineno, "linred needs <machines> <a>");
        if (mm != m) fail(lineno, "linred machine count must equal the instance's");
        f = std::make_shared<LinearReductionTime>(mm, a);
      } else if (kind == "logspeed") {
        double t1;
        if (!(js >> t1)) fail(lineno, "logspeed needs <t1>");
        f = std::make_shared<LogSpeedupTime>(t1);
      } else if (kind == "rigid") {
        double t, penalty;
        procs_t size;
        if (!(js >> t >> size >> penalty)) fail(lineno, "rigid needs <time> <size> <penalty>");
        f = std::make_shared<RigidStepTime>(t, size, penalty);
      } else {
        fail(lineno, "unknown job kind '" + kind + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      fail(lineno, e.what());
    }
    std::string name;
    js >> name;  // optional trailing name
    jv.emplace_back(std::move(f), m, name);
  }
  if (!job_memory.empty() && job_memory.size() != jv.size())
    fail(mem_lineno, "'mem' count " + std::to_string(job_memory.size()) +
                         " does not match the job count " + std::to_string(jv.size()));
  Instance out(std::move(jv), m, std::move(instance_name));
  out.set_arrival(arrival);          // all validated at parse time above,
  out.set_sla_class(sla_class);      // so these cannot throw here
  out.set_memory_capacity(memory_capacity);
  out.set_job_memory(std::move(job_memory));
  return out;
}

}  // namespace moldable::jobs::reference
