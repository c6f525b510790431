#include "sim/profiler.hpp"
// ntclint-suppress-file(determinism): host wall-clock reads are this
// file's purpose (self-profiling); outputs never feed simulated state.

#include <cctype>
#include <fstream>
#include <mutex>
#include <ostream>
#include <utility>

namespace ntcsim::sim {

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<ProfSite*> sites;
  std::vector<Profiler::CellTime> cells;
};

Registry& registry() {
  static Registry r;  // function-local: safe across static-init order
  return r;
}

}  // namespace

std::atomic<bool> Profiler::enabled_{false};
std::atomic<bool> ProfileSession::active_{false};

ProfSite::ProfSite(const char* name) : name_(name) {
  Profiler::register_site(this);
}

void Profiler::register_site(ProfSite* site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.sites.push_back(site);
}

std::vector<ProfSite*> Profiler::sites() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.sites;
}

void Profiler::add_cell(const std::string& label, double seconds) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.cells.push_back({label, seconds});
}

std::vector<Profiler::CellTime> Profiler::cells() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.cells;
}

namespace {
// Relaxed atomics, not registry-mutexed: clusters on sweep worker threads
// flush once at destruction, and the totals are only read at report time.
std::atomic<std::uint64_t> g_cycles_skipped{0};
std::atomic<std::uint64_t> g_ticks_executed{0};
}  // namespace

void Profiler::add_clock_totals(std::uint64_t cycles_skipped,
                                std::uint64_t ticks_executed) {
  g_cycles_skipped.fetch_add(cycles_skipped, std::memory_order_relaxed);
  g_ticks_executed.fetch_add(ticks_executed, std::memory_order_relaxed);
}

std::uint64_t Profiler::cycles_skipped() {
  return g_cycles_skipped.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::ticks_executed() {
  return g_ticks_executed.load(std::memory_order_relaxed);
}

void Profiler::reset_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (ProfSite* s : r.sites) s->reset();
  r.cells.clear();
  g_cycles_skipped.store(0, std::memory_order_relaxed);
  g_ticks_executed.store(0, std::memory_order_relaxed);
}

ProfileSession::ProfileSession(std::string out_path)
    : path_(std::move(out_path)) {
  bool expected = false;
  owner_ = active_.compare_exchange_strong(expected, true);
  if (owner_) {
    Profiler::reset_all();
    Profiler::set_enabled(true);
    start_ = std::chrono::steady_clock::now();
  }
}

ProfileSession::~ProfileSession() {
  if (!owner_) return;
  const auto end = std::chrono::steady_clock::now();
  Profiler::set_enabled(false);
  const double wall =
      std::chrono::duration<double>(end - start_).count();
  std::ofstream f(path_);
  if (f) write_selfperf_json(f, wall);
  active_.store(false);
}

void profile_until_exit(std::string out_path) {
  // A function-local static: constructed after the registry it reports
  // on (its constructor resets the registry), so destroyed before it.
  static ProfileSession session(std::move(out_path));
}

namespace {

void json_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void write_selfperf_json(std::ostream& os, double wall_seconds) {
  const std::vector<Profiler::CellTime> cells = Profiler::cells();
  double cell_sum = 0.0;
  for (const auto& c : cells) cell_sum += c.seconds;
  const double cells_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(cells.size()) / wall_seconds
                         : 0.0;

  const std::uint64_t skipped = Profiler::cycles_skipped();
  const std::uint64_t ticked = Profiler::ticks_executed();
  const double skip_ratio =
      skipped + ticked > 0
          ? static_cast<double>(skipped) /
                static_cast<double>(skipped + ticked)
          : 0.0;

  os << "{\n";
  os << "  \"wall_seconds\": " << wall_seconds << ",\n";
  os << "  \"cells\": " << cells.size() << ",\n";
  os << "  \"cells_per_sec\": " << cells_per_sec << ",\n";
  os << "  \"cell_seconds_total\": " << cell_sum << ",\n";
  os << "  \"cycles_skipped\": " << skipped << ",\n";
  os << "  \"ticks_executed\": " << ticked << ",\n";
  os << "  \"skip_ratio\": " << skip_ratio << ",\n";
  os << "  \"cell_times\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"label\": ";
    json_escaped(os, cells[i].label);
    os << ", \"seconds\": " << cells[i].seconds << "}";
  }
  os << (cells.empty() ? "" : "\n  ") << "],\n";
  os << "  \"phases\": [";
  bool first = true;
  for (const ProfSite* s : Profiler::sites()) {
    if (s->calls() == 0) continue;  // untouched sites add only noise
    os << (first ? "\n" : ",\n") << "    {\"name\": ";
    json_escaped(os, s->name());
    os << ", \"seconds\": " << static_cast<double>(s->ns()) * 1e-9
       << ", \"calls\": " << s->calls() << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n";
  os << "}\n";
}

namespace {

// Recursive-descent JSON value checker. Returns the index one past the
// value, or std::string_view::npos on a syntax error.
std::size_t skip_ws(std::string_view t, std::size_t i) {
  while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i]))) ++i;
  return i;
}

std::size_t check_value(std::string_view t, std::size_t i, int depth);

std::size_t check_string(std::string_view t, std::size_t i) {
  if (i >= t.size() || t[i] != '"') return std::string_view::npos;
  for (++i; i < t.size(); ++i) {
    if (t[i] == '\\') {
      ++i;  // accept any escaped character
    } else if (t[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

std::size_t check_number(std::string_view t, std::size_t i) {
  const std::size_t start = i;
  if (i < t.size() && (t[i] == '-' || t[i] == '+')) ++i;
  bool digits = false;
  while (i < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[i])) || t[i] == '.' ||
          t[i] == 'e' || t[i] == 'E' || t[i] == '-' || t[i] == '+')) {
    if (std::isdigit(static_cast<unsigned char>(t[i]))) digits = true;
    ++i;
  }
  return digits && i > start ? i : std::string_view::npos;
}

std::size_t check_value(std::string_view t, std::size_t i, int depth) {
  if (depth > 64) return std::string_view::npos;
  i = skip_ws(t, i);
  if (i >= t.size()) return std::string_view::npos;
  const char c = t[i];
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++i;
    i = skip_ws(t, i);
    if (i < t.size() && t[i] == close) return i + 1;
    for (;;) {
      if (c == '{') {
        i = check_string(t, skip_ws(t, i));
        if (i == std::string_view::npos) return i;
        i = skip_ws(t, i);
        if (i >= t.size() || t[i] != ':') return std::string_view::npos;
        ++i;
      }
      i = check_value(t, i, depth + 1);
      if (i == std::string_view::npos) return i;
      i = skip_ws(t, i);
      if (i >= t.size()) return std::string_view::npos;
      if (t[i] == close) return i + 1;
      if (t[i] != ',') return std::string_view::npos;
      i = skip_ws(t, i + 1);
    }
  }
  if (c == '"') return check_string(t, i);
  for (std::string_view lit : {"true", "false", "null"}) {
    if (t.substr(i, lit.size()) == lit) return i + lit.size();
  }
  return check_number(t, i);
}

}  // namespace

bool json_parse_check(std::string_view text) {
  const std::size_t end = check_value(text, 0, 0);
  if (end == std::string_view::npos) return false;
  return skip_ws(text, end) == text.size();
}

}  // namespace ntcsim::sim
