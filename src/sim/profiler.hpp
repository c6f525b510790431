// Self-performance profiler for the simulator itself (not the simulated
// machine): scoped wall-clock timers per component/phase plus per-cell
// ntclint-suppress-file(determinism): the whole point of this file is
// reading the host wall clock; results feed BENCH_selfperf.json only and
// never touch simulated state.
// wall times, reported as a machine-readable BENCH_selfperf.json so CI can
// track the simulator's cells/sec trajectory across commits.
//
// Design constraints:
//  * Zero observable effect on simulated metrics — the profiler only reads
//    the host clock; it never touches simulation state.
//  * Near-zero cost when disabled — a ProfScope on a disabled profiler is
//    one relaxed atomic load and two untaken branches.
//  * Thread-safe — sweep cells run on worker threads (--jobs), and the
//    TSan CI job runs profiled sweeps, so sites accumulate with relaxed
//    atomics and the registry/cell lists take a mutex.
//
// Usage:
//   NTC_PROF_SCOPE("hier.tick");          // in a hot function body
//   { ProfileSession session("BENCH_selfperf.json");   // RAII: enables,
//     ... run ...                                       // disables and
//   }                                                   // writes on exit
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ntcsim::sim {

/// One named timing accumulation point. Construct with static storage
/// duration (the NTC_PROF_SCOPE macro does this); registration is
/// permanent for the process lifetime.
class ProfSite {
 public:
  explicit ProfSite(const char* name);

  void add(std::uint64_t ns) {
    ns_.fetch_add(ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  void reset() {
    ns_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

  const char* name() const { return name_; }
  std::uint64_t ns() const { return ns_.load(std::memory_order_relaxed); }
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  const char* name_;
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Global on/off switch plus the site registry and per-cell wall times.
class Profiler {
 public:
  struct CellTime {
    std::string label;    ///< "mechanism/workload"
    double seconds = 0.0; ///< wall-clock for the whole cell
  };

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  static void register_site(ProfSite* site);
  /// Stable snapshot of every registered site (pointers stay valid: sites
  /// have static storage duration).
  static std::vector<ProfSite*> sites();

  static void add_cell(const std::string& label, double seconds);
  static std::vector<CellTime> cells();

  /// Quiescence-skip accounting, flushed once per Cluster (destructor) so
  /// the JSON report can state the skip ratio: cycles the clock jumped
  /// over vs cycles actually ticked, process-wide.
  static void add_clock_totals(std::uint64_t cycles_skipped,
                               std::uint64_t ticks_executed);
  static std::uint64_t cycles_skipped();
  static std::uint64_t ticks_executed();

  /// Zero every site and drop recorded cell times (session start).
  static void reset_all();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII timer: charges the elapsed wall time to `site` on destruction.
/// Checks the global switch once, at construction.
class ProfScope {
 public:
  explicit ProfScope(ProfSite& site) {
    if (Profiler::enabled()) {
      site_ = &site;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (site_ != nullptr) {
      const auto end = std::chrono::steady_clock::now();
      site_->add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
              .count()));
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfSite* site_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

// Function-static site + scope in one line. The indirection through
// NTC_PROF_CAT is required for __LINE__ to expand before pasting.
#define NTC_PROF_CAT2(a, b) a##b
#define NTC_PROF_CAT(a, b) NTC_PROF_CAT2(a, b)
#define NTC_PROF_SCOPE(name_literal)                                        \
  static ::ntcsim::sim::ProfSite NTC_PROF_CAT(ntc_prof_site_,               \
                                              __LINE__){name_literal};      \
  ::ntcsim::sim::ProfScope NTC_PROF_CAT(ntc_prof_scope_, __LINE__)(         \
      NTC_PROF_CAT(ntc_prof_site_, __LINE__))

/// RAII profiling session: the outermost instance resets + enables the
/// profiler, and on destruction disables it and writes the JSON report.
/// A session opened while another is active is inert, so exactly one
/// report is written per top-level run.
class ProfileSession {
 public:
  explicit ProfileSession(std::string out_path);
  ~ProfileSession();
  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  bool owner() const { return owner_; }

 private:
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  bool owner_ = false;
  static std::atomic<bool> active_;
};

/// Profile the rest of the process: the first call opens a ProfileSession
/// that lives until exit and writes its report to `out_path` then; later
/// calls do nothing. ntcsim and parse_bench_args open theirs here.
void profile_until_exit(std::string out_path);

/// Serialize the current profiler state (phases + cell times + totals) as
/// JSON. `wall_seconds` is the whole-session wall clock.
void write_selfperf_json(std::ostream& os, double wall_seconds);

/// Minimal structural JSON validator (objects/arrays/strings/numbers/
/// literals) used to round-trip-check the report in tests and CI without
/// a JSON library dependency.
bool json_parse_check(std::string_view text);

}  // namespace ntcsim::sim
