// The benchmark's cell pipeline: the same public calls sim::run_cell makes
// (generate, stamp arrivals, route, build, setup run, reset_stats,
// measured run, metrics), timed from outside phase by phase, plus the
// per-layer work counts read from every node's StatSet. Also the crash
// workload's per-cell wrapper around faultsim::run_cell.
//
// selftest.cpp pins this copy of the run_cell sequence to sim::run_cell
// byte for byte, so a drift in either shows up as a failing self-test.
//
// ntclint-suppress-file(determinism): Clock is the host steady clock the
// spans are placed on, and thread_cpu_seconds() the clock phases are
// timed with; neither reaches simulated state.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "faultsim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded span: a named interval of host time, its parent span
/// (-1 for a root) and the cell it belongs to (-1 outside any cell).
struct Span {
  std::string name;
  double start_s = 0.0;  ///< Seconds since the tracer was created.
  double end_s = 0.0;
  int parent = -1;
  int cell = -1;
};

/// In-memory span recorder. When not recording it keeps nothing; the
/// phase times the end-to-end metrics need are taken either way.
class Tracer {
 public:
  explicit Tracer(bool record) : record_(record), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; -1 when not recording.
  int open(std::string_view name, int cell);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool record_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// CPU seconds this thread has run. Phases are timed on it rather than on
/// the steady clock: on a shared VM the host takes the vCPU away for
/// stretches (steal time), and that time is not the simulator's.
double thread_cpu_seconds();

/// Times one phase: adds its thread CPU seconds to `acc` and records a
/// span.
class Phase {
 public:
  Phase(Tracer& tracer, std::string_view name, int cell, double& acc);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Tracer& tracer_;
  int id_;
  double& acc_;
  double start_;
};

/// Host seconds of one cell's phases, on the thread's CPU clock.
struct CellTimes {
  double generate = 0.0;   ///< generate_phased + stamp_service_arrivals
  double route = 0.0;      ///< route_service_arrivals
  double build = 0.0;      ///< Cluster constructor
  double load = 0.0;       ///< load_trace, both phases (SP transform)
  double warmup = 0.0;     ///< setup-phase Cluster::run
  double measured = 0.0;   ///< measured-phase Cluster::run
  double metrics = 0.0;    ///< Cluster::metrics
  double teardown = 0.0;   ///< Cluster destructor
  double setup = 0.0;      ///< everything before the measured run
  double wall = 0.0;       ///< whole cell, teardown included
};

/// Layer counts by name, summed over nodes and cores ("core3.stall.load"
/// and "core0.stall.load" both land in "core.stall.load").
using Counts = std::map<std::string, double>;

/// A simulation cell: one sim::run_cell call, spelled out.
struct SimCell {
  std::string label;  ///< "workload/MECH", as the matrix CSV labels rows
  ntcsim::Mechanism mech = ntcsim::Mechanism::kOptimal;
  ntcsim::WorkloadKind wl = ntcsim::WorkloadKind::kSps;
  ntcsim::SystemConfig cfg;
  ntcsim::sim::ExperimentOptions opts;
};

struct SimCellResult {
  ntcsim::sim::Metrics metrics;
  std::string csv;         ///< write_metrics_csv_row output
  CellTimes times;
  Counts setup_counts;     ///< read before reset_stats
  Counts measured_counts;  ///< read at the end of the cell
  std::uint64_t retired = 0;  ///< µops retired over both phases
  std::string error;       ///< non-empty: the cell failed
};

/// Runs one simulation cell exactly as sim::run_cell does, timing each
/// phase into spans under `cell_id`.
SimCellResult run_sim_cell(const SimCell& cell, Tracer& tracer, int cell_id);

/// A crash-campaign cell and what the benchmark learns about it.
struct CrashCellResult {
  ntcsim::faultsim::CellResult result;
  double seconds = 0.0;  ///< host time in faultsim::run_cell
};

CrashCellResult run_crash_cell(const ntcsim::SystemConfig& cfg,
                               const ntcsim::faultsim::CellSpec& spec,
                               Tracer& tracer, int cell_id);

/// The counts of one plain run of a campaign cell's traces, built as the
/// campaign builds them. The planning run inside faultsim::run_cell is
/// this same simulation with event taps attached, so `end_cycle` must
/// equal CellResult::end_cycle.
struct CrashReplica {
  Counts counts;
  std::uint64_t retired = 0;
  ntcsim::Cycle end_cycle = 0;
  double ipc = 0.0;
};

CrashReplica replay_crash_cell(const ntcsim::SystemConfig& cfg,
                               const ntcsim::faultsim::CellSpec& spec);

/// The campaign report faultsim::run_campaign would build from these
/// per-cell results (same tallies, same toothless-control rule).
ntcsim::faultsim::CampaignReport assemble_report(
    std::vector<ntcsim::faultsim::CellResult> cells);

/// Crash-campaign repro prefix, as `ntcsim --preset=tiny --crash-sweep`
/// writes it into the report.
inline constexpr const char* kCrashReproPrefix = "ntcsim --preset=tiny";

}  // namespace perfbench
