// Experiment runner used by the bench harness: the one cell pipeline
// (sim::Cell), the mechanism x workload matrix of the paper's §5 built
// from it, and the normalization and printing helpers the figures need.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "recovery/journal.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {

/// The evaluation-matrix mechanism columns, in figure order (SP, TC, Kiln,
/// Optimal, then any registered extensions). Enumerated from the
/// persist::DomainRegistry, so mechanisms added there appear in --matrix
/// and the sweep CSVs with no changes here.
std::vector<Mechanism> matrix_mechanisms();

/// Figure/CSV label for any registered mechanism ("TC", "TC-NODRAIN", ...);
/// unlike to_string(Mechanism) this also covers registry-defined ids.
std::string_view mechanism_label(Mechanism mech);

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kGraph, WorkloadKind::kRbtree, WorkloadKind::kSps,
    WorkloadKind::kBtree, WorkloadKind::kHashtable};

struct ExperimentOptions {
  /// Scale factor on measured ops, letting bench binaries offer a quick
  /// mode (`<bench> 0.2` or `--scale=0.2`).
  double scale = 1.0;
  /// Scale factor on the setup-phase structure size. Defaults to full
  /// size (the figures' cache pressure depends on it); tests shrink it to
  /// keep whole-matrix runs cheap.
  double setup_scale = 1.0;
  std::uint64_t seed = 1;
  /// Track the functional recovery images in every cell. run_cell turns
  /// them on regardless for each mechanism whose recovery path reads them
  /// (all but Optimal), so this changes only Optimal cells. Neither ntcsim
  /// nor a bench sets it; perfbench's copy of run_cell reads it.
  bool track_recovery = false;
  /// Worker threads for run_matrix / run_sweep. 0 = auto (NTCSIM_JOBS or
  /// hardware_concurrency, see sweep.hpp); 1 = the serial path.
  unsigned jobs = 0;
};

/// One experiment cell under the paper's measurement protocol (DESIGN.md
/// "Measurement protocol"); every driver that warms up before measuring
/// goes through here.
class Cell {
 public:
  /// Generates each node's per-core traces (seeds from workload::node_seed;
  /// `journal`, if given, records node 0), stamps and routes service
  /// arrivals, runs the setup phase, resets stats and installs the measured
  /// traces. Throws std::runtime_error if setup hits the cycle cap.
  Cell(const SystemConfig& cfg, const workload::WorkloadParams& params,
       recovery::Journal* journal = nullptr);

  /// Runs the measured phase; throws std::runtime_error on the cycle cap.
  Metrics run();

  /// The live cluster, for callers that drive the measured phase themselves
  /// (crash injection, timeline sampling) or inspect it afterwards.
  Cluster& cluster() { return cluster_; }

 private:
  void require_finished_(const char* phase) const;

  // ntclint-suppress(determinism): self-profiling wall time, never simulated state
  std::chrono::steady_clock::time_point start_;
  std::string label_;  ///< "mechanism/workload", for errors and the profiler
  Cluster cluster_;
};

/// The workload's defaults with opts.seed and ops / setup size scaled by
/// opts (at least 1 each); a service request count pins the ops.
workload::WorkloadParams cell_params(WorkloadKind wl, const SystemConfig& cfg,
                                     const ExperimentOptions& opts);

/// One cell of the evaluation matrix: a Cell of cell_params on `base`.
Metrics run_cell(Mechanism mech, WorkloadKind wl, const SystemConfig& base,
                 const ExperimentOptions& opts = {});

/// Full matrix; cells[workload][mechanism]. Cells run on opts.jobs worker
/// threads (see sweep.hpp); results are bit-identical to the serial path
/// because every cell is an independent simulation.
using Matrix = std::map<WorkloadKind, std::map<Mechanism, Metrics>>;
Matrix run_matrix(const SystemConfig& base, const ExperimentOptions& opts = {});

/// Normalized-to-Optimal figure printer: one row per workload plus a
/// geometric-mean row, one column per mechanism. `metric` extracts the
/// plotted quantity.
void print_figure(std::ostream& os, const std::string& title,
                  const Matrix& matrix, double (*metric)(const Metrics&),
                  const std::string& caption);

/// Figures 6-10 of the paper's §5, all from one matrix and in figure
/// order: IPC, throughput, LLC miss rate, NVM write traffic (followed by
/// its absolute write counts) and persistent-load latency.
void print_paper_figures(std::ostream& os, const Matrix& matrix);

/// The shared environment knobs (a malformed value exits 1): NTCSIM_SCALE
/// replaces opts.scale, NTCSIM_JOBS fills opts.jobs unless a flag set it,
/// and NTCSIM_CHECK is validated (the nodes apply it).
void apply_env_knobs(ExperimentOptions& opts);

/// Consumes argv[i] if it is a flag ntcsim and the benches share:
/// `--scale=X`, `--jobs=N` (both also spaced) or `--profile[=FILE]`, which
/// sets `profile`. False for anything else; a bad value sets `error`.
bool parse_harness_flag(int argc, char** argv, int& i, ExperimentOptions& opts,
                        const char*& profile, std::string& error);

/// Bench argv: an optional positional scale, then parse_harness_flag's
/// flags; the environment knobs are applied last and `--profile` writes
/// its report at exit. Anything else prints one line and exits 1.
ExperimentOptions parse_bench_args(int argc, char** argv);

double geometric_mean(const std::vector<double>& v);

}  // namespace ntcsim::sim
