// Deterministic crash-injection campaign runner.
//
// A campaign replays every (mechanism-variant x workload x seed) cell:
// the CrashPlanner enumerates hazard-guided crash points from the cell's
// event stream, a replay run crashes at each point via the nondestructive
// System::crash_and_recover(), and the recovered image is judged by the
// atomicity oracle (recovery::check_atomicity). Cells fan out over the
// PR-1 sweep thread pool; each cell owns its config, heap, traces and
// Systems, so verdicts are bit-identical under any --jobs=N. Unexpected
// failures can be minimized to the shortest reproducing transaction
// prefix. Surfaced as `ntcsim --crash-sweep` and wrapped by the gtest
// crash suites.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace ntcsim::faultsim {

/// One campaign cell: a mechanism variant under one workload and seed.
struct CellSpec {
  Mechanism mech = Mechanism::kTc;
  WorkloadKind wl = WorkloadKind::kSps;
  std::uint64_t seed = 1;
  /// False selects the Fig. 2(c) unordered-SP negative control (only
  /// meaningful for software-logging mechanisms).
  bool sp_ordered = true;
  /// From the domain's CrashProfile (negative controls expect violations).
  bool expect_consistent = true;
  /// Mechanism-variant label for reports ("tc", "sp!unordered", ...).
  std::string variant;
  /// Which cluster node the crash is injected on (cfg.topo.nodes > 1:
  /// partial failure — the other nodes keep serving their shards). The
  /// atomicity oracle follows this node's journal.
  NodeId node = 0;
};

enum class CellStatus : std::uint8_t {
  kPass,          ///< Expected consistent, no violation at any crash point.
  kFail,          ///< Expected consistent, violated — the campaign fails.
  kExpectedFail,  ///< Negative control exposed inconsistency, as designed.
  kVacuous,       ///< Negative control saw no violation (no teeth here).
};

constexpr const char* to_string(CellStatus s) {
  switch (s) {
    case CellStatus::kPass: return "pass";
    case CellStatus::kFail: return "FAIL";
    case CellStatus::kExpectedFail: return "expected-fail";
    case CellStatus::kVacuous: return "vacuous";
  }
  return "?";
}

struct CellResult {
  CellSpec spec;
  CellStatus status = CellStatus::kPass;
  std::size_t hazard_events = 0;  ///< Hazards seen by the planning run.
  std::size_t crash_points = 0;   ///< Crash points actually replayed.
  std::size_t checks = 0;         ///< Oracle invocations (points + final).
  std::size_t violations = 0;
  Cycle end_cycle = 0;             ///< Drained cycle of the planning run.
  Cycle first_violation_cycle = 0;
  std::string first_violation;     ///< Oracle message for the first failure.
  std::string repro;               ///< CLI command reproducing this cell.
  /// Minimization (unexpected failures only, when enabled): the shortest
  /// transaction-prefix of the trace that still reproduces a violation.
  bool minimized = false;
  std::size_t total_txs = 0;
  std::size_t min_txs = 0;
  std::size_t min_uops = 0;
};

struct CampaignOptions {
  unsigned jobs = 1;  ///< 0 = auto (sim::default_jobs()).
  /// Base of the repro command emitted per cell, e.g. "ntcsim
  /// --preset=tiny"; the campaign appends the cell coordinates.
  std::string repro_prefix = "ntcsim";
};

struct CampaignReport {
  std::vector<CellResult> cells;  ///< In spec order, jobs-independent.
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t expected_failed = 0;
  std::size_t vacuous = 0;
  /// Negative-control variants whose cells were ALL vacuous: the control
  /// proves nothing at this scale. A warning, not a failure (doc smoke
  /// runs at --scale=0.01 legitimately hit this).
  std::vector<std::string> toothless;
  bool ok() const { return failed == 0; }
};

/// One mechanism variant swept by the campaign.
struct VariantSpec {
  Mechanism mech = Mechanism::kTc;
  bool sp_ordered = true;
  bool expect_consistent = true;
  std::string label;
};

/// Every registry matrix mechanism plus SP-ADR (if registered) and the
/// unordered-SP negative control. expect_consistent comes from each
/// domain's CrashProfile.
std::vector<VariantSpec> default_variants();

/// The crash-relevant default workload trio {sps, hashtable, rbtree}:
/// raw array writes, chained buckets and a rotating tree — the three
/// distinct persistent-update shapes.
std::vector<WorkloadKind> default_workloads();

/// Cross product variants x workloads x seeds, in that nesting order.
std::vector<CellSpec> make_cells(const std::vector<VariantSpec>& variants,
                                 const std::vector<WorkloadKind>& workloads,
                                 const std::vector<std::uint64_t>& seeds);

/// Setup elements a cell of `wl` builds: cfg.crash.setup, seven times that
/// for sps. 0 when the product overflows (drivers reject the campaign).
std::uint64_t setup_elems(const SystemConfig& cfg, WorkloadKind wl);

/// Run one cell (plan + replay + optional minimize). Exposed for tests.
CellResult run_cell(const SystemConfig& cfg, const CellSpec& spec,
                    const CampaignOptions& opts);

/// Run the whole campaign. `cfg` carries the machine preset and the
/// crash.* knobs; cfg.mechanism is ignored (each cell sets its own).
CampaignReport run_campaign(const SystemConfig& cfg,
                            const std::vector<CellSpec>& cells,
                            const CampaignOptions& opts);

/// Structured JSON report (schema documented in docs/BENCHMARKING.md).
/// Deterministic: contains no timestamps or host state.
void write_report_json(std::ostream& os, const CampaignReport& report,
                       const SystemConfig& cfg);

/// One-line-per-cell human summary plus totals.
void write_report_text(std::ostream& os, const CampaignReport& report);

}  // namespace ntcsim::faultsim
