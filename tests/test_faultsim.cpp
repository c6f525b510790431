// Fault-injection campaign engine (src/faultsim/): crash-point selection
// unit tests, plan + verdict determinism across --jobs, negative-control
// accounting, and minimizer convergence on a known-bad mutation domain.
#include "faultsim/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "faultsim/planner.hpp"
#include "mutation_domains.hpp"
#include "persist/domain.hpp"
#include "workload/sim_heap.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::faultsim {
namespace {

SystemConfig campaign_cfg() {
  SystemConfig cfg = SystemConfig::tiny();
  // Keep campaign cells cheap; the CLI defaults are larger.
  cfg.crash.points = 8;
  cfg.crash.ops = 60;
  cfg.crash.setup = 150;
  cfg.crash.seeds = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Crash-point selection.

TEST(SelectCrashPoints, DedupsAndOffsetsPastTheHazard) {
  const std::vector<Cycle> hazards{10, 10, 11, 40, 40, 40, 99};
  const std::vector<Cycle> pts = select_crash_points(hazards, 0);
  EXPECT_EQ(pts, (std::vector<Cycle>{11, 12, 41, 100}));
}

TEST(SelectCrashPoints, SubsamplingKeepsFirstAndLast) {
  std::vector<Cycle> hazards;
  for (Cycle c = 0; c < 1000; ++c) hazards.push_back(c * 7);
  const std::vector<Cycle> pts = select_crash_points(hazards, 16);
  ASSERT_EQ(pts.size(), 16u);
  EXPECT_EQ(pts.front(), 1u);           // first hazard + 1
  EXPECT_EQ(pts.back(), 999u * 7 + 1);  // last hazard + 1
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_LT(pts[i - 1], pts[i]);
}

TEST(SelectCrashPoints, BudgetOfOneAndEmptyInput) {
  EXPECT_TRUE(select_crash_points({}, 8).empty());
  EXPECT_EQ(select_crash_points({5, 6, 7}, 1), (std::vector<Cycle>{6}));
}

// ---------------------------------------------------------------------------
// Plan determinism: same config + traces => identical plans.

TEST(CrashPlanner, PlansAreReproducible) {
  SystemConfig cfg = campaign_cfg();
  cfg.mechanism = Mechanism::kTc;
  recovery::Journal journal(1);
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kSps);
  p.setup_elems = 800;
  p.ops = 60;
  const std::vector<core::Trace> traces{
      workload::generate(p, 0, heap, &journal)};

  const CrashPlan a = plan_cell(cfg, {}, traces, 0);
  const CrashPlan b = plan_cell(cfg, {}, traces, 0);
  EXPECT_GT(a.hazard_events, 0u);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.hazard_events, b.hazard_events);
}

TEST(CrashPlanner, HazardMasksFollowTheDomainProfiles) {
  const persist::DomainRegistry& reg = persist::DomainRegistry::instance();
  // Every expected-consistent mechanism declares hazards beyond the
  // Optimal default, and Optimal is the designated negative control.
  for (const Mechanism m : reg.matrix_mechanisms()) {
    const persist::CrashProfile prof = reg.create(m)->crash_profile();
    EXPECT_NE(prof.hazard_mask, 0u) << reg.info(m).name;
    if (reg.info(m).name == "optimal") {
      EXPECT_FALSE(prof.expect_consistent);
    } else {
      EXPECT_TRUE(prof.expect_consistent) << reg.info(m).name;
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign determinism across worker counts, and the acceptance criterion:
// all real mechanisms pass, the negative controls fail as expected.

TEST(Campaign, VerdictsAreIdenticalAtJobs1AndJobs4) {
  const SystemConfig cfg = campaign_cfg();
  const std::vector<CellSpec> cells =
      make_cells(default_variants(), {WorkloadKind::kSps}, {1, 2});

  CampaignOptions o1;
  o1.jobs = 1;
  CampaignOptions o4;
  o4.jobs = 4;
  const CampaignReport r1 = run_campaign(cfg, cells, o1);
  const CampaignReport r4 = run_campaign(cfg, cells, o4);

  ASSERT_EQ(r1.cells.size(), cells.size());
  ASSERT_EQ(r4.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(r1.cells[i].status, r4.cells[i].status) << i;
    EXPECT_EQ(r1.cells[i].violations, r4.cells[i].violations) << i;
    EXPECT_EQ(r1.cells[i].crash_points, r4.cells[i].crash_points) << i;
    EXPECT_EQ(r1.cells[i].hazard_events, r4.cells[i].hazard_events) << i;
    EXPECT_EQ(r1.cells[i].first_violation_cycle,
              r4.cells[i].first_violation_cycle)
        << i;
  }
  // Byte-identical structured reports (no timestamps by design).
  std::ostringstream j1, j4;
  write_report_json(j1, r1, cfg);
  write_report_json(j4, r4, cfg);
  EXPECT_EQ(j1.str(), j4.str());

  // The acceptance criterion: every real mechanism consistent at every
  // planned crash point.
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.failed, 0u);
  EXPECT_GT(r1.passed, 0u);
}

TEST(Campaign, NegativeControlsAccountAsExpectedFailures) {
  SystemConfig cfg = campaign_cfg();
  cfg.crash.points = 32;  // more points => teeth even on unlucky seeds
  std::vector<VariantSpec> controls;
  for (VariantSpec& v : default_variants()) {
    if (!v.expect_consistent) controls.push_back(std::move(v));
  }
  ASSERT_GE(controls.size(), 2u);  // optimal + sp!unordered

  const CampaignReport report = run_campaign(
      cfg, make_cells(controls, {WorkloadKind::kSps}, {1, 2, 3}), {});
  EXPECT_TRUE(report.ok()) << "controls must never count as failures";
  EXPECT_EQ(report.passed, 0u);
  EXPECT_GT(report.expected_failed, 0u)
      << "no negative control exposed inconsistency; the campaign lost "
         "its teeth";
  // Every control variant must bite across the seed set.
  EXPECT_TRUE(report.toothless.empty())
      << "toothless: " << report.toothless.front();
  for (const CellResult& r : report.cells) {
    EXPECT_TRUE(r.status == CellStatus::kExpectedFail ||
                r.status == CellStatus::kVacuous);
    if (r.violations > 0) {
      EXPECT_FALSE(r.first_violation.empty());
      EXPECT_GT(r.first_violation_cycle, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Minimizer: a known-bad mutation domain (eager commit => half-applied
// transactions after a crash) must shrink to a strictly smaller prefix.

TEST(Minimizer, ConvergesOnEagerCommitMutant) {
  SystemConfig cfg = campaign_cfg();
  cfg.crash.points = 0;  // every hazard: the failure must not be missed
  cfg.crash.minimize = true;

  CellSpec spec;
  spec.mech = muttest::mutants().tc_eager;
  spec.wl = WorkloadKind::kHashtable;  // multi-word transactions
  spec.seed = 1;
  spec.expect_consistent = true;  // the mutant claims TC's promise
  spec.variant = "mut-tc-eager";

  const CellResult r = run_cell(cfg, spec, {});
  ASSERT_EQ(r.status, CellStatus::kFail)
      << "eager-commit mutant survived the crash sweep";
  EXPECT_GT(r.violations, 0u);
  ASSERT_TRUE(r.minimized);
  EXPECT_GE(r.min_txs, 1u);
  EXPECT_GT(r.total_txs, 0u);
  EXPECT_LT(r.min_txs, r.total_txs)
      << "minimizer failed to shrink the reproducer";
  EXPECT_GT(r.min_uops, 0u);
  // The prefix's µop count, as recorded when traces held one record per
  // µop: runs shrink the trace, not what size() reports.
  EXPECT_EQ(r.total_txs, 98u);
  EXPECT_EQ(r.min_txs, 1u);
  EXPECT_EQ(r.min_uops, 58u);

  // The minimized prefix is a real reproducer: rerunning the same spec is
  // deterministic, so the report carries an actionable repro command.
  EXPECT_NE(r.repro.find("--crash-sweep"), std::string::npos);
}

// The healthy sibling of the mutant stays clean under the same knobs —
// the failure above is the seeded bug, not the harness.
TEST(Minimizer, HealthyTcPassesTheSameCell) {
  SystemConfig cfg = campaign_cfg();
  cfg.crash.points = 0;
  cfg.crash.minimize = true;

  CellSpec spec;
  spec.mech = Mechanism::kTc;
  spec.wl = WorkloadKind::kHashtable;
  spec.seed = 1;
  spec.expect_consistent = true;
  spec.variant = "tc";

  const CellResult r = run_cell(cfg, spec, {});
  EXPECT_EQ(r.status, CellStatus::kPass);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_FALSE(r.minimized);
}

}  // namespace
}  // namespace ntcsim::faultsim
