// Pipeline-equivalence self-test: the benchmark's phase-split copy of the
// cell sequence must reproduce sim::run_cell byte for byte, and its
// per-cell crash campaign must reproduce faultsim::run_campaign (what
// `ntcsim --crash-sweep` runs) byte for byte. Tiny preset, so it runs in
// seconds. Exit 0 when every check holds. `python3 perfbench/run.py
// --self-test` builds and runs it, then lints this directory.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "faultsim/campaign.hpp"
#include "persist/domain.hpp"
#include "pipeline.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace {

using namespace ntcsim;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::SimCell tiny_cell(Mechanism mech, WorkloadKind wl,
                             const SystemConfig& cfg) {
  perfbench::SimCell c;
  c.label = std::string(to_string(wl)) + "/" +
            std::string(sim::mechanism_label(mech));
  c.mech = mech;
  c.wl = wl;
  c.cfg = cfg;
  c.opts.scale = 0.02;
  c.opts.setup_scale = 0.02;
  c.opts.seed = 7;
  c.opts.jobs = 1;
  return c;
}

void check_sim_cell(const perfbench::SimCell& cell) {
  perfbench::Tracer tracer(true);
  const perfbench::SimCellResult mine =
      perfbench::run_sim_cell(cell, tracer, 0);
  std::ostringstream want;
  sim::write_metrics_csv_row(
      want, cell.label, sim::run_cell(cell.mech, cell.wl, cell.cfg, cell.opts));
  expect(mine.error.empty() && mine.csv == want.str(),
         "pipeline row equals sim::run_cell: " + cell.label +
             (mine.error.empty() ? "" : " (" + mine.error + ")"));
}

void check_crash_slice() {
  const SystemConfig cfg = SystemConfig::tiny();
  const std::vector<faultsim::CellSpec> cells = faultsim::make_cells(
      faultsim::default_variants(), {WorkloadKind::kHashtable}, {1, 2});
  perfbench::Tracer tracer(false);
  std::vector<faultsim::CellResult> results;
  bool replicas_match = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    results.push_back(
        perfbench::run_crash_cell(cfg, cells[i], tracer, static_cast<int>(i))
            .result);
    replicas_match = replicas_match &&
                     perfbench::replay_crash_cell(cfg, cells[i]).end_cycle ==
                         results.back().end_cycle;
  }
  std::ostringstream mine;
  faultsim::write_report_json(mine, perfbench::assemble_report(results), cfg);

  faultsim::CampaignOptions opts;
  opts.jobs = 1;
  opts.repro_prefix = perfbench::kCrashReproPrefix;
  std::ostringstream want;
  faultsim::write_report_json(
      want, faultsim::run_campaign(cfg, cells, opts), cfg);
  expect(mine.str() == want.str(),
         "per-cell campaign report equals faultsim::run_campaign");
  expect(replicas_match,
         "crash replicas drain at the planning runs' end cycles");
}

}  // namespace

int main() {
  SystemConfig cfg = SystemConfig::tiny();
  // The measured path runs with the checker off; the deliberately broken
  // mechanisms would abort a fatal checker.
  cfg.check = CheckMode::kOff;
  for (Mechanism mech : persist::DomainRegistry::instance().all()) {
    check_sim_cell(tiny_cell(mech, WorkloadKind::kHashtable, cfg));
  }
  SystemConfig service = cfg;
  service.topo.nodes = 2;
  service.service.enabled = true;
  service.service.rate = 0.5;
  service.service.requests = 40;
  perfbench::SimCell svc =
      tiny_cell(Mechanism::kTc, WorkloadKind::kHashtable, service);
  check_sim_cell(svc);
  check_crash_slice();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
