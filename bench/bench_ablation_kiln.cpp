// Ablation A4 — Kiln commit-engine sensitivity: how the flush cost per
// line moves Kiln between "almost TC" and "almost SP" (contextualizes the
// baseline's Fig. 6/7 position).
//
// Usage: bench_ablation_kiln [scale] [--jobs=N]
#include <iostream>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ntcsim;
  sim::ExperimentOptions opts = sim::parse_bench_args(argc, argv);
  opts.scale *= 0.5;  // ablations sweep many cells; half-length runs suffice
  const WorkloadKind wl = WorkloadKind::kRbtree;

  const std::vector<std::pair<unsigned, unsigned>> kPoints = {
      {10, 2}, {25, 5}, {40, 10}, {80, 20}, {160, 40}};

  // The Optimal baseline, then one Kiln cell per commit-cost point.
  std::vector<sim::JobSpec> specs;
  specs.push_back({Mechanism::kOptimal, wl, SystemConfig::experiment(), opts});
  for (const auto& [fixed, per_line] : kPoints) {
    SystemConfig cfg = SystemConfig::experiment();
    cfg.kiln.commit_fixed_cycles = fixed;
    cfg.kiln.cycles_per_line = per_line;
    specs.push_back({Mechanism::kKiln, wl, cfg, opts});
  }
  const std::vector<sim::Metrics> cells = sim::run_sweep(specs, opts.jobs);
  const sim::Metrics& opt = cells[0];

  std::cout << "Ablation: Kiln commit cost (rbtree; Optimal = "
            << Table::fmt(opt.tx_per_kilocycle, 3) << " tx/kcycle)\n\n";
  Table t({"fixed cy", "cy/line", "tx/kcycle", "vs Optimal", "pload lat"});
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const sim::Metrics& m = cells[i + 1];
    t.add_row(std::to_string(kPoints[i].first),
              {static_cast<double>(kPoints[i].second), m.tx_per_kilocycle,
               m.tx_per_kilocycle / opt.tx_per_kilocycle, m.pload_latency});
  }
  t.print(std::cout);
  return 0;
}
