// Ablation A2 — memory-controller write-drain policy sensitivity
// (Table 2's "write drain when the write queue is 80 % full"). Sweeps the
// high watermark and the write-queue depth under the two mechanisms that
// stress the NVM write path hardest.
//
// Usage: bench_ablation_memctrl [scale] [--jobs=N]
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ntcsim;
  sim::ExperimentOptions opts = sim::parse_bench_args(argc, argv);
  opts.scale *= 0.5;  // ablations sweep many cells; half-length runs suffice
  const WorkloadKind wl = WorkloadKind::kSps;

  const Mechanism kMechs[] = {Mechanism::kTc, Mechanism::kSp};
  const double kWatermarks[] = {0.5, 0.7, 0.8, 0.9, 0.95};
  const unsigned kQueueDepths[] = {16u, 32u, 64u, 128u};

  // Both sweeps in one batch: watermark x mechanism, then queue depth.
  std::vector<sim::JobSpec> specs;
  for (Mechanism mech : kMechs) {
    for (double w : kWatermarks) {
      SystemConfig cfg = SystemConfig::experiment();
      cfg.nvm.drain_high_watermark = w;
      specs.push_back({mech, wl, cfg, opts});
    }
  }
  for (unsigned q : kQueueDepths) {
    SystemConfig cfg = SystemConfig::experiment();
    cfg.nvm.write_queue = q;
    specs.push_back({Mechanism::kTc, wl, cfg, opts});
  }
  const std::vector<sim::Metrics> cells = sim::run_sweep(specs, opts.jobs);

  std::cout << "Ablation: write-drain high watermark (sps)\n\n";
  std::size_t i = 0;
  for (Mechanism mech : kMechs) {
    Table t({"watermark", "tx/kcycle", "pload latency"});
    for (double w : kWatermarks) {
      const sim::Metrics& m = cells[i++];
      t.add_row(Table::fmt(w, 2), {m.tx_per_kilocycle, m.pload_latency});
    }
    std::cout << to_string(mech) << ":\n";
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "Ablation: write-queue depth (sps, TC)\n\n";
  Table t({"write queue", "tx/kcycle", "NTC stall frac"});
  for (unsigned q : kQueueDepths) {
    const sim::Metrics& m = cells[i++];
    t.add_row(std::to_string(q), {m.tx_per_kilocycle, m.ntc_stall_frac});
  }
  t.print(std::cout);
  return 0;
}
