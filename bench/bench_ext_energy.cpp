// Extension E1 (beyond the paper) — memory-system energy per transaction
// for every mechanism: where the joules go when persistence moves from
// software logging (SP) to the side path (TC) to the NV-LLC (Kiln).
//
// Usage: bench_ext_energy [scale] [--jobs=N]
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "sim/energy.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace ntcsim;

struct EnergyCell {
  sim::Metrics metrics;
  sim::EnergyBreakdown energy;
};

EnergyCell run(Mechanism mech, WorkloadKind wl,
               const sim::ExperimentOptions& opts) {
  SystemConfig cfg = SystemConfig::experiment();
  cfg.mechanism = mech;
  sim::Cell sim_cell(cfg, sim::cell_params(wl, cfg, opts));
  EnergyCell cell;
  cell.metrics = sim_cell.run();
  cell.energy = sim::estimate_energy(sim_cell.cluster().stats(), cfg.cores,
                                     mech == Mechanism::kKiln,
                                     cell.metrics.committed_txs);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentOptions opts = sim::parse_bench_args(argc, argv);
  opts.scale *= 0.5;  // ablations sweep many cells; half-length runs suffice

  const WorkloadKind kWls[] = {WorkloadKind::kSps, WorkloadKind::kRbtree,
                               WorkloadKind::kHashtable};
  const Mechanism kMechs[] = {Mechanism::kOptimal, Mechanism::kTc,
                              Mechanism::kKiln, Mechanism::kSp};

  // Custom per-cell runner (energy accounting needs the live System), so
  // the parallel fan-out goes through run_jobs rather than run_sweep.
  const auto cells = sim::run_jobs(
      std::size(kWls) * std::size(kMechs), opts.jobs, [&](std::size_t i) {
        return run(kMechs[i % std::size(kMechs)], kWls[i / std::size(kMechs)],
                   opts);
      });

  std::cout << "Extension: memory-system energy per transaction (nJ)\n"
               "(not a paper figure — STT-RAM write energy is the lever)\n\n";
  std::size_t i = 0;
  for (WorkloadKind wl : kWls) {
    Table t({"mechanism", "nJ/tx", "vs Optimal", "caches nJ/tx", "NTC nJ/tx",
             "NVM nJ/tx"});
    double base = 0.0;
    for (Mechanism mech : kMechs) {
      const EnergyCell& c = cells[i++];
      if (mech == Mechanism::kOptimal) base = c.energy.per_tx_nj;
      const double txs = static_cast<double>(c.metrics.committed_txs);
      t.add_row(std::string(to_string(mech)),
                {c.energy.per_tx_nj,
                 base > 0 ? c.energy.per_tx_nj / base : 0.0,
                 (c.energy.l1_nj + c.energy.l2_nj + c.energy.llc_nj) / txs,
                 c.energy.ntc_nj / txs, c.energy.nvm_nj / txs},
                1);
    }
    std::cout << to_string(wl) << ":\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
