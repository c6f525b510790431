// Extension E3 (beyond the paper) — NVM endurance: per-line write
// concentration by mechanism. SP hammers its log region; TC spreads
// committed lines but writes every transaction; Kiln and Optimal coalesce
// in caches. Max-writes-per-line is the wear-leveling budget driver.
//
// Usage: bench_ext_wear [scale] [--jobs=N]
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace ntcsim;

// Single-phase on purpose: wear counts the whole run, setup included, so
// this is not a sim::Cell.
mem::WearStats run_wear(Mechanism mech, WorkloadKind wl,
                        const sim::ExperimentOptions& opts) {
  SystemConfig cfg = SystemConfig::experiment();
  cfg.mechanism = mech;
  const workload::WorkloadParams p = sim::cell_params(wl, cfg, opts);
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  sim::System sys(cfg);
  for (CoreId c = 0; c < cfg.cores; ++c) {
    sys.load_trace(c, workload::generate(p, c, heap, nullptr));
  }
  sys.run();
  return sys.memory().nvm_wear();
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentOptions opts = sim::parse_bench_args(argc, argv);
  opts.scale *= 0.5;  // sweeps many cells; half-length runs suffice

  const WorkloadKind kWls[] = {WorkloadKind::kSps, WorkloadKind::kQueue,
                               WorkloadKind::kHashtable};
  const Mechanism kMechs[] = {Mechanism::kOptimal, Mechanism::kTc,
                              Mechanism::kKiln, Mechanism::kSp};

  // Custom per-cell runner (WearStats, not Metrics), so the parallel
  // fan-out goes through run_jobs rather than run_sweep.
  const auto cells = sim::run_jobs(
      std::size(kWls) * std::size(kMechs), opts.jobs, [&](std::size_t i) {
        return run_wear(kMechs[i % std::size(kMechs)],
                        kWls[i / std::size(kMechs)], opts);
      });

  std::cout << "Extension: NVM per-line wear (whole run incl. setup)\n"
               "max = hottest line's array writes; the wear-leveling driver\n\n";
  std::size_t i = 0;
  for (WorkloadKind wl : kWls) {
    Table t({"mechanism", "lines touched", "total writes", "max/line",
             "mean/line"});
    for (Mechanism mech : kMechs) {
      const mem::WearStats& w = cells[i++];
      t.add_row(std::string(to_string(mech)),
                {static_cast<double>(w.lines_touched),
                 static_cast<double>(w.total_writes),
                 static_cast<double>(w.max_writes), w.mean_writes},
                1);
    }
    std::cout << to_string(wl) << ":\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "The `queue` row is the stress case: its head/tail control\n"
               "words absorb a write per transaction under TC and SP.\n";
  return 0;
}
