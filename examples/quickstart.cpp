// Quickstart: simulate the paper's machine running the rbtree benchmark
// under the transaction-cache (TC) mechanism and print the headline
// metrics.
//
//   $ ./quickstart
#include <cstdio>

#include "sim/experiment.hpp"
#include "workload/workloads.hpp"

int main() {
  using namespace ntcsim;

  // 1. Pick a machine. SystemConfig::paper() is Table 2 verbatim;
  //    experiment() scales the LLC for short runs.
  SystemConfig cfg = SystemConfig::experiment();
  cfg.mechanism = Mechanism::kTc;  // the paper's accelerator

  // 2. Pick a workload: a red-black tree per core, setup phase plus a
  //    measured phase of one search/insert transaction per operation.
  workload::WorkloadParams params =
      workload::default_params(WorkloadKind::kRbtree);
  params.ops = 1000;

  // 3. A Cell generates the traces and warms the machine with the setup
  //    phase; run() measures the steady state.
  sim::Cell cell(cfg, params);
  const sim::Metrics m = cell.run();

  // 4. Read the results.
  std::printf("rbtree under TC on the paper machine (scaled LLC):\n");
  std::printf("  cycles                 %llu\n",
              static_cast<unsigned long long>(m.cycles));
  std::printf("  IPC (aggregate)        %.3f\n", m.ipc);
  std::printf("  transactions/kcycle    %.3f\n", m.tx_per_kilocycle);
  std::printf("  LLC miss rate          %.3f\n", m.llc_miss_rate);
  std::printf("  NVM line writes        %llu (all issued by the NTC)\n",
              static_cast<unsigned long long>(m.nvm_writes));
  std::printf("  persistent load lat.   %.1f cycles\n", m.pload_latency);
  std::printf("  NTC full-stall frac.   %.5f\n", m.ntc_stall_frac);
  return 0;
}
