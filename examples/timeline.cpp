// Timeline example: watch the transaction cache breathe. Samples NTC
// occupancy, NVM write-queue depth and windowed throughput every few
// thousand cycles while the sps workload (the paper's most write-intense)
// runs under TC, and prints a compact text plot plus CSV-ready samples.
//
//   $ ./timeline [ntc_bytes]      (default 4096; try 512 to see stalls)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hpp"
#include "sim/timeline.hpp"
#include "workload/workloads.hpp"

int main(int argc, char** argv) {
  using namespace ntcsim;

  SystemConfig cfg = SystemConfig::experiment();
  cfg.cores = 1;
  cfg.mechanism = Mechanism::kTc;
  if (argc > 1) cfg.ntc.size_bytes = std::strtoull(argv[1], nullptr, 10);

  workload::WorkloadParams p = workload::default_params(WorkloadKind::kSps);
  p.setup_elems = 16 << 10;
  p.ops = 2000;

  // The Cell warms the machine; the timeline sampler drives the measured
  // phase itself.
  sim::Cell cell(cfg, p);
  sim::Cluster& sys = cell.cluster();
  const auto samples = sim::run_with_timeline(sys, 4000);

  std::printf("sps under TC, NTC = %llu B (%llu entries)\n\n",
              static_cast<unsigned long long>(cfg.ntc.size_bytes),
              static_cast<unsigned long long>(cfg.ntc.entries()));
  std::printf("%10s %8s %8s  NTC occupancy (each # = 2 entries)\n", "cycle",
              "tx/kcy", "nvm WQ");
  for (const auto& s : samples) {
    std::string bar(s.ntc_occupancy / 2, '#');
    std::printf("%10llu %8.2f %8zu  %s\n",
                static_cast<unsigned long long>(s.cycle),
                s.window_tx_per_kilocycle, s.nvm_write_queue, bar.c_str());
  }
  const auto m = sys.metrics();
  std::printf("\nfinal: %.2f tx/kcycle, NTC stall fraction %.5f\n",
              m.tx_per_kilocycle, m.ntc_stall_frac);
  std::printf("(write_timeline_csv() emits the same series as CSV)\n");
  return 0;
}
