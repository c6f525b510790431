// Tail-latency vs offered load: sweeps the open-loop arrival rate across
// every registered mechanism and reports per-request latency percentiles,
// locating each mechanism's saturation knee — the rate where achieved
// throughput falls measurably short of offered load and the latency tail
// departs. The serving-scenario counterpart of the paper's throughput
// figures: mechanisms with identical mean IPC separate here when an NTC
// drain burst or a Kiln commit window stalls a request.
//
//   bench_tail_latency [scale] [--scale=X] [--jobs=N] [--profile[=FILE]]
//
// CSV columns: mechanism, offered req/kcycle/core, requests completed,
// achieved tx/kcycle (all cores), mean and p50/p95/p99/p99.9 request
// latency in cycles. Results are bit-identical for any --jobs value
// (tests/test_sweep.cpp ServiceRateSweepIsBitIdenticalAcrossJobs).
#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

using namespace ntcsim;

int main(int argc, char** argv) {
  const sim::ExperimentOptions opts = sim::parse_bench_args(argc, argv);

  // Offered load per core, requests per kilocycle. The low rates are
  // comfortably below every mechanism's service rate; the top ones push
  // the slow mechanisms past saturation.
  const double kRates[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  const WorkloadKind wl = WorkloadKind::kHashtable;
  const std::vector<Mechanism> mechs = sim::matrix_mechanisms();

  std::vector<sim::JobSpec> specs;
  for (Mechanism mech : mechs) {
    for (double rate : kRates) {
      sim::JobSpec spec;
      spec.mech = mech;
      spec.wl = wl;
      spec.cfg = SystemConfig::experiment();
      spec.cfg.service.enabled = true;
      spec.cfg.service.rate = rate;
      spec.opts = opts;
      specs.push_back(spec);
    }
  }
  const std::vector<sim::Metrics> cells = sim::run_sweep(specs, opts.jobs);

  std::printf(
      "mechanism,rate_per_kcycle,requests,achieved_tx_per_kilocycle,"
      "req_latency,req_latency_p50,req_latency_p95,req_latency_p99,"
      "req_latency_p999\n");
  std::size_t i = 0;
  for (Mechanism mech : mechs) {
    double knee = 0.0;
    double base_ratio = 0.0;
    for (double rate : kRates) {
      const sim::Metrics& m = cells[i++];
      std::printf("%s,%g,%llu,%.4f,%.1f,%llu,%llu,%llu,%llu\n",
                  std::string(sim::mechanism_label(mech)).c_str(), rate,
                  static_cast<unsigned long long>(m.requests),
                  m.tx_per_kilocycle, m.req_latency,
                  static_cast<unsigned long long>(m.req_latency_p50),
                  static_cast<unsigned long long>(m.req_latency_p95),
                  static_cast<unsigned long long>(m.req_latency_p99),
                  static_cast<unsigned long long>(m.req_latency_p999));
      // Offered load is per core; achieved tx/kcycle counts all cores.
      // Startup + final-drain cycles make achieved/offered < 1 even when
      // nothing queues (more so at small --scale), so saturation is a
      // *drop* in that ratio relative to the lowest (unsaturated) rate,
      // not an absolute shortfall.
      const double offered =
          rate * static_cast<double>(specs[i - 1].cfg.cores);
      const double ratio = m.tx_per_kilocycle / offered;
      if (base_ratio == 0.0) base_ratio = ratio;
      if (knee == 0.0 && ratio < 0.9 * base_ratio) knee = rate;
    }
    if (knee > 0.0) {
      std::fprintf(stderr, "%s: saturation knee near %g req/kcycle/core\n",
                   std::string(sim::mechanism_label(mech)).c_str(), knee);
    } else {
      std::fprintf(stderr, "%s: no saturation up to %g req/kcycle/core\n",
                   std::string(sim::mechanism_label(mech)).c_str(),
                   kRates[std::size(kRates) - 1]);
    }
  }
  return 0;
}
