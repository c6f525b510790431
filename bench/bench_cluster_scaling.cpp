// Throughput scaling across cluster sizes: sweeps nodes x mechanism in
// service mode and reports per-mechanism scaling efficiency
// thr(n) / (n * thr(1)) — how much of the ideal linear speedup each
// persistence mechanism keeps once requests are sharded across nodes and
// cross-shard traffic pays the interconnect round trip. Mechanisms whose
// request latency is dominated by persistence stalls (SP) hide the network
// hop better than ones already near the Optimal floor.
//
//   bench_cluster_scaling [scale] [--scale=X] [--jobs=N] [--profile[=FILE]]
//
// stdout: CSV (mechanism, nodes, throughput, p99, cross-shard stats,
// efficiency). A machine-readable JSON report with the same points is
// written to BENCH_cluster_scaling.json.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

using namespace ntcsim;

int main(int argc, char** argv) {
  const sim::ExperimentOptions opts = sim::parse_bench_args(argc, argv);

  const unsigned kNodes[] = {1, 2, 4, 8};
  const double kRate = 2.0;  // req/kcycle/core: busy but under saturation
  const WorkloadKind wl = WorkloadKind::kHashtable;
  const std::vector<Mechanism> mechs = sim::matrix_mechanisms();

  std::vector<sim::JobSpec> specs;
  for (Mechanism mech : mechs) {
    for (unsigned nodes : kNodes) {
      sim::JobSpec spec;
      spec.mech = mech;
      spec.wl = wl;
      spec.cfg = SystemConfig::experiment();
      spec.cfg.topo.nodes = nodes;
      spec.cfg.service.enabled = true;
      spec.cfg.service.rate = kRate;
      spec.opts = opts;
      specs.push_back(spec);
    }
  }

  std::vector<sim::Metrics> cells;
  try {
    cells = sim::run_sweep(specs, opts.jobs);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bench_cluster_scaling: aborted: %s\n", e.what());
    return 1;
  }

  std::printf(
      "mechanism,nodes,tx_per_kilocycle,req_latency_p99,requests,"
      "xshard_requests,xshard_fwd_delay,efficiency\n");
  std::ofstream json("BENCH_cluster_scaling.json");
  json << "{\n  \"kind\": \"cluster-scaling\",\n  \"workload\": \""
       << to_string(wl) << "\",\n  \"rate_per_kcycle_per_core\": " << kRate
       << ",\n  \"scale\": " << opts.scale << ",\n  \"mechanisms\": [";
  std::size_t i = 0;
  bool first_mech = true;
  for (Mechanism mech : mechs) {
    const std::string label(sim::mechanism_label(mech));
    json << (first_mech ? "\n" : ",\n") << "    {\"mechanism\": \"" << label
         << "\", \"points\": [";
    first_mech = false;
    double thr1 = 0.0;
    bool first_pt = true;
    for (unsigned nodes : kNodes) {
      const sim::Metrics& m = cells[i++];
      if (nodes == 1) thr1 = m.tx_per_kilocycle;
      // Ideal scaling doubles throughput with the node count; efficiency
      // is the fraction of that ideal this mechanism actually delivers.
      const double efficiency =
          thr1 > 0.0 ? m.tx_per_kilocycle / (nodes * thr1) : 0.0;
      std::printf("%s,%u,%.4f,%llu,%llu,%llu,%.1f,%.4f\n", label.c_str(),
                  nodes, m.tx_per_kilocycle,
                  static_cast<unsigned long long>(m.req_latency_p99),
                  static_cast<unsigned long long>(m.requests),
                  static_cast<unsigned long long>(m.xshard_requests),
                  m.xshard_fwd_delay, efficiency);
      json << (first_pt ? "\n" : ",\n") << "      {\"nodes\": " << nodes
           << ", \"tx_per_kilocycle\": " << m.tx_per_kilocycle
           << ", \"req_latency_p99\": " << m.req_latency_p99
           << ", \"requests\": " << m.requests
           << ", \"xshard_requests\": " << m.xshard_requests
           << ", \"xshard_fwd_delay\": " << m.xshard_fwd_delay
           << ", \"efficiency\": " << efficiency << "}";
      first_pt = false;
    }
    json << "\n    ]}";
  }
  json << "\n  ]\n}\n";
  std::fprintf(stderr,
               "bench_cluster_scaling: JSON written to "
               "BENCH_cluster_scaling.json\n");
  return 0;
}
