#include "sim/timeline.hpp"

#include <algorithm>

namespace ntcsim::sim {

std::vector<TimelineSample> run_with_timeline(System& sys, Cycle interval) {
  std::vector<TimelineSample> samples;
  std::uint64_t prev_txs = 0;
  std::uint64_t prev_skipped = sys.cycles_skipped();
  Cycle prev_cycle = sys.now();
  Histogram prev_hist;
  bool done = false;
  while (!done) {
    done = sys.run_for(interval);
    TimelineSample s;
    s.cycle = sys.now();
    // The final window can be shorter than `interval` (the run drained),
    // so the window rates divide by the cycles actually elapsed in it.
    const Cycle elapsed = s.cycle - prev_cycle;
    const std::uint64_t skipped = sys.cycles_skipped() - prev_skipped;
    const NodeRaw raw = sys.raw();
    s.committed_txs = raw.txs;
    s.nvm_writes = raw.nvm_writes;
    s.nvm_reads = raw.nvm_reads;
    if (elapsed > 0) {
      s.window_skip_ratio =
          static_cast<double>(skipped) / static_cast<double>(elapsed);
      s.window_tx_per_kilocycle =
          1000.0 * static_cast<double>(raw.txs - prev_txs) /
          static_cast<double>(elapsed);
    }
    prev_cycle = s.cycle;
    prev_skipped = sys.cycles_skipped();
    prev_txs = raw.txs;
    s.requests = raw.req_n;
    const Histogram window = raw.req_hist.diff_since(prev_hist);
    if (window.total() > 0) s.window_req_p99 = window.percentile_edge(99.0);
    prev_hist = raw.req_hist;
    for (NodeId n = 0; n < sys.nodes(); ++n) {
      Node& node = sys.node(n);
      for (CoreId c = 0; c < sys.config().cores; ++c) {
        if (const txcache::TxCache* ntc = node.ntc(c)) {
          s.ntc_occupancy = std::max(s.ntc_occupancy, ntc->occupancy());
        }
      }
      s.nvm_write_queue += node.memory().nvm_pending_writes();
    }
    samples.push_back(s);
  }
  return samples;
}

void write_timeline_csv(std::ostream& os,
                        const std::vector<TimelineSample>& samples) {
  os << "cycle,committed_txs,nvm_writes,nvm_reads,window_tx_per_kilocycle,"
        "ntc_occupancy,nvm_write_queue,requests,window_req_p99,"
        "window_skip_ratio\n";
  for (const TimelineSample& s : samples) {
    os << s.cycle << ',' << s.committed_txs << ',' << s.nvm_writes << ','
       << s.nvm_reads << ',' << s.window_tx_per_kilocycle << ','
       << s.ntc_occupancy << ',' << s.nvm_write_queue << ',' << s.requests
       << ',' << s.window_req_p99 << ',' << s.window_skip_ratio << '\n';
  }
}

}  // namespace ntcsim::sim
