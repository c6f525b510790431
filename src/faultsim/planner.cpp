#include "faultsim/planner.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ntcsim::faultsim {

std::vector<Cycle> select_crash_points(const std::vector<Cycle>& hazards,
                                       std::uint64_t max_points) {
  std::vector<Cycle> points;
  points.reserve(hazards.size());
  for (const Cycle h : hazards) {
    const Cycle p = h + 1;
    if (points.empty() || points.back() != p) points.push_back(p);
  }
  // Event cycles arrive monotonically (one clock, one thread), so the
  // adjacent dedup above is a full dedup; keep the invariant checked.
  NTC_ASSERT(std::is_sorted(points.begin(), points.end()),
             "hazard cycles not monotone");
  if (max_points == 0 || points.size() <= max_points) return points;
  if (max_points == 1) return {points.front()};
  // Evenly spread: index i of the kept sequence maps onto the full range
  // [0, n-1] with both endpoints pinned.
  std::vector<Cycle> kept;
  kept.reserve(max_points);
  const std::size_t n = points.size();
  for (std::uint64_t i = 0; i < max_points; ++i) {
    const std::size_t idx =
        static_cast<std::size_t>(i * (n - 1) / (max_points - 1));
    if (kept.empty() || points[idx] != kept.back()) kept.push_back(points[idx]);
  }
  return kept;
}

CrashPlan plan_cell(const SystemConfig& cfg, const sim::SystemOptions& opts,
                    const std::vector<std::vector<core::Trace>>& node_traces,
                    NodeId crash_node, std::uint64_t max_points) {
  sim::SystemOptions plan_opts = opts;
  plan_opts.force_check_off = true;
  sim::System sys(cfg, plan_opts);
  NTC_ASSERT(crash_node < sys.nodes(), "crash node outside the cluster");
  EventRecorder recorder(
      sys.node(crash_node).domain().crash_profile().hazard_mask,
      sys.cycle_counter());
  sys.node(crash_node).tap_events(&recorder);
  for (NodeId n = 0; n < node_traces.size() && n < sys.nodes(); ++n) {
    for (CoreId c = 0; c < cfg.cores; ++c) {
      sys.load_trace(n, c, node_traces[n][c]);
    }
  }
  sys.run();

  CrashPlan plan;
  plan.hazard_events = recorder.hazard_cycles().size();
  plan.end_cycle = sys.now();
  plan.points = select_crash_points(recorder.hazard_cycles(), max_points);
  return plan;
}

}  // namespace ntcsim::faultsim
