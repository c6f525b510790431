// Crash-point planning for the fault-injection campaign.
//
// Blind cycle stepping (the old tests' `run_for(1500)` loop) samples the
// timeline uniformly and mostly lands in uninteresting gaps. The planner
// instead taps the CheckSink event streams during a *planning run* of the
// cell and records the cycle of every event the mechanism's CrashProfile
// declares hazardous (NTC drains, WAL durability, Kiln flushes, commit
// points). Crash points are placed one cycle after each hazard, so the
// replay run crashes exactly where a half-persisted state could exist.
// Everything is deterministic: same config + traces => same plan.
#pragma once

#include <cstdint>
#include <vector>

#include "check/events.hpp"
#include "common/types.hpp"
#include "core/trace.hpp"
#include "sim/system.hpp"

namespace ntcsim::faultsim {

/// CheckSink that records the cycle of every event matching a hazard mask.
/// Stamps cycles itself from the System clock, like the order checker.
class EventRecorder final : public check::CheckSink {
 public:
  EventRecorder(std::uint32_t hazard_mask, const Cycle* clock)
      : mask_(hazard_mask), clock_(clock) {}

  void on_event(const check::CheckEvent& ev) override {
    if ((check::event_bit(ev.kind) & mask_) != 0) cycles_.push_back(*clock_);
  }

  const std::vector<Cycle>& hazard_cycles() const { return cycles_; }

 private:
  std::uint32_t mask_;
  const Cycle* clock_;
  std::vector<Cycle> cycles_;
};

/// One cell's crash plan.
struct CrashPlan {
  /// Cycles at which the replay run will crash, ascending, deduplicated.
  std::vector<Cycle> points;
  std::size_t hazard_events = 0;  ///< Raw hazard count before subsampling.
  Cycle end_cycle = 0;            ///< When the planning run drained.
};

/// Subsample hazard cycles down to at most `max_points` crash points
/// (0 = keep all). Points are hazard + 1 (crash strictly after the
/// hazardous transition), adjacent duplicates merged; when subsampling,
/// the selection is evenly spread and always keeps the first and last
/// point, so both the earliest and the final vulnerability window stay
/// covered at any budget.
std::vector<Cycle> select_crash_points(const std::vector<Cycle>& hazards,
                                       std::uint64_t max_points);

/// Run the cell once with an EventRecorder tapped in and build the plan.
/// `cfg` must describe the cell's mechanism; the planning System is built
/// with the checker forced off (the taps are ours). `node_traces[node][core]`
/// are the raw workload traces (pre-SP-transform; load_trace applies it)
/// and load the whole cluster, but only `crash_node`'s event stream is
/// tapped — the plan places crash points where *that* node is vulnerable
/// while the other nodes keep serving (partial-failure injection).
CrashPlan plan_cell(const SystemConfig& cfg, const sim::SystemOptions& opts,
                    const std::vector<std::vector<core::Trace>>& node_traces,
                    NodeId crash_node, std::uint64_t max_points);

}  // namespace ntcsim::faultsim
