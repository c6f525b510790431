// A cluster of sim::Nodes on one shared clock and event queue — the
// scale-out layer above the paper's single-socket machine. Node 0 of a
// 1-node cluster is the pre-cluster System, cycle-for-cycle; `sim::System`
// is now an alias for this class, and the node-0 member functions below
// (load_trace(core, trace), core(), checker(), ...) keep the single-node
// call sites in tests and examples short by delegating to node 0.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/stat_handle.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "topo/interconnect.hpp"

namespace ntcsim::sim {

class Cluster {
 public:
  explicit Cluster(const SystemConfig& cfg, SystemOptions opts = {});
  /// Flushes the skip/tick totals into the self-profiler so `--profile`
  /// can report the whole-process skip ratio.
  ~Cluster();

  unsigned nodes() const { return static_cast<unsigned>(nodes_.size()); }
  Node& node(NodeId n) { return *nodes_[n]; }
  const Node& node(NodeId n) const { return *nodes_[n]; }

  /// Install a workload trace on one core of one node.
  void load_trace(NodeId node, CoreId core, core::Trace trace);
  /// Node-0 compatibility overload (the whole machine, pre-cluster).
  void load_trace(CoreId core, core::Trace trace);

  /// Run until every node drained, or until `max_cycles` more cycles have
  /// elapsed — whichever comes first. A run cut off by the cap latches
  /// timed_out(): its metrics describe a truncated run (a deadlock or an
  /// under-budgeted run), and drivers fail loudly on it.
  void run(Cycle max_cycles = 2'000'000'000ULL);
  /// Advance at most `cycles` (crash-injection runs). Returns finished().
  bool run_for(Cycle cycles);
  bool finished() const;
  /// A previous run() hit its cycle cap before the cluster drained.
  bool timed_out() const { return timed_out_; }
  Cycle now() const { return now_; }

  /// Metrics since the last reset_stats(), derived from raw() over every
  /// core of every node, plus the routing stats recorded via
  /// note_route_stats(). With more than one node, per_node holds each
  /// node's row from the same derivation.
  Metrics metrics() const;
  /// Every node's raw sums since the last reset_stats(), added together
  /// (the timeline diffs successive snapshots).
  NodeRaw raw() const;
  /// Zero every statistic on every node and start a new measurement epoch
  /// (used between the setup and measured phases; caches stay warm).
  void reset_stats();
  StatSet& stats() { return nodes_[0]->stats(); }
  const StatSet& stats() const { return nodes_[0]->stats(); }
  const SystemConfig& config() const { return cfg_; }

  /// Interconnect routing stats of the measured request stream (the
  /// harness records them after stamping arrivals); surfaced in metrics().
  void note_route_stats(const topo::RouteStats& rs) { route_ = rs; }

  /// Simulate a power failure at the current cycle on one node and run the
  /// configured domain's recovery procedure over what is durable there.
  /// The other nodes are unaffected (partial failure).
  recovery::WordImage crash_and_recover(NodeId node) const;
  recovery::WordImage crash_and_recover() const { return crash_and_recover(0); }

  // Node-0 compatibility surface (the pre-cluster System API); other nodes'
  // components are reached through node(n).
  core::Core& core(CoreId c) { return nodes_[0]->core(c); }
  cache::Hierarchy& hierarchy() { return nodes_[0]->hierarchy(); }
  mem::MemorySystem& memory() { return nodes_[0]->memory(); }
  const recovery::DurableState* durable() const {
    return nodes_[0]->durable();
  }
  const check::PersistOrderChecker* checker() const {
    return nodes_[0]->checker();
  }
  /// The live cycle counter, for external sinks that stamp events
  /// themselves (mirrors the checker's set_clock wiring).
  const Cycle* cycle_counter() const { return &now_; }
  /// Event-queue introspection (cost-regression guards count pushes).
  const EventQueue& events() const { return events_; }

  /// Quiescence-skip accounting since construction (reset_stats() resets
  /// the `sim.cycles_skipped` / `sim.ticks_executed` StatSet counters, not
  /// these lifetime totals). Skipped + executed = elapsed cycles; verify
  /// mode executes every cycle, so it reports 0 skipped.
  std::uint64_t cycles_skipped() const { return cycles_skipped_; }
  std::uint64_t ticks_executed() const { return ticks_executed_; }

 private:
  void step_();
  /// Quiescence-aware clock advance: after an executed step, min-reduce
  /// every node's next_event_cycle() with the earliest event-queue
  /// delivery and jump now_ there (clamped to `limit`, exclusive of
  /// nothing — limit itself is a legal landing cycle for run_for()'s
  /// bound check). No-op when skipping is off or no cycle can be skipped.
  /// Callers invoke it only on an unfinished cluster: a drained cluster
  /// must not advance, since a jump (to the next periodic refresh, say)
  /// would inflate now_ — and the cycles metric — past where the
  /// cycle-stepped run stops.
  void advance_clock_(Cycle limit);
  /// skip.verify: single-step the claimed-idle window instead of jumping,
  /// aborting loudly if any supposedly skippable cycle did work.
  void verify_idle_window_(Cycle target);

  SystemConfig cfg_;
  EventQueue events_;
  Cycle now_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  Cycle stats_epoch_ = 0;  ///< Cycle at the last reset_stats().
  bool timed_out_ = false;
  topo::RouteStats route_;

  std::uint64_t cycles_skipped_ = 0;
  std::uint64_t ticks_executed_ = 0;
  CounterHandle stat_cycles_skipped_;  ///< sim.cycles_skipped (node 0).
  CounterHandle stat_ticks_executed_;  ///< sim.ticks_executed (node 0).
};

}  // namespace ntcsim::sim
