// One node of a cluster: the paper's whole machine — cores + hierarchy +
// transaction caches + hybrid memory + the selected persistence domain —
// built from a NodeConfig and ticked by an owning sim::Cluster on a shared
// clock and event queue. The single-node cluster is the pre-cluster
// System, cycle-for-cycle.
#pragma once

#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "check/persist_order_checker.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "core/core.hpp"
#include "core/trace.hpp"
#include "mem/memory_system.hpp"
#include "persist/domain.hpp"
#include "persist/kiln_unit.hpp"
#include "persist/policy.hpp"
#include "recovery/images.hpp"
#include "recovery/recovery.hpp"
#include "sim/metrics.hpp"
#include "txcache/tx_cache.hpp"

namespace ntcsim::sim {

struct SystemOptions {
  /// SP only: emit the clwb/sfence/pcommit ordering (true, Fig. 2b) or the
  /// deliberately broken unordered variant (false, Fig. 2c) used as the
  /// negative control in crash tests.
  bool sp_ordered = true;
  /// Never install the persistence-order checker, ignoring both cfg.check
  /// and the NTCSIM_CHECK env override. The fault-injection campaign sets
  /// this: its verdicts come from the atomicity oracle, and it needs the
  /// CheckSink taps free for its own event recorder (tap_events()).
  bool force_check_off = false;
};

/// Raw statistic sums since the last reset_stats(): the inputs of every
/// Metrics field. Node::add_raw adds one node's counters core by core, so a
/// NodeRaw totals a single node or a whole cluster.
struct NodeRaw {
  std::uint64_t retired = 0;
  std::uint64_t txs = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t nvm_writes = 0;
  std::uint64_t nvm_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t llc_wb_dropped = 0;
  std::uint64_t ntc_spills = 0;
  std::uint64_t ntc_stalls = 0;
  double pload_sum = 0.0;
  std::uint64_t pload_n = 0;
  double req_sum = 0.0;
  std::uint64_t req_n = 0;
  Histogram pload_hist;  ///< Merged across the added cores.
  Histogram req_hist;    ///< Merged across the added cores.
  std::uint64_t check_violations = 0;

  /// The one Metrics derivation, for a node row and a cluster total alike:
  /// every field these sums determine, over `cycles` elapsed on `cores`
  /// cores. Cluster-only fields (per_node, xshard_*) stay empty.
  Metrics metrics(Cycle cycles, std::uint64_t cores) const;
};

class Node {
 public:
  /// `events` and `clock` belong to the owning Cluster; `clock` must stay
  /// valid for the node's lifetime (the checker stamps cycles through it).
  Node(const NodeConfig& cfg, NodeId id, unsigned total_nodes,
       EventQueue& events, const Cycle* clock, SystemOptions opts);

  /// Install a workload trace on one core. Applies the SP transform when
  /// the configured domain asks for software logging.
  void load_trace(CoreId core, core::Trace trace);

  /// One simulated cycle of every component, in the fixed order the
  /// pre-cluster System used (cores, NTCs, Kiln, hierarchy, memory). The
  /// Cluster drains the shared event queue and advances the clock.
  void tick(Cycle now);

  /// Every core retired its trace and all buffered effects (write-backs,
  /// NTC drains, flushes) reached memory. The shared event queue is the
  /// Cluster's to check.
  bool drained() const;

  /// Earliest cycle > now at which any component of this node could do
  /// work (min over the per-component quiescence contracts). The Cluster
  /// min-reduces this across nodes and the shared event queue to pick its
  /// jump target; see docs/ARCHITECTURE.md "Clock advance & quiescence".
  NTC_HOT Cycle next_event_cycle(Cycle now) const;

  /// Add this node's raw sums since the last reset_stats() into `into`
  /// (the Cluster tracks the epoch and derives the Metrics).
  void add_raw(NodeRaw& into) const;
  void reset_stats() { stats_.reset(); }
  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  const NodeConfig& config() const { return cfg_; }
  NodeId id() const { return id_; }

  /// Simulate a power failure at the current cycle and run the configured
  /// domain's recovery procedure over what is durable on this node.
  recovery::WordImage crash_and_recover() const;

  core::Core& core(CoreId c) { return *cores_[c]; }
  txcache::TxCache* ntc(CoreId c) {
    return ntcs_.empty() ? nullptr : ntcs_[c].get();
  }
  cache::Hierarchy& hierarchy() { return *hier_; }
  mem::MemorySystem& memory() { return *mem_; }
  const persist::PersistenceDomain& domain() const { return *domain_; }
  const recovery::DurableState* durable() const { return durable_.get(); }
  /// The online persistence-order checker, or null when cfg.check (after
  /// the NTCSIM_CHECK env override) resolved to off or the domain declares
  /// no rules.
  const check::PersistOrderChecker* checker() const { return checker_.get(); }
  /// Route every component's check-event tap to an external sink (the
  /// fault-injection CrashPlanner records hazard cycles this way). Only
  /// legal when no checker was installed — components hold a single
  /// CheckSink*, so run such systems with check off.
  void tap_events(check::CheckSink* sink);

 private:
  NodeConfig cfg_;
  NodeId id_ = 0;
  SystemOptions opts_;
  std::unique_ptr<persist::PersistenceDomain> domain_;
  persist::Policy policy_;  ///< == domain_->policy(), cached.
  StatSet stats_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<recovery::DurableState> durable_;
  std::unique_ptr<recovery::VolatileImage> vimage_;
  std::unique_ptr<cache::Hierarchy> hier_;
  std::vector<std::unique_ptr<txcache::TxCache>> ntcs_;
  std::unique_ptr<persist::KilnUnit> kiln_;
  std::vector<std::unique_ptr<core::Core>> cores_;
  std::unique_ptr<check::PersistOrderChecker> checker_;
  std::vector<core::Trace> traces_;

  // add_raw() sources, resolved once at construction (the PR 2 stat-handle
  // pattern; components registered all of these in their constructors, so
  // resolving here creates nothing new). Per-core vectors are indexed by
  // CoreId.
  std::vector<CounterHandle> m_retired_, m_txs_, m_ntc_stalls_;
  std::vector<AccumulatorHandle> m_pload_lat_, m_req_lat_;
  std::vector<HistogramHandle> m_pload_hist_, m_req_hist_;
  std::vector<CounterHandle> m_ntc_spills_;  ///< One per NTC; empty otherwise.
  CounterHandle m_llc_hits_, m_llc_misses_, m_llc_wb_dropped_;
  CounterHandle m_nvm_writes_, m_nvm_reads_, m_dram_writes_;
};

}  // namespace ntcsim::sim
