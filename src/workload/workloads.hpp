// The five NV-heaps-style benchmarks of Table 3. Each generator executes a
// real data structure on the host while emitting the corresponding
// simulated-address micro-op trace (one transaction per operation) and
// journaling transactional writes for the recovery oracle. Generators
// self-verify their structure invariants (red-black / B-tree properties,
// chain contents) before returning.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/trace.hpp"
#include "recovery/journal.hpp"
#include "workload/sim_heap.hpp"

namespace ntcsim::workload {

/// Light fixed padding for unmeasured setup operations.
inline constexpr unsigned kSetupComputePadding = 8;

struct WorkloadParams {
  WorkloadKind kind = WorkloadKind::kSps;
  /// Initial structure size (elements / keys / vertices), built first.
  std::size_t setup_elems = 10000;
  /// Measured operations; each is one transaction.
  std::size_t ops = 3000;
  /// Percentage of measured ops that are searches (where applicable).
  unsigned lookup_pct = 50;
  /// Setup operations batched per transaction (keeps setup cheap without
  /// overflowing a 64-entry transaction cache).
  unsigned setup_batch = 4;
  /// ALU micro-ops per measured operation, modeling the non-memory
  /// instructions of a real program (the paper runs full x86 binaries, so
  /// its transaction rate is far below raw memory-op density). Setup
  /// elements get kSetupComputePadding instead (setup is unmeasured).
  unsigned compute_per_op = 64;
  std::uint64_t seed = 1;
};

/// Workload seed of one cluster node's shard: golden-ratio mixing gives
/// every node distinct data, and node 0 keeps `seed` itself, so single-node
/// cells reproduce the pre-cluster traces bit for bit.
constexpr std::uint64_t node_seed(std::uint64_t seed, NodeId node) {
  return seed + node * 0x9e3779b9ULL;
}

/// Paper-shaped defaults per workload (footprints sized for the
/// pressure-scaled experiment LLC; see EXPERIMENTS.md).
WorkloadParams default_params(WorkloadKind kind);

/// Table 3 description string.
std::string_view description(WorkloadKind kind);

/// A workload's trace split into its structure-build (setup) phase and the
/// measured steady-state phase. The paper's figures report steady state;
/// the experiment harness runs setup first (warming caches and structures),
/// resets statistics, then measures.
struct TraceBundle {
  core::Trace setup;
  core::Trace measured;
};

/// Dispatch on params.kind. `journal` may be null.
TraceBundle generate_phased(const WorkloadParams& params, CoreId core,
                            SimHeap& heap, recovery::Journal* journal);

/// Setup + measured concatenated into one trace (crash tests, examples).
core::Trace generate(const WorkloadParams& params, CoreId core, SimHeap& heap,
                     recovery::Journal* journal);

TraceBundle gen_sps(const WorkloadParams&, CoreId, SimHeap&,
                    recovery::Journal*);
TraceBundle gen_hashtable(const WorkloadParams&, CoreId, SimHeap&,
                          recovery::Journal*);
TraceBundle gen_graph(const WorkloadParams&, CoreId, SimHeap&,
                      recovery::Journal*);
TraceBundle gen_rbtree(const WorkloadParams&, CoreId, SimHeap&,
                       recovery::Journal*);
TraceBundle gen_btree(const WorkloadParams&, CoreId, SimHeap&,
                      recovery::Journal*);
/// Extension workload (not in Table 3): persistent FIFO ring.
TraceBundle gen_queue(const WorkloadParams&, CoreId, SimHeap&,
                      recovery::Journal*);
/// Extension workload (not in Table 3): persistent skip list.
TraceBundle gen_skiplist(const WorkloadParams&, CoreId, SimHeap&,
                         recovery::Journal*);

}  // namespace ntcsim::workload
