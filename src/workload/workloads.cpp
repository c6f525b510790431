#include "workload/workloads.hpp"

#include "common/assert.hpp"

namespace ntcsim::workload {

WorkloadParams default_params(WorkloadKind kind) {
  WorkloadParams p;
  p.kind = kind;
  switch (kind) {
    case WorkloadKind::kSps:
      // Random swaps in a large array: short, write-heavy transactions —
      // the paper's highest-write-intensity benchmark.
      p.setup_elems = 80 << 10;  // 80 K words = 640 KB per core
      p.ops = 2500;
      p.lookup_pct = 0;
      p.compute_per_op = 640;  // short transactions: highest write intensity
      break;
    case WorkloadKind::kHashtable:
      p.setup_elems = 18000;
      p.ops = 1800;
      p.lookup_pct = 50;
      p.compute_per_op = 320;
      break;
    case WorkloadKind::kGraph:
      p.setup_elems = 16000;  // vertices; edges accumulate
      p.ops = 1800;
      p.lookup_pct = 0;
      p.compute_per_op = 512;
      break;
    case WorkloadKind::kRbtree:
      p.setup_elems = 12000;
      p.ops = 1800;
      p.lookup_pct = 50;
      p.compute_per_op = 320;
      break;
    case WorkloadKind::kBtree:
      p.setup_elems = 16000;
      p.ops = 1800;
      p.lookup_pct = 50;
      p.compute_per_op = 320;
      break;
    case WorkloadKind::kQueue:
      p.setup_elems = 16384;  // ring slots (32 B records): 512 KB per core
      p.ops = 2500;
      p.lookup_pct = 40;  // 40 % dequeues
      p.compute_per_op = 320;
      break;
    case WorkloadKind::kSkiplist:
      p.setup_elems = 10000;
      p.ops = 1800;
      p.lookup_pct = 50;
      p.compute_per_op = 320;
      break;
  }
  return p;
}

std::string_view description(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kGraph:
      return "Insert in an adjacency list graph.";
    case WorkloadKind::kRbtree:
      return "Search/Insert nodes in a red-black tree.";
    case WorkloadKind::kSps:
      return "Randomly swap elements in an array.";
    case WorkloadKind::kBtree:
      return "Search/Insert nodes in a B+tree.";
    case WorkloadKind::kHashtable:
      return "Search/Insert a key-value pair in a hashtable.";
    case WorkloadKind::kQueue:
      return "Enqueue/Dequeue records in a persistent FIFO ring (extension).";
    case WorkloadKind::kSkiplist:
      return "Search/Insert nodes in a persistent skip list (extension).";
  }
  return "?";
}

TraceBundle generate_phased(const WorkloadParams& params, CoreId core,
                            SimHeap& heap, recovery::Journal* journal) {
  switch (params.kind) {
    case WorkloadKind::kSps:
      return gen_sps(params, core, heap, journal);
    case WorkloadKind::kHashtable:
      return gen_hashtable(params, core, heap, journal);
    case WorkloadKind::kGraph:
      return gen_graph(params, core, heap, journal);
    case WorkloadKind::kRbtree:
      return gen_rbtree(params, core, heap, journal);
    case WorkloadKind::kBtree:
      return gen_btree(params, core, heap, journal);
    case WorkloadKind::kQueue:
      return gen_queue(params, core, heap, journal);
    case WorkloadKind::kSkiplist:
      return gen_skiplist(params, core, heap, journal);
  }
  NTC_ASSERT(false, "unknown workload kind");
  return TraceBundle{};
}

core::Trace generate(const WorkloadParams& params, CoreId core, SimHeap& heap,
                     recovery::Journal* journal) {
  TraceBundle b = generate_phased(params, core, heap, journal);
  core::Trace out = std::move(b.setup);
  out.append(b.measured);
  return out;
}

}  // namespace ntcsim::workload
