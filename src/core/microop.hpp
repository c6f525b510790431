// Micro-operations consumed by the core timing model. Workload generators
// produce kCompute/kLoad/kStore/kTxBegin/kTxEnd; the SP trace transform
// additionally injects kClwb/kSfence/kPcommit and log stores (Fig. 3a).
// A kCompute op stands for a run of `count` back-to-back ALU µops, so the
// generators' padding costs one record instead of hundreds.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace ntcsim::core {

enum class OpKind : std::uint8_t {
  kCompute,  ///< ALU work; retires after the compute latency.
  kLoad,     ///< Memory read; retires when data returns.
  kStore,    ///< Memory write; retires into the store buffer.
  kTxBegin,  ///< TX_BEGIN primitive: enter transaction mode (§4.2).
  kTxEnd,    ///< TX_END primitive: commit; mechanism-dependent cost.
  kNtStore,  ///< Non-temporal store: bypasses the caches, write-combines.
  kClwb,     ///< Write line back to NVM, keep a clean copy.
  kSfence,   ///< Retires when the store buffer has drained.
  kPcommit,  ///< Retires when all outstanding NVM flushes are durable.
};

/// Traffic label for injected flushes (maps to mem::Source).
enum class FlushKind : std::uint8_t { kData, kLog };

struct MicroOp {
  OpKind kind = OpKind::kCompute;
  FlushKind flush = FlushKind::kData;
  bool persistent = false;
  /// kCompute: the run length, >= 1 (core::Trace merges adjacent runs).
  /// Every other kind: 1.
  std::uint32_t count = 1;
  /// kLoad / kStore / kClwb: the accessed address. kTxBegin: the request's
  /// arrival cycle (0 = back-to-back; service mode stamps open-loop
  /// arrivals here, see workload/service.hpp) — the field is otherwise
  /// unused there and the SP transform passes kTxBegin ops through
  /// verbatim, so the stamp survives software-logging mechanisms.
  Addr addr = 0;
  Word value = 0;  ///< kStore payload; kTxBegin carries the TxId.
  /// kTxBegin only, cluster service mode (topo.nodes > 1): interconnect
  /// delay a cross-shard request pays before the home node can fetch it
  /// (forward hop + link serialization + queueing), and the response-path
  /// delay added to its recorded latency. Both 0 for local requests and on
  /// single-node runs, so the non-cluster timing is bit-identical.
  std::uint32_t net_fwd = 0;
  std::uint32_t net_rsp = 0;

  static MicroOp compute(std::uint32_t n = 1) {
    MicroOp op;
    op.count = n;
    return op;
  }
  static MicroOp load(Addr a, bool persistent) {
    MicroOp op;
    op.kind = OpKind::kLoad;
    op.addr = a;
    op.persistent = persistent;
    return op;
  }
  static MicroOp store(Addr a, Word v, bool persistent) {
    MicroOp op;
    op.kind = OpKind::kStore;
    op.addr = a;
    op.value = v;
    op.persistent = persistent;
    return op;
  }
  static MicroOp tx_begin(TxId tx) {
    MicroOp op;
    op.kind = OpKind::kTxBegin;
    op.value = tx;
    return op;
  }
  static MicroOp tx_end() {
    MicroOp op;
    op.kind = OpKind::kTxEnd;
    return op;
  }
  static MicroOp ntstore(Addr a, Word v) {
    MicroOp op;
    op.kind = OpKind::kNtStore;
    op.addr = a;
    op.value = v;
    op.persistent = true;
    op.flush = FlushKind::kLog;
    return op;
  }
  static MicroOp clwb(Addr a, FlushKind f) {
    MicroOp op;
    op.kind = OpKind::kClwb;
    op.addr = a;
    op.flush = f;
    op.persistent = true;
    return op;
  }
  static MicroOp sfence() {
    MicroOp op;
    op.kind = OpKind::kSfence;
    return op;
  }
  static MicroOp pcommit() {
    MicroOp op;
    op.kind = OpKind::kPcommit;
    return op;
  }
};
// The run length sits in the padding after the three flag bytes.
static_assert(sizeof(MicroOp) == 32, "MicroOp grew");

}  // namespace ntcsim::core
