// A per-core micro-op program. Traces are generated once by a workload and
// can be replayed under every mechanism (the SP transform produces a
// rewritten copy), which keeps cross-mechanism comparisons access-identical.
//
// Storage is run-length encoded for compute work: push() folds a kCompute
// op into a trailing kCompute record, so no two adjacent records are both
// compute (unless a run reached the uint32_t limit) and no record has a
// count of 0. Every other kind is one record per µop. size() and count()
// count µops; ops() exposes the records.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/microop.hpp"

namespace ntcsim::core {

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = default;
  Trace& operator=(const Trace&) = default;
  /// A moved-from trace is empty, µop count included.
  Trace(Trace&& other) noexcept
      : ops_(std::exchange(other.ops_, {})),
        uops_(std::exchange(other.uops_, 0)) {}
  Trace& operator=(Trace&& other) noexcept {
    ops_ = std::exchange(other.ops_, {});
    uops_ = std::exchange(other.uops_, 0);
    return *this;
  }

  void push(MicroOp op);
  /// push() of every record of `other`, in order.
  void append(const Trace& other) {
    for (const MicroOp& op : other.ops_) push(op);
  }

  /// µops, not records: a compute run of n counts n.
  std::size_t size() const { return uops_; }
  bool empty() const { return ops_.empty(); }
  /// The records in program order (see the file comment).
  const std::vector<MicroOp>& ops() const { return ops_; }
  /// In-place rewrites (e.g. service-mode arrival stamping). Callers may
  /// change fields of non-compute records, never a kind or a count.
  std::vector<MicroOp>& mutable_ops() { return ops_; }

  /// µops of one kind — used for Table-1-style accounting and tests.
  std::size_t count(OpKind kind) const;
  /// Number of transactions (kTxBegin ops).
  std::size_t transactions() const { return count(OpKind::kTxBegin); }

 private:
  std::vector<MicroOp> ops_;
  std::size_t uops_ = 0;  ///< Sum of the records' counts.
};

}  // namespace ntcsim::core
