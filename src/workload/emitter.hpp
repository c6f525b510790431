// Records a workload's memory behaviour as a micro-op trace while the
// host-side data structure executes, and journals transactional persistent
// writes for the crash-consistency oracle.
#pragma once

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/trace.hpp"
#include "recovery/journal.hpp"

namespace ntcsim::workload {

class TraceEmitter {
 public:
  /// `journal` may be null (no recovery tracking).
  TraceEmitter(CoreId core, const AddressSpace& space,
               recovery::Journal* journal);

  /// Ops emitted before this call belong to the setup (structure-build)
  /// phase; ops after it to the measured phase. Call at most once, outside
  /// a transaction.
  void mark_measured_phase();

  void begin_tx();
  void end_tx();
  bool in_tx() const { return tx_ != kNoTx; }
  TxId current_tx() const { return tx_; }

  void load(Addr a);
  /// Persistent stores are only legal inside a transaction (the paper's
  /// programming model: persistence is per-transaction).
  void store(Addr a, Word v);
  void compute(unsigned n = 1);

  /// The phase traces. If mark_measured_phase was never called, everything
  /// is in setup and measured is empty.
  core::Trace take_setup();
  core::Trace take_measured();
  const core::Trace& trace() const { return current_(); }

 private:
  const core::Trace& current_() const {
    return in_measured_ ? measured_ : setup_;
  }
  core::Trace& current_() { return in_measured_ ? measured_ : setup_; }

  CoreId core_;
  AddressSpace space_;
  recovery::Journal* journal_;
  core::Trace setup_;
  core::Trace measured_;
  bool in_measured_ = false;
  TxId tx_ = kNoTx;
  TxId next_tx_ = 1;
};

}  // namespace ntcsim::workload
