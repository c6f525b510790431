#include "workload/emitter.hpp"

#include <utility>

#include "common/assert.hpp"

namespace ntcsim::workload {

TraceEmitter::TraceEmitter(CoreId core, const AddressSpace& space,
                           recovery::Journal* journal)
    : core_(core), space_(space), journal_(journal) {}

void TraceEmitter::begin_tx() {
  NTC_ASSERT(tx_ == kNoTx, "nested transactions are not supported");
  tx_ = next_tx_++;
  current_().push(core::MicroOp::tx_begin(tx_));
  if (journal_ != nullptr) journal_->begin_tx(core_, tx_);
}

void TraceEmitter::end_tx() {
  NTC_ASSERT(tx_ != kNoTx, "end_tx outside a transaction");
  current_().push(core::MicroOp::tx_end());
  if (journal_ != nullptr) journal_->end_tx(core_);
  tx_ = kNoTx;
}

void TraceEmitter::load(Addr a) {
  current_().push(core::MicroOp::load(a, space_.is_persistent(a)));
}

void TraceEmitter::store(Addr a, Word v) {
  const bool persistent = space_.is_persistent(a);
  if (persistent) {
    NTC_ASSERT(in_tx(), "persistent store outside a transaction");
    if (journal_ != nullptr) journal_->write(core_, a, v);
  }
  current_().push(core::MicroOp::store(a, v, persistent));
}

void TraceEmitter::compute(unsigned n) {
  if (n > 0) current_().push(core::MicroOp::compute(n));
}

void TraceEmitter::mark_measured_phase() {
  NTC_ASSERT(!in_tx(), "phase switch inside a transaction");
  NTC_ASSERT(!in_measured_, "measured phase marked twice");
  in_measured_ = true;
}

core::Trace TraceEmitter::take_setup() { return std::move(setup_); }

core::Trace TraceEmitter::take_measured() { return std::move(measured_); }

core::Trace TraceEmitter::take_combined() {
  core::Trace out = std::move(setup_);
  out.append(measured_);
  measured_ = core::Trace{};
  return out;
}

}  // namespace ntcsim::workload
