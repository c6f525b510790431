// TC — the paper's nonvolatile transaction cache, as a persistence domain.
// Persistent in-tx stores are ALSO inserted into the per-core NTC as they
// drain; TX_END waits only for the store buffer to drain and then sends a
// non-blocking commit request. The only stall the mechanism adds is a full
// NTC (§5.2).
//
// Declared in a header so that variants sharing TC's data path (store
// routing, LLC write-back disposition, NTC probing, checker rules, crash
// hazards, recovery) derive from it and override only the commit
// handshake: on_tx_begin, on_store_retired, on_store_drained, on_tx_end
// (tc_nodrain.cpp).
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "persist/domain.hpp"
#include "recovery/recovery.hpp"
#include "txcache/tx_cache.hpp"

namespace ntcsim::persist {

class TcDomain : public PersistenceDomain {
 public:
  TcDomain() : PersistenceDomain(make_policy()) {}
  std::string_view name() const override { return "tc"; }

  /// The NTC drain is the only writer of persistent heap data, drains
  /// leave in per-core FIFO order, only committed transactions drain, and
  /// a persistent NVM read of an NTC-held line must have probed the NTC.
  check::CheckerRules checker_rules() const override {
    check::CheckerRules r;
    r.single_writer = true;
    r.allowed_heap_sources = check::source_bit(mem::Source::kTxCache);
    r.fifo_drain = true;
    r.no_stale_read = true;
    r.no_uncommitted = true;
    return r;
  }

  /// The dangerous instants are the NTC state transitions (commit CAM
  /// match, drain issue, entry release), the LLC dropping a persistent
  /// write-back, and the commit point itself.
  CrashProfile crash_profile() const override {
    CrashProfile p;
    p.hazard_mask = check::event_bit(check::EventKind::kNtcCommit) |
                    check::event_bit(check::EventKind::kNtcDrainIssue) |
                    check::event_bit(check::EventKind::kNtcRelease) |
                    check::event_bit(check::EventKind::kLlcWritebackDropped) |
                    check::event_bit(check::EventKind::kTxCommitted);
    p.expect_consistent = true;
    return p;
  }

  void bind(const DomainWiring& wiring) override {
    NTC_ASSERT(!wiring.ntcs.empty(),
               "TC-family mechanism requires a transaction cache");
    PersistenceDomain::bind(wiring);
    state_.assign(wiring.cfg->cores, {});
  }

  core::PersistCoreTraits core_traits() const override {
    core::PersistCoreTraits t;
    t.routes_tx_stores = true;
    t.observes_tx_stores = true;
    return t;
  }

  void on_tx_begin(CoreId core, TxId tx) override {
    state_[core] = {tx, 0};
  }

  void on_store_retired(CoreId core, TxId /*tx*/) override {
    ++state_[core].pending;
  }

  core::StoreRoute route_store(Cycle now, CoreId core, Addr addr, Word value,
                               TxId tx) override {
    txcache::TxCache* ntc = wiring().ntcs[core];
    if (ntc->write(now, addr, value, tx)) return core::StoreRoute::kAccepted;
    // Capacity rejects are the paper's §5.2 stall metric; port-rate pacing
    // at slow CAM latencies is reported separately by the NTC.
    return (ntc->full() || ntc->overflow_imminent())
               ? core::StoreRoute::kRetryCapacity
               : core::StoreRoute::kRetry;
  }

  void on_store_drained(Cycle /*now*/, CoreId core, Addr /*addr*/,
                        Word /*value*/, TxId tx) override {
    PerCore& pc = state_[core];
    if (pc.pending > 0 && tx == pc.tx) --pc.pending;
  }

  core::TxEndResult on_tx_end(Cycle /*now*/, CoreId core, TxId tx) override {
    if (state_[core].pending > 0) {
      return core::TxEndResult::kStallDrain;  // all tx stores into the NTC first
    }
    wiring().ntcs[core]->commit(tx);
    return core::TxEndResult::kCommitted;
  }

  /// Replay committed NTC entries in FIFO order over the durable image.
  recovery::WordImage recover(
      const recovery::DurableState& durable) const override {
    std::vector<recovery::NtcSnapshot> snaps;
    snaps.reserve(wiring().ntcs.size());
    for (const txcache::TxCache* n : wiring().ntcs) {
      snaps.push_back(n->snapshot());
    }
    return recovery::recover_tc(durable, snaps);
  }

  static Policy make_policy() {
    Policy p;
    p.route_stores_to_ntc = true;
    p.drop_persistent_llc_writeback = true;
    p.probe_ntc_on_llc_miss = true;
    p.needs_recovery_images = true;
    return p;
  }

 private:
  struct PerCore {
    TxId tx = kNoTx;
    unsigned pending = 0;  ///< Current-tx stores not yet drained.
  };
  std::vector<PerCore> state_;
};

}  // namespace ntcsim::persist
