// TC-NODRAIN: an eADR-style variant of the paper's transaction cache.
//
// Rationale: post-eADR platforms battery-back the whole on-chip persistence
// path, so a commit no longer needs to wait for anything to drain before it
// is acknowledged. Modelled here as TC with TX_END taken off the critical
// path: the µop retires immediately and the NTC commit request is issued
// lazily, when the transaction's last store drains out of the store buffer.
// Store routing, LLC write-back disposition, NTC probing and recovery are
// exactly TC's.
//
// This file is the registry-seam proof for the PersistenceDomain layer: a
// whole new mechanism in one file under src/persist/, registered from the
// registry bootstrap — no edits to core/, cache/, sim/ or mem/. It derives
// from TcDomain (tc_domain.hpp) and overrides only the commit handshake.
// It appears automatically in --list-mechanisms, --matrix and the sweep
// CSVs.
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stat_handle.hpp"
#include "persist/tc_domain.hpp"

namespace ntcsim::persist {

namespace {

// TC's checker rules and crash hazards hold unchanged: the deferred commit
// request always reaches the NTC at or before the last drain, so
// committed-only draining still holds, and the lazy commit just moves
// kNtcCommit. A transaction whose deferred commit had not reached the NTC
// at crash time is discarded whole by TC's recovery — still all-or-nothing,
// one prefix shorter.
class TcNodrainDomain final : public TcDomain {
 public:
  std::string_view name() const override { return "tc-nodrain"; }

  void bind(const DomainWiring& wiring) override {
    TcDomain::bind(wiring);
    lazy_.assign(wiring.cfg->cores, {});
    stat_lazy_commits_ =
        CounterHandle(*wiring.stats, "tc_nodrain.lazy_commits");
  }

  // TX_END does not wait for a drain, so TC's per-transaction count is
  // not kept; pending stores are counted per open transaction instead.
  void on_tx_begin(CoreId /*core*/, TxId /*tx*/) override {}

  void on_store_retired(CoreId core, TxId tx) override {
    ++lazy_[core].pending[tx];
  }

  void on_store_drained(Cycle /*now*/, CoreId core, Addr /*addr*/,
                        Word /*value*/, TxId tx) override {
    PerCore& pc = lazy_[core];
    const auto it = pc.pending.find(tx);
    if (it == pc.pending.end()) return;
    if (--it->second > 0) return;
    pc.pending.erase(it);
    // Last store of `tx` is in the NTC; if the program already ended the
    // transaction, the deferred commit request fires now.
    if (pc.ended.erase(tx) > 0) {
      wiring().ntcs[core]->commit(tx);
      stat_lazy_commits_->inc();
    }
  }

  // Battery-backed commit: TX_END acknowledges immediately. Stores retire
  // in program order, so by the time TX_END retires the pending count for
  // `tx` is final — either everything already drained (commit now) or the
  // commit is deferred to the last drain.
  core::TxEndResult on_tx_end(Cycle /*now*/, CoreId core, TxId tx) override {
    PerCore& pc = lazy_[core];
    if (pc.pending.find(tx) == pc.pending.end()) {
      wiring().ntcs[core]->commit(tx);
    } else {
      pc.ended.insert(tx);
    }
    return core::TxEndResult::kCommitted;
  }

 private:
  struct PerCore {
    /// Undrained store count per open transaction (several transactions
    /// may be in flight at once — TX_END does not wait).
    std::unordered_map<TxId, unsigned> pending;
    /// Transactions past TX_END whose commit request is still deferred.
    std::unordered_set<TxId> ended;
  };
  std::vector<PerCore> lazy_;
  CounterHandle stat_lazy_commits_;
};

}  // namespace

void register_tc_nodrain(DomainRegistry& registry) {
  registry.add({kAutoMechanismId, "tc-nodrain", "TC-NODRAIN",
                "eADR-style TC: battery-backed NTC, commit acks immediately",
                {"tcnodrain"}, 4, TcDomain::make_policy(),
                [] { return std::make_unique<TcNodrainDomain>(); }});
}

}  // namespace ntcsim::persist
