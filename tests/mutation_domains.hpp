// Deliberately broken mechanism variants ("mutants"), shared between the
// checker mutation tests (test_persist_order_checker.cpp) and the
// fault-injection campaign tests (test_faultsim.cpp). Each forwards
// everything to a real registry domain and re-introduces exactly one
// ordering bug; mutants() registers them in the process-wide registry with
// matrix_rank = -1, so --matrix and the sweep CSVs never see them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "persist/domain.hpp"
#include "persist/kiln_unit.hpp"
#include "persist/sp_transform.hpp"
#include "txcache/tx_cache.hpp"

namespace ntcsim::muttest {

class ForwardingDomain : public persist::PersistenceDomain {
 public:
  ForwardingDomain(std::string name, persist::Policy policy,
                   std::unique_ptr<persist::PersistenceDomain> inner)
      : PersistenceDomain(policy),
        name_(std::move(name)),
        inner_(std::move(inner)) {}

  std::string_view name() const override { return name_; }
  check::CheckerRules checker_rules() const override {
    return inner_->checker_rules();
  }
  persist::CrashProfile crash_profile() const override {
    // The mutant claims its base mechanism's hazards AND its consistency
    // promise — which the seeded bug then breaks, giving the campaign's
    // failure path something real to detect and minimize.
    return inner_->crash_profile();
  }
  void adjust_sp_options(persist::SpOptions& opts) const override {
    inner_->adjust_sp_options(opts);
  }
  void bind(const persist::DomainWiring& wiring) override {
    PersistenceDomain::bind(wiring);
    inner_->bind(wiring);
  }
  recovery::WordImage recover(
      const recovery::DurableState& durable) const override {
    return inner_->recover(durable);
  }
  core::PersistCoreTraits core_traits() const override {
    return inner_->core_traits();
  }
  bool loads_blocked(CoreId core) const override {
    return inner_->loads_blocked(core);
  }
  void on_tx_begin(CoreId core, TxId tx) override {
    inner_->on_tx_begin(core, tx);
  }
  void on_store_retired(CoreId core, TxId tx) override {
    inner_->on_store_retired(core, tx);
  }
  core::StoreRoute route_store(Cycle now, CoreId core, Addr addr, Word value,
                               TxId tx) override {
    return inner_->route_store(now, core, addr, value, tx);
  }
  void on_store_drained(Cycle now, CoreId core, Addr addr, Word value,
                        TxId tx) override {
    inner_->on_store_drained(now, core, addr, value, tx);
  }
  core::TxEndResult on_tx_end(Cycle now, CoreId core, TxId tx) override {
    return inner_->on_tx_end(now, core, tx);
  }

 private:
  std::string name_;
  std::unique_ptr<persist::PersistenceDomain> inner_;
};

inline std::unique_ptr<persist::PersistenceDomain> real_domain(Mechanism m) {
  return persist::DomainRegistry::instance().create(m);
}

inline persist::Policy tc_policy() {
  return persist::DomainRegistry::instance().info(Mechanism::kTc).policy;
}

/// TC that forgets to drop persistent LLC write-backs: evicted uncommitted
/// data leaks to NVM through the demand path -> tc.single-writer.
inline std::unique_ptr<persist::PersistenceDomain> make_tc_leaky() {
  persist::Policy p = tc_policy();
  p.drop_persistent_llc_writeback = false;
  return std::make_unique<ForwardingDomain>("mut-tc-leaky", p,
                                            real_domain(Mechanism::kTc));
}

/// TC whose NTC drains committed entries newest-first -> tc.fifo-drain.
class TcLifoDomain final : public ForwardingDomain {
 public:
  TcLifoDomain()
      : ForwardingDomain("mut-tc-lifo", tc_policy(),
                         real_domain(Mechanism::kTc)) {}
  void bind(const persist::DomainWiring& wiring) override {
    ForwardingDomain::bind(wiring);
    for (txcache::TxCache* n : wiring.ntcs) n->set_drain_order_mutant(true);
  }
};

/// TC that never probes the NTC on persistent LLC misses -> the LLC reads
/// stale NVM data for lines the NTC still holds -> tc.no-stale-read.
inline std::unique_ptr<persist::PersistenceDomain> make_tc_noprobe() {
  persist::Policy p = tc_policy();
  p.probe_ntc_on_llc_miss = false;
  return std::make_unique<ForwardingDomain>("mut-tc-noprobe", p,
                                            real_domain(Mechanism::kTc));
}

/// TC that commits every store's transaction the moment the store enters
/// the NTC: entries drain to NVM before the core's TX_END retires ->
/// tc.uncommitted-drain (and, after a crash, half-applied transactions —
/// the campaign minimizer's reference bug).
class TcEagerDomain final : public ForwardingDomain {
 public:
  TcEagerDomain()
      : ForwardingDomain("mut-tc-eager", tc_policy(),
                         real_domain(Mechanism::kTc)) {}
  core::StoreRoute route_store(Cycle now, CoreId core, Addr addr, Word value,
                               TxId tx) override {
    const core::StoreRoute r =
        ForwardingDomain::route_store(now, core, addr, value, tx);
    if (r == core::StoreRoute::kAccepted) wiring().ntcs[core]->commit(tx);
    return r;
  }
};

/// SP with the WAL inverted: data forced durable before its log records
/// (SpOptions::data_first) -> sp.log-before-data.
class SpDataFirstDomain final : public ForwardingDomain {
 public:
  SpDataFirstDomain()
      : ForwardingDomain(
            "mut-sp-data-first",
            persist::DomainRegistry::instance().info(Mechanism::kSp).policy,
            real_domain(Mechanism::kSp)) {}
  void adjust_sp_options(persist::SpOptions& opts) const override {
    ForwardingDomain::adjust_sp_options(opts);
    opts.data_first = true;
  }
};

/// Kiln whose commit engine drops every other line from the commit flush
/// set -> kiln.flush-incomplete.
class KilnLossyDomain final : public ForwardingDomain {
 public:
  KilnLossyDomain()
      : ForwardingDomain(
            "mut-kiln-lossy",
            persist::DomainRegistry::instance().info(Mechanism::kKiln).policy,
            real_domain(Mechanism::kKiln)) {}
  void bind(const persist::DomainWiring& wiring) override {
    ForwardingDomain::bind(wiring);
    wiring.kiln->set_lossy_flush_mutant(true);
  }
};

struct MutantIds {
  Mechanism tc_leaky{};
  Mechanism tc_lifo{};
  Mechanism tc_noprobe{};
  Mechanism tc_eager{};
  Mechanism sp_data_first{};
  Mechanism kiln_lossy{};
};

/// Register every mutant once in this process; idempotent via the static.
inline const MutantIds& mutants() {
  static const MutantIds ids = [] {
    persist::DomainRegistry& r =
        persist::DomainRegistry::instance_for_registration();
    auto row = [](const char* name, persist::Policy policy,
                  std::function<std::unique_ptr<persist::PersistenceDomain>()>
                      make) {
      persist::DomainInfo info;
      info.name = name;
      info.display = name;
      info.summary = "checker mutation test domain";
      info.matrix_rank = -1;  // never in --matrix or the sweeps
      info.policy = policy;
      info.make = std::move(make);
      return info;
    };
    MutantIds m;
    persist::Policy leaky = tc_policy();
    leaky.drop_persistent_llc_writeback = false;
    m.tc_leaky = r.add(row("mut-tc-leaky", leaky, make_tc_leaky));
    m.tc_lifo = r.add(row("mut-tc-lifo", tc_policy(),
                          [] { return std::make_unique<TcLifoDomain>(); }));
    persist::Policy noprobe = tc_policy();
    noprobe.probe_ntc_on_llc_miss = false;
    m.tc_noprobe = r.add(row("mut-tc-noprobe", noprobe, make_tc_noprobe));
    m.tc_eager = r.add(row("mut-tc-eager", tc_policy(),
                           [] { return std::make_unique<TcEagerDomain>(); }));
    m.sp_data_first = r.add(row(
        "mut-sp-data-first",
        persist::DomainRegistry::instance().info(Mechanism::kSp).policy,
        [] { return std::make_unique<SpDataFirstDomain>(); }));
    m.kiln_lossy = r.add(row(
        "mut-kiln-lossy",
        persist::DomainRegistry::instance().info(Mechanism::kKiln).policy,
        [] { return std::make_unique<KilnLossyDomain>(); }));
    return m;
  }();
  return ids;
}

}  // namespace ntcsim::muttest
