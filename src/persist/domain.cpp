#include "persist/domain.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/assert.hpp"
#include "persist/kiln_unit.hpp"
#include "persist/tc_domain.hpp"
#include "recovery/recovery.hpp"

namespace ntcsim::persist {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// ---------------------------------------------------------------------------
// Optimal — native execution. Every hook is the default no-op; recovery is
// whatever the NVM array happens to hold.
class OptimalDomain final : public PersistenceDomain {
 public:
  OptimalDomain() : PersistenceDomain(Policy{}) {}
  std::string_view name() const override { return "optimal"; }
  recovery::WordImage recover(
      const recovery::DurableState& durable) const override {
    return recovery::recover_none(durable);
  }
};

// ---------------------------------------------------------------------------
// SP — software persistence. The mechanism lives entirely in the trace
// (WAL + clwb/sfence/pcommit emitted by the SP transform, requested via
// policy().software_logging); the core needs no hooks. Recovery redo-replays
// the per-core logs.
class SpDomain : public PersistenceDomain {
 public:
  explicit SpDomain(Policy p) : PersistenceDomain(p) {}
  std::string_view name() const override { return "sp"; }

  check::CheckerRules checker_rules() const override {
    check::CheckerRules r;
    // Fig. 2b ordering: a transactional data word may become durable only
    // after its (address, value) log record is durable. The System masks
    // this when running the deliberate sp_ordered=false negative control.
    r.log_before_data = true;
    return r;
  }

  CrashProfile crash_profile() const override {
    CrashProfile p;
    // The WAL window: every word turning durable (log or data) and every
    // commit mark is a boundary where the redo-replay must still produce a
    // whole-transaction prefix.
    p.hazard_mask = check::event_bit(check::EventKind::kNvmDurable) |
                    check::event_bit(check::EventKind::kTxCommitted);
    p.expect_consistent = true;
    return p;
  }

  recovery::WordImage recover(
      const recovery::DurableState& durable) const override {
    return recovery::recover_sp(durable, wiring().cfg->address_space,
                                wiring().cfg->cores);
  }

  static Policy make_policy() {
    Policy p;
    p.software_logging = true;
    p.needs_recovery_images = true;
    return p;
  }
};

class SpAdrDomain final : public SpDomain {
 public:
  SpAdrDomain() : SpDomain(make_policy()) {}
  std::string_view name() const override { return "sp-adr"; }

  static Policy make_policy() {
    Policy p = SpDomain::make_policy();
    p.adr_domain = true;
    return p;
  }
};

// ---------------------------------------------------------------------------
// Kiln — nonvolatile LLC, blocking flush-on-commit. The domain tracks the
// per-core count of in-tx stores still in the store buffer (TX_END may only
// fire the commit engine once they all reached the L1) and gates loads
// while the engine's flush occupies the cache ports.
class KilnDomain final : public PersistenceDomain {
 public:
  KilnDomain() : PersistenceDomain(make_policy()) {}
  std::string_view name() const override { return "kiln"; }

  check::CheckerRules checker_rules() const override {
    check::CheckerRules r;
    r.kiln_flush_complete = true;
    return r;
  }

  CrashProfile crash_profile() const override {
    CrashProfile p;
    // The commit window (start / per-line flush / done) plus payload
    // durability: a crash mid-flush must still recover to the pre-tx image.
    p.hazard_mask = check::event_bit(check::EventKind::kKilnCommitStart) |
                    check::event_bit(check::EventKind::kKilnFlushLine) |
                    check::event_bit(check::EventKind::kKilnCommitDone) |
                    check::event_bit(check::EventKind::kNvmDurable) |
                    check::event_bit(check::EventKind::kTxCommitted);
    p.expect_consistent = true;
    return p;
  }

  void bind(const DomainWiring& wiring) override {
    NTC_ASSERT(wiring.kiln != nullptr,
               "Kiln mechanism requires a commit engine");
    PersistenceDomain::bind(wiring);
    pending_.assign(wiring.cfg->cores, 0);
  }

  core::PersistCoreTraits core_traits() const override {
    core::PersistCoreTraits t;
    t.observes_tx_stores = true;
    t.may_block_loads = true;
    return t;
  }

  // An in-flight commit flush occupies this core's cache ports ("blocks
  // subsequent cache and memory requests", §5.2) — no new loads issue
  // until the flush into the NV-LLC completes.
  bool loads_blocked(CoreId core) const override {
    return !wiring().kiln->commit_done(core);
  }

  void on_tx_begin(CoreId core, TxId tx) override {
    pending_[core] = 0;
    wiring().kiln->begin_tx(core, tx);
  }

  void on_store_retired(CoreId core, TxId /*tx*/) override {
    ++pending_[core];
  }

  void on_store_drained(Cycle now, CoreId core, Addr addr, Word value,
                        TxId tx) override {
    wiring().kiln->on_store(now, core, addr, value, tx);
    if (pending_[core] > 0) --pending_[core];
  }

  core::TxEndResult on_tx_end(Cycle now, CoreId core, TxId tx) override {
    if (pending_[core] > 0) return core::TxEndResult::kStallDrain;
    // Commits are serialized per core: the flush of the previous
    // transaction must have completed before this one may start; the
    // flush itself runs in the background.
    if (!wiring().kiln->commit_done(core)) {
      return core::TxEndResult::kStallFlush;
    }
    wiring().kiln->begin_commit(now, core, tx);
    return core::TxEndResult::kCommitted;
  }

  recovery::WordImage recover(
      const recovery::DurableState& durable) const override {
    return recovery::recover_kiln(durable);
  }

  static Policy make_policy() {
    Policy p;
    p.llc_nonvolatile = true;
    p.flush_on_commit = true;
    p.needs_recovery_images = true;
    return p;
  }

 private:
  std::vector<unsigned> pending_;  ///< In-tx stores still in the SB, per core.
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry.

const DomainRegistry& DomainRegistry::instance() {
  return instance_for_registration();
}

DomainRegistry& DomainRegistry::instance_for_registration() {
  static DomainRegistry registry = [] {
    DomainRegistry r;
    // Built-in ids are the enum constants; matrix_rank is the paper's
    // figure column order (SP, TC, Kiln, Optimal).
    r.add({Mechanism::kOptimal, "optimal", "Optimal",
           "native execution, no persistence guarantee", {"native"}, 3,
           Policy{}, [] { return std::make_unique<OptimalDomain>(); }});
    r.add({Mechanism::kSp, "sp", "SP",
           "software persistence: WAL + clwb/sfence/pcommit", {}, 0,
           SpDomain::make_policy(),
           [] { return std::make_unique<SpDomain>(SpDomain::make_policy()); }});
    r.add({Mechanism::kTc, "tc", "TC",
           "this paper: per-core nonvolatile transaction cache", {}, 1,
           TcDomain::make_policy(),
           [] { return std::make_unique<TcDomain>(); }});
    r.add({Mechanism::kKiln, "kiln", "Kiln",
           "nonvolatile LLC, blocking flush-on-commit [Zhao+ MICRO'13]", {},
           2, KilnDomain::make_policy(),
           [] { return std::make_unique<KilnDomain>(); }});
    r.add({Mechanism::kSpAdr, "sp-adr", "SP-ADR",
           "SP on an ADR platform (pcommit-free ordering)", {"spadr"}, -1,
           SpAdrDomain::make_policy(),
           [] { return std::make_unique<SpAdrDomain>(); }});
    register_tc_nodrain(r);
    return r;
  }();
  return registry;
}

DomainRegistry::DomainRegistry() = default;

Mechanism DomainRegistry::add(DomainInfo info) {
  NTC_ASSERT(static_cast<bool>(info.make),
             "domain registration needs a factory");
  NTC_ASSERT(!info.name.empty(), "domain registration needs a name");
  if (info.id == kAutoMechanismId) {
    info.id = static_cast<Mechanism>(next_dynamic_++);
  }
  const int id = static_cast<int>(info.id);
  NTC_ASSERT(by_id_.find(id) == by_id_.end(), "duplicate mechanism id");
  const Mechanism out = info.id;
  std::vector<std::string> keys{lower(info.name)};
  for (const std::string& a : info.aliases) keys.push_back(lower(a));
  for (std::string& k : keys) {
    NTC_ASSERT(by_name_.emplace(std::move(k), out).second,
               "duplicate mechanism name");
  }
  by_id_.emplace(id, std::move(info));
  return out;
}

const DomainInfo* DomainRegistry::find(std::string_view name) const {
  const auto it = by_name_.find(lower(name));
  if (it == by_name_.end()) return nullptr;
  return &by_id_.at(static_cast<int>(it->second));
}

bool DomainRegistry::parse(std::string_view name, Mechanism& out) const {
  const DomainInfo* info = find(name);
  if (info == nullptr) return false;
  out = info->id;
  return true;
}

const DomainInfo& DomainRegistry::info(Mechanism m) const {
  const auto it = by_id_.find(static_cast<int>(m));
  NTC_ASSERT(it != by_id_.end(), "unregistered mechanism id");
  return it->second;
}

std::string_view DomainRegistry::display_name(Mechanism m) const {
  return info(m).display;
}

std::unique_ptr<PersistenceDomain> DomainRegistry::create(Mechanism m) const {
  return info(m).make();
}

std::vector<Mechanism> DomainRegistry::all() const {
  std::vector<Mechanism> out;
  out.reserve(by_id_.size());
  for (const auto& [id, info] : by_id_) out.push_back(info.id);
  return out;
}

std::vector<Mechanism> DomainRegistry::matrix_mechanisms() const {
  std::vector<std::pair<int, Mechanism>> ranked;
  for (const auto& [id, info] : by_id_) {
    if (info.matrix_rank >= 0) ranked.emplace_back(info.matrix_rank, info.id);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Mechanism> out;
  out.reserve(ranked.size());
  for (const auto& [rank, m] : ranked) out.push_back(m);
  return out;
}

std::string DomainRegistry::known_names() const {
  std::string out;
  for (const auto& [id, info] : by_id_) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

}  // namespace ntcsim::persist
