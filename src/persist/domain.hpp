// Pluggable persistence-domain layer.
//
// The paper's thesis is that persistence mechanisms differ only in *where*
// the persistence responsibility lives — the cache hierarchy operation
// stays untouched. A PersistenceDomain is that responsibility as a
// strategy object: one class per mechanism bundles
//
//   * the Policy flags (what generic machinery the System must wire up:
//     NTCs, a Kiln commit engine, the SP trace transform, ADR, write-back
//     disposition at the LLC),
//   * the core-side hooks (store routing, commit-drain gating, TX_BEGIN /
//     TX_END behaviour — see core/persist_hooks.hpp),
//   * the recovery procedure (crash snapshot + recover), and
//   * any per-domain statistics.
//
// Domains are looked up through the name-keyed DomainRegistry; the config
// parser, the CLI (--mechanism / --list-mechanisms) and the experiment
// matrix all enumerate the registry instead of hard-coded mechanism lists,
// so a new mechanism is one file in src/persist/ plus one registration
// line — no edits to core/, cache/, sim/ or mem/ (tc_nodrain.cpp is the
// proof).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/events.hpp"
#include "check/rules.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/persist_hooks.hpp"
#include "persist/policy.hpp"
#include "recovery/images.hpp"

namespace ntcsim::txcache {
class TxCache;
}

namespace ntcsim::persist {

class KilnUnit;    // kiln_unit.hpp
struct SpOptions;  // sp_transform.hpp

/// Everything a domain may bind to, handed over by the System after it has
/// built the generic machinery the domain's Policy asked for. Pointers are
/// non-owning and outlive the domain.
struct DomainWiring {
  const NodeConfig* cfg = nullptr;
  /// One per core when policy().route_stores_to_ntc, else empty.
  std::vector<txcache::TxCache*> ntcs;
  /// The Kiln commit engine when policy().flush_on_commit, else null.
  KilnUnit* kiln = nullptr;
  /// Per-domain statistics registration.
  StatSet* stats = nullptr;
};

/// What the fault-injection campaign (src/faultsim/) needs to know about a
/// mechanism: which CheckSink event kinds are crash *hazards* — transitions
/// after which a power failure could plausibly expose a half-persisted
/// state — and whether recovery from an arbitrary crash point is expected
/// to satisfy the atomicity oracle at all.
struct CrashProfile {
  /// OR of check::event_bit(kind) for every hazardous EventKind. The
  /// CrashPlanner places one crash point just after each hazard event.
  std::uint32_t hazard_mask = 0;
  /// False for negative controls (Optimal): crashes are *expected* to
  /// leave inconsistent state, and the campaign accounts them as such.
  bool expect_consistent = false;
};

class PersistenceDomain : public core::PersistHooks {
 public:
  explicit PersistenceDomain(Policy policy) : policy_(policy) {}

  /// Canonical registry name (lower-case, e.g. "tc-nodrain").
  virtual std::string_view name() const = 0;

  /// What this mechanism changes, as data (see policy.hpp).
  const Policy& policy() const { return policy_; }

  /// The persistence-ordering invariants this mechanism promises, enforced
  /// online by check::PersistOrderChecker when --check is on. The default
  /// promises nothing (Optimal); each mechanism states its own rules —
  /// see check/rules.hpp for the catalogue.
  virtual check::CheckerRules checker_rules() const { return {}; }

  /// Which event kinds the fault-injection campaign should treat as crash
  /// hazards for this mechanism. The default (no hazards beyond payload
  /// durability, consistency not expected) fits Optimal; every real
  /// mechanism overrides this alongside checker_rules().
  virtual CrashProfile crash_profile() const {
    CrashProfile p;
    p.hazard_mask = check::event_bit(check::EventKind::kNvmDurable);
    p.expect_consistent = false;
    return p;
  }

  /// Called by the System before applying the SP trace transform (only for
  /// software_logging domains). Lets a domain variant tweak SpOptions —
  /// the checker's mutation tests use it to seed broken orderings.
  virtual void adjust_sp_options(SpOptions& opts) const { (void)opts; }

  /// Attach to the machinery the System built from the Policy flags.
  /// Called exactly once, before any core runs.
  virtual void bind(const DomainWiring& wiring) { wiring_ = wiring; }

  /// Power failure at the current cycle: run this mechanism's recovery
  /// procedure over what is durable and return the recovered image.
  virtual recovery::WordImage recover(
      const recovery::DurableState& durable) const = 0;

 protected:
  const DomainWiring& wiring() const { return wiring_; }

 private:
  Policy policy_;
  DomainWiring wiring_;
};

/// Leave DomainInfo::id at this sentinel to have the registry assign the
/// next free dynamic id (>= kNumBuiltinMechanisms).
inline constexpr Mechanism kAutoMechanismId = static_cast<Mechanism>(-1);

/// One registry row: identity, parse aliases, matrix membership and the
/// factory. `id` is a Mechanism value — the five paper mechanisms keep
/// their enum constants; further registrations receive ids past the enum
/// (see types.hpp, kNumBuiltinMechanisms).
struct DomainInfo {
  Mechanism id = kAutoMechanismId;
  std::string name;     ///< Canonical lower-case name ("sp-adr").
  std::string display;  ///< Figure/CSV label ("SP-ADR").
  std::string summary;  ///< One-liner for --list-mechanisms.
  std::vector<std::string> aliases;
  /// Column position in the default evaluation matrix, or -1 to keep the
  /// mechanism out of --matrix (SP-ADR stays an opt-in extension).
  int matrix_rank = -1;
  Policy policy;
  std::function<std::unique_ptr<PersistenceDomain>()> make;
};

/// Name-keyed persistence-mechanism registry. The process-wide instance()
/// registers the built-in domains (and tc-nodrain) at first use; it is
/// immutable afterwards, so concurrent sweeps may read it freely. Tests
/// that want to register toy domains construct their own registry.
class DomainRegistry {
 public:
  DomainRegistry();  ///< Starts empty (for tests).
  static const DomainRegistry& instance();
  /// Mutable view of the process-wide registry, for registering extra
  /// domains at startup (the checker's mutation tests seed deliberately
  /// broken variants with matrix_rank = -1 so --matrix never sees them).
  /// Must only be called before concurrent sweeps start reading.
  static DomainRegistry& instance_for_registration();

  /// Register a domain. Dynamic entries (info.id unset) are assigned the
  /// next free id. Returns the registered id. Names and aliases must be
  /// unique (case-insensitive).
  Mechanism add(DomainInfo info);

  /// Case-insensitive lookup by canonical name or alias.
  const DomainInfo* find(std::string_view name) const;
  bool parse(std::string_view name, Mechanism& out) const;

  const DomainInfo& info(Mechanism m) const;
  std::string_view display_name(Mechanism m) const;
  std::unique_ptr<PersistenceDomain> create(Mechanism m) const;

  /// Every registered mechanism, in id order.
  std::vector<Mechanism> all() const;
  /// The default evaluation matrix, in matrix_rank (column) order.
  std::vector<Mechanism> matrix_mechanisms() const;
  /// Canonical names in id order, comma-joined (parse-error messages,
  /// --list-mechanisms).
  std::string known_names() const;

 private:
  std::map<int, DomainInfo> by_id_;
  std::map<std::string, Mechanism> by_name_;  ///< Lower-cased name/alias.
  int next_dynamic_ = kNumBuiltinMechanisms;
};

/// Registration hook for the eADR-style battery-backed NTC variant
/// (tc_nodrain.cpp); called once from the registry bootstrap.
void register_tc_nodrain(DomainRegistry& registry);

}  // namespace ntcsim::persist
