// The pluggable persistence-domain layer: registry identity round-trips,
// per-domain Policy tables, recovery dispatch equivalence against the
// mechanism-specific recovery procedures, dynamic (registry-only)
// registration, and the TC-NODRAIN extension's semantics.
#include "persist/domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "recovery/recovery.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::persist {
namespace {

void expect_policy_eq(const Policy& a, const Policy& b,
                      const std::string& what) {
  EXPECT_EQ(a.route_stores_to_ntc, b.route_stores_to_ntc) << what;
  EXPECT_EQ(a.drop_persistent_llc_writeback, b.drop_persistent_llc_writeback)
      << what;
  EXPECT_EQ(a.probe_ntc_on_llc_miss, b.probe_ntc_on_llc_miss) << what;
  EXPECT_EQ(a.llc_nonvolatile, b.llc_nonvolatile) << what;
  EXPECT_EQ(a.flush_on_commit, b.flush_on_commit) << what;
  EXPECT_EQ(a.software_logging, b.software_logging) << what;
  EXPECT_EQ(a.adr_domain, b.adr_domain) << what;
  EXPECT_EQ(a.needs_recovery_images, b.needs_recovery_images) << what;
}

TEST(DomainRegistry, BuiltinsKeepTheirEnumIds) {
  const DomainRegistry& r = DomainRegistry::instance();
  EXPECT_EQ(r.info(Mechanism::kOptimal).name, "optimal");
  EXPECT_EQ(r.info(Mechanism::kSp).name, "sp");
  EXPECT_EQ(r.info(Mechanism::kTc).name, "tc");
  EXPECT_EQ(r.info(Mechanism::kKiln).name, "kiln");
  EXPECT_EQ(r.info(Mechanism::kSpAdr).name, "sp-adr");
}

TEST(DomainRegistry, NameToDomainToNameRoundTrips) {
  const DomainRegistry& r = DomainRegistry::instance();
  for (Mechanism m : r.all()) {
    const DomainInfo& info = r.info(m);
    Mechanism parsed{};
    ASSERT_TRUE(r.parse(info.name, parsed)) << info.name;
    EXPECT_EQ(parsed, m) << info.name;
    const std::unique_ptr<PersistenceDomain> domain = r.create(m);
    ASSERT_NE(domain, nullptr) << info.name;
    EXPECT_EQ(domain->name(), info.name);
    expect_policy_eq(domain->policy(), info.policy, info.name);
    for (const std::string& alias : info.aliases) {
      ASSERT_TRUE(r.parse(alias, parsed)) << alias;
      EXPECT_EQ(parsed, m) << alias;
    }
  }
  // Lookup is case-insensitive; unknown names fail without touching `out`.
  Mechanism parsed = Mechanism::kKiln;
  ASSERT_TRUE(r.parse("TC", parsed));
  EXPECT_EQ(parsed, Mechanism::kTc);
  parsed = Mechanism::kKiln;
  EXPECT_FALSE(r.parse("maglev", parsed));
  EXPECT_EQ(parsed, Mechanism::kKiln);
}

TEST(DomainRegistry, PoliciesMatchTheLegacyTable) {
  // The pre-registry policy_for() switch, restated literally: these flags
  // are the audited per-mechanism deltas of the paper and must not drift
  // when a domain's constructor changes.
  Policy optimal;  // all false

  Policy sp;
  sp.software_logging = true;
  sp.needs_recovery_images = true;

  Policy sp_adr = sp;
  sp_adr.adr_domain = true;

  Policy tc;
  tc.route_stores_to_ntc = true;
  tc.drop_persistent_llc_writeback = true;
  tc.probe_ntc_on_llc_miss = true;
  tc.needs_recovery_images = true;

  Policy kiln;
  kiln.llc_nonvolatile = true;
  kiln.flush_on_commit = true;
  kiln.needs_recovery_images = true;

  expect_policy_eq(policy_for(Mechanism::kOptimal), optimal, "optimal");
  expect_policy_eq(policy_for(Mechanism::kSp), sp, "sp");
  expect_policy_eq(policy_for(Mechanism::kSpAdr), sp_adr, "sp-adr");
  expect_policy_eq(policy_for(Mechanism::kTc), tc, "tc");
  expect_policy_eq(policy_for(Mechanism::kKiln), kiln, "kiln");

  // TC-NODRAIN is TC's policy: same machinery, different commit timing.
  const DomainInfo* nodrain = DomainRegistry::instance().find("tc-nodrain");
  ASSERT_NE(nodrain, nullptr);
  expect_policy_eq(nodrain->policy, tc, "tc-nodrain");
}

TEST(DomainRegistry, MatrixColumnsAreTheFigureOrderPlusExtensions) {
  const DomainRegistry& r = DomainRegistry::instance();
  const std::vector<Mechanism> m = r.matrix_mechanisms();
  ASSERT_GE(m.size(), 5u);
  EXPECT_EQ(m[0], Mechanism::kSp);
  EXPECT_EQ(m[1], Mechanism::kTc);
  EXPECT_EQ(m[2], Mechanism::kKiln);
  EXPECT_EQ(m[3], Mechanism::kOptimal);
  EXPECT_EQ(r.info(m[4]).name, "tc-nodrain");
  // SP-ADR stays an opt-in extension, outside the default matrix.
  for (Mechanism mech : m) EXPECT_NE(mech, Mechanism::kSpAdr);
}

TEST(DomainRegistry, DynamicRegistrationAssignsIdsPastTheBuiltins) {
  class NullDomain final : public PersistenceDomain {
   public:
    NullDomain() : PersistenceDomain(Policy{}) {}
    std::string_view name() const override { return "null"; }
    recovery::WordImage recover(
        const recovery::DurableState& durable) const override {
      return recovery::recover_none(durable);
    }
  };
  DomainRegistry r;  // private registry; instance() stays untouched
  DomainInfo info;
  info.name = "null";
  info.display = "Null";
  info.aliases = {"nil"};
  info.make = [] { return std::make_unique<NullDomain>(); };
  const Mechanism id = r.add(std::move(info));
  EXPECT_GE(static_cast<int>(id), kNumBuiltinMechanisms);
  Mechanism parsed{};
  ASSERT_TRUE(r.parse("NIL", parsed));
  EXPECT_EQ(parsed, id);
  EXPECT_EQ(r.create(id)->name(), "null");
  EXPECT_TRUE(r.matrix_mechanisms().empty());  // default rank is -1
}

// ---------------------------------------------------------------------------
// Whole-system checks on a seeded workload.

/// Run `mech_name` on the seeded workload for `cycles` cycles of the
/// measured phase (0 = to completion) and return the system.
std::unique_ptr<sim::System> run_seeded(const std::string& mech_name,
                                        Cycle cycles = 0) {
  SystemConfig cfg = SystemConfig::tiny();
  Mechanism mech{};
  EXPECT_TRUE(DomainRegistry::instance().parse(mech_name, mech));
  cfg.mechanism = mech;
  cfg.track_recovery_state = true;
  workload::WorkloadParams p =
      workload::default_params(WorkloadKind::kHashtable);
  p.setup_elems = 300;
  p.ops = 200;
  p.seed = 7;
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  workload::TraceBundle b = workload::generate_phased(p, 0, heap, nullptr);
  auto sys = std::make_unique<sim::System>(cfg);
  sys->load_trace(0, std::move(b.setup));
  sys->run();
  sys->reset_stats();
  sys->load_trace(0, std::move(b.measured));
  if (cycles == 0) {
    sys->run();
  } else {
    sys->run_for(cycles);
  }
  return sys;
}

std::vector<std::pair<Addr, Word>> flatten(const recovery::WordImage& img) {
  std::vector<std::pair<Addr, Word>> v;
  img.for_each([&v](Addr a, Word w) { v.emplace_back(a, w); });
  std::sort(v.begin(), v.end());
  return v;
}

/// The application's durable state: heap words only, without the reserved
/// log/shadow scratch regions (their raw bytes depend on spill timing,
/// which legitimately differs across mechanisms).
std::vector<std::pair<Addr, Word>> heap_words(const recovery::WordImage& img,
                                              const AddressSpace& space) {
  std::vector<std::pair<Addr, Word>> v = flatten(img);
  std::erase_if(v, [&space](const std::pair<Addr, Word>& w) {
    return w.first >= space.heap_base() + space.heap_bytes();
  });
  return v;
}

TEST(DomainRecovery, DispatchMatchesTheMechanismProcedures) {
  // Crash mid-measured-phase: the domain's recover() must be the exact
  // mechanism procedure, fed the exact crash-time state.
  {
    auto sys = run_seeded("optimal", 5000);
    EXPECT_EQ(flatten(sys->crash_and_recover()),
              flatten(recovery::recover_none(*sys->durable())));
  }
  for (const char* name : {"sp", "sp-adr"}) {
    auto sys = run_seeded(name, 5000);
    EXPECT_EQ(flatten(sys->crash_and_recover()),
              flatten(recovery::recover_sp(*sys->durable(),
                                           sys->config().address_space,
                                           sys->config().cores)))
        << name;
  }
  for (const char* name : {"tc", "tc-nodrain"}) {
    auto sys = run_seeded(name, 5000);
    std::vector<recovery::NtcSnapshot> snaps;
    for (CoreId c = 0; c < sys->config().cores; ++c) {
      snaps.push_back(sys->node(0).ntc(c)->snapshot());
    }
    EXPECT_EQ(flatten(sys->crash_and_recover()),
              flatten(recovery::recover_tc(*sys->durable(), snaps)))
        << name;
  }
  {
    auto sys = run_seeded("kiln", 5000);
    EXPECT_EQ(flatten(sys->crash_and_recover()),
              flatten(recovery::recover_kiln(*sys->durable())));
  }
}

TEST(TcNodrain, CommitLatencyNoWorseThanTc) {
  auto tc = run_seeded("tc");
  auto nodrain = run_seeded("tc-nodrain");
  const sim::Metrics mt = tc->metrics();
  const sim::Metrics mn = nodrain->metrics();
  // Same work commits under both...
  EXPECT_EQ(mn.committed_txs, mt.committed_txs);
  EXPECT_EQ(mn.retired_uops, mt.retired_uops);
  // ...but TX_END never stalls on store-buffer drain, so the measured
  // phase cannot be longer than TC's.
  EXPECT_LE(mn.cycles, mt.cycles);
  EXPECT_EQ(nodrain->stats().counter_value("core0.stall.txend_drain"), 0u);
}

TEST(TcNodrain, RecoversTheSameImageAsTcAfterACompleteRun) {
  // After full completion (every store drained, every commit issued) the
  // lazy commit path must leave exactly the application image TC leaves.
  // Compared over the persistent heap: the shadow scratch region's raw
  // bytes differ because the two mechanisms spill at different cycles.
  auto tc = run_seeded("tc");
  auto nodrain = run_seeded("tc-nodrain");
  ASSERT_TRUE(tc->finished());
  ASSERT_TRUE(nodrain->finished());
  const AddressSpace& space = tc->config().address_space;
  EXPECT_EQ(heap_words(nodrain->crash_and_recover(), space),
            heap_words(tc->crash_and_recover(), space));
}

}  // namespace
}  // namespace ntcsim::persist
