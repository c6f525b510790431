// Crash-injection property tests: TC/SP/Kiln must be atomically consistent
// at EVERY crash point; Optimal (no persistence support) and the unordered
// SP variant of Fig. 2(c) are the negative controls. These suites are thin
// wrappers over the fault-injection campaign engine (src/faultsim/), which
// plans hazard-guided crash points per cell instead of blind cycle
// stepping; the engine itself is unit-tested in test_faultsim.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "faultsim/campaign.hpp"
#include "recovery/recovery.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {
namespace {

using faultsim::CellResult;
using faultsim::CellSpec;
using faultsim::CellStatus;

SystemConfig crash_cfg(Mechanism mech) {
  // Single core with very small caches so evictions (the crash hazard for
  // software schemes) happen constantly. The campaign multiplies
  // crash.setup by 7 for sps, so the structure footprint exceeds the tiny
  // 4 KB LLC and dirty evictions actually happen.
  SystemConfig c = SystemConfig::tiny();
  c.mechanism = mech;
  c.ntc.size_bytes = 1 << 10;  // 16 entries: overflow path gets exercised too
  c.crash.points = 16;
  c.crash.ops = 150;
  c.crash.setup = 300;
  return c;
}

CellResult run_one(const SystemConfig& cfg, Mechanism mech, WorkloadKind wl,
                   std::uint64_t seed, bool sp_ordered = true,
                   bool expect_consistent = true) {
  CellSpec spec;
  spec.mech = mech;
  spec.wl = wl;
  spec.seed = seed;
  spec.sp_ordered = sp_ordered;
  spec.expect_consistent = expect_consistent;
  spec.variant = std::string(to_string(mech));
  return faultsim::run_cell(cfg, spec, {});
}

using Case = std::tuple<Mechanism, WorkloadKind>;

class CrashConsistency : public ::testing::TestWithParam<Case> {};

TEST_P(CrashConsistency, AtomicAtEveryCrashPoint) {
  const auto [mech, wl] = GetParam();
  const SystemConfig cfg = crash_cfg(mech);
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const CellResult r = run_one(cfg, mech, wl, seed);
    EXPECT_GT(r.checks, 5u) << "sweep too short to be meaningful";
    EXPECT_EQ(r.status, CellStatus::kPass)
        << to_string(mech) << "/" << to_string(wl) << " seed " << seed
        << ": " << r.violations << " violations, first at cycle "
        << r.first_violation_cycle << ": " << r.first_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, CrashConsistency,
    ::testing::Combine(::testing::Values(Mechanism::kTc, Mechanism::kSp,
                                         Mechanism::kKiln, Mechanism::kSpAdr),
                       ::testing::Values(WorkloadKind::kSps,
                                         WorkloadKind::kHashtable,
                                         WorkloadKind::kRbtree,
                                         WorkloadKind::kBtree,
                                         WorkloadKind::kGraph,
                                         WorkloadKind::kQueue,
                                         WorkloadKind::kSkiplist)),
    [](const auto& p) {
      std::string name = std::string(to_string(std::get<0>(p.param))) +
                         "_" +
                         std::string(to_string(std::get<1>(p.param)));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(CrashNegativeControl, OptimalLosesAtomicity) {
  // Without persistence support, some crash point must expose a partially
  // durable transaction (Fig. 2a): that is the paper's motivation.
  const SystemConfig cfg = crash_cfg(Mechanism::kOptimal);
  std::size_t total_violations = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const CellResult r = run_one(cfg, Mechanism::kOptimal, WorkloadKind::kSps,
                                 seed, /*sp_ordered=*/true,
                                 /*expect_consistent=*/false);
    EXPECT_NE(r.status, CellStatus::kFail);
    total_violations += r.violations;
  }
  EXPECT_GT(total_violations, 0u)
      << "native execution accidentally looked crash-consistent; the "
         "negative control lost its teeth";
}

TEST(CrashNegativeControl, UnorderedSpLosesAtomicity) {
  // Fig. 2(c): logging without write-order control is unrecoverable.
  const SystemConfig cfg = crash_cfg(Mechanism::kSp);
  std::size_t total_violations = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const CellResult r =
        run_one(cfg, Mechanism::kSp, WorkloadKind::kSps, seed,
                /*sp_ordered=*/false, /*expect_consistent=*/false);
    EXPECT_NE(r.status, CellStatus::kFail);
    total_violations += r.violations;
  }
  EXPECT_GT(total_violations, 0u);
}

class TcCapacityCrash : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcCapacityCrash, ConsistencyHoldsAtEveryCapacity) {
  // The overflow fall-back (hardware copy-on-write) must be as crash-safe
  // as the ring itself: sweep NTC sizes from pathological to paper-default.
  SystemConfig cfg = crash_cfg(Mechanism::kTc);
  cfg.ntc.size_bytes = GetParam();
  const CellResult r = run_one(cfg, Mechanism::kTc, WorkloadKind::kSps, 5);
  EXPECT_EQ(r.status, CellStatus::kPass)
      << "NTC size " << GetParam() << " B broke crash atomicity: "
      << r.first_violation;
  EXPECT_GT(r.checks, 5u);
}

INSTANTIATE_TEST_SUITE_P(NtcSizes, TcCapacityCrash,
                         ::testing::Values(256, 512, 1024, 4096),
                         [](const auto& p) {
                           return std::to_string(p.param) + "B";
                         });

// The drained-final-state checks keep driving System directly: they assert
// the durable transaction *prefix* covers the whole journal, which is a
// stronger property than the campaign's consistency verdict.

struct CrashRun {
  recovery::Journal journal{1};
  std::unique_ptr<System> sys;
};

CrashRun make_run(Mechanism mech, WorkloadKind wl, std::uint64_t seed) {
  CrashRun run;
  SystemConfig cfg = crash_cfg(mech);
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  workload::WorkloadParams p = workload::default_params(wl);
  p.setup_elems = wl == WorkloadKind::kSps ? 2000 : 300;
  p.ops = 200;
  p.seed = seed;
  run.sys = std::make_unique<System>(cfg);
  run.sys->load_trace(0, workload::generate(p, 0, heap, &run.journal));
  return run;
}

TEST(CrashRecovery, TcFinalStateEqualsFullReplay) {
  CrashRun run = make_run(Mechanism::kTc, WorkloadKind::kSps, 9);
  run.sys->run();
  const recovery::WordImage img = run.sys->crash_and_recover();
  const auto report = recovery::check_atomicity(img, run.journal);
  ASSERT_TRUE(report.consistent) << report.violation;
  // After a drained run, EVERY transaction is durable.
  EXPECT_EQ(report.durable_tx_prefix[0], run.journal.per_core(0).size());
}

TEST(CrashRecovery, SpFinalStateEqualsFullReplay) {
  CrashRun run = make_run(Mechanism::kSp, WorkloadKind::kHashtable, 9);
  run.sys->run();
  const auto report =
      recovery::check_atomicity(run.sys->crash_and_recover(), run.journal);
  ASSERT_TRUE(report.consistent) << report.violation;
  EXPECT_EQ(report.durable_tx_prefix[0], run.journal.per_core(0).size());
}

TEST(CrashRecovery, KilnFinalStateEqualsFullReplay) {
  CrashRun run = make_run(Mechanism::kKiln, WorkloadKind::kRbtree, 9);
  run.sys->run();
  const auto report =
      recovery::check_atomicity(run.sys->crash_and_recover(), run.journal);
  ASSERT_TRUE(report.consistent) << report.violation;
  EXPECT_EQ(report.durable_tx_prefix[0], run.journal.per_core(0).size());
}

TEST(CrashRecovery, MultiCoreTcConsistency) {
  // The campaign generates one trace per configured core, so a two-core
  // cell exercises cross-core NTC draining under hazard-guided crashes.
  SystemConfig cfg = crash_cfg(Mechanism::kTc);
  cfg.cores = 2;
  cfg.crash.setup = 18;  // ~120 sps elements, split across two cores
  const CellResult r = run_one(cfg, Mechanism::kTc, WorkloadKind::kSps, 1);
  EXPECT_EQ(r.status, CellStatus::kPass) << r.first_violation;
  EXPECT_GT(r.checks, 5u);
}

}  // namespace
}  // namespace ntcsim::sim
