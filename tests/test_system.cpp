// End-to-end mechanism behaviour: the qualitative claims of §5 must hold on
// small runs — performance ordering, write-traffic ordering, the TC
// invariants (no demand writes to NVM, near-zero stalls).
#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/experiment.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {
namespace {

SystemConfig small_cfg(Mechanism mech) {
  SystemConfig c = SystemConfig::paper();
  c.cores = 1;
  c.llc = CacheConfig{256ULL << 10, 16, 20, 32, 16};
  c.mechanism = mech;
  return c;
}

workload::WorkloadParams small_wl(WorkloadKind kind) {
  workload::WorkloadParams p = workload::default_params(kind);
  p.setup_elems = 2000;
  p.ops = 400;
  p.seed = 3;
  return p;
}

Metrics run_small(Mechanism mech, WorkloadKind kind) {
  const SystemConfig cfg = small_cfg(mech);
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  workload::TraceBundle b =
      workload::generate_phased(small_wl(kind), 0, heap, nullptr);
  System sys(cfg);
  sys.load_trace(0, std::move(b.setup));
  sys.run();
  sys.reset_stats();
  sys.load_trace(0, std::move(b.measured));
  sys.run();
  EXPECT_TRUE(sys.finished());
  return sys.metrics();
}

class MechTest : public ::testing::TestWithParam<WorkloadKind> {
 protected:
  std::map<Mechanism, Metrics> all() {
    std::map<Mechanism, Metrics> m;
    // Registry-driven: registered extensions (e.g. tc-nodrain) are
    // exercised here for free and must also commit every transaction.
    for (Mechanism mech : matrix_mechanisms()) {
      m[mech] = run_small(mech, GetParam());
    }
    return m;
  }
};

TEST_P(MechTest, AllMechanismsCommitTheSameTransactions) {
  const auto m = all();
  const auto txs = m.at(Mechanism::kOptimal).committed_txs;
  ASSERT_EQ(txs, small_wl(GetParam()).ops);  // measured phase only
  for (const auto& [mech, metrics] : m) {
    EXPECT_EQ(metrics.committed_txs, txs) << mechanism_label(mech);
  }
}

TEST_P(MechTest, PerformanceOrderingMatchesPaper) {
  const auto m = all();
  const double opt = m.at(Mechanism::kOptimal).tx_per_kilocycle;
  const double tc = m.at(Mechanism::kTc).tx_per_kilocycle;
  const double kiln = m.at(Mechanism::kKiln).tx_per_kilocycle;
  const double sp = m.at(Mechanism::kSp).tx_per_kilocycle;
  // Fig. 6/7 shape: Optimal >= TC > Kiln > SP.
  EXPECT_GT(tc, kiln) << "TC must beat Kiln";
  EXPECT_GT(kiln, sp) << "Kiln must beat SP";
  EXPECT_GE(opt * 1.001, tc) << "nothing beats native execution materially";
  EXPECT_GT(tc, 0.90 * opt) << "TC must be close to Optimal";
  EXPECT_LT(sp, 0.75 * opt) << "SP must pay a large penalty";
}

TEST_P(MechTest, WriteTrafficOrderingMatchesPaper) {
  const auto m = all();
  // Fig. 9 shape: SP writes the most (log + data), TC more than Kiln
  // (every commit goes to NVM vs. coalescing in the NV-LLC).
  EXPECT_GT(m.at(Mechanism::kSp).nvm_writes, m.at(Mechanism::kTc).nvm_writes);
  EXPECT_GE(m.at(Mechanism::kTc).nvm_writes, m.at(Mechanism::kKiln).nvm_writes);
  EXPECT_GE(m.at(Mechanism::kKiln).nvm_writes,
            m.at(Mechanism::kOptimal).nvm_writes);
}

TEST_P(MechTest, TcNvmWritesComeOnlyFromTheNtc) {
  const SystemConfig cfg = small_cfg(Mechanism::kTc);
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  System sys(cfg);
  sys.load_trace(0, workload::generate(small_wl(GetParam()), 0, heap, nullptr));
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("nvm.writes.demand"), 0u);
  EXPECT_EQ(sys.stats().counter_value("nvm.writes.log"), 0u);
  EXPECT_GT(sys.stats().counter_value("nvm.writes.txcache"), 0u);
}

TEST_P(MechTest, CheckerFindsNoViolationsInHealthyMechanisms) {
  // The --check path on the paper-shaped config: every matrix mechanism
  // must satisfy its own declared ordering invariants end to end.
  for (Mechanism mech : matrix_mechanisms()) {
    SystemConfig cfg = small_cfg(mech);
    cfg.check = CheckMode::kCollect;
    workload::SimHeap heap(cfg.address_space, cfg.cores);
    System sys(cfg);
    sys.load_trace(0,
                   workload::generate(small_wl(GetParam()), 0, heap, nullptr));
    sys.run();
    EXPECT_EQ(sys.metrics().check_violations, 0u) << mechanism_label(mech);
    if (sys.checker() != nullptr) {
      EXPECT_TRUE(sys.checker()->rules().any());
    }
  }
}

TEST_P(MechTest, KilnLoadLatencyIsWorst) {
  const auto m = all();
  const double opt = m.at(Mechanism::kOptimal).pload_latency;
  if (opt < 2.0) {
    // Degenerate single-core case: the working set fits the private caches
    // and every persistent load forwards or hits the L1 under every
    // mechanism — there is no latency to elevate.
    GTEST_SKIP() << "all-hit workload; Fig. 10 needs LLC/NVM traffic";
  }
  EXPECT_GE(m.at(Mechanism::kKiln).pload_latency,
            m.at(Mechanism::kTc).pload_latency);
  EXPECT_GT(m.at(Mechanism::kKiln).pload_latency, opt);
}

INSTANTIATE_TEST_SUITE_P(Workloads, MechTest,
                         ::testing::Values(WorkloadKind::kSps,
                                           WorkloadKind::kHashtable,
                                           WorkloadKind::kRbtree),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SystemMultiCore, FourCoresRunIndependentWorkloads) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.llc = CacheConfig{512ULL << 10, 16, 20, 32, 16};
  cfg.mechanism = Mechanism::kTc;
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  System sys(cfg);
  workload::WorkloadParams p = small_wl(WorkloadKind::kHashtable);
  for (CoreId c = 0; c < cfg.cores; ++c) {
    sys.load_trace(c, workload::generate(p, c, heap, nullptr));
  }
  sys.run();
  EXPECT_TRUE(sys.finished());
  const auto m = sys.metrics();
  EXPECT_EQ(m.committed_txs, 4 * sys.core(0).committed_txs());
  for (CoreId c = 0; c < cfg.cores; ++c) {
    EXPECT_GT(sys.stats().counter_value("ntc" + std::to_string(c) + ".writes"),
              0u);
  }
}

TEST(SystemMultiCore, SharedLlcSeesAllCores) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.mechanism = Mechanism::kOptimal;
  cfg.llc = CacheConfig{512ULL << 10, 16, 20, 32, 16};
  workload::SimHeap heap(cfg.address_space, cfg.cores);
  System sys(cfg);
  workload::WorkloadParams p = small_wl(WorkloadKind::kSps);
  for (CoreId c = 0; c < cfg.cores; ++c) {
    sys.load_trace(c, workload::generate(p, c, heap, nullptr));
  }
  sys.run();
  EXPECT_GT(sys.stats().counter_value("llc.misses"), 0u);
}

TEST(SystemMultiCore, MoreCoresThanTheReservedRegionsAbort) {
  // A config built in code skips the `cores` key's bound; the node refuses
  // it rather than place core 16's shadow region past the end of NVM.
  SystemConfig cfg = SystemConfig::tiny();
  cfg.cores = AddressSpace::kMaxCores + 1;
  EXPECT_DEATH({ System sys(cfg); }, "cores outside");
}

TEST(ExperimentHarness, RunCellProducesSaneMetrics) {
  SystemConfig cfg = SystemConfig::experiment();
  cfg.cores = 2;
  ExperimentOptions opts;
  opts.scale = 0.05;
  const Metrics m = run_cell(Mechanism::kTc, WorkloadKind::kSps, cfg, opts);
  EXPECT_GT(m.cycles, 0u);
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_GT(m.committed_txs, 0u);
}

TEST(ExperimentHarness, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometric_mean({8.0}), 8.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
}

}  // namespace
}  // namespace ntcsim::sim
