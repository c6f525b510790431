// Golden-run regression guard: a fixed, deterministic tiny run per
// mechanism with recorded reference metrics. Timing-model changes that
// move these numbers by more than the tolerance are either intentional
// (update the goldens and say why in the commit) or a performance-model
// regression this test just caught. Functional counts (retired µops,
// transactions) are exact.
#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {
namespace {

struct Golden {
  Mechanism mech;
  Cycle cycles;
  std::uint64_t retired;
  std::uint64_t txs;
  std::uint64_t nvm_writes;
  double llc_miss_rate;
};

// Reference: tiny 1-core machine, hashtable, setup 500 / ops 300 / seed 42,
// compute_per_op 64. Captured 2026-07-06.
constexpr Golden kGoldens[] = {
    {Mechanism::kOptimal, 25314, 21567, 300, 204, 0.8214},
    {Mechanism::kTc, 39975, 21567, 300, 440, 0.8277},
    {Mechanism::kSp, 91504, 24310, 300, 795, 0.8309},
    {Mechanism::kKiln, 30440, 21567, 300, 218, 0.8129},
};

class RegressionMetrics : public ::testing::TestWithParam<Golden> {};

TEST_P(RegressionMetrics, StaysWithinTolerance) {
  const Golden g = GetParam();
  SystemConfig cfg = SystemConfig::tiny();
  cfg.cores = 1;
  cfg.mechanism = g.mech;
  workload::WorkloadParams p =
      workload::default_params(WorkloadKind::kHashtable);
  p.setup_elems = 500;
  p.ops = 300;
  p.seed = 42;
  p.compute_per_op = 64;

  workload::SimHeap heap(cfg.address_space, 1);
  workload::TraceBundle b = workload::generate_phased(p, 0, heap, nullptr);
  System sys(cfg);
  sys.load_trace(0, std::move(b.setup));
  sys.run();
  sys.reset_stats();
  sys.load_trace(0, std::move(b.measured));
  sys.run();
  const Metrics m = sys.metrics();

  // Functional counts are deterministic and exact.
  EXPECT_EQ(m.retired_uops, g.retired);
  EXPECT_EQ(m.committed_txs, g.txs);

  // Timing and traffic may drift with intentional model changes: 25 %.
  EXPECT_NEAR(static_cast<double>(m.cycles), static_cast<double>(g.cycles),
              0.25 * static_cast<double>(g.cycles));
  EXPECT_NEAR(static_cast<double>(m.nvm_writes),
              static_cast<double>(g.nvm_writes),
              0.25 * static_cast<double>(g.nvm_writes));
  EXPECT_NEAR(m.llc_miss_rate, g.llc_miss_rate, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Goldens, RegressionMetrics,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           std::string n(to_string(info.param.mech));
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Hardware-independent cost guards on the simulator's own hot path.
// These counts are deterministic (no wall clock involved), so they pin
// the algorithmic costs directly: a change that reintroduces per-access
// by-name stat lookups or floods the event queue fails here even if the
// machine running CI is fast enough to hide it.

// Runs the golden cell up to the end of setup, then the measured phase,
// reporting the two cost counters across the measured phase only.
struct HotPathCost {
  std::uint64_t event_pushes;
  std::uint64_t retired;
};

HotPathCost measure_hot_path(Mechanism mech) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.cores = 1;
  cfg.mechanism = mech;
  workload::WorkloadParams p =
      workload::default_params(WorkloadKind::kHashtable);
  p.setup_elems = 500;
  p.ops = 300;
  p.seed = 42;
  p.compute_per_op = 64;

  workload::SimHeap heap(cfg.address_space, 1);
  workload::TraceBundle b = workload::generate_phased(p, 0, heap, nullptr);
  System sys(cfg);
  sys.load_trace(0, std::move(b.setup));
  sys.run();
  sys.reset_stats();
  const std::uint64_t pushes_before = sys.events().total_pushes();
  sys.load_trace(0, std::move(b.measured));
  sys.run();
  HotPathCost cost;
  cost.event_pushes = sys.events().total_pushes() - pushes_before;
  cost.retired = sys.metrics().retired_uops;
  return cost;
}

// Components resolving stats once at construction (StatHandle) is now a
// static invariant: tests/test_ntclint.cpp runs the ntclint hot-stats
// rule over the whole of src/, which covers every component rather than
// the few this suite happened to execute.

// Events are scheduled per memory-system transaction, not per cycle or
// per µop (a cache hit is no event at all), so pushes are a small
// fraction of retired work: measured 0.028 (Optimal), 0.039 (TC), 0.049
// (SP) and 0.048 (Kiln) pushes per µop. Bound them at 2x the measured
// ceiling so intentional model changes have headroom while a per-cycle
// push (which would be >= cycles, ~100x this) fails.
TEST(RegressionMetrics, EventQueuePushesStayProportionalToWork) {
  for (const Golden& g : kGoldens) {
    const HotPathCost cost = measure_hot_path(g.mech);
    ASSERT_GT(cost.retired, 0u);
    const double per_uop = static_cast<double>(cost.event_pushes) /
                           static_cast<double>(cost.retired);
    EXPECT_LE(per_uop, 0.098) << to_string(g.mech) << ": " << cost.event_pushes
                             << " pushes / " << cost.retired << " uops";
  }
}

// A cache hit carries no persistence work and its completion cycle is
// known at lookup, so it is not an event. The hashtable cell above has too
// few hits to notice hit events coming back; a loop of loads to one warm
// line is nothing but hits.
TEST(RegressionMetrics, CacheHitsPushNoEvents) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.cores = 1;
  const Addr a = cfg.address_space.heap_base();
  System sys(cfg);
  core::Trace warm;
  warm.push(core::MicroOp::load(a, true));
  sys.load_trace(0, std::move(warm));
  sys.run();
  const std::uint64_t hits_before = sys.stats().counter_value("l1.hits");
  const std::uint64_t pushes_before = sys.events().total_pushes();
  core::Trace loop;
  for (Addr i = 0; i < 1000; ++i) {
    loop.push(core::MicroOp::load(a + (i % 8) * kWordBytes, true));
    loop.push(core::MicroOp::compute(3));
  }
  sys.load_trace(0, std::move(loop));
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("l1.hits") - hits_before, 1000u);
  EXPECT_EQ(sys.events().total_pushes() - pushes_before, 0u);
}

// Compute padding is stored as runs: a measured sps trace at the default
// parameters is ~99% compute µops, so it must hold at most one record per
// 50 µops (one record per µop would be 50x over).
TEST(RegressionMetrics, ComputeRunsKeepTracesSmall) {
  const AddressSpace space;
  workload::SimHeap heap(space, 1);
  const workload::TraceBundle b = workload::generate_phased(
      workload::default_params(WorkloadKind::kSps), 0, heap, nullptr);
  ASSERT_GT(b.measured.size(), 0u);
  EXPECT_LE(b.measured.ops().size() * 50, b.measured.size())
      << b.measured.ops().size() << " records for " << b.measured.size()
      << " uops";
}

// The qualitative paper ordering, pinned as a regression property.
TEST(RegressionMetrics, MechanismOrderingIsStable) {
  std::map<Mechanism, Cycle> cycles;
  for (const Golden& g : kGoldens) cycles[g.mech] = g.cycles;
  EXPECT_LT(cycles[Mechanism::kOptimal], cycles[Mechanism::kKiln]);
  EXPECT_LT(cycles[Mechanism::kKiln], cycles[Mechanism::kSp]);
}

}  // namespace
}  // namespace ntcsim::sim
