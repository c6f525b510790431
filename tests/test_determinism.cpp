// Bit-exact determinism: the same configuration and seed must produce the
// same cycle counts, traffic, and durable state on every run — the
// property every regression comparison relies on.
#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {
namespace {

Metrics run_once(Mechanism mech) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = mech;
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kBtree);
  p.setup_elems = 400;
  p.ops = 150;
  p.seed = 17;
  p.compute_per_op = 24;
  workload::SimHeap heap(cfg.address_space, 1);
  System sys(cfg);
  sys.load_trace(0, workload::generate(p, 0, heap, nullptr));
  sys.run();
  return sys.metrics();
}

class Determinism : public ::testing::TestWithParam<Mechanism> {};

TEST_P(Determinism, RepeatedRunsAreBitExact) {
  const Metrics a = run_once(GetParam());
  const Metrics b = run_once(GetParam());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retired_uops, b.retired_uops);
  EXPECT_EQ(a.committed_txs, b.committed_txs);
  EXPECT_EQ(a.nvm_writes, b.nvm_writes);
  EXPECT_EQ(a.nvm_reads, b.nvm_reads);
  EXPECT_DOUBLE_EQ(a.llc_miss_rate, b.llc_miss_rate);
  EXPECT_DOUBLE_EQ(a.pload_latency, b.pload_latency);
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, Determinism,
                         ::testing::Values(Mechanism::kOptimal, Mechanism::kTc,
                                           Mechanism::kSp, Mechanism::kKiln,
                                           Mechanism::kSpAdr),
                         [](const auto& p) {
                           std::string n(to_string(p.param));
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ntcsim::sim
