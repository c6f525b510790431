// The Node/Cluster topology layer: interconnect hop/serialization math,
// deterministic sharded routing of the service request stream, cross-node
// metric aggregation, the run() cycle-cap status, partial-failure crash
// injection, and the shared --check spelling parser.
#include "topo/cluster.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faultsim/campaign.hpp"
#include "sim/config_io.hpp"
#include "sim/experiment.hpp"
#include "topo/interconnect.hpp"
#include "workload/service.hpp"

namespace ntcsim {
namespace {

// -------------------------------------------------------- interconnect --

TopoConfig two_node_topo() {
  TopoConfig t;
  t.nodes = 2;
  t.hop_ns = 100.0;     // 100 cycles at 1 GHz
  t.link_gbps = 25.6;   // 256 B * 8 / 25.6 Gbps = 80 ns
  t.msg_bytes = 256;
  return t;
}

TEST(Interconnect, HopAndSerializationDelayAddUp) {
  topo::Interconnect net(2, two_node_topo(), /*ghz=*/1.0);
  EXPECT_EQ(net.hop_cycles(), 100u);
  EXPECT_EQ(net.serialize_cycles(), 80u);
  EXPECT_EQ(net.deliver(0, 1, 1000), 1000u + 80u + 100u);
}

TEST(Interconnect, SameNodeDeliveryIsFree) {
  topo::Interconnect net(2, two_node_topo(), 1.0);
  EXPECT_EQ(net.deliver(0, 0, 1234), 1234u);
}

TEST(Interconnect, LinkSerializationQueuesBackToBackMessages) {
  topo::Interconnect net(2, two_node_topo(), 1.0);
  EXPECT_EQ(net.deliver(0, 1, 1000), 1180u);
  // Second message on the same directed link can't start serializing
  // until the first clears the link at 1080.
  EXPECT_EQ(net.deliver(0, 1, 1000), 1080u + 80u + 100u);
  // The opposite direction is an independent link — no queueing.
  EXPECT_EQ(net.deliver(1, 0, 1000), 1180u);
}

// ------------------------------------------------------------- routing --

core::Trace stamped_trace(std::size_t txs, CoreId core, NodeId node) {
  core::Trace t;
  for (TxId tx = 1; tx <= txs; ++tx) {
    t.push(core::MicroOp::tx_begin(tx));
    t.push(core::MicroOp::compute());
    t.push(core::MicroOp::tx_end());
  }
  ServiceConfig s;
  s.enabled = true;
  s.rate = 2.0;
  workload::stamp_service_arrivals(t, s, core, /*seed=*/7, node);
  return t;
}

TEST(Routing, IsDeterministicAndProducesCrossShardTraffic) {
  auto build = [] {
    std::vector<core::Trace> traces;
    traces.push_back(stamped_trace(16, 0, 0));
    traces.push_back(stamped_trace(16, 0, 1));
    return traces;
  };
  std::vector<core::Trace> a = build();
  std::vector<core::Trace> b = build();
  const std::vector<std::vector<core::Trace*>> grid_a{{&a[0]}, {&a[1]}};
  const std::vector<std::vector<core::Trace*>> grid_b{{&b[0]}, {&b[1]}};
  const TopoConfig topo = two_node_topo();
  const topo::RouteStats ra =
      topo::route_service_arrivals(grid_a, topo, 1.0, 7);
  const topo::RouteStats rb =
      topo::route_service_arrivals(grid_b, topo, 1.0, 7);

  EXPECT_EQ(ra.requests, 32u);
  EXPECT_EQ(ra.requests, rb.requests);
  EXPECT_EQ(ra.xshard, rb.xshard);
  EXPECT_EQ(ra.fwd_cycles, rb.fwd_cycles);
  // With 32 requests split over 2 entry nodes, some must land off-home.
  EXPECT_GT(ra.xshard, 0u);
  EXPECT_LT(ra.xshard, ra.requests);
  // Every cross-shard request pays at least serialization + hop forward.
  EXPECT_GE(ra.fwd_cycles, ra.xshard * 180u);

  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t i = 0; i < a[n].ops().size(); ++i) {
      EXPECT_EQ(a[n].ops()[i].net_fwd, b[n].ops()[i].net_fwd) << "node " << n;
      EXPECT_EQ(a[n].ops()[i].net_rsp, b[n].ops()[i].net_rsp) << "node " << n;
    }
  }
}

TEST(Routing, SingleNodeIsANoOp) {
  std::vector<core::Trace> traces;
  traces.push_back(stamped_trace(8, 0, 0));
  const std::vector<std::vector<core::Trace*>> grid{{&traces[0]}};
  const topo::RouteStats rs =
      topo::route_service_arrivals(grid, two_node_topo(), 1.0, 7);
  EXPECT_EQ(rs.requests, 0u);
  EXPECT_EQ(rs.xshard, 0u);
  for (const core::MicroOp& op : traces[0].ops()) {
    EXPECT_EQ(op.net_fwd, 0u);
    EXPECT_EQ(op.net_rsp, 0u);
  }
}

// --------------------------------------------------------- aggregation --

TEST(Cluster, AggregatesMetricsAcrossNodesWithPerNodeBreakdown) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.topo.nodes = 2;
  cfg.check = CheckMode::kOff;
  sim::Cluster cluster(cfg);
  ASSERT_EQ(cluster.nodes(), 2u);
  for (NodeId n = 0; n < 2; ++n) {
    core::Trace t;
    // Give the nodes different work so the breakdown is distinguishable.
    for (TxId tx = 1; tx <= 3 + 3 * n; ++tx) {
      t.push(core::MicroOp::tx_begin(tx));
      t.push(core::MicroOp::store(0x1000 + 64 * tx, tx, /*persistent=*/true));
      t.push(core::MicroOp::tx_end());
    }
    cluster.load_trace(n, 0, std::move(t));
  }
  ASSERT_EQ(cluster.run(), sim::RunStatus::kFinished);

  const sim::Metrics m = cluster.metrics();
  ASSERT_EQ(m.per_node.size(), 2u);
  EXPECT_EQ(m.committed_txs, 3u + 6u);
  EXPECT_EQ(m.per_node[0].committed_txs, 3u);
  EXPECT_EQ(m.per_node[1].committed_txs, 6u);
  EXPECT_EQ(m.retired_uops,
            m.per_node[0].retired_uops + m.per_node[1].retired_uops);
  EXPECT_EQ(m.nvm_writes, m.per_node[0].nvm_writes + m.per_node[1].nvm_writes);
  // Both nodes share one clock, so every breakdown covers the same window.
  EXPECT_EQ(m.per_node[0].cycles, m.cycles);
  EXPECT_EQ(m.per_node[1].cycles, m.cycles);
}

TEST(Cluster, SingleNodeMetricsCarryNoBreakdown) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.check = CheckMode::kOff;
  sim::Cluster cluster(cfg);
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  t.push(core::MicroOp::store(0x1000, 1, true));
  t.push(core::MicroOp::tx_end());
  cluster.load_trace(0, std::move(t));
  ASSERT_EQ(cluster.run(), sim::RunStatus::kFinished);
  EXPECT_TRUE(cluster.metrics().per_node.empty());
}

// ------------------------------------------------------------- timeout --

TEST(Cluster, RunReportsCycleCapInsteadOfFinishing) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.check = CheckMode::kOff;
  sim::Cluster cluster(cfg);
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  t.push(core::MicroOp::store(0x1000, 1, true));
  t.push(core::MicroOp::tx_end());
  cluster.load_trace(0, std::move(t));

  EXPECT_EQ(cluster.run(/*max_cycles=*/1), sim::RunStatus::kCycleCap);
  EXPECT_TRUE(cluster.timed_out());
  EXPECT_FALSE(cluster.finished());
  // Given the budget it needs, the same cluster still drains.
  EXPECT_EQ(cluster.run(), sim::RunStatus::kFinished);
  EXPECT_TRUE(cluster.finished());
}

// ----------------------------------------------------- partial failure --

TEST(Cluster, CrashOnOneNodeLeavesTheOthersServing) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.topo.nodes = 2;
  cfg.crash.points = 4;
  cfg.crash.ops = 40;
  cfg.crash.setup = 120;

  faultsim::CellSpec spec;
  spec.mech = Mechanism::kTc;
  spec.wl = WorkloadKind::kSps;
  spec.seed = 1;
  spec.variant = "tc";
  spec.node = 1;  // crash the second shard; node 0 keeps serving

  const faultsim::CellResult r =
      faultsim::run_cell(cfg, spec, faultsim::CampaignOptions{});
  EXPECT_EQ(r.spec.node, 1u);
  EXPECT_EQ(r.status, faultsim::CellStatus::kPass);
  EXPECT_GT(r.checks, 0u);
  EXPECT_NE(r.repro.find("--nodes=2"), std::string::npos);
}

// ------------------------------------------------------- check parsing --

TEST(CheckModeParser, AcceptsEverySpelling) {
  CheckMode mode = CheckMode::kFatal;
  EXPECT_TRUE(sim::parse_check_mode("off", mode));
  EXPECT_EQ(mode, CheckMode::kOff);
  EXPECT_TRUE(sim::parse_check_mode("0", mode));
  EXPECT_EQ(mode, CheckMode::kOff);
  EXPECT_TRUE(sim::parse_check_mode("collect", mode));
  EXPECT_EQ(mode, CheckMode::kCollect);
  EXPECT_TRUE(sim::parse_check_mode("1", mode));
  EXPECT_EQ(mode, CheckMode::kCollect);
  EXPECT_TRUE(sim::parse_check_mode("fatal", mode));
  EXPECT_EQ(mode, CheckMode::kFatal);

  mode = CheckMode::kCollect;
  EXPECT_FALSE(sim::parse_check_mode("banana", mode));
  EXPECT_EQ(mode, CheckMode::kCollect);  // unparsable input leaves it alone
}

}  // namespace
}  // namespace ntcsim
