// Service-mode request frontend: deterministic arrival stamping, the
// open-loop gate in the core, and end-to-end per-request tail-latency
// accounting through run_cell / Metrics.
#include "workload/service.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim {
namespace {

core::Trace three_tx_trace() {
  core::Trace t;
  for (TxId tx = 1; tx <= 3; ++tx) {
    t.push(core::MicroOp::tx_begin(tx));
    t.push(core::MicroOp::compute());
    t.push(core::MicroOp::tx_end());
  }
  return t;
}

ServiceConfig open_loop(double rate) {
  ServiceConfig s;
  s.enabled = true;
  s.rate = rate;
  return s;
}

TEST(ServiceStamp, StampsEveryTransactionMonotonically) {
  core::Trace t = three_tx_trace();
  const std::size_t n = workload::stamp_service_arrivals(t, open_loop(2.0),
                                                         /*core=*/0,
                                                         /*seed=*/42);
  EXPECT_EQ(n, 3u);
  std::vector<Addr> arrivals;
  for (const core::MicroOp& op : t.ops()) {
    if (op.kind == core::OpKind::kTxBegin) arrivals.push_back(op.addr);
  }
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_LE(arrivals[0], arrivals[1]);
  EXPECT_LE(arrivals[1], arrivals[2]);
}

TEST(ServiceStamp, UniformArrivalsAreEvenlySpaced) {
  core::Trace t = three_tx_trace();
  ServiceConfig s = open_loop(2.0);  // 1 request per 500 cycles
  s.poisson = false;
  workload::stamp_service_arrivals(t, s, 0, 1);
  std::vector<Addr> arrivals;
  for (const core::MicroOp& op : t.ops()) {
    if (op.kind == core::OpKind::kTxBegin) arrivals.push_back(op.addr);
  }
  EXPECT_EQ(arrivals[0], 500u);
  EXPECT_EQ(arrivals[1], 1000u);
  EXPECT_EQ(arrivals[2], 1500u);
}

TEST(ServiceStamp, SameSeedSameStream) {
  core::Trace a = three_tx_trace();
  core::Trace b = three_tx_trace();
  workload::stamp_service_arrivals(a, open_loop(1.0), 0, 7);
  workload::stamp_service_arrivals(b, open_loop(1.0), 0, 7);
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_EQ(a.ops()[i].addr, b.ops()[i].addr) << "op " << i;
  }
}

TEST(ServiceStamp, DistinctCoresGetDistinctStreams) {
  core::Trace a = three_tx_trace();
  core::Trace b = three_tx_trace();
  workload::stamp_service_arrivals(a, open_loop(1.0), 0, 7);
  workload::stamp_service_arrivals(b, open_loop(1.0), 1, 7);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    any_difference |= a.ops()[i].addr != b.ops()[i].addr;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ServiceStamp, DisabledAndClosedLoopAreNoOps) {
  core::Trace t = three_tx_trace();
  ServiceConfig off;
  EXPECT_EQ(workload::stamp_service_arrivals(t, off, 0, 1), 0u);
  ServiceConfig closed = open_loop(1.0);
  closed.open_loop = false;
  EXPECT_EQ(workload::stamp_service_arrivals(t, closed, 0, 1), 0u);
  for (const core::MicroOp& op : t.ops()) {
    if (op.kind == core::OpKind::kTxBegin) EXPECT_EQ(op.addr, 0u);
  }
}

// ------------------------------------------------------ core gate -------

TEST(ServiceCore, OpenLoopArrivalGatesFetchAndSetsLatencyStart) {
  // One transaction arriving at cycle 1000 on an otherwise idle machine:
  // the core must not touch it earlier, and the measured request latency
  // counts from the arrival, not from cycle 0.
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = Mechanism::kOptimal;
  sim::System sys(cfg);
  core::Trace t;
  core::MicroOp begin = core::MicroOp::tx_begin(1);
  begin.addr = 1000;  // arrival cycle, relative to trace start
  t.push(begin);
  t.push(core::MicroOp::compute());
  t.push(core::MicroOp::tx_end());
  sys.load_trace(0, std::move(t));
  sys.run();
  EXPECT_GE(sys.now(), 1000u);  // the run had to wait for the arrival
  const sim::Metrics m = sys.metrics();
  EXPECT_EQ(m.requests, 1u);
  EXPECT_EQ(m.committed_txs, 1u);
  // Latency is retire - arrival: a handful of cycles, not ~1000.
  EXPECT_GT(m.req_latency, 0.0);
  EXPECT_LT(m.req_latency, 100.0);
}

TEST(ServiceCore, BackToBackTracesStillCountRequests) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = Mechanism::kTc;
  sim::System sys(cfg);
  sys.load_trace(0, three_tx_trace());
  sys.run();
  const sim::Metrics m = sys.metrics();
  EXPECT_EQ(m.requests, 3u);
  EXPECT_EQ(m.committed_txs, 3u);
  EXPECT_GT(m.req_latency, 0.0);
  EXPECT_GE(m.req_latency_p99, m.req_latency_p50);
}

// ------------------------------------------------------- end to end -----

sim::ExperimentOptions quick_opts() {
  sim::ExperimentOptions opts;
  opts.scale = 0.02;
  opts.setup_scale = 0.04;
  opts.seed = 5;
  return opts;
}

TEST(ServiceCell, ReportsTailPercentilesAndHonorsRequestCount) {
  SystemConfig cfg = SystemConfig::experiment();
  cfg.service.enabled = true;
  cfg.service.rate = 2.0;
  cfg.service.requests = 40;
  const sim::Metrics m = sim::run_cell(Mechanism::kTc,
                                       WorkloadKind::kHashtable, cfg,
                                       quick_opts());
  EXPECT_EQ(m.requests, 40u * cfg.cores);
  EXPECT_GT(m.req_latency, 0.0);
  EXPECT_LE(m.req_latency_p50, m.req_latency_p95);
  EXPECT_LE(m.req_latency_p95, m.req_latency_p99);
  EXPECT_LE(m.req_latency_p99, m.req_latency_p999);
  EXPECT_GT(m.req_latency_p999, 0u);
}

TEST(ServiceCell, LowRateOpenLoopStretchesTheRunNotTheLatency) {
  // At a rate far below capacity the run takes at least as long as the
  // arrival schedule, while each request itself stays fast; the same cell
  // back-to-back finishes sooner per request processed.
  SystemConfig slow = SystemConfig::experiment();
  slow.service.enabled = true;
  slow.service.rate = 0.25;  // one request per 4 kcycles per core
  slow.service.requests = 20;
  const sim::Metrics open = sim::run_cell(Mechanism::kTc, WorkloadKind::kSps,
                                          slow, quick_opts());

  SystemConfig closed = slow;
  closed.service.open_loop = false;
  const sim::Metrics btb = sim::run_cell(Mechanism::kTc, WorkloadKind::kSps,
                                         closed, quick_opts());
  ASSERT_EQ(open.requests, btb.requests);
  // ~20 requests spaced 4 kcycles apart cannot finish much before 60
  // kcycles; the closed-loop run is far shorter.
  EXPECT_GT(open.cycles, btb.cycles);
}

}  // namespace
}  // namespace ntcsim
