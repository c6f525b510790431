// The parallel sweep runner's contract: worker-thread execution is
// invisible in the results — bit-identical Metrics to the serial path —
// and the thread pool itself orders results, propagates exceptions, and
// degrades to inline execution at jobs=1.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "sim/experiment.hpp"

namespace ntcsim::sim {
namespace {

// ---------------------------------------------------------------- pool --

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::atomic<int> hits[kCount] = {};
  parallel_for(kCount, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  parallel_for(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, JobsOneRunsInlineAndInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t expected = 0;
  parallel_for(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(i, expected++);  // strict 0..n-1 order on the serial path
  });
  EXPECT_EQ(expected, 5u);
}

TEST(ParallelFor, MoreJobsThanWorkIsFine) {
  std::atomic<int> calls{0};
  parallel_for(2, 16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ParallelFor, PropagatesExceptionsFromWorkers) {
  EXPECT_THROW(
      parallel_for(8, 4,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cell failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionsOnSerialPath) {
  EXPECT_THROW(
      parallel_for(8, 1,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cell failed");
                   }),
      std::runtime_error);
}

TEST(RunJobs, ResultsArriveInIndexOrder) {
  const auto out =
      run_jobs(64, 8, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(DefaultJobs, HonorsEnvironmentVariable) {
  ::setenv("NTCSIM_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3u);
  ::setenv("NTCSIM_JOBS", "garbage", 1);
  EXPECT_EXIT(default_jobs(), ::testing::ExitedWithCode(1),
              "NTCSIM_JOBS: invalid value \"garbage\"");  // rejected
  ::unsetenv("NTCSIM_JOBS");
  EXPECT_GE(default_jobs(), 1u);
}

// ------------------------------------------------------- determinism ----

// Bitwise equality: the parallel path must not perturb a single field.
void expect_identical(const Metrics& a, const Metrics& b,
                      const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.retired_uops, b.retired_uops) << label;
  EXPECT_EQ(a.committed_txs, b.committed_txs) << label;
  EXPECT_EQ(a.ipc, b.ipc) << label;
  EXPECT_EQ(a.tx_per_kilocycle, b.tx_per_kilocycle) << label;
  EXPECT_EQ(a.llc_miss_rate, b.llc_miss_rate) << label;
  EXPECT_EQ(a.nvm_writes, b.nvm_writes) << label;
  EXPECT_EQ(a.pload_latency, b.pload_latency) << label;
  EXPECT_EQ(a.pload_latency_p50, b.pload_latency_p50) << label;
  EXPECT_EQ(a.pload_latency_p99, b.pload_latency_p99) << label;
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.req_latency, b.req_latency) << label;
  EXPECT_EQ(a.req_latency_p50, b.req_latency_p50) << label;
  EXPECT_EQ(a.req_latency_p95, b.req_latency_p95) << label;
  EXPECT_EQ(a.req_latency_p99, b.req_latency_p99) << label;
  EXPECT_EQ(a.req_latency_p999, b.req_latency_p999) << label;
  EXPECT_EQ(a.nvm_reads, b.nvm_reads) << label;
  EXPECT_EQ(a.dram_writes, b.dram_writes) << label;
  EXPECT_EQ(a.llc_wb_dropped, b.llc_wb_dropped) << label;
  EXPECT_EQ(a.ntc_spills, b.ntc_spills) << label;
  EXPECT_EQ(a.ntc_stall_frac, b.ntc_stall_frac) << label;
}

ExperimentOptions quick_opts() {
  ExperimentOptions opts;
  // Small cells: the point is cross-thread identity, not cache pressure.
  opts.scale = 0.02;
  opts.setup_scale = 0.04;
  opts.seed = 7;
  return opts;
}

TEST(RunMatrix, ParallelIsBitIdenticalToSerial) {
  const SystemConfig base = SystemConfig::experiment();
  ExperimentOptions serial = quick_opts();
  serial.jobs = 1;
  ExperimentOptions parallel = quick_opts();
  parallel.jobs = 4;

  const Matrix a = run_matrix(base, serial);
  const Matrix b = run_matrix(base, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [wl, row] : a) {
    ASSERT_EQ(row.size(), b.at(wl).size());
    for (const auto& [mech, m] : row) {
      const std::string label = std::string(to_string(wl)) + "/" +
                                std::string(to_string(mech));
      expect_identical(m, b.at(wl).at(mech), label.c_str());
    }
  }
}

TEST(RunSweep, MatchesDirectRunCellAndKeepsSpecOrder) {
  const ExperimentOptions opts = quick_opts();
  std::vector<JobSpec> specs;
  SystemConfig cfg = SystemConfig::experiment();
  specs.push_back({Mechanism::kTc, WorkloadKind::kSps, cfg, opts});
  SystemConfig small = SystemConfig::experiment();
  small.ntc.size_bytes /= 4;  // distinct config: order mixups would show
  specs.push_back({Mechanism::kTc, WorkloadKind::kSps, small, opts});

  const std::vector<Metrics> swept = run_sweep(specs, 2);
  ASSERT_EQ(swept.size(), 2u);
  expect_identical(swept[0],
                   run_cell(Mechanism::kTc, WorkloadKind::kSps, cfg, opts),
                   "spec 0");
  expect_identical(swept[1],
                   run_cell(Mechanism::kTc, WorkloadKind::kSps, small, opts),
                   "spec 1");
}

// The acceptance contract of bench_tail_latency: a service-mode rate
// sweep (open-loop arrival stamping, tail-latency percentiles) must be
// bit-identical between --jobs=1 and --jobs=N, like every other sweep.
TEST(RunSweep, ServiceRateSweepIsBitIdenticalAcrossJobs) {
  const ExperimentOptions opts = quick_opts();
  std::vector<JobSpec> specs;
  for (double rate : {0.5, 2.0, 8.0}) {
    JobSpec spec;
    spec.mech = Mechanism::kTc;
    spec.wl = WorkloadKind::kHashtable;
    spec.cfg = SystemConfig::experiment();
    spec.cfg.service.enabled = true;
    spec.cfg.service.rate = rate;
    spec.cfg.service.requests = 25;
    spec.opts = opts;
    specs.push_back(spec);
  }
  const std::vector<Metrics> serial = run_sweep(specs, 1);
  const std::vector<Metrics> parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].requests, 0u) << "rate point " << i;
    expect_identical(serial[i], parallel[i],
                     ("service rate point " + std::to_string(i)).c_str());
  }
}

// Cluster cells are still independent pure functions of their spec:
// sharded multi-node simulations must be bit-identical across any
// --jobs value, exactly like single-node cells.
TEST(RunSweep, MultiNodeCellsAreBitIdenticalAcrossJobs) {
  const ExperimentOptions opts = quick_opts();
  std::vector<JobSpec> specs;
  for (unsigned nodes : {1u, 3u}) {
    JobSpec spec;
    spec.mech = Mechanism::kTc;
    spec.wl = WorkloadKind::kHashtable;
    spec.cfg = SystemConfig::experiment();
    spec.cfg.topo.nodes = nodes;
    spec.cfg.service.enabled = true;
    spec.cfg.service.rate = 2.0;
    spec.cfg.service.requests = 25;
    spec.opts = opts;
    specs.push_back(spec);
  }
  const std::vector<Metrics> serial = run_sweep(specs, 1);
  const std::vector<Metrics> parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string label = "nodes point " + std::to_string(i);
    expect_identical(serial[i], parallel[i], label.c_str());
    EXPECT_EQ(serial[i].xshard_requests, parallel[i].xshard_requests) << label;
    ASSERT_EQ(serial[i].per_node.size(), parallel[i].per_node.size()) << label;
    for (std::size_t n = 0; n < serial[i].per_node.size(); ++n) {
      expect_identical(serial[i].per_node[n], parallel[i].per_node[n],
                       (label + " node " + std::to_string(n)).c_str());
    }
  }
  // The 3-node cell really sharded: breakdown present, requests served.
  ASSERT_EQ(serial[1].per_node.size(), 3u);
  EXPECT_GT(serial[1].requests, 0u);
}

TEST(ParseBenchArgs, JobsFlag) {
  char prog[] = "bench";
  char jobs[] = "--jobs=6";
  char scale[] = "--scale=0.25";
  char* argv[] = {prog, jobs, scale};
  const ExperimentOptions opts = parse_bench_args(3, argv);
  EXPECT_EQ(opts.jobs, 6u);
  EXPECT_DOUBLE_EQ(opts.scale, 0.25);
}

}  // namespace
}  // namespace ntcsim::sim
