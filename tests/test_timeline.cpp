#include "sim/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/workloads.hpp"

namespace ntcsim::sim {
namespace {

std::vector<TimelineSample> sample_run(Mechanism mech, Cycle interval) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = mech;
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kSps);
  p.setup_elems = 1000;
  p.ops = 300;
  p.compute_per_op = 32;
  workload::SimHeap heap(cfg.address_space, 1);
  System sys(cfg);
  sys.load_trace(0, workload::generate(p, 0, heap, nullptr));
  return run_with_timeline(sys, interval);
}

TEST(Timeline, SamplesAreMonotonic) {
  const auto samples = sample_run(Mechanism::kTc, 2000);
  ASSERT_GT(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].cycle, samples[i - 1].cycle);
    EXPECT_GE(samples[i].committed_txs, samples[i - 1].committed_txs);
    EXPECT_GE(samples[i].nvm_writes, samples[i - 1].nvm_writes);
  }
}

TEST(Timeline, FinalSampleCoversWholeRun) {
  const auto samples = sample_run(Mechanism::kTc, 2000);
  // sps: setup batches + 300 measured swaps all commit by the end.
  EXPECT_GT(samples.back().committed_txs, 300u);
  EXPECT_GT(samples.back().nvm_writes, 0u);
}

TEST(Timeline, NtcOccupancyOnlyUnderTc) {
  const auto tc = sample_run(Mechanism::kTc, 2000);
  bool any_occupancy = false;
  for (const auto& s : tc) any_occupancy |= s.ntc_occupancy > 0;
  EXPECT_TRUE(any_occupancy);

  const auto opt = sample_run(Mechanism::kOptimal, 2000);
  for (const auto& s : opt) EXPECT_EQ(s.ntc_occupancy, 0u);
}

TEST(Timeline, CsvHasHeaderAndAllRows) {
  const auto samples = sample_run(Mechanism::kTc, 4000);
  std::ostringstream oss;
  write_timeline_csv(oss, samples);
  std::istringstream iss(oss.str());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(iss, line)) ++rows;
  EXPECT_EQ(rows, samples.size() + 1);
  EXPECT_NE(oss.str().find("cycle,committed_txs"), std::string::npos);
}

TEST(Timeline, LastWindowRateUsesItsOwnLength) {
  // The run drains partway through its last window, so that window's rate
  // divides by the cycles it covered, not by the sampling interval.
  const Cycle interval = 2000;
  const auto samples = sample_run(Mechanism::kTc, interval);
  ASSERT_GT(samples.size(), 2u);
  const TimelineSample& prev = samples[samples.size() - 2];
  const TimelineSample& last = samples.back();
  const Cycle elapsed = last.cycle - prev.cycle;
  ASSERT_LT(elapsed, interval);
  ASSERT_GT(last.committed_txs, prev.committed_txs);
  EXPECT_DOUBLE_EQ(
      last.window_tx_per_kilocycle,
      1000.0 * static_cast<double>(last.committed_txs - prev.committed_txs) /
          static_cast<double>(elapsed));
}

TEST(Timeline, WindowRateReflectsActivity) {
  const auto samples = sample_run(Mechanism::kTc, 2000);
  double peak = 0;
  for (const auto& s : samples) peak = std::max(peak, s.window_tx_per_kilocycle);
  EXPECT_GT(peak, 0.5);  // some window committed transactions
}

}  // namespace
}  // namespace ntcsim::sim
