#include <gtest/gtest.h>

#include "mem/memory_controller.hpp"
#include "mem/memory_system.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::mem {
namespace {

TEST(Wear, CountsArrayWritesPerLine) {
  MemCtrlConfig cfg;
  cfg.ranks = 1;
  cfg.banks_per_rank = 2;
  cfg.read_queue = 4;
  cfg.write_queue = 8;
  EventQueue events;
  StatSet stats;
  MemoryController mc("nvm", cfg, events, stats);

  Cycle now = 0;
  auto tick = [&](unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      events.drain_until(now);
      mc.tick(now);
      ++now;
    }
  };
  auto put = [&](Addr line) {
    MemRequest w;
    w.op = MemOp::kWrite;
    w.line_addr = line;
    while (!mc.enqueue(w, now)) tick(1);
  };

  put(0);
  put(64);
  tick(400);
  put(0);
  tick(400);

  const WearStats w = mc.wear();
  EXPECT_EQ(w.lines_touched, 2u);
  EXPECT_EQ(w.total_writes, 3u);
  EXPECT_EQ(w.max_writes, 2u);
  EXPECT_EQ(w.hottest_line, 0u);
  EXPECT_DOUBLE_EQ(w.mean_writes, 1.5);
}

TEST(Wear, EquallyWornLinesReportTheLowestAddress) {
  MemCtrlConfig cfg;
  cfg.ranks = 1;
  cfg.banks_per_rank = 4;
  cfg.read_queue = 4;
  cfg.write_queue = 8;
  EventQueue events;
  StatSet stats;
  MemoryController mc("nvm", cfg, events, stats);

  Cycle now = 0;
  auto put = [&](Addr line) {
    MemRequest w;
    w.op = MemOp::kWrite;
    w.line_addr = line;
    while (!mc.enqueue(w, now)) {
      events.drain_until(now);
      mc.tick(now++);
    }
  };
  // Four lines tie at two writes each, in an order unrelated to their
  // addresses; one line has a single write.
  for (int round = 0; round < 2; ++round) {
    for (Addr line : {0x9000, 0x5040, 0x7000, 0x3040}) put(line);
  }
  put(0x40);
  while (!mc.idle()) {
    events.drain_until(now);
    mc.tick(now++);
  }

  const WearStats w = mc.wear();
  EXPECT_EQ(w.lines_touched, 5u);
  EXPECT_EQ(w.max_writes, 2u);
  EXPECT_EQ(w.hottest_line, 0x3040u);
}

TEST(Wear, ChannelTiesReportTheLowestAddress) {
  // Two line-interleaved channels: the higher line of the tied pair sits
  // on channel 0, which the aggregate visits first.
  SystemConfig cfg = SystemConfig::tiny();
  cfg.nvm.channels = 2;
  EventQueue events;
  StatSet stats;
  MemorySystem mem(cfg, events, stats);
  const Addr base = cfg.address_space.nvm_base();
  Cycle now = 0;
  for (Addr line : {base + 2 * kLineBytes, base + kLineBytes}) {
    MemRequest w;
    w.op = MemOp::kWrite;
    w.line_addr = line;
    ASSERT_TRUE(mem.enqueue(w, now));
  }
  for (; now < 2000; ++now) {
    events.drain_until(now);
    mem.tick(now);
  }
  const WearStats w = mem.nvm_wear();
  EXPECT_EQ(w.lines_touched, 2u);
  EXPECT_EQ(w.max_writes, 1u);
  EXPECT_EQ(w.hottest_line, base + kLineBytes);
}

TEST(Wear, ReadsDoNotWear) {
  MemCtrlConfig cfg;
  cfg.ranks = 1;
  cfg.banks_per_rank = 2;
  EventQueue events;
  StatSet stats;
  MemoryController mc("nvm", cfg, events, stats);
  MemRequest r;
  r.op = MemOp::kRead;
  r.line_addr = 0;
  ASSERT_TRUE(mc.enqueue(r, 0));
  for (Cycle now = 0; now < 400; ++now) {
    events.drain_until(now);
    mc.tick(now);
  }
  EXPECT_EQ(mc.wear().lines_touched, 0u);
}

TEST(Wear, QueueWorkloadConcentratesOnControlWords) {
  // The queue extension rewrites its head/tail line every transaction: the
  // hottest NVM line under TC must be far above the mean.
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = Mechanism::kTc;
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kQueue);
  p.setup_elems = 64;
  p.ops = 400;
  p.compute_per_op = 16;
  workload::SimHeap heap(cfg.address_space, 1);
  sim::System sys(cfg);
  sys.load_trace(0, workload::generate(p, 0, heap, nullptr));
  sys.run();
  const WearStats w = sys.memory().nvm_wear();
  ASSERT_GT(w.lines_touched, 0u);
  EXPECT_GT(w.max_writes, 50u);  // ~one control-line write per transaction
  EXPECT_GT(static_cast<double>(w.max_writes), 5.0 * w.mean_writes)
      << "control-word hotspot should dwarf the ring body";
}

}  // namespace
}  // namespace ntcsim::mem
