#include "mem/memory_controller.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ntcsim::mem {
namespace {

MemCtrlConfig small_cfg() {
  MemCtrlConfig c;
  c.read_queue = 4;
  c.write_queue = 8;
  c.ranks = 1;
  c.banks_per_rank = 2;
  c.bus_latency = 2;
  c.timing.row_hit = 10;
  c.timing.row_miss = 30;
  c.timing.write_extra = 5;
  c.timing.burst = 4;
  return c;
}

class McTest : public ::testing::Test {
 protected:
  McTest() : mc_("nvm", small_cfg(), events_, stats_) {}

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      events_.drain_until(now_);
      mc_.tick(now_);
      ++now_;
    }
    events_.drain_until(now_);
  }

  MemRequest read(Addr line, std::function<void(const MemRequest&)> cb = {}) {
    MemRequest r;
    r.op = MemOp::kRead;
    r.line_addr = line;
    r.on_complete = std::move(cb);
    return r;
  }
  MemRequest write(Addr line, std::function<void(const MemRequest&)> cb = {}) {
    MemRequest r;
    r.op = MemOp::kWrite;
    r.line_addr = line;
    r.persistent = true;
    r.on_complete = std::move(cb);
    return r;
  }

  EventQueue events_;
  StatSet stats_;
  MemoryController mc_;
  Cycle now_ = 0;
};

TEST_F(McTest, ReadCompletesWithCallback) {
  Cycle done_at = 0;
  bool done = false;
  ASSERT_TRUE(mc_.enqueue(read(0, [&](const MemRequest&) {
                            done = true;
                            done_at = now_;
                          }),
                          now_));
  run(100);
  EXPECT_TRUE(done);
  // Row miss 30 + burst 4 + bus 2 = 36 (plus the tick it was picked up).
  EXPECT_GE(done_at, 36u);
  EXPECT_LE(done_at, 40u);
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.row_misses"), 1u);
}

TEST_F(McTest, RowHitIsFaster) {
  std::vector<Cycle> done;
  ASSERT_TRUE(mc_.enqueue(read(0, [&](const MemRequest&) { done.push_back(now_); }), now_));
  run(60);
  // 128 B away: the next line of the same bank (2 banks), same open row.
  ASSERT_TRUE(mc_.enqueue(read(128, [&](const MemRequest&) { done.push_back(now_); }), now_));
  run(60);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(stats_.counter_value("nvm.row_hits"), 1u);
  EXPECT_LT(done[1] - 60, done[0]);  // the hit was served faster
}

TEST_F(McTest, ReadQueueFullRejects) {
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_TRUE(mc_.enqueue(read(i * (8 << 10) * 2), now_));
  }
  EXPECT_FALSE(mc_.enqueue(read(1 << 20), now_));
  run(200);
  EXPECT_TRUE(mc_.enqueue(read(1 << 20), now_));
}

TEST_F(McTest, ReadsHavePriorityOverWrites) {
  std::vector<char> order;
  ASSERT_TRUE(mc_.enqueue(write(0, [&](const MemRequest&) { order.push_back('W'); }), now_));
  ASSERT_TRUE(mc_.enqueue(read(64, [&](const MemRequest&) { order.push_back('R'); }), now_));
  run(200);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'R');
}

TEST_F(McTest, WriteDrainTriggersAtHighWatermark) {
  // Fill the write queue to >= 80 % (7 of 8) with distinct lines.
  for (unsigned i = 0; i < 7; ++i) {
    ASSERT_TRUE(mc_.enqueue(write((8ULL << 10) * i), now_));
  }
  run(400);
  EXPECT_GE(stats_.counter_value("nvm.drain_mode_entries"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 7u);
}

TEST_F(McTest, IdleChannelRetiresWritesWithoutDrainMode) {
  ASSERT_TRUE(mc_.enqueue(write(0), now_));
  run(100);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.drain_mode_entries"), 0u);
}

TEST_F(McTest, SameLineWritesCompleteInOrder) {
  std::vector<int> order;
  // Two writes to the same line plus one to another bank; same-line pair
  // must complete 1 before 2 even though FR-FCFS could reorder.
  ASSERT_TRUE(mc_.enqueue(write(0, [&](const MemRequest&) { order.push_back(1); }), now_));
  ASSERT_TRUE(mc_.enqueue(write(8 << 10, [&](const MemRequest&) { order.push_back(3); }), now_));
  ASSERT_TRUE(mc_.enqueue(write(0, [&](const MemRequest&) { order.push_back(2); }), now_));
  run(400);
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(1), pos(2));
}

TEST_F(McTest, ReadForwardedFromWriteQueue) {
  bool read_done = false;
  ASSERT_TRUE(mc_.enqueue(write(128), now_));
  ASSERT_TRUE(mc_.enqueue(read(128, [&](const MemRequest&) { read_done = true; }), now_));
  // Forwarding completes after bus latency only, without an array read.
  run(5);
  EXPECT_TRUE(read_done);
  EXPECT_EQ(stats_.counter_value("nvm.wq_forwards"), 1u);
}

TEST_F(McTest, CompletionCanEnqueueIntoItsFreedSlot) {
  // A completion frees its request's slot before on_complete runs, so the
  // read the callback gets forwarded from the write queue takes that slot;
  // the request the callback was handed must stay intact.
  std::vector<Addr> done;
  ASSERT_TRUE(mc_.enqueue(read(0,
                               [&](const MemRequest& r) {
                                 ASSERT_TRUE(mc_.enqueue(write(4096), now_));
                                 ASSERT_TRUE(mc_.enqueue(
                                     read(4096,
                                          [&](const MemRequest& f) {
                                            done.push_back(f.line_addr);
                                          }),
                                     now_));
                                 done.push_back(r.line_addr);
                               }),
                          now_));
  run(100);
  EXPECT_EQ(done, (std::vector<Addr>{0, 4096}));
  EXPECT_EQ(stats_.counter_value("nvm.wq_forwards"), 1u);
}

TEST_F(McTest, PersistentWriteReportsSource) {
  MemRequest w = write(0);
  w.source = Source::kTxCache;
  ASSERT_TRUE(mc_.enqueue(std::move(w), now_));
  run(100);
  EXPECT_EQ(stats_.counter_value("nvm.writes.txcache"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.writes.demand"), 0u);
}

TEST_F(McTest, IdleReportsCorrectly) {
  EXPECT_TRUE(mc_.idle());
  ASSERT_TRUE(mc_.enqueue(read(0), now_));
  EXPECT_FALSE(mc_.idle());
  run(100);
  EXPECT_TRUE(mc_.idle());
}

TEST_F(McTest, BanksOverlapAccesses) {
  // Two reads to different banks complete faster than two to one bank.
  Cycle done_two_banks = 0;
  int remaining = 2;
  auto cb = [&](const MemRequest&) {
    if (--remaining == 0) done_two_banks = now_;
  };
  ASSERT_TRUE(mc_.enqueue(read(0, cb), now_));
  ASSERT_TRUE(mc_.enqueue(read(64, cb), now_));  // adjacent line: other bank
  run(300);
  ASSERT_EQ(remaining, 0);

  // Same bank, different rows: serialized row misses.
  MemoryController mc2("nvm2", small_cfg(), events_, stats_);
  Cycle start = now_;
  Cycle done_one_bank = 0;
  int remaining2 = 2;
  auto cb2 = [&](const MemRequest&) {
    if (--remaining2 == 0) done_one_bank = now_;
  };
  ASSERT_TRUE(mc2.enqueue(read(0, cb2), now_));
  ASSERT_TRUE(mc2.enqueue(read(16384, cb2), now_));  // same bank, other row
  for (int i = 0; i < 300; ++i) {
    events_.drain_until(now_);
    mc2.tick(now_);
    ++now_;
  }
  events_.drain_until(now_);
  ASSERT_EQ(remaining2, 0);
  EXPECT_GT(done_one_bank - start, done_two_banks);
}

}  // namespace
}  // namespace ntcsim::mem
