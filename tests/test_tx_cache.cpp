#include "txcache/tx_cache.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "recovery/images.hpp"

namespace ntcsim::txcache {
namespace {

class TxCacheTest : public ::testing::Test {
 protected:
  TxCacheTest() : cfg_(SystemConfig::tiny()) {
    cfg_.ntc.size_bytes = 512;  // 8 entries
    mem_ = std::make_unique<mem::MemorySystem>(cfg_, events_, stats_);
    durable_ = std::make_unique<recovery::DurableState>(stats_);
    mem_->set_nvm_observer(durable_.get());
    ntc_ = std::make_unique<TxCache>("ntc0", 0, cfg_.ntc, cfg_.address_space,
                                     *mem_, stats_);
    nvm_ = cfg_.address_space.nvm_base();
  }

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      events_.drain_until(now_);
      ntc_->tick(now_);
      mem_->tick(now_);
      ++now_;
    }
    events_.drain_until(now_);
  }

  SystemConfig cfg_;
  EventQueue events_;
  StatSet stats_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<recovery::DurableState> durable_;
  std::unique_ptr<TxCache> ntc_;
  Addr nvm_ = 0;
  Cycle now_ = 0;
};

TEST_F(TxCacheTest, CapacityMatchesConfig) {
  EXPECT_EQ(ntc_->capacity(), 8u);
  EXPECT_EQ(ntc_->occupancy(), 0u);
  EXPECT_TRUE(ntc_->drained());
}

TEST_F(TxCacheTest, ActiveEntriesAreNotDrained) {
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ASSERT_TRUE(ntc_->write(now_, nvm_ + 64, 2, 1));
  run(2000);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 0u);  // uncommitted: buffered
  EXPECT_EQ(ntc_->occupancy(), 2u);
  EXPECT_EQ(durable_->load(nvm_), 0u);
}

TEST_F(TxCacheTest, CommitDrainsToNvmAndAcksFreeEntries) {
  ASSERT_TRUE(ntc_->write(now_, nvm_, 0xA, 1));
  ASSERT_TRUE(ntc_->write(now_, nvm_ + 64, 0xB, 1));
  ntc_->commit(1);
  run(3000);
  EXPECT_EQ(stats_.counter_value("nvm.writes.txcache"), 2u);
  EXPECT_EQ(stats_.counter_value("ntc0.acks"), 2u);
  EXPECT_EQ(ntc_->occupancy(), 0u);
  EXPECT_TRUE(ntc_->drained());
  EXPECT_EQ(durable_->load(nvm_), 0xAu);
  EXPECT_EQ(durable_->load(nvm_ + 64), 0xBu);
}

TEST_F(TxCacheTest, FifoOrderAcrossTransactions) {
  // Same line written in two consecutive transactions: the NVM must end
  // with the later value (program order preserved by FIFO + same-address
  // ordering at the controller).
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ntc_->commit(1);
  ASSERT_TRUE(ntc_->write(now_, nvm_, 2, 2));
  ntc_->commit(2);
  run(3000);
  EXPECT_EQ(durable_->load(nvm_), 2u);
  EXPECT_TRUE(ntc_->drained());
}

TEST_F(TxCacheTest, WriteRejectedWhenFull) {
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  EXPECT_FALSE(ntc_->write(now_, nvm_ + 8 * 64, 8, 1));
  EXPECT_EQ(stats_.counter_value("ntc0.full_rejects"), 1u);
  EXPECT_TRUE(ntc_->full());
}

TEST_F(TxCacheTest, CommitFreesSpaceForNewWrites) {
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  ntc_->commit(1);
  run(5000);
  EXPECT_EQ(ntc_->occupancy(), 0u);
  EXPECT_TRUE(ntc_->write(now_, nvm_, 99, 2));
}

TEST_F(TxCacheTest, ProbeMatchesBufferedLines) {
  ASSERT_TRUE(ntc_->write(now_, nvm_ + 8, 7, 1));
  EXPECT_TRUE(ntc_->probe(nvm_));       // same line (line-aligned match)
  EXPECT_FALSE(ntc_->probe(nvm_ + 64)); // different line
  EXPECT_EQ(stats_.counter_value("ntc0.probe_hits"), 1u);
  EXPECT_EQ(stats_.counter_value("ntc0.probe_misses"), 1u);
}

TEST_F(TxCacheTest, ProbeSeesCommittedUndrainedData) {
  ASSERT_TRUE(ntc_->write(now_, nvm_, 7, 1));
  ntc_->commit(1);
  // Do not run: entry committed but not yet drained/acked.
  EXPECT_TRUE(ntc_->probe(nvm_));
}

TEST_F(TxCacheTest, SnapshotSeparatesActiveAndCommitted) {
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ntc_->commit(1);
  ASSERT_TRUE(ntc_->write(now_, nvm_ + 64, 2, 2));  // still active
  const auto snap = ntc_->snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap[0].committed);
  EXPECT_EQ(snap[0].words[0].second, 1u);
  EXPECT_FALSE(snap[1].committed);
}

TEST_F(TxCacheTest, SnapshotIsOldestFirst) {
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  const auto snap = ntc_->snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].words[0].second, i);
  }
}

TEST_F(TxCacheTest, OverflowFallbackSpillsActiveEntries) {
  // Threshold 0.9 * 8 = 7.2 -> trips at 8... use 0.5 to trip earlier.
  cfg_.ntc.overflow_threshold = 0.5;
  ntc_ = std::make_unique<TxCache>("ntcX", 0, cfg_.ntc, cfg_.address_space,
                                   *mem_, stats_);
  for (unsigned i = 0; i < 6; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  run(3000);
  EXPECT_GT(stats_.counter_value("ntcX.spills"), 0u);
  EXPECT_GT(stats_.counter_value("nvm.writes.shadow"), 0u);
  // Spilled uncommitted data must NOT have reached its home address.
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_EQ(durable_->load(nvm_ + i * 64), 0u);
  }
}

TEST_F(TxCacheTest, SpilledEntriesReachHomeAfterCommit) {
  cfg_.ntc.overflow_threshold = 0.5;
  ntc_ = std::make_unique<TxCache>("ntcX", 0, cfg_.ntc, cfg_.address_space,
                                   *mem_, stats_);
  for (unsigned i = 0; i < 6; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, 10 + i, 1));
  }
  run(2000);
  ntc_->commit(1);
  run(5000);
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_EQ(durable_->load(nvm_ + i * 64), 10u + i) << "entry " << i;
  }
  EXPECT_TRUE(ntc_->drained());
}

TEST_F(TxCacheTest, SpilledDataStillProbeable) {
  cfg_.ntc.overflow_threshold = 0.3;
  ntc_ = std::make_unique<TxCache>("ntcX", 0, cfg_.ntc, cfg_.address_space,
                                   *mem_, stats_);
  for (unsigned i = 0; i < 5; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  run(3000);
  ASSERT_GT(stats_.counter_value("ntcX.spills"), 0u);
  // Every written line remains visible to LLC probes (ring or spill table).
  for (unsigned i = 0; i < 5; ++i) {
    EXPECT_TRUE(ntc_->probe(nvm_ + i * 64)) << "line " << i;
  }
}

TEST_F(TxCacheTest, SameTxSameLineWritesCoalesce) {
  // Within one open transaction, same-line writes merge into the existing
  // cache-line entry: one entry, one NVM write, newest value wins.
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ASSERT_TRUE(ntc_->write(now_, nvm_, 2, 1));
  ASSERT_TRUE(ntc_->write(now_, nvm_ + 8, 3, 1));  // same line, other word
  EXPECT_EQ(ntc_->occupancy(), 1u);
  EXPECT_EQ(stats_.counter_value("ntc0.merges"), 2u);
  ntc_->commit(1);
  run(3000);
  EXPECT_EQ(durable_->load(nvm_), 2u);
  EXPECT_EQ(durable_->load(nvm_ + 8), 3u);
  EXPECT_EQ(stats_.counter_value("nvm.writes.txcache"), 1u);
}

TEST_F(TxCacheTest, CrossTxSameLineKeepsBothVersions) {
  // Multi-versioning: the same line written by two transactions keeps two
  // entries; both drain, in order.
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ntc_->commit(1);
  ASSERT_TRUE(ntc_->write(now_, nvm_, 2, 2));
  EXPECT_EQ(ntc_->occupancy(), 2u);
  ntc_->commit(2);
  run(3000);
  EXPECT_EQ(durable_->load(nvm_), 2u);
  EXPECT_EQ(stats_.counter_value("nvm.writes.txcache"), 2u);
}

TEST_F(TxCacheTest, CommittedEntryIsNotMergedInto) {
  // Once a transaction committed, its entries are immutable versions: a new
  // transaction's write to the line allocates a fresh entry even before the
  // committed one drains.
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ntc_->commit(1);
  ASSERT_TRUE(ntc_->write(now_, nvm_, 2, 2));
  const auto snap = ntc_->snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap[0].committed);
  EXPECT_EQ(snap[0].words[0].second, 1u);
  EXPECT_FALSE(snap[1].committed);
  EXPECT_EQ(snap[1].words[0].second, 2u);
}

TEST_F(TxCacheTest, MergeWorksEvenWhenRingIsFull) {
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  EXPECT_TRUE(ntc_->full());
  // New line: rejected. Same line of the open tx: coalesces.
  EXPECT_FALSE(ntc_->write(now_, nvm_ + 8 * 64, 9, 1));
  EXPECT_TRUE(ntc_->write(now_, nvm_ + 8, 9, 1));
}

TEST_F(TxCacheTest, InterleavedCommitOnlyDrainsCommittedTx) {
  ASSERT_TRUE(ntc_->write(now_, nvm_, 1, 1));
  ASSERT_TRUE(ntc_->write(now_, nvm_ + 64, 2, 2));  // (would be cross-core ids)
  ntc_->commit(2);
  run(3000);
  // FIFO drain stops at the first ACTIVE entry: tx 2's committed entry is
  // *behind* tx 1's active entry, so nothing drains yet (program order).
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 0u);
  ntc_->commit(1);
  run(3000);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 2u);
}

TEST_F(TxCacheTest, DrainRespectsDrainPerCycleBudget) {
  // The budget is one committed line per cycle: six committed lines, all of
  // which fit the NVM write queue, take six ticks to issue.
  for (unsigned i = 0; i < 6; ++i) {
    ASSERT_TRUE(ntc_->write(now_, nvm_ + i * 64, i, 1));
  }
  ntc_->commit(1);
  for (std::uint64_t tick = 1; tick <= 6; ++tick) {
    events_.drain_until(now_);
    ntc_->tick(now_++);
    EXPECT_EQ(stats_.counter_value("ntc0.issued"), tick);
  }
  run(3000);
  EXPECT_EQ(stats_.counter_value("ntc0.issued"), 6u);
  EXPECT_TRUE(ntc_->drained());
}

TEST_F(TxCacheTest, OccupancyNeverExceedsCapacity) {
  Rng rng(3);
  TxId tx = 1;
  for (int step = 0; step < 3000; ++step) {
    if (rng.chance(3, 4)) {
      ntc_->write(now_, nvm_ + rng.below(32) * 64, step, tx);
    } else {
      ntc_->commit(tx++);
    }
    ASSERT_LE(ntc_->occupancy(), ntc_->capacity());
    if (rng.chance(1, 2)) run(1 + rng.below(8));
  }
  ntc_->commit(tx);
  run(20000);
  EXPECT_TRUE(ntc_->drained());
}

TEST_F(TxCacheTest, SnapshotExcludesDrainedData) {
  ASSERT_TRUE(ntc_->write(now_, nvm_, 5, 1));
  ntc_->commit(1);
  run(3000);  // fully drained and acked
  EXPECT_TRUE(ntc_->snapshot().empty());
}

}  // namespace
}  // namespace ntcsim::txcache
