#include "persist/kiln_unit.hpp"

#include <gtest/gtest.h>

#include "recovery/images.hpp"

namespace ntcsim::persist {
namespace {

class KilnTest : public ::testing::Test {
 protected:
  KilnTest() : cfg_(SystemConfig::tiny()) {
    mem_ = std::make_unique<mem::MemorySystem>(cfg_, events_, stats_);
    durable_ = std::make_unique<recovery::DurableState>(stats_);
    mem_->set_nvm_observer(durable_.get());
    hier_ = std::make_unique<cache::Hierarchy>(cfg_, *mem_, events_, stats_,
                                               &vimage_, &now_);
    hier_->hooks().llc_nonvolatile = true;
    kiln_ = std::make_unique<KilnUnit>(1, KilnConfig{}, *hier_, events_,
                                       durable_.get(), stats_);
    nvm_ = cfg_.address_space.heap_base();
  }

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      events_.drain_until(now_);
      hier_->tick(now_);
      mem_->tick(now_);
      ++now_;
    }
    events_.drain_until(now_);
  }

  SystemConfig cfg_;
  EventQueue events_;
  StatSet stats_;
  recovery::VolatileImage vimage_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<recovery::DurableState> durable_;
  std::unique_ptr<cache::Hierarchy> hier_;
  std::unique_ptr<KilnUnit> kiln_;
  Addr nvm_ = 0;
  Cycle now_ = 0;
};

TEST_F(KilnTest, CommitAppliesWritesToDurableState) {
  kiln_->begin_tx(0, 1);
  vimage_.store(nvm_, 5);
  kiln_->on_store(now_, 0, nvm_, 5, 1);
  kiln_->begin_commit(now_, 0, 1);
  EXPECT_FALSE(kiln_->commit_done(0));
  EXPECT_EQ(durable_->load(nvm_), 0u);  // not durable until flush completes
  run(200);
  EXPECT_TRUE(kiln_->commit_done(0));
  EXPECT_EQ(durable_->load(nvm_), 5u);
}

TEST_F(KilnTest, CommitDurationScalesWithLines) {
  kiln_->begin_tx(0, 1);
  for (int i = 0; i < 10; ++i) {
    kiln_->on_store(now_, 0, nvm_ + i * 64, i, 1);
  }
  kiln_->begin_commit(now_, 0, 1);
  const KilnConfig kc;
  // 10 lines: fixed + 10*per_line.
  EXPECT_DOUBLE_EQ(stats_.accumulator_mean("kiln.commit_cycles"),
                   kc.commit_fixed_cycles + 10.0 * kc.cycles_per_line);
  EXPECT_EQ(stats_.counter_value("kiln.flushed_lines"), 10u);
  run(200);
}

TEST_F(KilnTest, CommitBlocksTheLlc) {
  kiln_->begin_tx(0, 1);
  for (int i = 0; i < 20; ++i) {
    kiln_->on_store(now_, 0, nvm_ + i * 64, i, 1);
  }
  const Cycle before = hier_->llc_blocked_until();
  kiln_->begin_commit(now_, 0, 1);
  EXPECT_GT(hier_->llc_blocked_until(), before);
  run(400);
}

TEST_F(KilnTest, PinQueryMatchesOpenTxLines) {
  kiln_->begin_tx(0, 1);
  kiln_->on_store(now_, 0, nvm_ + 8, 1, 1);
  EXPECT_EQ(kiln_->pin_query(0, nvm_), 1u);        // same line
  EXPECT_EQ(kiln_->pin_query(0, nvm_ + 64), kNoTx);  // untouched line
  kiln_->begin_commit(now_, 0, 1);
  EXPECT_EQ(kiln_->pin_query(0, nvm_), kNoTx);  // committing: no new pins
  run(200);
}

TEST_F(KilnTest, MultiWordTxAtomicDurability) {
  kiln_->begin_tx(0, 1);
  for (int i = 0; i < 4; ++i) {
    vimage_.store(nvm_ + i * 8, 100 + i);
    kiln_->on_store(now_, 0, nvm_ + i * 8, 100 + i, 1);
  }
  kiln_->begin_commit(now_, 0, 1);
  run(200);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(durable_->load(nvm_ + i * 8), 100u + i);
  }
}

TEST_F(KilnTest, SecondTxAfterCommit) {
  kiln_->begin_tx(0, 1);
  kiln_->on_store(now_, 0, nvm_, 1, 1);
  kiln_->begin_commit(now_, 0, 1);
  run(200);
  kiln_->begin_tx(0, 2);
  kiln_->on_store(now_, 0, nvm_, 2, 2);
  kiln_->begin_commit(now_, 0, 2);
  run(200);
  EXPECT_EQ(durable_->load(nvm_), 2u);
  EXPECT_EQ(stats_.counter_value("kiln.commits"), 2u);
}

TEST_F(KilnTest, OverlappingCommitAborts) {
  kiln_->begin_tx(0, 1);
  kiln_->begin_commit(now_, 0, 1);
  // The first commit is still flushing; a second must not start (the core
  // enforces this by stalling TX_END on commit_done()).
  kiln_->begin_tx(0, 2);
  EXPECT_DEATH(kiln_->begin_commit(now_, 0, 2), "overlapping");
}

TEST_F(KilnTest, StoreForWrongTxAborts) {
  kiln_->begin_tx(0, 1);
  EXPECT_DEATH(kiln_->on_store(now_, 0, nvm_, 1, 2), "not open");
}

}  // namespace
}  // namespace ntcsim::persist
