// Multi-core hierarchy behaviour: shared-LLC interactions, the
// coherence-lite invalidation path, cross-core back-invalidation, and the
// NTC probe hook with per-core transaction caches.
#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "recovery/images.hpp"

namespace ntcsim::cache {
namespace {

class MultiCoreHierTest : public ::testing::Test {
 protected:
  MultiCoreHierTest() : cfg_(SystemConfig::tiny()) {
    cfg_.cores = 2;
    mem_ = std::make_unique<mem::MemorySystem>(cfg_, events_, stats_);
    hier_ = std::make_unique<Hierarchy>(cfg_, *mem_, events_, stats_,
                                        &vimage_);
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

  void load_wait(CoreId core, Addr a) {
    const AccessResult r = hier_->load(now_, core, a, true);
    ASSERT_NE(r.kind, AccessKind::kRejected);
    bool done = r.kind == AccessKind::kHit;
    if (!done) hier_->wait_for_fill(core, a, [&] { done = true; });
    run(3000);
    ASSERT_TRUE(done);
  }

  SystemConfig cfg_;
  EventQueue events_;
  StatSet stats_;
  recovery::VolatileImage vimage_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<Hierarchy> hier_;
  Addr nvm_ = 0;
  Cycle now_ = 0;
};

TEST_F(MultiCoreHierTest, SharedLineFillsBothPrivateHierarchies) {
  load_wait(0, nvm_);
  load_wait(1, nvm_);
  EXPECT_NE(hier_->l1(0).peek(nvm_), nullptr);
  EXPECT_NE(hier_->l1(1).peek(nvm_), nullptr);
  // One memory read: core 1 hit the shared LLC.
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);
}

TEST_F(MultiCoreHierTest, SameLineMissesFromBothCoresMergeAtLlc) {
  int done = 0;
  ASSERT_EQ(hier_->load(now_, 0, nvm_, true).kind, AccessKind::kMiss);
  hier_->wait_for_fill(0, nvm_, [&] { ++done; });
  ASSERT_EQ(hier_->load(now_, 1, nvm_, true).kind, AccessKind::kMiss);
  hier_->wait_for_fill(1, nvm_, [&] { ++done; });
  run(3000);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);
  EXPECT_NE(hier_->l1(0).peek(nvm_), nullptr);
  EXPECT_NE(hier_->l1(1).peek(nvm_), nullptr);
}

TEST_F(MultiCoreHierTest, WriteReachingLlcInvalidatesOtherCoreCopies) {
  load_wait(0, nvm_);
  load_wait(1, nvm_);
  // Force the line out of core 1's private levels? No — write from core 1
  // that *reaches the LLC*. Evict it from core 1's L1/L2 by filling their
  // sets, then store: the write misses privately, hits the LLC, and must
  // invalidate core 0's stale copies.
  const Addr l1_stride = hier_->l1(1).sets() * kLineBytes;
  const Addr l2_stride = hier_->l2(1).sets() * kLineBytes;
  for (unsigned i = 1; i <= 4; ++i) {
    load_wait(1, nvm_ + i * l1_stride * 4);
    load_wait(1, nvm_ + i * l2_stride * 4);
  }
  ASSERT_EQ(hier_->l1(1).peek(nvm_), nullptr) << "setup failed to evict";
  ASSERT_TRUE(hier_->store(now_, 1, nvm_, 7, true, kNoTx));
  run(3000);
  EXPECT_EQ(hier_->l1(0).peek(nvm_), nullptr);
  EXPECT_EQ(hier_->l2(0).peek(nvm_), nullptr);
}

TEST_F(MultiCoreHierTest, LlcEvictionBackInvalidatesEveryCore) {
  load_wait(0, nvm_);
  load_wait(1, nvm_);
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 1; i <= 4; ++i) {
    load_wait(0, nvm_ + i * stride);
  }
  EXPECT_EQ(hier_->llc().peek(nvm_), nullptr);
  EXPECT_EQ(hier_->l1(0).peek(nvm_), nullptr);
  EXPECT_EQ(hier_->l1(1).peek(nvm_), nullptr);
}

TEST_F(MultiCoreHierTest, ProbeIdentifiesTheRequestingCore) {
  std::vector<CoreId> probed;
  hier_->hooks().ntc_probe = [&](CoreId core, Addr) {
    probed.push_back(core);
    return false;
  };
  load_wait(1, nvm_);
  ASSERT_EQ(probed.size(), 1u);
  EXPECT_EQ(probed[0], 1u);
}

TEST_F(MultiCoreHierTest, DirtySharedLineMergesOnEviction) {
  // Core 0 dirties a line; core 1 reads it; the LLC eviction write-back
  // must carry core 0's (architecturally latest) value.
  recovery::DurableState durable(stats_);
  mem_->set_nvm_observer(&durable);
  ASSERT_TRUE(hier_->store(now_, 0, nvm_, 0x42, true, kNoTx));
  run(3000);
  load_wait(1, nvm_);
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 1; i <= 4; ++i) {
    load_wait(0, nvm_ + i * stride);
  }
  run(4000);
  EXPECT_EQ(durable.load(nvm_), 0x42u);
}

}  // namespace
}  // namespace ntcsim::cache
