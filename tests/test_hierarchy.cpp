#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

#include "recovery/images.hpp"

namespace ntcsim::cache {
namespace {

class HierTest : public ::testing::Test {
 protected:
  HierTest() : cfg_(SystemConfig::tiny()) {
    mem_ = std::make_unique<mem::MemorySystem>(cfg_, events_, stats_);
    durable_ = std::make_unique<recovery::DurableState>(stats_);
    mem_->set_nvm_observer(durable_.get());
    hier_ = std::make_unique<Hierarchy>(cfg_, *mem_, events_, stats_,
                                        &vimage_);
    nvm_ = cfg_.address_space.nvm_base();
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

  /// Blocking load helper: returns the cycle the data reached the core
  /// (a hit reports it; a miss fills by event).
  Cycle load_and_wait(Addr a, bool persistent) {
    Cycle done_at = 0;
    bool done = false;
    const AccessResult r = hier_->load(now_, 0, a, persistent);
    EXPECT_NE(r.kind, AccessKind::kRejected);
    if (r.kind == AccessKind::kHit) {
      done = true;
      done_at = r.ready;
    } else {
      hier_->wait_for_fill(0, a, [&] {
        done = true;
        done_at = now_;
      });
    }
    run(3000);
    EXPECT_TRUE(done) << "load to " << a << " never completed";
    return done_at;
  }

  void store_now(Addr a, Word v) {
    ASSERT_TRUE(hier_->store(now_, 0, a, v, cfg_.address_space.is_persistent(a),
                             kNoTx));
  }

  SystemConfig cfg_;
  EventQueue events_;
  StatSet stats_;
  recovery::VolatileImage vimage_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<recovery::DurableState> durable_;
  std::unique_ptr<Hierarchy> hier_;
  Addr nvm_ = 0;
  Cycle now_ = 0;
};

TEST_F(HierTest, ColdMissThenL1Hit) {
  const Cycle first = load_and_wait(nvm_, true);
  EXPECT_GT(first, 100u);  // STT-RAM row miss dominates
  EXPECT_EQ(stats_.counter_value("llc.misses"), 1u);
  const Cycle start = now_;
  const std::uint64_t pushes = events_.total_pushes();
  const Cycle second = load_and_wait(nvm_ + 8, true);  // same line
  EXPECT_EQ(second - start, cfg_.l1.latency_cycles);
  EXPECT_EQ(stats_.counter_value("l1.hits"), 1u);
  EXPECT_EQ(events_.total_pushes(), pushes);  // a hit is not an event
}

TEST_F(HierTest, HitsReportEachLevelsReadyCycleWithoutEvents) {
  load_and_wait(nvm_, true);  // resident in L1, L2 and the LLC
  const Cycle l1 = cfg_.l1.latency_cycles;
  const Cycle l2 = cfg_.l2.latency_cycles;
  const Cycle llc = cfg_.llc.latency_cycles;
  const std::uint64_t pushes = events_.total_pushes();

  AccessResult r = hier_->load(now_, 0, nvm_, true);
  EXPECT_EQ(r.kind, AccessKind::kHit);
  EXPECT_EQ(r.ready, now_ + l1);

  hier_->l1(0).invalidate(nvm_);
  r = hier_->load(now_, 0, nvm_, true);
  EXPECT_EQ(r.kind, AccessKind::kHit);
  EXPECT_EQ(r.ready, now_ + l1 + l2);
  EXPECT_EQ(stats_.counter_value("l2.hits"), 1u);

  // An LLC hit during a Kiln commit block waits it out, at access time.
  hier_->l1(0).invalidate(nvm_);
  hier_->l2(0).invalidate(nvm_);
  hier_->block_llc_until(now_ + 50);
  r = hier_->load(now_, 0, nvm_, true);
  EXPECT_EQ(r.kind, AccessKind::kHit);
  EXPECT_EQ(r.ready, now_ + l1 + l2 + 50 + llc);
  EXPECT_EQ(stats_.counter_value("llc.hits"), 1u);
  EXPECT_EQ(events_.total_pushes(), pushes);
}

TEST_F(HierTest, MshrMergesSameLineLoads) {
  int done = 0;
  ASSERT_EQ(hier_->load(now_, 0, nvm_, true).kind, AccessKind::kMiss);
  hier_->wait_for_fill(0, nvm_, [&] { ++done; });
  ASSERT_EQ(hier_->load(now_, 0, nvm_ + 16, true).kind, AccessKind::kMiss);
  hier_->wait_for_fill(0, nvm_ + 16, [&] { ++done; });
  run(3000);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);  // one memory read
}

TEST_F(HierTest, StoreMissAllocatesAndDirties) {
  store_now(nvm_, 0xBEEF);
  run(3000);
  // Line is now present and dirty in L1; a load hits.
  const Cycle start = now_;
  const Cycle done = load_and_wait(nvm_, true);
  EXPECT_EQ(done - start, cfg_.l1.latency_cycles);
  EXPECT_EQ(vimage_.load(nvm_), 0xBEEFu);
}

TEST_F(HierTest, DirtyPersistentEvictionWritesBackWithPayload) {
  // Fill one LLC set (4 ways in tiny) with dirty persistent lines plus one
  // more: LLC set stride = sets * 64 = 4 KB / 4 ways = 16 sets -> 1 KB.
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 0; i < 6; ++i) {
    store_now(nvm_ + i * stride, 100 + i);
    run(2000);
  }
  run(4000);
  EXPECT_GT(stats_.counter_value("llc.writebacks"), 0u);
  EXPECT_GT(stats_.counter_value("nvm.writes"), 0u);
  // The evicted line's value became durable via the volatile-image payload.
  EXPECT_EQ(durable_->load(nvm_), 100u);
}

TEST_F(HierTest, TcModeDropsPersistentWritebacks) {
  hier_->hooks().drop_persistent_llc_writeback = true;
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 0; i < 6; ++i) {
    store_now(nvm_ + i * stride, 100 + i);
    run(2000);
  }
  run(4000);
  EXPECT_GT(stats_.counter_value("llc.wb_dropped"), 0u);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 0u);
  EXPECT_EQ(durable_->load(nvm_), 0u);  // nothing leaked to NVM
}

TEST_F(HierTest, VolatileEvictionsStillWriteBackInTcMode) {
  hier_->hooks().drop_persistent_llc_writeback = true;
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 0; i < 6; ++i) {
    store_now(i * stride, 100 + i);  // DRAM addresses
    run(2000);
  }
  run(4000);
  EXPECT_GT(stats_.counter_value("dram.writes"), 0u);
}

TEST_F(HierTest, NtcProbeRunsAlongsideNvmRead) {
  // §3: the LLC issues the miss toward BOTH the NVM and the NTC; an NTC
  // entry holds only its transaction's words, so the fill is NVM-bound
  // either way and the probe result only governs the merge.
  bool probed = false;
  hier_->hooks().ntc_probe = [&](CoreId, Addr) {
    probed = true;
    return true;
  };
  const Cycle start = now_;
  const Cycle done = load_and_wait(nvm_, true);
  EXPECT_TRUE(probed);
  EXPECT_EQ(stats_.counter_value("llc.ntc_probe_hits"), 1u);
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);
  EXPECT_GT(done - start, 100u);  // STT-RAM round trip dominates
}

TEST_F(HierTest, NtcProbeMissGoesToNvm) {
  hier_->hooks().ntc_probe = [&](CoreId, Addr) { return false; };
  load_and_wait(nvm_, true);
  EXPECT_EQ(stats_.counter_value("nvm.reads"), 1u);
}

TEST_F(HierTest, VolatileMissNeverProbes) {
  int probes = 0;
  hier_->hooks().ntc_probe = [&](CoreId, Addr) {
    ++probes;
    return true;
  };
  load_and_wait(64, false);  // DRAM address
  EXPECT_EQ(probes, 0);
}

TEST_F(HierTest, ClwbWritesDirtyLineToNvm) {
  store_now(nvm_, 0x77);
  run(3000);
  bool persisted = false;
  ASSERT_TRUE(hier_->clwb(now_, 0, nvm_, mem::Source::kLog,
                          [&] { persisted = true; }));
  run(3000);
  EXPECT_TRUE(persisted);
  EXPECT_EQ(stats_.counter_value("nvm.writes.log"), 1u);
  EXPECT_EQ(durable_->load(nvm_), 0x77u);
}

TEST_F(HierTest, ClwbOnCleanLineCompletesWithoutWrite) {
  store_now(nvm_, 0x77);
  run(3000);
  ASSERT_TRUE(hier_->clwb(now_, 0, nvm_, mem::Source::kLog, [] {}));
  run(3000);
  bool persisted = false;
  ASSERT_TRUE(hier_->clwb(now_, 0, nvm_, mem::Source::kLog,
                          [&] { persisted = true; }));
  run(100);
  EXPECT_TRUE(persisted);
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 1u);  // only the first
}

TEST_F(HierTest, ClwbWhileMissPendingRetries) {
  store_now(nvm_, 1);  // miss in flight
  EXPECT_FALSE(hier_->clwb(now_, 0, nvm_, mem::Source::kLog, [] {}));
  run(3000);
  EXPECT_TRUE(hier_->clwb(now_, 0, nvm_, mem::Source::kLog, [] {}));
}

TEST_F(HierTest, LlcEvictionBackInvalidatesPrivateLevels) {
  load_and_wait(nvm_, true);
  EXPECT_NE(hier_->l1(0).peek(nvm_), nullptr);
  const Addr stride = hier_->llc().sets() * kLineBytes;
  // Evict nvm_'s set from the LLC with conflicting volatile lines.
  for (unsigned i = 1; i <= 4; ++i) {
    load_and_wait(i * stride, false);
  }
  EXPECT_EQ(hier_->llc().peek(nvm_), nullptr);
  EXPECT_EQ(hier_->l1(0).peek(nvm_), nullptr);  // inclusion enforced
  EXPECT_EQ(hier_->l2(0).peek(nvm_), nullptr);
}

TEST_F(HierTest, KilnPinnedLineSurvivesEvictionPressure) {
  hier_->hooks().llc_nonvolatile = true;
  load_and_wait(nvm_, true);
  hier_->kiln_pin(0, nvm_, 1);
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 1; i <= 5; ++i) {
    load_and_wait(nvm_ + i * stride, true);
  }
  EXPECT_NE(hier_->llc().peek(nvm_), nullptr);
  EXPECT_TRUE(hier_->llc().peek(nvm_)->pinned);
}

TEST_F(HierTest, KilnCommitLineCleansUppersAndPinsUntilCleanBack) {
  hier_->hooks().llc_nonvolatile = true;
  store_now(nvm_, 5);
  run(3000);
  hier_->kiln_pin(0, nvm_, 1);
  EXPECT_TRUE(hier_->kiln_commit_line(0, nvm_));
  // Upper copies are retained but clean (clwb semantics).
  const Line* l1l = hier_->l1(0).peek(nvm_);
  ASSERT_NE(l1l, nullptr);
  EXPECT_FALSE(l1l->dirty);
  // The NV-LLC block stays pinned-dirty until its NVM clean-back completes.
  const Line* ll = hier_->llc().peek(nvm_);
  ASSERT_NE(ll, nullptr);
  EXPECT_TRUE(ll->pinned);
  EXPECT_TRUE(ll->dirty);
  hier_->kiln_clean_done(nvm_);
  EXPECT_FALSE(ll->pinned);
  EXPECT_FALSE(ll->dirty);
}

TEST_F(HierTest, BlockedLlcDelaysMisses) {
  const Cycle t0 = now_;
  const Cycle unblocked = load_and_wait(nvm_, true) - t0;

  hier_->block_llc_until(now_ + 2000);
  const Cycle t1 = now_;
  const Cycle blocked = load_and_wait(nvm_ + (1 << 20), true) - t1;
  EXPECT_GT(blocked, unblocked + 1000);
}

TEST_F(HierTest, NtWriteInvalidatesStaleCachedCopy) {
  // A cached line overwritten by a non-temporal write must not survive
  // with stale data.
  store_now(nvm_, 1);
  run(3000);
  ASSERT_NE(hier_->l1(0).peek(nvm_), nullptr);
  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = nvm_;
  req.persistent = true;
  req.source = mem::Source::kLog;
  req.payload = {{nvm_, 2}};
  ASSERT_TRUE(hier_->nt_write(now_, req));
  EXPECT_EQ(hier_->l1(0).peek(nvm_), nullptr);
  EXPECT_EQ(hier_->l2(0).peek(nvm_), nullptr);
  EXPECT_EQ(hier_->llc().peek(nvm_), nullptr);
  run(3000);
  EXPECT_EQ(durable_->load(nvm_), 2u);
}

TEST_F(HierTest, RejectsWhenMshrsExhausted) {
  // tiny config: 4 L1 MSHRs. Five distinct-line loads: the fifth bounces.
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_EQ(hier_->load(now_, 0, nvm_ + i * 4096, true).kind,
              AccessKind::kMiss);
  }
  EXPECT_EQ(hier_->load(now_, 0, nvm_ + 5 * 4096, true).kind,
            AccessKind::kRejected);
  EXPECT_GT(stats_.counter_value("hier.rejects"), 0u);
  run(3000);
  EXPECT_NE(hier_->load(now_, 0, nvm_ + 5 * 4096, true).kind,
            AccessKind::kRejected);
  run(3000);
  EXPECT_TRUE(hier_->quiesced());
}

TEST_F(HierTest, CleanLlcEvictionWritesNothing) {
  // Read-only lines leave the LLC silently: no NVM write, no payload.
  const Addr stride = hier_->llc().sets() * kLineBytes;
  for (unsigned i = 0; i <= 5; ++i) {
    load_and_wait(nvm_ + i * stride, true);
  }
  EXPECT_EQ(stats_.counter_value("nvm.writes"), 0u);
  EXPECT_EQ(stats_.counter_value("llc.writebacks"), 0u);
}

TEST_F(HierTest, QuiescedReflectsOutstandingWork) {
  EXPECT_TRUE(hier_->quiesced());
  ASSERT_EQ(hier_->load(now_, 0, nvm_, true).kind, AccessKind::kMiss);
  EXPECT_FALSE(hier_->quiesced());
  run(3000);
  EXPECT_TRUE(hier_->quiesced());
}

}  // namespace
}  // namespace ntcsim::cache
