#include "workload/emitter.hpp"

#include <gtest/gtest.h>

namespace ntcsim::workload {
namespace {

using core::OpKind;

class EmitterTest : public ::testing::Test {
 protected:
  AddressSpace space_;
  recovery::Journal journal_{1};
  TraceEmitter em_{0, space_, &journal_};
  Addr p_ = space_.heap_base();
};

TEST_F(EmitterTest, TxBracketsAndIds) {
  em_.begin_tx();
  EXPECT_EQ(em_.current_tx(), 1u);
  em_.store(p_, 5);
  em_.end_tx();
  em_.begin_tx();
  EXPECT_EQ(em_.current_tx(), 2u);
  em_.end_tx();

  const core::Trace t = em_.take_setup();
  ASSERT_EQ(t.size(), 5u);
  ASSERT_EQ(t.ops().size(), 5u);
  EXPECT_EQ(t.ops()[0].kind, OpKind::kTxBegin);
  EXPECT_EQ(t.ops()[0].value, 1u);
  EXPECT_EQ(t.ops()[1].kind, OpKind::kStore);
  EXPECT_TRUE(t.ops()[1].persistent);
  EXPECT_EQ(t.ops()[2].kind, OpKind::kTxEnd);
  EXPECT_EQ(t.ops()[3].value, 2u);
}

TEST_F(EmitterTest, JournalMirrorsPersistentStores) {
  em_.begin_tx();
  em_.store(p_ + 8, 42);
  em_.end_tx();
  ASSERT_EQ(journal_.per_core(0).size(), 1u);
  EXPECT_EQ(journal_.per_core(0)[0].writes[0],
            (std::pair<Addr, Word>{p_ + 8, 42}));
}

TEST_F(EmitterTest, VolatileStoresNotJournaled) {
  em_.begin_tx();
  em_.store(64, 1);  // DRAM address, legal outside/inside tx
  em_.end_tx();
  EXPECT_TRUE(journal_.per_core(0)[0].writes.empty());
  const core::Trace t = em_.take_setup();
  EXPECT_FALSE(t.ops()[1].persistent);
}

TEST_F(EmitterTest, PersistentStoreOutsideTxAborts) {
  EXPECT_DEATH(em_.store(p_, 1), "outside a transaction");
}

TEST_F(EmitterTest, LoadsCarryPersistenceFlag) {
  em_.load(p_);
  em_.load(128);
  const core::Trace t = em_.take_setup();
  EXPECT_TRUE(t.ops()[0].persistent);
  EXPECT_FALSE(t.ops()[1].persistent);
}

TEST_F(EmitterTest, ComputeEmitsN) {
  em_.compute(3);
  EXPECT_EQ(em_.trace().count(OpKind::kCompute), 3u);
}

TEST_F(EmitterTest, ComputeIsOneRunRecord) {
  em_.compute(0);
  EXPECT_TRUE(em_.trace().empty());
  em_.compute(640);
  em_.compute(8);
  ASSERT_EQ(em_.trace().ops().size(), 1u);
  EXPECT_EQ(em_.trace().ops()[0].count, 648u);
  EXPECT_EQ(em_.trace().size(), 648u);
}

}  // namespace
}  // namespace ntcsim::workload
