#include "persist/sp_transform.hpp"

#include <gtest/gtest.h>

#include "recovery/log_format.hpp"
#include "workload/emitter.hpp"

namespace ntcsim::persist {
namespace {

using core::MicroOp;
using core::OpKind;
using core::Trace;

AddressSpace space() { return AddressSpace{}; }

Trace simple_tx_trace(int stores) {
  workload::TraceEmitter em(0, space(), nullptr);
  em.begin_tx();
  for (int i = 0; i < stores; ++i) {
    em.load(space().heap_base() + 512 + i * 8);
    em.store(space().heap_base() + i * 8, 100 + i);
  }
  em.end_tx();
  return em.take_combined();
}

TEST(SpTransform, InjectsLogStoresPerDataStore) {
  const Trace in = simple_tx_trace(2);
  const Trace out = transform_sp(in, 0, space());
  // Each persistent store adds 2 non-temporal log-word stores; the data
  // stores are deferred but kept; plus 2 commit-marker words.
  EXPECT_EQ(out.count(OpKind::kStore), 2u /*data*/);
  EXPECT_EQ(out.count(OpKind::kNtStore), 4u /*log*/ + 2u /*marker*/);
  EXPECT_EQ(out.count(OpKind::kLoad), in.count(OpKind::kLoad));
  EXPECT_EQ(out.count(OpKind::kTxBegin), 1u);
  EXPECT_EQ(out.count(OpKind::kTxEnd), 1u);
}

TEST(SpTransform, OrderingPrimitivesPresent) {
  // Default: two ordering rounds — records durable, then the marker.
  const Trace out = transform_sp(simple_tx_trace(2), 0, space());
  EXPECT_EQ(out.count(OpKind::kSfence), 3u);
  EXPECT_EQ(out.count(OpKind::kPcommit), 2u);
  EXPECT_GE(out.count(OpKind::kClwb), 1u);  // lazy data clean-backs
}

TEST(SpTransform, SingleRoundVariantHasOnePcommit) {
  SpOptions opts;
  opts.single_round = true;
  const Trace out = transform_sp(simple_tx_trace(2), 0, space(), opts);
  EXPECT_EQ(out.count(OpKind::kPcommit), 1u);
  EXPECT_EQ(out.count(OpKind::kSfence), 2u);
}

TEST(SpTransform, DataStoresComeAfterSecondPcommit) {
  const AddressSpace s = space();
  const Trace out = transform_sp(simple_tx_trace(2), 0, s);
  const std::vector<MicroOp>& ops = out.ops();
  std::size_t last_pcommit = 0, first_data_store = ops.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kPcommit) last_pcommit = i;
    if (ops[i].kind == OpKind::kStore && ops[i].addr < s.log_base(0) &&
        first_data_store == ops.size()) {
      first_data_store = i;
    }
  }
  EXPECT_LT(last_pcommit, first_data_store);
}

TEST(SpTransform, LogRecordsEncodeTargetAndValue) {
  const AddressSpace s = space();
  const Trace out = transform_sp(simple_tx_trace(1), 0, s);
  // First log record: two non-temporal stores at log_base and log_base+8.
  std::vector<MicroOp> log_stores;
  for (const MicroOp& op : out.ops()) {
    if (op.kind == OpKind::kNtStore && op.addr >= s.log_base(0)) {
      log_stores.push_back(op);
    }
  }
  ASSERT_GE(log_stores.size(), 4u);  // record + marker
  EXPECT_EQ(log_stores[0].addr, s.log_base(0));
  EXPECT_EQ(log_stores[0].value, s.heap_base());  // target address
  EXPECT_EQ(log_stores[1].value, 100u);           // stored value
  EXPECT_TRUE(recovery::is_commit_marker(log_stores[2].value));
  EXPECT_EQ(log_stores[3].value, 1u);  // record count (validated at parse)
}

TEST(SpTransform, UnorderedVariantHasNoFences) {
  // Fig. 2c: the log is written with ordinary cached stores and never
  // flushed or fenced — it can be lost while data stores leak to NVM.
  SpOptions opts;
  opts.ordered = false;
  const Trace out = transform_sp(simple_tx_trace(3), 0, space(), opts);
  EXPECT_EQ(out.count(OpKind::kSfence), 0u);
  EXPECT_EQ(out.count(OpKind::kPcommit), 0u);
  EXPECT_EQ(out.count(OpKind::kClwb), 0u);
  EXPECT_EQ(out.count(OpKind::kNtStore), 0u);
  EXPECT_EQ(out.count(OpKind::kStore), 3u + 6u + 2u);
}

TEST(SpTransform, ReadOnlyTxAddsNothing) {
  workload::TraceEmitter em(0, space(), nullptr);
  em.begin_tx();
  em.load(space().heap_base());
  em.end_tx();
  const Trace out = transform_sp(em.take_combined(), 0, space());
  EXPECT_EQ(out.count(OpKind::kStore), 0u);
  EXPECT_EQ(out.count(OpKind::kClwb), 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST(SpTransform, VolatileStoresPassThrough) {
  workload::TraceEmitter em(0, space(), nullptr);
  em.begin_tx();
  em.store(64, 1);  // DRAM
  em.end_tx();
  const Trace out = transform_sp(em.take_combined(), 0, space());
  EXPECT_EQ(out.count(OpKind::kStore), 1u);
  EXPECT_EQ(out.count(OpKind::kClwb), 0u);
}

TEST(SpTransform, SuccessiveTxsGetDistinctLogRecords) {
  workload::TraceEmitter em(0, space(), nullptr);
  for (int t = 0; t < 2; ++t) {
    em.begin_tx();
    em.store(space().heap_base() + t * 8, t);
    em.end_tx();
  }
  const AddressSpace s = space();
  const Trace out = transform_sp(em.take_combined(), 0, s);
  std::vector<Addr> log_addrs;
  for (const MicroOp& op : out.ops()) {
    if (op.kind == OpKind::kNtStore && op.addr >= s.log_base(0)) {
      log_addrs.push_back(op.addr);
    }
  }
  // 2 txs x (record + marker) x 2 words = 8 distinct, increasing addresses.
  ASSERT_EQ(log_addrs.size(), 8u);
  for (std::size_t i = 1; i < log_addrs.size(); ++i) {
    EXPECT_GT(log_addrs[i], log_addrs[i - 1]);
  }
}

}  // namespace
}  // namespace ntcsim::persist
