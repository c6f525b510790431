#include "workload/workloads.hpp"

#include <gtest/gtest.h>

#include "workload/emitter.hpp"

namespace ntcsim::workload {
namespace {

using core::OpKind;
using core::Trace;

WorkloadParams small(WorkloadKind kind) {
  WorkloadParams p = default_params(kind);
  p.setup_elems = 300;
  p.ops = 120;
  p.seed = 7;
  return p;
}

/// Structural well-formedness every workload trace must satisfy.
void check_trace(const Trace& t, const AddressSpace& space) {
  ASSERT_GT(t.size(), 0u);
  bool in_tx = false;
  TxId expect = 1;
  for (std::size_t i = 0; i < t.ops().size(); ++i) {
    const auto& op = t.ops()[i];
    switch (op.kind) {
      case OpKind::kTxBegin:
        ASSERT_FALSE(in_tx) << "nested tx at op " << i;
        ASSERT_EQ(op.value, expect++);
        in_tx = true;
        break;
      case OpKind::kTxEnd:
        ASSERT_TRUE(in_tx);
        in_tx = false;
        break;
      case OpKind::kStore:
        if (op.persistent) {
          ASSERT_TRUE(in_tx) << "persistent store outside tx at op " << i;
          ASSERT_TRUE(space.is_persistent(op.addr));
          ASSERT_LT(op.addr, space.heap_base() + space.heap_bytes())
              << "store into reserved log/shadow region";
        }
        break;
      case OpKind::kLoad:
        ASSERT_EQ(op.persistent, space.is_persistent(op.addr));
        break;
      case OpKind::kCompute:
        ASSERT_GT(op.count, 0u) << "empty compute run at record " << i;
        ASSERT_FALSE(i > 0 && t.ops()[i - 1].kind == OpKind::kCompute)
            << "adjacent compute runs at record " << i;
        break;
      default:
        FAIL() << "raw workload traces must not contain fences/flushes";
    }
  }
  ASSERT_FALSE(in_tx);
}

class WorkloadTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(WorkloadTest, TraceIsWellFormed) {
  const AddressSpace space;
  SimHeap heap(space, 1);
  const Trace t = generate(small(GetParam()), 0, heap, nullptr);
  check_trace(t, space);
}

TEST_P(WorkloadTest, DeterministicForSameSeed) {
  const AddressSpace space;
  SimHeap h1(space, 1), h2(space, 1);
  const Trace a = generate(small(GetParam()), 0, h1, nullptr);
  const Trace b = generate(small(GetParam()), 0, h2, nullptr);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_EQ(a.ops()[i].addr, b.ops()[i].addr) << "op " << i;
    EXPECT_EQ(a.ops()[i].value, b.ops()[i].value) << "op " << i;
    EXPECT_EQ(a.ops()[i].count, b.ops()[i].count) << "op " << i;
  }
}

TEST_P(WorkloadTest, DifferentCoresUseDifferentAddresses) {
  const AddressSpace space;
  SimHeap heap(space, 2);
  const Trace a = generate(small(GetParam()), 0, heap, nullptr);
  const Trace b = generate(small(GetParam()), 1, heap, nullptr);
  Addr a_max = 0, b_min = ~0ULL;
  for (const auto& op : a.ops()) {
    if (op.kind == OpKind::kStore && op.persistent) {
      a_max = std::max(a_max, op.addr);
    }
  }
  for (const auto& op : b.ops()) {
    if (op.kind == OpKind::kStore && op.persistent) {
      b_min = std::min(b_min, op.addr);
    }
  }
  EXPECT_LT(a_max, b_min);
}

TEST_P(WorkloadTest, JournalMatchesTraceStores) {
  const AddressSpace space;
  SimHeap heap(space, 1);
  recovery::Journal journal(1);
  const Trace t = generate(small(GetParam()), 0, heap, &journal);
  std::size_t trace_pstores = 0;
  for (const auto& op : t.ops()) {
    if (op.kind == OpKind::kStore && op.persistent) ++trace_pstores;
  }
  std::size_t journal_writes = 0;
  for (const auto& tx : journal.per_core(0)) journal_writes += tx.writes.size();
  EXPECT_EQ(trace_pstores, journal_writes);
  EXPECT_EQ(journal.per_core(0).size(), t.transactions());
}

TEST_P(WorkloadTest, TransactionCountCoversOps) {
  const AddressSpace space;
  SimHeap heap(space, 1);
  const WorkloadParams p = small(GetParam());
  const Trace t = generate(p, 0, heap, nullptr);
  EXPECT_GE(t.transactions(), p.ops);  // measured ops + setup batches
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values(WorkloadKind::kSps,
                                           WorkloadKind::kHashtable,
                                           WorkloadKind::kGraph,
                                           WorkloadKind::kRbtree,
                                           WorkloadKind::kBtree,
                                           WorkloadKind::kQueue,
                                           WorkloadKind::kSkiplist),
                         [](const auto& p) {
                           return std::string(to_string(p.param));
                         });

TEST(WorkloadMix, LookupPctZeroMeansNoSearchTxs) {
  const AddressSpace space;
  SimHeap heap(space, 1);
  WorkloadParams p = small(WorkloadKind::kRbtree);
  p.lookup_pct = 0;
  recovery::Journal j(1);
  generate(p, 0, heap, &j);
  // Every measured tx is an insert: all txs have at least one write.
  for (const auto& tx : j.per_core(0)) {
    EXPECT_FALSE(tx.writes.empty());
  }
}

TEST(WorkloadMix, LookupHeavyHasReadOnlyTxs) {
  const AddressSpace space;
  SimHeap heap(space, 1);
  WorkloadParams p = small(WorkloadKind::kHashtable);
  p.lookup_pct = 100;
  recovery::Journal j(1);
  generate(p, 0, heap, &j);
  std::size_t read_only = 0;
  for (const auto& tx : j.per_core(0)) {
    if (tx.writes.empty()) ++read_only;
  }
  EXPECT_GE(read_only, p.ops / 2);
}

TEST(WorkloadMix, SpsTransactionsHaveExactlyTwoStores) {
  const AddressSpace space;
  SimHeap heap(space, 1);
  WorkloadParams p = small(WorkloadKind::kSps);
  recovery::Journal j(1);
  generate(p, 0, heap, &j);
  const auto& txs = j.per_core(0);
  // Skip setup transactions; the last p.ops txs are swaps.
  for (std::size_t i = txs.size() - p.ops; i < txs.size(); ++i) {
    EXPECT_EQ(txs[i].writes.size(), 2u);
  }
}

TEST(WorkloadMix, DescriptionsMatchTable3) {
  EXPECT_NE(description(WorkloadKind::kGraph).find("adjacency"),
            std::string_view::npos);
  EXPECT_NE(description(WorkloadKind::kRbtree).find("red-black"),
            std::string_view::npos);
  EXPECT_NE(description(WorkloadKind::kSps).find("swap"),
            std::string_view::npos);
  EXPECT_NE(description(WorkloadKind::kBtree).find("B+tree"),
            std::string_view::npos);
  EXPECT_NE(description(WorkloadKind::kHashtable).find("hashtable"),
            std::string_view::npos);
}

}  // namespace
}  // namespace ntcsim::workload
