// core::Trace run semantics: compute ops fold into runs, while size() and
// count() keep counting µops.
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

namespace ntcsim::core {
namespace {

TEST(Trace, PushMergesAdjacentComputeOps) {
  Trace t;
  t.push(MicroOp::compute());
  t.push(MicroOp::compute(3));
  t.push(MicroOp::load(64, false));
  t.push(MicroOp::compute());
  t.push(MicroOp::compute());
  ASSERT_EQ(t.ops().size(), 3u);
  EXPECT_EQ(t.ops()[0].kind, OpKind::kCompute);
  EXPECT_EQ(t.ops()[0].count, 4u);
  EXPECT_EQ(t.ops()[1].kind, OpKind::kLoad);
  EXPECT_EQ(t.ops()[1].count, 1u);
  EXPECT_EQ(t.ops()[2].count, 2u);
}

TEST(Trace, SizeCountsUops) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  t.push(MicroOp::compute(640));
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::compute(8));
  t.push(MicroOp::tx_end());
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.ops().size(), 4u);
  EXPECT_EQ(t.size(), 650u);
}

TEST(Trace, CountSumsRunLengths) {
  Trace t;
  t.push(MicroOp::compute(5));
  t.push(MicroOp::store(128, 1, false));
  t.push(MicroOp::compute(3));
  t.push(MicroOp::compute(1));
  t.push(MicroOp::store(192, 2, false));
  EXPECT_EQ(t.count(OpKind::kCompute), 9u);
  EXPECT_EQ(t.count(OpKind::kStore), 2u);
  EXPECT_EQ(t.count(OpKind::kLoad), 0u);
  EXPECT_EQ(t.transactions(), 0u);
}

TEST(Trace, AppendMergesTheRunsAtTheSeam) {
  Trace a;
  a.push(MicroOp::load(64, false));
  a.push(MicroOp::compute(2));
  Trace b;
  b.push(MicroOp::compute(3));
  b.push(MicroOp::tx_begin(1));
  a.append(b);
  ASSERT_EQ(a.ops().size(), 3u);
  EXPECT_EQ(a.ops()[1].count, 5u);
  EXPECT_EQ(a.size(), 7u);
}

TEST(Trace, MergeThatWouldOverflowStartsANewRecord) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  Trace t;
  t.push(MicroOp::compute(kMax - 1));
  t.push(MicroOp::compute(1));  // fills the run exactly
  ASSERT_EQ(t.ops().size(), 1u);
  EXPECT_EQ(t.ops()[0].count, kMax);
  t.push(MicroOp::compute(2));
  ASSERT_EQ(t.ops().size(), 2u);
  EXPECT_EQ(t.ops()[1].count, 2u);
  EXPECT_EQ(t.size(), std::size_t{kMax} + 2);
  EXPECT_EQ(t.count(OpKind::kCompute), std::size_t{kMax} + 2);
}

TEST(Trace, MovedFromTraceIsEmpty) {
  Trace a;
  a.push(MicroOp::compute(5));
  a.push(MicroOp::tx_begin(1));
  Trace b = std::move(a);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  a = std::move(b);
  EXPECT_EQ(a.ops().size(), 2u);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(Trace, BadCountsAbort) {
  Trace t;
  EXPECT_DEATH(t.push(MicroOp::compute(0)), "bad uop count");
  MicroOp load = MicroOp::load(64, false);
  load.count = 2;
  EXPECT_DEATH(t.push(load), "bad uop count");
}

}  // namespace
}  // namespace ntcsim::core
