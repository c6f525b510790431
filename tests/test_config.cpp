#include "common/config.hpp"

#include <gtest/gtest.h>

namespace ntcsim {
namespace {

TEST(Config, PaperMatchesTable2) {
  const SystemConfig c = SystemConfig::paper();
  EXPECT_EQ(c.cores, 4u);
  EXPECT_DOUBLE_EQ(c.ghz, 2.0);
  EXPECT_EQ(c.l1.size_bytes, 32ULL << 10);
  EXPECT_EQ(c.l1.ways, 4u);
  EXPECT_EQ(c.l1.latency_cycles, 1u);  // 0.5 ns at 2 GHz
  EXPECT_EQ(c.l2.size_bytes, 256ULL << 10);
  EXPECT_EQ(c.l2.ways, 8u);
  EXPECT_EQ(c.llc.size_bytes, 64ULL << 20);
  EXPECT_EQ(c.llc.ways, 16u);
  EXPECT_EQ(c.ntc.size_bytes, 4ULL << 10);
  EXPECT_EQ(c.ntc.entries(), 64u);
  EXPECT_EQ(c.nvm.read_queue, 8u);
  EXPECT_EQ(c.nvm.write_queue, 64u);
  EXPECT_DOUBLE_EQ(c.nvm.drain_high_watermark, 0.8);
  EXPECT_EQ(c.nvm.ranks, 4u);
  EXPECT_EQ(c.nvm.banks_per_rank, 8u);
  // STT-RAM: 65 ns read = 130 cycles; write 11 ns slower.
  EXPECT_EQ(c.nvm.timing.row_miss, 130u);
  EXPECT_EQ(c.nvm.timing.write_extra, 22u);
}

TEST(Config, AddressSpaceSplitsDramAndNvm) {
  const AddressSpace s;
  EXPECT_EQ(s.nvm_base(), 8ULL << 30);
  EXPECT_FALSE(s.is_persistent(0));
  EXPECT_FALSE(s.is_persistent(s.nvm_base() - 1));
  EXPECT_TRUE(s.is_persistent(s.nvm_base()));
  EXPECT_TRUE(s.is_persistent(s.nvm_end() - 1));
  EXPECT_FALSE(s.is_persistent(s.nvm_end()));
}

TEST(Config, ReservedRegionsDoNotOverlapHeap) {
  const AddressSpace s;
  EXPECT_GE(s.log_base(0), s.heap_base() + s.heap_bytes());
  EXPECT_GE(s.shadow_base(0), s.heap_base() + s.heap_bytes());
  // Per-core regions are disjoint.
  EXPECT_GE(s.log_base(1), s.log_base(0) + s.log_bytes_per_core());
  EXPECT_NE(s.shadow_base(0), s.log_base(0));
  // The last core a node may have keeps both regions inside NVM.
  const CoreId last = AddressSpace::kMaxCores - 1;
  EXPECT_LE(s.log_base(last) + AddressSpace::kRegionBytes, s.shadow_base(0));
  EXPECT_LE(s.shadow_base(last) + AddressSpace::kRegionBytes, s.nvm_end());
}

TEST(Config, CacheGeometry) {
  CacheConfig c{32ULL << 10, 4, 1, 16, 8};
  EXPECT_EQ(c.lines(), 512u);
  EXPECT_EQ(c.sets(), 128u);
}

TEST(Config, LineHelpers) {
  EXPECT_EQ(line_of(0x12345), 0x12340ULL & ~0x3FULL);
  EXPECT_EQ(line_of(64), 64u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(word_of(15), 8u);
  EXPECT_EQ(word_of(16), 16u);
}

TEST(Config, TinyIsSmallButValid) {
  const SystemConfig c = SystemConfig::tiny();
  EXPECT_EQ(c.cores, 1u);
  EXPECT_GE(c.ntc.entries(), 2u);
  EXPECT_GT(c.l1.sets(), 0u);
  EXPECT_GT(c.llc.sets(), 0u);
}

TEST(Config, MechanismNames) {
  EXPECT_EQ(to_string(Mechanism::kOptimal), "Optimal");
  EXPECT_EQ(to_string(Mechanism::kSp), "SP");
  EXPECT_EQ(to_string(Mechanism::kTc), "TC");
  EXPECT_EQ(to_string(Mechanism::kKiln), "Kiln");
  EXPECT_EQ(to_string(WorkloadKind::kSps), "sps");
}

}  // namespace
}  // namespace ntcsim
