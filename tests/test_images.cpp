#include "recovery/images.hpp"

#include <gtest/gtest.h>

#include <map>

namespace ntcsim::recovery {
namespace {

TEST(WordImage, StoreLoadRoundTrip) {
  WordImage img;
  img.store(64, 0xDEAD);
  EXPECT_EQ(img.load(64), 0xDEADu);
  EXPECT_EQ(img.load(72), 0u);
  EXPECT_TRUE(img.contains(64));
  EXPECT_FALSE(img.contains(72));
}

TEST(WordImage, UnalignedStoreAborts) {
  WordImage img;
  EXPECT_DEATH(img.store(65, 1), "word-aligned");
}

TEST(WordImage, WordsInLineReturnsOnlyThatLine) {
  WordImage img;
  img.store(64, 1);
  img.store(72, 2);
  img.store(128, 3);  // next line
  const auto words = img.words_in_line(64);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0].first, 64u);
  EXPECT_EQ(words[0].second, 1u);
  EXPECT_EQ(words[1].first, 72u);
  EXPECT_EQ(words[1].second, 2u);
  EXPECT_TRUE(img.words_in_line(256).empty());
}

TEST(WordImage, OverwriteKeepsLatest) {
  WordImage img;
  img.store(0, 1);
  img.store(0, 2);
  EXPECT_EQ(img.load(0), 2u);
  EXPECT_EQ(img.words_in_line(0).size(), 1u);
}

TEST(WordImage, ForEachVisitsAllWords) {
  WordImage img;
  img.store(0, 1);
  img.store(8, 2);
  img.store(1024, 3);
  int count = 0;
  Word sum = 0;
  img.for_each([&](Addr, Word w) {
    ++count;
    sum += w;
  });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sum, 6u);
}

TEST(WordImage, StoreCacheSurvivesRehashes) {
  // Stores to one hot line interleave with first stores to fresh lines.
  // Each fresh line may rehash the table and move every slot, so the
  // one-line store cache must never write through a pointer into the old
  // table (ASan flags it; the read-back catches a lost store).
  WordImage img;
  std::map<Addr, Word> ref;
  auto store = [&](Addr a, Word v) {
    img.store(a, v);
    ref[a] = v;
  };
  const Addr hot = 0x1000;
  for (unsigned i = 0; i < 5000; ++i) {
    store(hot + (i % 8) * kWordBytes, i);
    store(0x200000000ULL + Addr{i} * kLineBytes + (i % 8) * kWordBytes,
          100000 + i);
    store(hot + ((i + 3) % 8) * kWordBytes, 200000 + i);
  }
  EXPECT_EQ(img.line_count(), 5001u);
  for (const auto& [addr, value] : ref) {
    ASSERT_TRUE(img.contains(addr)) << std::hex << addr;
    ASSERT_EQ(img.load(addr), value) << std::hex << addr;
  }
  EXPECT_EQ(img.words_in_line(hot).size(), 8u);
}

TEST(DurableState, AppliesWritePayload) {
  StatSet stats;
  DurableState d(stats);
  mem::MemRequest req;
  req.payload = {{64, 5}, {72, 6}};
  d.on_nvm_write(req);
  EXPECT_EQ(d.load(64), 5u);
  EXPECT_EQ(d.load(72), 6u);
  EXPECT_EQ(stats.counter_value("durable.words_written"), 2u);
}

TEST(DurableState, KilnCommitApplies) {
  StatSet stats;
  DurableState d(stats);
  d.apply_kiln_commit({{128, 9}, {136, 10}});
  EXPECT_EQ(d.load(128), 9u);
  EXPECT_EQ(d.load(136), 10u);
}

}  // namespace
}  // namespace ntcsim::recovery
