#include "recovery/recovery.hpp"

#include "recovery/log_format.hpp"

#include <gtest/gtest.h>

namespace ntcsim::recovery {
namespace {

Journal two_tx_journal() {
  Journal j(1);
  j.begin_tx(0, 1);
  j.write(0, 0, 10);
  j.write(0, 8, 11);
  j.end_tx(0);
  j.begin_tx(0, 2);
  j.write(0, 0, 20);  // overwrites tx 1's word
  j.write(0, 16, 21);
  j.end_tx(0);
  return j;
}

TEST(Checker, EmptyStateMatchesPrefixZero) {
  const Journal j = two_tx_journal();
  WordImage img;
  const auto r = check_atomicity(img, j);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.durable_tx_prefix[0], 0u);
}

TEST(Checker, FullReplayMatchesPrefixTwo) {
  const Journal j = two_tx_journal();
  WordImage img;
  img.store(0, 20);
  img.store(8, 11);
  img.store(16, 21);
  const auto r = check_atomicity(img, j);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.durable_tx_prefix[0], 2u);
}

TEST(Checker, PrefixOneMatches) {
  const Journal j = two_tx_journal();
  WordImage img;
  img.store(0, 10);
  img.store(8, 11);
  const auto r = check_atomicity(img, j);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.durable_tx_prefix[0], 1u);
}

TEST(Checker, PartialTxIsViolation) {
  const Journal j = two_tx_journal();
  WordImage img;
  img.store(0, 10);  // tx 1 half applied
  const auto r = check_atomicity(img, j);
  EXPECT_FALSE(r.consistent);
  EXPECT_NE(r.violation.find("core 0"), std::string::npos);
}

TEST(Checker, SkippedTxIsViolation) {
  // Tx 2 applied without tx 1: not a prefix.
  const Journal j = two_tx_journal();
  WordImage img;
  img.store(0, 20);
  img.store(16, 21);
  const auto r = check_atomicity(img, j);
  EXPECT_FALSE(r.consistent);
}

TEST(Checker, ForeignValueIsViolation) {
  const Journal j = two_tx_journal();
  WordImage img;
  img.store(0, 999);  // value never written by any tx
  const auto r = check_atomicity(img, j);
  EXPECT_FALSE(r.consistent);
}

TEST(Checker, PerCoreIndependence) {
  Journal j(2);
  j.begin_tx(0, 1);
  j.write(0, 0, 1);
  j.end_tx(0);
  j.begin_tx(1, 1);
  j.write(1, 1024, 2);
  j.end_tx(1);
  WordImage img;
  img.store(0, 1);  // core 0 durable, core 1 not
  const auto r = check_atomicity(img, j);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.durable_tx_prefix[0], 1u);
  EXPECT_EQ(r.durable_tx_prefix[1], 0u);
}

TEST(Checker, RepeatedWritesWithinTx) {
  Journal j(1);
  j.begin_tx(0, 1);
  j.write(0, 0, 1);
  j.write(0, 0, 2);  // last write wins
  j.end_tx(0);
  WordImage img;
  img.store(0, 2);
  EXPECT_TRUE(check_atomicity(img, j).consistent);
  WordImage img2;
  img2.store(0, 1);  // intermediate value visible: violation
  EXPECT_FALSE(check_atomicity(img2, j).consistent);
}

TEST(Checker, EmptyJournalIsConsistent) {
  Journal j(1);
  WordImage img;
  EXPECT_TRUE(check_atomicity(img, j).consistent);
}

TEST(RecoverTc, AppliesCommittedEntriesInFifoOrder) {
  StatSet stats;
  DurableState d(stats);
  NtcSnapshot snap;
  snap.push_back({1, true, {{0, 1}}});
  snap.push_back({1, true, {{0, 2}}});   // newer entry, same word
  snap.push_back({2, false, {{8, 9}}});  // active: discarded
  const WordImage img = recover_tc(d, {snap});
  EXPECT_EQ(img.load(0), 2u);
  EXPECT_EQ(img.load(8), 0u);
}

TEST(RecoverSp, ReplaysLoggedTxs) {
  StatSet stats;
  DurableState d(stats);
  const AddressSpace space;
  mem::MemRequest log_write;
  log_write.payload = {{space.log_base(0), 4096},
                       {space.log_base(0) + 8, 55},
                       {space.log_base(0) + 16, make_commit_marker(1)},
                       {space.log_base(0) + 24, 1}};
  d.on_nvm_write(log_write);
  const WordImage img = recover_sp(d, space, 1);
  EXPECT_EQ(img.load(4096), 55u);
}

}  // namespace
}  // namespace ntcsim::recovery
