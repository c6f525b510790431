// Fuzz the atomicity checker itself: build random journals, construct
// recovered states that ARE valid prefixes (must pass, with the right
// prefix length) and states with injected corruption (must fail). The
// checker is the oracle for every crash-injection test, so it gets its own
// adversarial coverage.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "recovery/recovery.hpp"

namespace ntcsim::recovery {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  unsigned cores;
  unsigned txs_per_core;
  unsigned max_writes;
  unsigned word_space;  ///< Small => frequent cross-tx overwrites.
};

class CheckerFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  void build(const FuzzCase& fc) {
    rng_ = std::make_unique<Rng>(fc.seed);
    journal_ = std::make_unique<Journal>(fc.cores);
    writes_.assign(fc.cores, {});
    for (CoreId c = 0; c < fc.cores; ++c) {
      for (unsigned t = 0; t < fc.txs_per_core; ++t) {
        journal_->begin_tx(c, t + 1);
        const unsigned n = 1 + static_cast<unsigned>(rng_->below(fc.max_writes));
        std::vector<std::pair<Addr, Word>> tx;
        for (unsigned w = 0; w < n; ++w) {
          // Per-core address spaces are disjoint, like the workloads.
          const Addr a = (c * 0x100000ULL) + rng_->below(fc.word_space) * 8;
          const Word v = rng_->next() | 1;  // nonzero: distinguishable from cold NVM
          journal_->write(c, a, v);
          tx.emplace_back(a, v);
        }
        journal_->end_tx(c);
        writes_[c].push_back(std::move(tx));
      }
    }
  }

  /// Recovered state = exact replay of prefix `k[c]` per core.
  WordImage replay_prefix(const std::vector<unsigned>& k) const {
    WordImage img;
    for (CoreId c = 0; c < writes_.size(); ++c) {
      for (unsigned t = 0; t < k[c]; ++t) {
        for (const auto& [a, v] : writes_[c][t]) img.store(a, v);
      }
    }
    return img;
  }

  std::unique_ptr<Rng> rng_;
  std::unique_ptr<Journal> journal_;
  std::vector<std::vector<std::vector<std::pair<Addr, Word>>>> writes_;
};

TEST_P(CheckerFuzz, ExactPrefixesAreConsistent) {
  const FuzzCase fc = GetParam();
  build(fc);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<unsigned> k(fc.cores);
    for (auto& v : k) v = static_cast<unsigned>(rng_->below(fc.txs_per_core + 1));
    const WordImage img = replay_prefix(k);
    const auto report = check_atomicity(img, *journal_);
    ASSERT_TRUE(report.consistent) << report.violation;
    for (CoreId c = 0; c < fc.cores; ++c) {
      // The reported prefix can exceed k[c] when later transactions are
      // idempotent on the recovered state, but never undershoot it.
      EXPECT_GE(report.durable_tx_prefix[c], k[c]) << "core " << c;
    }
  }
}

TEST_P(CheckerFuzz, ForeignWordIsFlagged) {
  const FuzzCase fc = GetParam();
  build(fc);
  std::vector<unsigned> k(fc.cores, fc.txs_per_core / 2);
  WordImage img = replay_prefix(k);
  // Corrupt one journaled word with a value no transaction ever wrote.
  const Addr victim = 0 * 0x100000ULL + (fc.word_space / 2) * 8;
  bool journaled = false;
  for (const auto& tx : writes_[0]) {
    for (const auto& [a, _] : tx) journaled |= a == victim;
  }
  if (!journaled) GTEST_SKIP() << "victim word untouched by this journal";
  img.store(victim, 0xDEADDEADDEADDEADULL);
  const auto report = check_atomicity(img, *journal_);
  EXPECT_FALSE(report.consistent);
}

TEST_P(CheckerFuzz, HalfAppliedTailIsFlagged) {
  const FuzzCase fc = GetParam();
  build(fc);
  std::vector<unsigned> k(fc.cores, fc.txs_per_core - 1);
  WordImage img = replay_prefix(k);
  // Apply only the first write of the last transaction of core 0.
  const auto& tail = writes_[0].back();
  if (tail.size() < 2) GTEST_SKIP() << "tail transaction too small to tear";
  img.store(tail.front().first, tail.front().second);
  // Tearing is only observable if the first write's value differs from the
  // prefix state at that address AND the rest of the tx changes something.
  const WordImage clean = replay_prefix(k);
  bool observable = clean.load(tail.front().first) != tail.front().second;
  for (std::size_t i = 1; i < tail.size() && observable; ++i) {
    // A later same-word write inside the tx would mask the tear.
    if (tail[i].first == tail.front().first) observable = false;
  }
  if (!observable) GTEST_SKIP() << "tear not observable for this journal";
  const auto report = check_atomicity(img, *journal_);
  EXPECT_FALSE(report.consistent);
}

INSTANTIATE_TEST_SUITE_P(
    Journals, CheckerFuzz,
    ::testing::Values(FuzzCase{11, 1, 20, 4, 16},
                      FuzzCase{12, 2, 15, 6, 8},
                      FuzzCase{13, 4, 10, 3, 64},
                      FuzzCase{14, 1, 40, 8, 4},
                      FuzzCase{15, 2, 25, 2, 256},
                      FuzzCase{16, 4, 12, 10, 12}),
    [](const auto& p) { return "seed" + std::to_string(p.param.seed); });

}  // namespace
}  // namespace ntcsim::recovery
