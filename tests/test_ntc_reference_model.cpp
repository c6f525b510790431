// Golden-model equivalence: drive the transaction cache with randomized
// write/commit/tick sequences and compare the final durable NVM state
// against a trivially-correct reference (apply committed transactions'
// writes in program order). Catches ordering bugs in the ring/spill drain
// that unit tests with hand-picked sequences might miss.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "recovery/images.hpp"
#include "txcache/tx_cache.hpp"

namespace ntcsim::txcache {
namespace {

struct Params {
  std::uint64_t seed;
  std::size_t ntc_entries;
  double threshold;
  unsigned txs;
  unsigned max_stores_per_tx;
  unsigned line_space;  ///< Distinct lines, small => many same-line conflicts.
};

class NtcGoldenTest : public ::testing::TestWithParam<Params> {};

TEST_P(NtcGoldenTest, FinalDurableStateMatchesReference) {
  const Params p = GetParam();
  Rng rng(p.seed);

  SystemConfig cfg = SystemConfig::tiny();
  cfg.ntc.size_bytes = p.ntc_entries * kLineBytes;
  cfg.ntc.overflow_threshold = p.threshold;

  EventQueue events;
  StatSet stats;
  mem::MemorySystem mem(cfg, events, stats);
  recovery::DurableState durable(stats);
  mem.set_nvm_observer(&durable);
  TxCache ntc("ntc0", 0, cfg.ntc, cfg.address_space, mem, stats);

  const Addr base = cfg.address_space.heap_base();
  auto tick_all = [&](Cycle& now, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      events.drain_until(now);
      ntc.tick(now);
      mem.tick(now);
      ++now;
    }
  };

  // Reference: committed transactions' word writes in program order.
  std::map<Addr, Word> reference;
  Cycle now = 0;

  for (TxId tx = 1; tx <= p.txs; ++tx) {
    const unsigned stores = 1 + static_cast<unsigned>(
                                    rng.below(p.max_stores_per_tx));
    std::vector<std::pair<Addr, Word>> tx_writes;
    for (unsigned s = 0; s < stores; ++s) {
      const Addr addr =
          base + rng.below(p.line_space) * kLineBytes + rng.below(8) * 8;
      const Word value = rng.next();
      // The CPU stalls on a full NTC: keep ticking until accepted.
      unsigned guard = 0;
      while (!ntc.write(now, addr, value, tx)) {
        tick_all(now, 1);
        ASSERT_LT(++guard, 200000u) << "NTC wedged while full";
      }
      tx_writes.emplace_back(word_of(addr), value);
      if (rng.chance(1, 3)) tick_all(now, 1 + rng.below(30));
      ASSERT_LE(ntc.occupancy(), ntc.capacity());
    }
    ntc.commit(tx);
    for (const auto& [a, v] : tx_writes) reference[a] = v;
    if (rng.chance(1, 2)) tick_all(now, rng.below(100));
  }

  // Drain completely.
  unsigned guard = 0;
  while (!(ntc.drained() && ntc.occupancy() == 0 && mem.idle() &&
           events.empty())) {
    tick_all(now, 100);
    ASSERT_LT(++guard, 100000u) << "NTC failed to drain";
  }

  for (const auto& [addr, value] : reference) {
    EXPECT_EQ(durable.load(addr), value)
        << "word 0x" << std::hex << addr << " diverged from program order";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedSweep, NtcGoldenTest,
    ::testing::Values(
        // Roomy ring, no overflow pressure.
        Params{1, 64, 0.9, 60, 6, 64},
        Params{2, 64, 0.9, 60, 6, 4},    // heavy same-line conflicts
        // Tiny ring: constant overflow fall-back (spill ordering).
        Params{3, 8, 0.9, 50, 10, 32},
        Params{4, 8, 0.5, 50, 10, 4},    // spills + same-line conflicts
        Params{5, 16, 0.7, 80, 12, 16},
        Params{6, 4, 0.5, 40, 6, 8},     // pathological: 4 entries
        Params{7, 64, 0.9, 120, 3, 128},
        Params{8, 32, 0.8, 100, 8, 2}),  // two lines, maximal versioning
    [](const auto& p) {
      return "seed" + std::to_string(p.param.seed) + "_e" +
             std::to_string(p.param.ntc_entries) + "_l" +
             std::to_string(p.param.line_space);
    });

}  // namespace
}  // namespace ntcsim::txcache
