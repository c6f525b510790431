#include "recovery/recovery.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "recovery/log_format.hpp"

namespace ntcsim::recovery {

WordImage recover_none(const DurableState& durable) { return durable.image(); }

WordImage recover_kiln(const DurableState& durable) { return durable.image(); }

WordImage recover_tc(const DurableState& durable,
                     const std::vector<NtcSnapshot>& ntcs) {
  WordImage img = durable.image();
  for (const NtcSnapshot& ntc : ntcs) {
    for (const NtcEntrySnapshot& e : ntc) {  // FIFO order: oldest first
      if (!e.committed) continue;
      for (const auto& [addr, value] : e.words) img.store(addr, value);
    }
  }
  return img;
}

WordImage recover_sp(const DurableState& durable, const AddressSpace& space,
                     unsigned cores) {
  WordImage img = durable.image();
  for (CoreId c = 0; c < cores; ++c) {
    const auto txs =
        parse_log(durable.image(), space.log_base(c), space.log_bytes_per_core());
    for (const LoggedTx& tx : txs) {
      for (const auto& [addr, value] : tx.writes) img.store(addr, value);
    }
  }
  return img;
}

AtomicityReport check_atomicity(const WordImage& recovered,
                                const Journal& journal) {
  AtomicityReport report;
  report.durable_tx_prefix.resize(journal.cores(), 0);

  for (CoreId core = 0; core < journal.cores(); ++core) {
    const auto& txs = journal.per_core(core);

    // Expected state E_k after replaying transactions [0, k). We advance k
    // and keep a running count of words where `recovered` differs from E_k;
    // consistency == some k with zero mismatches.
    std::unordered_map<Addr, Word> expected;  // words this core ever wrote
    std::unordered_set<Addr> core_words;
    for (const auto& tx : txs) {
      for (const auto& [addr, _] : tx.writes) core_words.insert(addr);
    }
    // E_0: untouched NVM reads as zero.
    std::size_t mismatches = 0;
    for (Addr w : core_words) {
      if (recovered.load(w) != 0) ++mismatches;
    }

    std::size_t best_k = txs.size() + 1;  // sentinel: none found yet
    std::size_t nearest_k = 0;
    std::size_t nearest_mismatches = mismatches;
    if (mismatches == 0) best_k = 0;

    for (std::size_t k = 0; k < txs.size(); ++k) {
      for (const auto& [addr, value] : txs[k].writes) {
        const Word got = recovered.load(addr);
        auto it = expected.find(addr);
        const Word before = it == expected.end() ? 0 : it->second;
        const bool was_match = got == before;
        const bool now_match = got == value;
        if (was_match && !now_match) ++mismatches;
        if (!was_match && now_match) --mismatches;
        expected[addr] = value;
      }
      // Keep scanning and report the LARGEST matching prefix: trailing
      // read-only or idempotent transactions also count as durable.
      if (mismatches == 0) best_k = k + 1;
      if (mismatches < nearest_mismatches) {
        nearest_mismatches = mismatches;
        nearest_k = k + 1;
      }
    }

    if (best_k > txs.size()) {
      report.consistent = false;
      // Rebuild the nearest prefix and list its diffs for diagnosis.
      std::unordered_map<Addr, Word> near;
      for (std::size_t k = 0; k < nearest_k; ++k) {
        for (const auto& [addr, value] : txs[k].writes) near[addr] = value;
      }
      std::ostringstream oss;
      oss << "core " << core << ": recovered state matches no prefix of "
          << txs.size() << " transactions; nearest prefix k=" << nearest_k
          << " differs in " << nearest_mismatches << " words:";
      int listed = 0;
      for (Addr w : core_words) {
        const Word got = recovered.load(w);
        const auto it = near.find(w);
        const Word want = it == near.end() ? 0 : it->second;
        if (got != want && listed < 4) {
          oss << " [0x" << std::hex << w << " got 0x" << got << " want 0x"
              << want << std::dec << "]";
          ++listed;
        }
      }
      report.violation = oss.str();
      report.durable_tx_prefix[core] = 0;
    } else {
      report.durable_tx_prefix[core] = best_k;
    }
  }
  return report;
}

}  // namespace ntcsim::recovery
