// Post-crash recovery procedures (one per mechanism) and the atomicity
// checker used by the crash-injection property tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "recovery/images.hpp"
#include "recovery/journal.hpp"

namespace ntcsim::recovery {

/// Crash-time snapshot of one transaction-cache entry. The NTC is
/// nonvolatile, so its contents survive the crash and drive recovery.
/// Entries are listed in FIFO order, oldest (tail) first.
struct NtcEntrySnapshot {
  TxId tx = kNoTx;
  bool committed = false;
  std::vector<std::pair<Addr, Word>> words;
};

using NtcSnapshot = std::vector<NtcEntrySnapshot>;

/// TC recovery (§3, "Multiversioning"): start from the NVM array contents
/// and re-apply every *committed* entry still buffered in the transaction
/// cache, in FIFO order; active (uncommitted) entries are discarded.
WordImage recover_tc(const DurableState& durable,
                     const std::vector<NtcSnapshot>& ntcs);

/// SP recovery: redo-replay every fully-logged committed transaction from
/// each core's log region, in log order, over the NVM data area.
WordImage recover_sp(const DurableState& durable, const AddressSpace& space,
                     unsigned cores);

/// Kiln recovery: committed data is already durable at the nonvolatile LLC
/// or NVM; uncommitted LLC blocks are discarded (they were never applied to
/// the durable image). Recovery is the identity.
WordImage recover_kiln(const DurableState& durable);

/// No recovery: raw NVM contents (what Optimal leaves behind).
WordImage recover_none(const DurableState& durable);

/// Result of checking recovered state against the oracle journal.
struct AtomicityReport {
  bool consistent = true;
  /// Per core: number of whole transactions that survived the crash.
  std::vector<std::size_t> durable_tx_prefix;
  std::string violation;  ///< Human-readable description of the first failure.
};

/// Verifies the persistence contract: for every core, the recovered state
/// restricted to that core's written words must equal the replay of some
/// program-order *prefix* of its transactions (all-or-nothing per
/// transaction + FIFO durability order).
AtomicityReport check_atomicity(const WordImage& recovered,
                                const Journal& journal);

}  // namespace ntcsim::recovery
