// On-NVM write-ahead-log record format used by the SP mechanism.
//
// The per-core log region (AddressSpace::log_base) is a sequence of
// 16-byte records, each two 8-byte words:
//   data record:   [ target word address            | new value ]
//   commit record: [ kCommitTag | txid (low 32 bit) | record count of tx ]
// A transaction is recoverable iff all of its data records AND its commit
// record are durable in NVM; SP's pcommit ordering (DESIGN.md §5.5)
// guarantees data records become durable before the commit record.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ntcsim::recovery {

inline constexpr Word kCommitTag = 0xC0DEC0DE00000000ULL;

constexpr Word make_commit_marker(TxId tx) { return kCommitTag | tx; }
constexpr bool is_commit_marker(Word w) {
  return (w & 0xFFFFFFFF00000000ULL) == kCommitTag;
}
constexpr TxId commit_marker_tx(Word w) { return static_cast<TxId>(w); }

/// Allocates log-record slots for one core, in order.
class LogCursor {
 public:
  LogCursor(Addr base, std::uint64_t bytes) : base_(base), end_(base + bytes) {}

  /// Address of the next 16-byte record; advances the cursor.
  Addr next_record();
  std::uint64_t records_used() const { return used_; }

 private:
  Addr base_;
  Addr end_;
  std::uint64_t used_ = 0;
};

/// One parsed committed transaction from a log region.
struct LoggedTx {
  TxId tx = kNoTx;
  std::vector<std::pair<Addr, Word>> writes;
};

class WordImage;

/// Scan a core's log region in a durable image. Returns the committed
/// transactions in log order; parsing stops at the first record slot whose
/// target-address word never became durable.
std::vector<LoggedTx> parse_log(const WordImage& durable, Addr base,
                                std::uint64_t bytes);

}  // namespace ntcsim::recovery
