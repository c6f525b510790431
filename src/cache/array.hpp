// Set-associative tag/state array with true-LRU replacement.
//
// ntcsim caches are timing + coherence state only: functional word values
// live in recovery::VolatileImage (latest architectural value) and
// recovery::DurableState (NVM array contents), so a line here carries tag,
// dirty/persistent flags, the P/V bit of §4.3, and the Kiln pinning state.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/hot.hpp"
#include "common/types.hpp"

namespace ntcsim::cache {

struct Line {
  Addr tag = 0;  ///< Line-aligned address.
  bool valid = false;
  bool dirty = false;
  bool persistent = false;  ///< The P/V flag added to every level (§4.3).
  bool pinned = false;      ///< Kiln: uncommitted block, not evictable.
  TxId tx = kNoTx;          ///< Kiln: owning transaction while pinned.
  std::uint32_t presence = 0;  ///< LLC only: upper-level presence bits per core.
  std::uint64_t lru = 0;
  std::uint8_t rrpv = 3;       ///< SRRIP re-reference prediction value.
};

static_assert(AddressSpace::kMaxCores <=
                  std::numeric_limits<decltype(Line::presence)>::digits,
              "one LLC presence bit per core");

/// Result of evicting a valid victim during allocation.
struct Eviction {
  Addr line_addr = 0;
  bool dirty = false;
  bool persistent = false;
  std::uint32_t presence = 0;
};

class CacheArray {
 public:
  explicit CacheArray(const CacheConfig& cfg);

  /// Hit lookup; `touch` updates LRU. Returns nullptr on miss.
  NTC_HOT Line* lookup(Addr line_addr, bool touch = true);
  const Line* peek(Addr line_addr) const;

  /// Allocate `line_addr`, evicting the LRU non-pinned way if needed.
  /// Returns the allocated line, or nullptr when every way in the set is
  /// pinned (Kiln bypass case). On eviction of a valid line, `evicted` is
  /// filled in.
  Line* allocate(Addr line_addr, std::optional<Eviction>& evicted);

  /// Invalidate if present; returns the line's pre-invalidation state.
  std::optional<Eviction> invalidate(Addr line_addr);

  std::uint64_t sets() const { return sets_; }
  unsigned ways() const { return ways_; }
  /// Number of pinned lines across the array (Kiln occupancy stat).
  std::uint64_t pinned_count() const { return pinned_count_; }
  void note_pin(bool pin) { pinned_count_ += pin ? 1 : -1; }
  /// Age a line to least-recently-used in its set (next eviction victim).
  void age_to_lru(Line& line) {
    line.lru = 0;
    line.rrpv = 3;
  }

  /// Iterate all valid lines (used by flush-everything paths and tests).
  /// Read-only with respect to tag/valid: invalidation must go through
  /// invalidate() so the packed tag probe array stays coherent.
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& line : lines_) {
      if (line.valid) fn(line);
    }
  }

 private:
  /// tags_ sentinel for an invalid way. Line addresses are line-aligned,
  /// so an all-ones value can never match a real tag.
  static constexpr Addr kNoTag = ~Addr{0};

  std::uint64_t set_of(Addr line_addr) const {
    return (line_addr >> kLineShift) & (sets_ - 1);
  }

  Line* pick_victim_(std::uint64_t set);

  std::uint64_t sets_;
  unsigned ways_;
  ReplacementPolicy policy_;
  std::vector<Line> lines_;  ///< sets_ * ways_, set-major.
  /// Packed tag probe array, parallel to lines_. The hit probe — by far
  /// the hottest loop here — touches one dense cache line per set instead
  /// of striding through 40-byte Line records (open-addressed within the
  /// set: compare every way's tag word, no indirection).
  std::vector<Addr> tags_;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t pinned_count_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;  ///< kRandom victim stream.
};

}  // namespace ntcsim::cache
