// Functional memory state, kept separate from the timing models:
//
//  * VolatileImage — the latest architectural value of every persistent
//    word, updated when a store drains into the cache hierarchy. Cache
//    arrays carry no data; when a dirty persistent line is written to NVM
//    the payload is gathered from here (exact under inclusive caching with
//    back-invalidation — see DESIGN.md §6).
//  * DurableState — the NVM array contents: what survives a crash. Updated
//    only when the NVM controller completes an array write, plus the Kiln
//    path where durability is reached at the nonvolatile LLC.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/line_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/memory_system.hpp"

namespace ntcsim::recovery {

/// Word values of one cache line (8 words of 8 bytes).
struct LineWords {
  std::uint8_t mask = 0;  ///< Bit i set => word i holds a value.
  Word w[8] = {};
};

class WordImage {
 public:
  WordImage() = default;
  // The MRU pointer below aims into this instance's own map; a copied or
  // moved-from image must not inherit (or keep) a pointer into the wrong
  // map, so copies/moves transfer only the contents and drop the cache.
  WordImage(const WordImage& other) : lines_(other.lines_) {}
  WordImage(WordImage&& other) noexcept : lines_(std::move(other.lines_)) {
    other.invalidate_cache_();
  }
  WordImage& operator=(const WordImage& other) {
    lines_ = other.lines_;
    invalidate_cache_();
    return *this;
  }
  WordImage& operator=(WordImage&& other) noexcept {
    lines_ = std::move(other.lines_);
    invalidate_cache_();
    other.invalidate_cache_();
    return *this;
  }

  void store(Addr word_addr, Word value);
  /// Value of the word, or 0 (NVM cells are modeled as zero-initialized).
  Word load(Addr word_addr) const;
  bool contains(Addr word_addr) const;

  /// All words this image holds within the given line, as (addr, value).
  std::vector<std::pair<Addr, Word>> words_in_line(Addr line_addr) const;

  std::size_t line_count() const { return lines_.size(); }
  void clear() {
    lines_.clear();
    invalidate_cache_();
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    lines_.for_each([&fn](Addr line, const LineWords& lw) {
      for (unsigned i = 0; i < 8; ++i) {
        if (lw.mask & (1u << i)) fn(line + i * kWordBytes, lw.w[i]);
      }
    });
  }

 private:
  void invalidate_cache_() {
    cached_ = nullptr;
    cached_line_ = ~Addr{0};
  }

  LineMap<LineWords> lines_;
  /// One-line MRU store cache: drains hit the same 64 B line word after
  /// word, so the repeat hash lookups collapse into a single compare. Only
  /// a miss can insert (and so rehash, moving every slot), and every miss
  /// re-aims the pointer, so it never dangles.
  Addr cached_line_ = ~Addr{0};
  LineWords* cached_ = nullptr;
};

using VolatileImage = WordImage;

/// NVM array contents + the Kiln NV-LLC overlay. Implements the memory
/// system's write observer so the image changes exactly when an NVM array
/// write completes.
class DurableState final : public mem::NvmWriteObserver {
 public:
  explicit DurableState(StatSet& stats);

  void on_nvm_write(const mem::MemRequest& req) override;

  /// Kiln: a transaction's writes become durable when its commit flush into
  /// the nonvolatile LLC finishes (§5.2 of the paper / DESIGN.md §5.6).
  void apply_kiln_commit(const std::vector<std::pair<Addr, Word>>& writes);

  const WordImage& image() const { return image_; }
  Word load(Addr word_addr) const { return image_.load(word_addr); }

 private:
  WordImage image_;
  Counter* stat_words_;
};

}  // namespace ntcsim::recovery
