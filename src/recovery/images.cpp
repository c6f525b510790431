#include "recovery/images.hpp"

#include "common/assert.hpp"

namespace ntcsim::recovery {

void WordImage::store(Addr word_addr, Word value) {
  NTC_ASSERT(word_addr == word_of(word_addr), "store address must be word-aligned");
  const Addr line = line_of(word_addr);
  if (line != cached_line_ || cached_ == nullptr) {
    cached_ = &lines_[line];
    cached_line_ = line;
  }
  LineWords& lw = *cached_;
  const unsigned i = static_cast<unsigned>((word_addr - line) / kWordBytes);
  lw.mask |= static_cast<std::uint8_t>(1u << i);
  lw.w[i] = value;
}

Word WordImage::load(Addr word_addr) const {
  const LineWords* lw = lines_.find(line_of(word_addr));
  if (lw == nullptr) return 0;
  const unsigned i = static_cast<unsigned>((word_addr - line_of(word_addr)) / kWordBytes);
  return (lw->mask & (1u << i)) ? lw->w[i] : 0;
}

bool WordImage::contains(Addr word_addr) const {
  const LineWords* lw = lines_.find(line_of(word_addr));
  if (lw == nullptr) return false;
  const unsigned i = static_cast<unsigned>((word_addr - line_of(word_addr)) / kWordBytes);
  return (lw->mask & (1u << i)) != 0;
}

std::vector<std::pair<Addr, Word>> WordImage::words_in_line(Addr line_addr) const {
  std::vector<std::pair<Addr, Word>> out;
  const LineWords* lw = lines_.find(line_addr);
  if (lw == nullptr) return out;
  for (unsigned i = 0; i < 8; ++i) {
    if (lw->mask & (1u << i)) {
      out.emplace_back(line_addr + i * kWordBytes, lw->w[i]);
    }
  }
  return out;
}

DurableState::DurableState(StatSet& stats)
    : stat_words_(&stats.counter("durable.words_written")) {}

void DurableState::on_nvm_write(const mem::MemRequest& req) {
  for (const auto& [addr, value] : req.payload) {
    image_.store(addr, value);
    stat_words_->inc();
  }
}

void DurableState::apply_kiln_commit(
    const std::vector<std::pair<Addr, Word>>& writes) {
  for (const auto& [addr, value] : writes) {
    image_.store(addr, value);
    stat_words_->inc();
  }
}

}  // namespace ntcsim::recovery
