#include "txcache/tx_cache.hpp"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "common/assert.hpp"
#include "mem/request.hpp"

namespace ntcsim::txcache {

TxCache::TxCache(std::string name, CoreId core, const TxCacheConfig& cfg,
                 const AddressSpace& space, mem::MemorySystem& mem,
                 StatSet& stats)
    : name_(std::move(name)), core_(core), cfg_(cfg), space_(space), mem_(&mem) {
  NTC_ASSERT(cfg_.entries() >= 2, "transaction cache needs >= 2 entries");
  entries_.resize(cfg_.entries());
  stat_writes_ = CounterHandle(stats, name_ + ".writes");
  stat_commits_ = CounterHandle(stats, name_ + ".commits");
  stat_issued_ = CounterHandle(stats, name_ + ".issued");
  stat_acks_ = CounterHandle(stats, name_ + ".acks");
  stat_probe_hits_ = CounterHandle(stats, name_ + ".probe_hits");
  stat_probe_misses_ = CounterHandle(stats, name_ + ".probe_misses");
  stat_spills_ = CounterHandle(stats, name_ + ".spills");
  stat_merges_ = CounterHandle(stats, name_ + ".merges");
  stat_full_rejects_ = CounterHandle(stats, name_ + ".full_rejects");
  stat_port_busy_ = CounterHandle(stats, name_ + ".port_busy");
}

bool TxCache::overflow_imminent() const {
  return static_cast<double>(count_) >=
         cfg_.overflow_threshold * static_cast<double>(entries_.size());
}

bool TxCache::write(Cycle now, Addr addr, Word value, TxId tx) {
  NTC_ASSERT(tx != kNoTx, "NTC write requires a transaction id");
  // The CAM port completes one operation per access latency. At the
  // paper's 0.5 ns (one CPU cycle) the port never blocks; a slower array
  // throttles insert rate.
  if (now < port_free_at_) {
    stat_port_busy_->inc();
    return false;
  }
  // CAM lookup: a same-line write of the SAME open transaction coalesces
  // into the existing entry (a cache-line entry holds the whole 64 B line).
  // Multi-versioning is per *transaction*: the open transaction's entry is
  // always the newest version of the line, so an older transaction's entry
  // is never disturbed. The line index mirrors the CAM's single-cycle match.
  if (auto it = active_lines_.find(line_of(addr)); it != active_lines_.end()) {
    Entry& e = entries_[it->second];
    if (e.state == State::kActive && e.tx == tx) {
      port_free_at_ = now + cfg_.latency_cycles - 1;
      for (auto& [a, v] : e.words) {
        if (a == word_of(addr)) {
          v = value;
          stat_merges_->inc();
          return true;
        }
      }
      e.words.emplace_back(word_of(addr), value);
      stat_merges_->inc();
      return true;
    }
  }
  // §4.1: "first we check if the cache line entry pointed by the head is in
  // the available state" — if not, the FIFO is full and the CPU must wait.
  if (entries_[head_].state != State::kAvailable) {
    stat_full_rejects_->inc();
    return false;
  }
  Entry& e = entries_[head_];
  e.state = State::kActive;
  e.tx = tx;
  e.line = line_of(addr);
  e.words.assign(1, {word_of(addr), value});
  e.issued = false;
  e.seq = next_seq_++;
  active_lines_[e.line] = head_;
  active_fifo_.push_back(head_);
  port_free_at_ = now + cfg_.latency_cycles - 1;
  head_ = next_(head_);
  ++count_;
  stat_writes_->inc();
  if (sink_ != nullptr) {
    check::CheckEvent ce;
    ce.kind = check::EventKind::kNtcInsert;
    ce.core = core_;
    ce.tx = tx;
    ce.addr = e.line;
    ce.seq = e.seq;
    ce.persistent = true;
    sink_->on_event(ce);
  }
  return true;
}

void TxCache::commit(TxId tx) {
  stat_commits_->inc();
  if (sink_ != nullptr) {
    check::CheckEvent ce;
    ce.kind = check::EventKind::kNtcCommit;
    ce.core = core_;
    ce.tx = tx;
    ce.persistent = true;
    sink_->on_event(ce);
  }
  active_lines_.clear();  // the open transaction's entries become immutable
  // CAM match on TxID across the data array (§4.1); only ACTIVE entries can
  // match, and active_fifo_ lists exactly those, oldest first. Matching
  // entries append to committed_fifo_ in that same seq order — and every
  // entry of an earlier transaction carries a lower seq than anything
  // written later, so committed_fifo_ stays seq-sorted across commits.
  std::deque<std::size_t> still_active;
  for (std::size_t idx : active_fifo_) {
    Entry& e = entries_[idx];
    if (e.tx == tx) {
      e.state = State::kCommitted;
      committed_fifo_.push_back(idx);
      ++committed_in_ring_;
    } else {
      still_active.push_back(idx);
    }
  }
  active_fifo_.swap(still_active);
  for (auto& s : spills_) {
    if (s->tx == tx && !s->committed) {
      s->committed = true;
      ++committed_spills_;
      ++committed_undone_spills_;
    }
  }
}

bool TxCache::probe(Addr line_addr) const {
  // Nearest-head match == newest version: scan backwards from head.
  if (count_ > 0) {
    std::size_t i = head_;
    for (std::size_t n = 0; n < entries_.size(); ++n) {
      i = (i + entries_.size() - 1) % entries_.size();
      const Entry& e = entries_[i];
      if (e.state != State::kAvailable && e.line == line_addr) {
        stat_probe_hits_->inc();
        return true;
      }
      if (i == tail_) break;
    }
  }
  // Spilled-but-unwritten-home data also holds the newest version.
  for (auto it = spills_.rbegin(); it != spills_.rend(); ++it) {
    if (line_of((*it)->words.front().first) == line_addr) {
      stat_probe_hits_->inc();
      return true;
    }
  }
  stat_probe_misses_->inc();
  return false;
}

void TxCache::on_ack(Addr line_addr) {
  stat_acks_->inc();
  // Nearest-tail match: the oldest issued entry for this line completed
  // first, because the controller keeps same-address writes in order (§4.1).
  if (count_ > 0) {
    std::size_t i = tail_;
    for (std::size_t n = 0; n < count_; ++n, i = next_(i)) {
      Entry& e = entries_[i];
      if (e.state == State::kCommitted && e.issued && e.line == line_addr) {
        e.state = State::kAvailable;
        e.tx = kNoTx;
        e.words.clear();
        NTC_ASSERT(committed_in_ring_ > 0, "ack frees a committed entry");
        --committed_in_ring_;
        advance_tail_();
        if (sink_ != nullptr) {
          check::CheckEvent ce;
          ce.kind = check::EventKind::kNtcRelease;
          ce.core = core_;
          ce.addr = line_addr;
          ce.persistent = true;
          sink_->on_event(ce);
        }
        return;
      }
    }
  }
  NTC_CHECK_MSG(false,
                "%s: NVM ack for line 0x%" PRIx64
                " does not match any issued NTC entry (occupancy %zu)",
                name_.c_str(), line_addr, count_);
}

void TxCache::advance_tail_() {
  while (count_ > 0 && entries_[tail_].state == State::kAvailable) {
    tail_ = next_(tail_);
    --count_;
  }
}

bool TxCache::issue_entry_(Cycle now, std::size_t idx) {
  Entry& e = entries_[idx];
  if (mem_->write_queue_full(e.line)) return false;
  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = e.line;
  req.persistent = true;
  req.core = core_;
  req.tx = e.tx;
  req.source = mem::Source::kTxCache;
  req.payload = e.words;
  const Addr line = e.line;
  req.on_complete = [this, line](const mem::MemRequest&) { on_ack(line); };
  const bool ok = mem_->enqueue(std::move(req), now);
  NTC_CHECK_MSG(ok,
                "%s: NVM write queue rejected NTC drain of line 0x%" PRIx64
                " (tx %" PRIu32 ") after the full check passed",
                name_.c_str(), line, e.tx);
  e.issued = true;
  stat_issued_->inc();
  if (sink_ != nullptr) {
    check::CheckEvent ce;
    ce.kind = check::EventKind::kNtcDrainIssue;
    ce.core = core_;
    ce.tx = e.tx;
    ce.addr = line;
    ce.seq = e.seq;
    ce.persistent = true;
    sink_->on_event(ce);
  }
  return true;
}

void TxCache::run_overflow_fallback_(Cycle now) {
  // §4.1: once almost full, spill the oldest ACTIVE entries to the NVM
  // shadow region with hardware copy-on-write; the home-address writes are
  // issued when the owning transaction commits. The oldest ACTIVE entry is
  // the front of active_fifo_ (ring order from the tail == seq order).
  if (active_fifo_.empty()) return;
  // Check the queue of the exact shadow line's channel: with a
  // multi-channel NVM, different lines can route to different queues.
  const Addr shadow_line = line_of(space_.shadow_base(core_) + shadow_cursor_);
  if (mem_->write_queue_full(shadow_line)) return;

  Entry& e = entries_[active_fifo_.front()];
  auto rec = std::make_shared<Spill>();
  rec->tx = e.tx;
  rec->words = e.words;
  rec->seq = e.seq;
  spills_.push_back(rec);
  stat_spills_->inc();

  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = shadow_line;
  shadow_cursor_ += kLineBytes;
  req.persistent = true;
  req.core = core_;
  req.tx = e.tx;
  req.source = mem::Source::kShadow;
  // Shadow payload lands at shadow addresses: it must not overwrite home
  // locations in the durable image (the transaction is uncommitted).
  req.payload.assign(1, {word_of(req.line_addr), e.words.front().second});
  req.on_complete = [rec](const mem::MemRequest&) { rec->shadow_done = true; };
  const bool ok = mem_->enqueue(std::move(req), now);
  NTC_ASSERT(ok, "NVM write queue checked before shadow spill");

  active_fifo_.pop_front();
  active_lines_.erase(e.line);
  e.state = State::kAvailable;
  e.tx = kNoTx;
  e.words.clear();
  advance_tail_();
  // one spill per cycle
}

bool TxCache::issue_spill_home_(Cycle now, const std::shared_ptr<Spill>& spill) {
  const Addr line = line_of(spill->words.front().first);
  if (mem_->write_queue_full(line)) return false;
  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = line;
  req.persistent = true;
  req.core = core_;
  req.tx = spill->tx;
  req.source = mem::Source::kTxCache;
  req.payload = spill->words;
  // Shared ownership keeps the record alive past reaping.
  req.on_complete = [this, spill, line](const mem::MemRequest&) {
    spill->home_done = true;
    NTC_ASSERT(committed_undone_spills_ > 0, "home ack matches a committed spill");
    --committed_undone_spills_;
    stat_acks_->inc();
    if (sink_ != nullptr) {
      check::CheckEvent ce;
      ce.kind = check::EventKind::kNtcRelease;
      ce.core = core_;
      ce.addr = line;
      ce.persistent = true;
      sink_->on_event(ce);
    }
  };
  const bool ok = mem_->enqueue(std::move(req), now);
  NTC_CHECK_MSG(ok,
                "%s: NVM write queue rejected spill home write of line 0x%" PRIx64
                " (tx %" PRIu32 ") after the full check passed",
                name_.c_str(), line, spill->tx);
  spill->home_issued = true;
  if (sink_ != nullptr) {
    check::CheckEvent ce;
    ce.kind = check::EventKind::kNtcDrainIssue;
    ce.core = core_;
    ce.tx = spill->tx;
    ce.addr = line;
    ce.seq = spill->seq;
    ce.persistent = true;
    sink_->on_event(ce);
  }
  return true;
}

void TxCache::tick(Cycle now) {
  if (drain_order_mutant_ && committed_fifo_.size() > 1) {
    // Test seam: invert the drain order of the two oldest committed
    // entries so the checker's fifo-drain rule has something to catch.
    std::swap(committed_fifo_.front(), committed_fifo_.back());
  }
  if (!committed_fifo_.empty() || committed_spills_ > 0) {
    issue_oldest_committed_(now);
  }

  if (overflow_imminent()) run_overflow_fallback_(now);

  // Reap completed spill records (shadow written, home durable, committed).
  while (!spills_.empty() && spills_.front()->committed &&
         spills_.front()->home_done && spills_.front()->shadow_done) {
    NTC_ASSERT(spill_home_issued_live_ > 0,
               "reaped spill issued its home write");
    --spill_home_issued_live_;
    spills_.pop_front();
  }
}

void TxCache::issue_oldest_committed_(Cycle now) {
  // Issue committed writes toward the NVM strictly in program (sequence)
  // order, merging the ring with the overflow spill table. Committed items
  // always carry lower sequence numbers than ACTIVE ones (transactions are
  // sequential per core), so lowest-seq-first IS the paper's FIFO order.
  // Both candidate sets are seq-sorted deques, so each pick is O(1): the
  // oldest committed-unissued ring entry is committed_fifo_.front() and the
  // oldest unissued spill is spills_[spill_home_issued_live_] (home writes
  // issue in seq order, so the issued ones form a prefix of the deque).
  //
  // FIFO boundary: nothing may be issued past the oldest ACTIVE entry
  // (§4.1 — committed lines are written back in FIFO = program order).
  const std::uint64_t min_active_seq =
      active_fifo_.empty() ? ~0ULL : entries_[active_fifo_.front()].seq;
  std::uint64_t best_seq =
      committed_fifo_.empty() ? ~0ULL : entries_[committed_fifo_.front()].seq;
  std::shared_ptr<Spill> best_spill;  // null: the ring entry is oldest
  if (spill_home_issued_live_ < spills_.size()) {
    const std::shared_ptr<Spill>& s = spills_[spill_home_issued_live_];
    if (s->committed && !s->home_issued && s->seq < best_seq) {
      best_seq = s->seq;
      best_spill = s;
    }
  }
  if (best_seq == ~0ULL) return;          // nothing committed to drain
  if (best_seq > min_active_seq) return;  // would pass an active entry
  if (best_spill == nullptr) {
    if (issue_entry_(now, committed_fifo_.front())) committed_fifo_.pop_front();
    return;
  }
  // The copy-on-write shadow write must be durable before the home write
  // may pass it in the pipeline.
  if (!best_spill->shadow_done || !issue_spill_home_(now, best_spill)) return;
  --committed_spills_;
  ++spill_home_issued_live_;
}

Cycle TxCache::next_event_cycle(Cycle now) const {
  // Committed work still to drain: tick() issues a line (or retries a full
  // write queue / a shadow write still in flight) every cycle.
  if (!committed_fifo_.empty() || committed_spills_ > 0) return now + 1;
  // Overflow fall-back with spillable victims: tick() spills one per cycle.
  if (overflow_imminent() && !active_fifo_.empty()) return now + 1;
  // Only acks (and the reaps they unlock) remain; those arrive through the
  // event queue, which the cluster never jumps past.
  return kNeverCycle;
}

bool TxCache::drained() const {
  // Counters track exactly what the old full scans looked for: any ring
  // entry still in COMMITTED state, or any committed spill whose home
  // write is not yet durable.
  return committed_in_ring_ == 0 && committed_undone_spills_ == 0;
}

recovery::NtcSnapshot TxCache::snapshot() const {
  // Merge ring entries and spill records in program (sequence) order —
  // recovery replays oldest-first.
  std::vector<std::pair<std::uint64_t, recovery::NtcEntrySnapshot>> items;
  for (const auto& s : spills_) {
    // A spill whose home write completed is already durable in NVM; newer
    // same-address writes may have landed after it, so replaying it would
    // roll the word back. It is logically freed (awaiting reap): skip it.
    if (s->home_done) continue;
    recovery::NtcEntrySnapshot e;
    e.tx = s->tx;
    // An uncommitted spill is discarded at recovery. A committed spill is
    // recoverable: its home words live in the shadow region plus the
    // nonvolatile spill table, both of which survive the crash.
    e.committed = s->committed;
    e.words = s->words;
    items.emplace_back(s->seq, std::move(e));
  }
  std::size_t i = tail_;
  for (std::size_t n = 0; n < count_; ++n, i = next_(i)) {
    const Entry& en = entries_[i];
    if (en.state == State::kAvailable) continue;
    recovery::NtcEntrySnapshot e;
    e.tx = en.tx;
    e.committed = en.state == State::kCommitted;
    e.words = en.words;
    items.emplace_back(en.seq, std::move(e));
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  recovery::NtcSnapshot snap;
  snap.reserve(items.size());
  for (auto& [_, e] : items) snap.push_back(std::move(e));
  return snap;
}

}  // namespace ntcsim::txcache
