#include "core/core.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/assert.hpp"

namespace ntcsim::core {

PendingStores::PendingStores(std::size_t max_pending) {
  // Four slots per pending store keep shared slots, and so scans, rare.
  const std::size_t slots =
      std::bit_ceil(std::max<std::size_t>(4 * max_pending, 2));
  counts_.assign(slots, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

Core::Core(CoreId id, const CoreConfig& cfg, PersistHooks& domain,
           cache::Hierarchy& hier, StatSet& stats, const Cycle* clock)
    : id_(id),
      cfg_(cfg),
      domain_(&domain),
      traits_(domain.core_traits()),
      hier_(&hier),
      stats_(&stats),
      prefix_("core" + std::to_string(id)),
      rob_(cfg.rob_entries),
      unissued_q_(cfg.rob_entries),
      sb_(cfg.store_buffer_entries),
      pending_stores_(std::size_t{cfg.rob_entries} + cfg.store_buffer_entries),
      clock_(clock),
      req_start_q_(std::size_t{cfg.rob_entries} + 1) {
  stat_load_lat_ = AccumulatorHandle(*stats_, prefix_ + ".load_latency");
  stat_pload_lat_ = AccumulatorHandle(*stats_, prefix_ + ".pload_latency");
  stat_pload_hist_ = HistogramHandle(*stats_, prefix_ + ".pload_latency_hist");
  stat_req_lat_ = AccumulatorHandle(*stats_, prefix_ + ".req_latency");
  stat_req_hist_ = HistogramHandle(*stats_, prefix_ + ".req_latency_hist");
  stat_retired_ = CounterHandle(*stats_, prefix_ + ".retired");
  stat_txs_ = CounterHandle(*stats_, prefix_ + ".txs");
  stat_ntc_stall_ = CounterHandle(*stats_, prefix_ + ".ntc_stall_cycles");
  static constexpr const char* kStallNames[] = {
      "compute",     "load",       "sb_full", "txend_drain", "txend_flush",
      "clwb_drain",  "clwb_issue", "sfence",  "pcommit"};
  static_assert(std::size(kStallNames) ==
                static_cast<std::size_t>(Stall::kCount));
  for (std::size_t r = 0; r < static_cast<std::size_t>(Stall::kCount); ++r) {
    stat_stalls_[r] =
        CounterHandle(*stats_, prefix_ + ".stall." + kStallNames[r]);
  }
}

void Core::bind_trace(const Trace* trace) {
  trace_ = trace;
  trace_records_ = trace != nullptr ? trace->ops().size() : 0;
  cursor_ = 0;
  run_fetched_ = 0;
  req_start_q_.clear();
  trace_base_valid_ = false;
  asleep_ = false;
}

NTC_HOT bool Core::forwarded_by_store_(const RobEntry* until,
                                      Addr addr) const {
  const Addr word = word_of(addr);
  if (!pending_stores_.maybe_pending(word)) return false;
  // Oldest first: the store buffer, then the ROB up to the load itself (a
  // younger store must not forward).
  for (std::size_t i = 0; i < sb_.size(); ++i) {
    if (word_of(sb_[i].addr) == word) return true;
  }
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    const RobEntry& e = rob_[i];
    if (&e == until) break;
    if (e.op.kind == OpKind::kStore && word_of(e.op.addr) == word) return true;
  }
  return false;
}

bool Core::sb_holds_line_(Addr line) const {
  for (std::size_t i = 0; i < sb_.size(); ++i) {
    if (line_of(sb_[i].addr) == line) return true;
  }
  return false;
}

NTC_HOT void Core::fetch_(Cycle now) {
  if (trace_ == nullptr) return;
  const std::vector<MicroOp>& ops = trace_->ops();
  unsigned fetched = 0;
  while (cursor_ < trace_records_ && rob_uops_ < cfg_.rob_entries &&
         fetched < cfg_.issue_width) {
    const MicroOp& op = ops[cursor_];
    // Open-loop service mode: a kTxBegin stamped with a future arrival
    // cycle has not been issued by the load generator yet — the frontend
    // idles until it arrives. A congested core fetches it late, and that
    // queueing delay lands in the request latency (start = arrival). A
    // cross-shard request additionally cannot be fetched before the
    // interconnect delivered it (arrival + net_fwd).
    if (op.kind == OpKind::kTxBegin && op.addr > 0 &&
        trace_base_ + op.addr + op.net_fwd > now) {
      break;
    }
    RobEntry e;
    e.op = op;
    switch (e.op.kind) {
      case OpKind::kCompute:
        // A slice of the run: the µops left in it, cut to the free fetch
        // slots and ROB capacity. They share this entry and ready cycle.
        e.op.count = std::min({op.count - run_fetched_,
                               cfg_.issue_width - fetched,
                               cfg_.rob_entries - rob_uops_});
        e.ready_at = now + cfg_.compute_latency;
        break;
      case OpKind::kLoad:
        e.ready_at = kNeverCycle;  // until it hits, forwards or fills
        e.issue_cycle = now;
        break;
      case OpKind::kStore:
        pending_stores_.add(word_of(op.addr));
        break;
      case OpKind::kTxBegin:
        // Latency counts from the request's ingress arrival (before the
        // forward hop), so the full network round trip is visible.
        req_start_q_.push(
            {e.op.addr > 0 ? trace_base_ + static_cast<Cycle>(e.op.addr)
                           : now,
             e.op.net_rsp});
        break;
      default:
        break;  // readiness checked at retire for the rest
    }
    // The cursor moves on once the whole record is fetched.
    run_fetched_ += e.op.count;
    if (run_fetched_ == op.count) {
      run_fetched_ = 0;
      ++cursor_;
    }
    rob_uops_ += e.op.count;
    fetched += e.op.count;
    RobEntry& queued = rob_.push(e);
    if (queued.op.kind == OpKind::kLoad) unissued_q_.push(&queued);
  }
}

void Core::note_load_latency_(const RobEntry& e, Cycle latency) {
  stat_load_lat_->add(static_cast<double>(latency));
  if (e.op.persistent) {
    stat_pload_lat_->add(static_cast<double>(latency));
    stat_pload_hist_->add(latency);
  }
}

void Core::on_load_done_(RobEntry* e) {
  // The fill drains before this cycle's tick, which retires the load. The
  // latency runs to the cycle before (the last one ticked, had the core
  // been awake).
  e->ready_at = 0;
  note_load_latency_(*e, *clock_ - 1 - e->issue_cycle);
  wake_();
}

NTC_HOT void Core::issue_loads_(Cycle now) {
  // E.g. Kiln: an in-flight commit flush occupies this core's cache ports
  // — no new loads issue until the domain releases them.
  if (traits_.may_block_loads && domain_->loads_blocked(id_)) return;
  unsigned issued = 0;
  while (!unissued_q_.empty() && issued < cfg_.issue_width) {
    RobEntry* e = unissued_q_.front();
    ++issued;
    if (forwarded_by_store_(e, e->op.addr)) {
      e->ready_at = now;  // store-to-load forwarding: 1-cycle bypass
      note_load_latency_(*e, 1);
      unissued_q_.pop_front();
      continue;
    }
    const cache::AccessResult r =
        hier_->load(now, id_, e->op.addr, e->op.persistent);
    if (r.kind == cache::AccessKind::kRejected) {
      break;  // resources exhausted; retry in order next cycle
    }
    if (r.kind == cache::AccessKind::kHit) {
      // Timed as a completion event would be: it would fire at the first
      // drain at or after r.ready, and drains run before ticks, so the
      // load retires no earlier than the next tick. The latency runs to
      // the tick before that drain, like a fill's (on_load_done_).
      e->ready_at = std::max(r.ready, now + 1);
      note_load_latency_(*e, e->ready_at - 1 - e->issue_cycle);
    } else {
      hier_->wait_for_fill(id_, e->op.addr, [this, e] { on_load_done_(e); });
    }
    unissued_q_.pop_front();
  }
}

void Core::flush_wc_buffer_(Cycle /*now*/) {
  if (wc_words_.empty()) return;
  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = wc_line_;
  req.persistent = true;
  req.core = id_;
  req.source = mem::Source::kLog;
  req.payload = std::move(wc_words_);
  wc_words_.clear();
  ++outstanding_log_flushes_;
  req.on_complete = [this](const mem::MemRequest&) {
    --outstanding_log_flushes_;
    wake_();
  };
  nt_pending_.push_back(std::move(req));
}

void Core::drain_nt_writes_(Cycle now) {
  while (!nt_pending_.empty()) {
    if (!hier_->nt_write(now, nt_pending_.front())) break;
    nt_pending_.pop_front();
  }
}

void Core::drain_store_buffer_(Cycle now) {
  unsigned drained = 0;
  while (!sb_.empty() && drained < 2) {
    SbEntry& e = sb_.front();
    const bool in_tx = e.persistent && e.tx != kNoTx;
    if (traits_.routes_tx_stores && in_tx && !e.routed) {
      switch (domain_->route_store(now, id_, e.addr, e.value, e.tx)) {
        case StoreRoute::kAccepted:
          e.routed = true;
          break;
        case StoreRoute::kRetryCapacity:
          stat_ntc_stall_->inc();
          return;
        case StoreRoute::kRetry:
          return;
      }
    }
    if (!e.hier_done) {
      if (!hier_->store(now, id_, e.addr, e.value, e.persistent, e.tx)) {
        return;  // cache resources exhausted; retry next cycle
      }
      e.hier_done = true;
      if (traits_.observes_tx_stores && in_tx) {
        domain_->on_store_drained(now, id_, e.addr, e.value, e.tx);
      }
    }
    pending_stores_.remove(word_of(e.addr));
    sb_.pop_front();
    ++drained;
  }
}

unsigned Core::retire_head_(Cycle now, unsigned slots) {
  RobEntry& e = rob_.front();
  unsigned n = 1;
  switch (e.op.kind) {
    case OpKind::kCompute:
      if (now < e.ready_at) {
        note_stall_(Stall::kCompute);
        return 0;
      }
      n = std::min(e.op.count, slots);  // drain into the slots left
      break;

    case OpKind::kLoad:
      if (now < e.ready_at) {
        note_stall_(Stall::kLoad);
        return 0;
      }
      break;

    case OpKind::kStore: {
      if (sb_.size() >= cfg_.store_buffer_entries) {
        note_stall_(Stall::kSbFull);
        return 0;
      }
      SbEntry s;
      s.addr = e.op.addr;
      s.value = e.op.value;
      s.persistent = e.op.persistent;
      s.tx = e.op.persistent ? mode_reg_ : kNoTx;
      sb_.push(s);
      if (traits_.observes_tx_stores && s.persistent && s.tx != kNoTx) {
        domain_->on_store_retired(id_, s.tx);
      }
      break;
    }

    case OpKind::kNtStore: {
      // Coalesce into the open write-combining line; a new line flushes
      // the previous one toward the NVM controller.
      const Addr line = line_of(e.op.addr);
      if (!wc_words_.empty() && wc_line_ != line) flush_wc_buffer_(now);
      wc_line_ = line;
      bool merged = false;
      for (auto& [a, v] : wc_words_) {
        if (a == word_of(e.op.addr)) {
          v = e.op.value;
          merged = true;
        }
      }
      if (!merged) wc_words_.emplace_back(word_of(e.op.addr), e.op.value);
      break;
    }

    case OpKind::kTxBegin: {
      NTC_ASSERT(mode_reg_ == kNoTx, "TX_BEGIN inside a transaction");
      // §4.2: copy NextTxID into the mode register; NextTxID increments.
      // A replayed trace may start mid-stream (e.g. a measured phase run
      // standalone), so the register adopts the trace's id — but ids must
      // stay strictly increasing, which catches generator bugs.
      NTC_ASSERT(static_cast<TxId>(e.op.value) >= next_tx_reg_ ||
                     next_tx_reg_ == 1,
                 "trace TxIds must be strictly increasing");
      mode_reg_ = static_cast<TxId>(e.op.value);
      next_tx_reg_ = mode_reg_ + 1;
      domain_->on_tx_begin(id_, mode_reg_);
      if (sink_ != nullptr) {
        check::CheckEvent ce;
        ce.kind = check::EventKind::kTxBegin;
        ce.core = id_;
        ce.tx = mode_reg_;
        sink_->on_event(ce);
      }
      break;
    }

    case OpKind::kTxEnd: {
      NTC_ASSERT(mode_reg_ != kNoTx, "TX_END outside a transaction");
      switch (domain_->on_tx_end(now, id_, mode_reg_)) {
        case TxEndResult::kStallDrain:
          note_stall_(Stall::kTxendDrain);
          return 0;
        case TxEndResult::kStallFlush:
          note_stall_(Stall::kTxendFlush);
          return 0;
        case TxEndResult::kCommitted:
          break;
      }
      if (sink_ != nullptr) {
        check::CheckEvent ce;
        ce.kind = check::EventKind::kTxCommitted;
        ce.core = id_;
        ce.tx = mode_reg_;
        sink_->on_event(ce);
      }
      mode_reg_ = kNoTx;
      ++committed_txs_;
      stat_txs_->inc();
      NTC_ASSERT(!req_start_q_.empty(), "TX_END without a request start");
      const Cycle req_lat =
          now + req_start_q_.front().net_rsp - req_start_q_.front().start;
      req_start_q_.pop_front();
      stat_req_lat_->add(static_cast<double>(req_lat));
      stat_req_hist_->add(req_lat);
      break;
    }

    case OpKind::kClwb: {
      if (sb_holds_line_(line_of(e.op.addr))) {
        note_stall_(Stall::kClwbDrain);
        return 0;  // the flushed store must reach the L1 first
      }
      const bool is_log = e.op.flush == FlushKind::kLog;
      const mem::Source src =
          is_log ? mem::Source::kLog : mem::Source::kFlush;
      unsigned* counter =
          is_log ? &outstanding_log_flushes_ : &outstanding_data_flushes_;
      const bool ok = hier_->clwb(now, id_, e.op.addr, src, [this, counter] {
        --*counter;
        wake_();
      });
      if (!ok) {
        note_stall_(Stall::kClwbIssue);
        return 0;
      }
      ++*counter;
      break;
    }

    case OpKind::kSfence:
      // Orders prior stores: the store buffer must have drained and every
      // write-combining flush must be on its way to the controller.
      flush_wc_buffer_(now);
      if (!sb_.empty() || !nt_pending_.empty()) {
        note_stall_(Stall::kSfence);
        return 0;
      }
      break;

    case OpKind::kPcommit:
      // Orders the log's durability. Lazy data clean-backs (issued after
      // commit for log truncation) drain in the background and do not gate
      // the next transaction.
      if (outstanding_log_flushes_ > 0) {
        note_stall_(Stall::kPcommit);
        return 0;
      }
      break;
  }

  e.op.count -= n;  // other kinds hold one µop, so they always leave
  if (e.op.count == 0) rob_.pop_front();
  rob_uops_ -= n;
  retired_ += n;
  stat_retired_->inc(n);
  return n;
}

void Core::tick(Cycle now) {
  if (!trace_base_valid_) {
    trace_base_ = now;
    trace_base_valid_ = true;
  }
  // A write-combining buffer does not hold data forever: once the frontend
  // has nothing left the open line flushes on its own (WC timeout).
  if (trace_ != nullptr && cursor_ >= trace_records_ && rob_.empty() &&
      !wc_words_.empty()) {
    flush_wc_buffer_(now);
  }
  drain_nt_writes_(now);
  drain_store_buffer_(now);
  issue_loads_(now);
  for (unsigned slots = cfg_.issue_width; slots > 0 && !rob_.empty();) {
    const unsigned retired = retire_head_(now, slots);
    if (retired == 0) break;
    slots -= retired;
  }
  fetch_(now);
}

void Core::sleep_if_blocked_(Cycle now) {
  // Buffered work drains, issues or times out on its own: an open
  // write-combining line flushes once the frontend has nothing left.
  if (!sb_.empty() || !unissued_q_.empty() || !nt_pending_.empty()) return;
  const bool trace_done = cursor_ >= trace_records_;
  if (trace_done && rob_.empty() && !wc_words_.empty()) return;
  Cycle wake = kNeverCycle;
  if (!trace_done && rob_uops_ < cfg_.rob_entries) {
    // Fetch stalls only at a request that has not arrived yet.
    const MicroOp& op = trace_->ops()[cursor_];
    if (op.kind != OpKind::kTxBegin || op.addr == 0) return;
    wake = trace_base_ + op.addr + op.net_fwd;
  }
  Stall stall = Stall::kCount;
  if (!rob_.empty()) {
    // A head that waits on time or on a callback; every other head
    // retires, or re-checks state the core does not own, each cycle.
    const RobEntry& head = rob_.front();
    switch (head.op.kind) {
      case OpKind::kCompute:
        stall = Stall::kCompute;
        wake = std::min(wake, head.ready_at);
        break;
      case OpKind::kLoad:  // a fill's callback sets ready_at
        stall = Stall::kLoad;
        wake = std::min(wake, head.ready_at);
        break;
      case OpKind::kPcommit:  // an acknowledgement's callback wakes it
        if (outstanding_log_flushes_ == 0) return;
        stall = Stall::kPcommit;
        break;
      default:
        return;
    }
  }
  if (wake <= now + 1) return;
  asleep_ = true;
  wake_at_ = wake;
  slept_from_ = now + 1;
  sleep_stall_ = stall;
}

std::uint64_t Core::stall_total_() const {
  std::uint64_t total = 0;
  for (const CounterHandle& h : stat_stalls_) total += h->value();
  return total;
}

void Core::verify_sleep_tick_(Cycle now) {
  const std::uint64_t retired = retired_;
  const unsigned rob_uops = rob_uops_;
  const std::size_t cursor = cursor_;
  const std::uint32_t run_fetched = run_fetched_;
  const std::size_t wc_words = wc_words_.size();
  const unsigned log_flushes = outstanding_log_flushes_;
  const std::uint64_t stalls = stall_total_();
  const bool charged = sleep_stall_ != Stall::kCount;
  const auto predicted = [this] {
    return stat_stalls_[static_cast<std::size_t>(sleep_stall_)]->value();
  };
  const std::uint64_t predicted_before = charged ? predicted() : 0;
  tick(now);
  NTC_CHECK_MSG(retired_ == retired && rob_uops_ == rob_uops &&
                    cursor_ == cursor && run_fetched_ == run_fetched &&
                    wc_words_.size() == wc_words &&
                    outstanding_log_flushes_ == log_flushes &&
                    sb_.empty() && unissued_q_.empty() &&
                    nt_pending_.empty() &&
                    stall_total_() == stalls + (charged ? 1 : 0) &&
                    (!charged || predicted() == predicted_before + 1),
                "skip.verify: %s did more than count one stall at cycle %llu, "
                "asleep until %llu",
                prefix_.c_str(), static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(wake_at_));
  slept_from_ = now + 1;  // the tick itself counted this cycle's stall
}

bool Core::finished() const {
  return trace_ != nullptr && cursor_ >= trace_records_ && rob_.empty() &&
         sb_.empty() && nt_pending_.empty() && wc_words_.empty() &&
         outstanding_log_flushes_ == 0 && outstanding_data_flushes_ == 0;
}

}  // namespace ntcsim::core
