#include "cache/hierarchy.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "mem/request.hpp"

namespace ntcsim::cache {

Hierarchy::Hierarchy(const NodeConfig& cfg, mem::MemorySystem& mem,
                     EventQueue& events, StatSet& stats,
                     recovery::VolatileImage* vimage)
    : cfg_(cfg),
      mem_(&mem),
      events_(&events),
      stats_(&stats),
      vimage_(vimage),
      llc_(cfg.llc) {
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    l1_.push_back(std::make_unique<CacheArray>(cfg_.l1));
    l2_.push_back(std::make_unique<CacheArray>(cfg_.l2));
  }
  l1_miss_.resize(cfg_.cores);
  stat_l1_hits_ = CounterHandle(*stats_, "l1.hits");
  stat_l1_misses_ = CounterHandle(*stats_, "l1.misses");
  stat_l2_hits_ = CounterHandle(*stats_, "l2.hits");
  stat_l2_misses_ = CounterHandle(*stats_, "l2.misses");
  stat_llc_hits_ = CounterHandle(*stats_, "llc.hits");
  stat_llc_misses_ = CounterHandle(*stats_, "llc.misses");
  stat_llc_wb_ = CounterHandle(*stats_, "llc.writebacks");
  stat_llc_wb_dropped_ = CounterHandle(*stats_, "llc.wb_dropped");
  stat_ntc_probe_hits_ = CounterHandle(*stats_, "llc.ntc_probe_hits");
  stat_llc_bypass_ = CounterHandle(*stats_, "llc.bypass_fills");
  stat_clwb_ = CounterHandle(*stats_, "hier.clwb");
  stat_reject_ = CounterHandle(*stats_, "hier.rejects");
}

Cycle Hierarchy::llc_ready_delay(Cycle now) const {
  // Kiln commit flushes block the LLC for other traffic (§5.2): requests
  // arriving during the block window wait it out, then pay the LLC latency.
  const Cycle wait = llc_blocked_until_ > now ? llc_blocked_until_ - now : 0;
  return wait + cfg_.llc.latency_cycles;
}

AccessResult Hierarchy::load(Cycle now, CoreId core, Addr addr,
                             bool persistent) {
  return access(now, core, line_of(addr), /*is_write=*/false, persistent,
                kNoTx);
}

void Hierarchy::wait_for_fill(CoreId core, Addr addr, DoneFn done) {
  auto it = l1_miss_[core].find(line_of(addr));
  NTC_ASSERT(it != l1_miss_[core].end(), "waiting on a line with no L1 miss");
  it->second.waiters.push_back(std::move(done));
}

bool Hierarchy::store(Cycle now, CoreId core, Addr addr, Word value,
                      bool persistent, TxId tx) {
  if (persistent && vimage_ != nullptr) {
    vimage_->store(word_of(addr), value);
  }
  const AccessResult r =
      access(now, core, line_of(addr), /*is_write=*/true, persistent, tx);
  const bool ok = r.kind != AccessKind::kRejected;
  if (ok && persistent && sink_ != nullptr) {
    // Tap on acceptance only — a rejected store retries and would
    // double-count.
    check::CheckEvent ev;
    ev.kind = check::EventKind::kStoreDrained;
    ev.core = core;
    ev.tx = tx;
    ev.addr = word_of(addr);
    ev.value = value;
    ev.persistent = true;
    sink_->on_event(ev);
  }
  return ok;
}

void Hierarchy::hit_llc_(CoreId core, Addr line, Line& ll, bool is_write,
                         bool persistent, TxId tx) {
  if (is_write && ll.presence != 0) {
    // Coherence-lite: a write serviced at the LLC invalidates other
    // cores' private copies (see DESIGN.md §2, coherence substitution).
    for (CoreId c = 0; c < cfg_.cores; ++c) {
      if (c != core && (ll.presence & (1u << c))) {
        bool upper_dirty = false;
        invalidate_private(c, line, &upper_dirty);
        if (upper_dirty) ll.dirty = true;
      }
    }
    ll.presence = 0;
  }
  ll.presence |= 1u << core;
  fill_private(core, line, ll.persistent || persistent, is_write, tx);
}

AccessResult Hierarchy::access(Cycle now, CoreId core, Addr line,
                               bool is_write, bool persistent, TxId tx) {
  // L1.
  if (Line* l = l1_[core]->lookup(line)) {
    stat_l1_hits_->inc();
    if (is_write) {
      l->dirty = true;
      l->persistent |= persistent;
      l->tx = tx;
    }
    return {AccessKind::kHit, now + l1_latency_()};
  }
  stat_l1_misses_->inc();

  // Outstanding L1 miss on this line: merge.
  auto& misses = l1_miss_[core];
  if (auto it = misses.find(line); it != misses.end()) {
    if (is_write) {
      it->second.write_merge = true;
      it->second.persistent |= persistent;
      it->second.tx = tx;
    }
    return {AccessKind::kMiss};
  }

  // L2 (private): hit fills L1 and completes without an MSHR.
  if (Line* l2l = l2_[core]->lookup(line)) {
    stat_l2_hits_->inc();
    fill_private(core, line, l2l->persistent || persistent, is_write, tx);
    return {AccessKind::kHit, now + l1_latency_() + l2_latency_()};
  }
  stat_l2_misses_->inc();

  // Resource checks before committing to the miss path; a rejected access
  // never touches the LLC's replacement state.
  if (misses.size() >= cfg_.l1.mshrs ||
      wb_retry_.size() >= cfg_.llc.writeback_buffer) {
    stat_reject_->inc();
    return {AccessKind::kRejected};
  }

  const Cycle llc_delay = llc_ready_delay(now);

  // Shared LLC.
  if (Line* ll = llc_.lookup(line)) {
    stat_llc_hits_->inc();
    hit_llc_(core, line, *ll, is_write, persistent, tx);
    return {AccessKind::kHit,
            now + l1_latency_() + l2_latency_() + llc_delay};
  }
  stat_llc_misses_->inc();

  // Outstanding LLC miss: attach this core.
  if (auto it = llc_miss_.find(line); it != llc_miss_.end()) {
    L1Miss m;
    m.line = line;
    m.persistent = persistent;
    m.write_merge = is_write;
    m.tx = tx;
    misses.emplace(line, std::move(m));
    it->second.persistent |= persistent;
    std::vector<CoreId>& fills = it->second.fills;
    if (std::find(fills.begin(), fills.end(), core) == fills.end()) {
      fills.push_back(core);
    }
    return {AccessKind::kMiss};
  }

  if (llc_miss_.size() >= cfg_.llc.mshrs) {
    stat_reject_->inc();
    return {AccessKind::kRejected};
  }

  L1Miss m;
  m.line = line;
  m.persistent = persistent;
  m.write_merge = is_write;
  m.tx = tx;
  misses.emplace(line, std::move(m));

  LlcMiss lm;
  lm.line = line;
  lm.persistent = persistent;
  lm.fills.push_back(core);
  auto [lit, _] = llc_miss_.emplace(line, std::move(lm));

  // TC side path: a persistent LLC miss probes the transaction cache in
  // parallel with the NVM read ("issue miss requests toward not only the
  // NVM but also the transaction cache", §3). An NTC entry holds only the
  // words its transaction wrote, so the fill still needs the NVM line and
  // merges the newer NTC words into it — the round trip is NVM-bound
  // either way; the probe guarantees the LLC never uses stale NVM data.
  if (persistent && hooks_.ntc_probe) {
    if (sink_ != nullptr) {
      check::CheckEvent pe;
      pe.kind = check::EventKind::kNtcProbe;
      pe.core = core;
      pe.addr = line;
      pe.persistent = true;
      sink_->on_event(pe);
    }
    if (hooks_.ntc_probe(core, line)) stat_ntc_probe_hits_->inc();
  }

  issue_llc_read(now, lit->second);
  return {AccessKind::kMiss};
}

void Hierarchy::issue_llc_read(Cycle now, LlcMiss& miss) {
  mem::MemRequest req;
  req.op = mem::MemOp::kRead;
  req.line_addr = miss.line;
  req.persistent = miss.persistent;
  req.source = mem::Source::kDemand;
  const Addr line = miss.line;
  req.on_complete = [this, line](const mem::MemRequest&) {
    complete_llc_miss(line);
  };
  const bool was_pending = miss.needs_issue;
  miss.needs_issue = !mem_->enqueue(std::move(req), now);
  if (miss.needs_issue && !was_pending) ++unissued_misses_;
  if (!miss.needs_issue && was_pending) --unissued_misses_;
}

void Hierarchy::complete_llc_miss(Addr line) {
  // A Kiln commit flush is occupying the LLC: the fill waits out the block
  // window, exactly like the requests the paper says get blocked (§5.2).
  if (now_ < llc_blocked_until_) {
    // +1: hier's clock is updated by tick() after the event drain, so a
    // re-fire at exactly llc_blocked_until_ would still observe now_ behind
    // the block end and loop.
    events_->schedule_at(llc_blocked_until_ + 1,
                         [this, line] { complete_llc_miss(line); });
    return;
  }
  auto it = llc_miss_.find(line);
  NTC_ASSERT(it != llc_miss_.end(), "completing an unknown LLC miss");
  LlcMiss miss = std::move(it->second);
  llc_miss_.erase(it);

  const bool allocated = fill_llc(miss.fills.front(), line, miss.persistent);
  if (allocated) {
    if (Line* ll = llc_.lookup(line, /*touch=*/false)) {
      for (const CoreId core : miss.fills) ll->presence |= 1u << core;
    }
  }

  for (const CoreId core : miss.fills) {
    auto mit = l1_miss_[core].find(line);
    if (mit == l1_miss_[core].end()) continue;
    L1Miss m = std::move(mit->second);
    l1_miss_[core].erase(mit);
    fill_private(core, line, m.persistent, m.write_merge, m.tx);
    for (DoneFn& w : m.waiters) w();
  }
}

bool Hierarchy::fill_llc(CoreId core, Addr line, bool persistent) {
  // The line can already be resident: a Kiln commit may have installed it
  // while this miss was in flight. Reuse it rather than double-allocating.
  Line* l = llc_.lookup(line, /*touch=*/false);
  if (l == nullptr) {
    std::optional<Eviction> ev;
    l = llc_.allocate(line, ev);
    if (l == nullptr) {
      // Kiln: every way in the set is pinned by uncommitted transactions;
      // serve the data without caching it in the LLC.
      stat_llc_bypass_->inc();
      return false;
    }
    if (ev) handle_llc_eviction(*ev);
  }
  l->persistent |= persistent;
  if (persistent && hooks_.llc_nonvolatile && hooks_.kiln_pin_query) {
    const TxId tx = hooks_.kiln_pin_query(core, line);
    if (tx != kNoTx) {
      l->pinned = true;
      l->tx = tx;
      llc_.note_pin(true);
    }
  }
  return true;
}

void Hierarchy::invalidate_private(CoreId core, Addr line, bool* upper_dirty) {
  if (auto ev = l1_[core]->invalidate(line); ev && ev->dirty) {
    *upper_dirty = true;
  }
  if (auto ev = l2_[core]->invalidate(line); ev && ev->dirty) {
    *upper_dirty = true;
  }
}

void Hierarchy::handle_llc_eviction(const Eviction& ev) {
  bool dirty = ev.dirty;
  // Inclusion: evicting an LLC line removes every upper-level copy; dirty
  // upper data merges into the outbound write-back.
  for (CoreId c = 0; c < cfg_.cores; ++c) {
    if (ev.presence & (1u << c)) {
      bool upper_dirty = false;
      invalidate_private(c, ev.line_addr, &upper_dirty);
      dirty |= upper_dirty;
    }
  }
  if (!dirty) return;

  if (ev.persistent && hooks_.drop_persistent_llc_writeback) {
    // TC (§3): evicted persistent blocks are *discarded*; the NVM only
    // ever receives the consistent data sent by the transaction cache.
    stat_llc_wb_dropped_->inc();
    if (sink_ != nullptr) {
      check::CheckEvent ce;
      ce.kind = check::EventKind::kLlcWritebackDropped;
      ce.addr = ev.line_addr;
      ce.persistent = true;
      sink_->on_event(ce);
    }
    return;
  }
  const mem::Source src = ev.persistent && hooks_.llc_nonvolatile
                              ? mem::Source::kFlush
                              : mem::Source::kDemand;
  writeback_to_memory(ev.line_addr, ev.persistent, src);
}

void Hierarchy::writeback_to_memory(Addr line, bool persistent,
                                    mem::Source source) {
  stat_llc_wb_->inc();
  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = line;
  req.persistent = persistent;
  req.source = source;
  // Functional payload: under Optimal/SP the NVM array receives whatever
  // the cache hierarchy writes back. Under Kiln the write-back is an
  // NV-LLC clean-back whose committed content is already durable (the
  // commit overlay owns durability) — and a bypass-filled line may hold
  // *uncommitted* data that must never reach the durable image.
  if (persistent && vimage_ != nullptr && !hooks_.llc_nonvolatile) {
    req.payload = vimage_->words_in_line(line);
  }
  if (!mem_->enqueue(req, now_)) {
    wb_retry_.push_back(std::move(req));
  }
}

void Hierarchy::fill_private(CoreId core, Addr line, bool persistent,
                             bool dirty, TxId tx) {
  // L2 first (inclusion: L1 content is always in L2).
  if (l2_[core]->lookup(line) == nullptr) {
    std::optional<Eviction> ev;
    Line* l2l = l2_[core]->allocate(line, ev);
    NTC_ASSERT(l2l != nullptr, "private caches never pin lines");
    if (ev) {
      // Inclusion within the core: drop the L1 copy of the L2 victim.
      bool upper_dirty = false;
      if (auto l1ev = l1_[core]->invalidate(ev->line_addr);
          l1ev && l1ev->dirty) {
        upper_dirty = true;
      }
      if (ev->dirty || upper_dirty) {
        // Victim write-back into the LLC.
        if (Line* ll = llc_.lookup(ev->line_addr, /*touch=*/false)) {
          ll->dirty = true;
          ll->persistent |= ev->persistent;
        } else {
          // The LLC lost the line (Kiln bypass fill): write back directly.
          writeback_to_memory(ev->line_addr, ev->persistent,
                              mem::Source::kDemand);
        }
      }
    }
    l2l->persistent = persistent;
  }

  if (l1_[core]->lookup(line) == nullptr) {
    std::optional<Eviction> ev;
    Line* l1l = l1_[core]->allocate(line, ev);
    NTC_ASSERT(l1l != nullptr, "private caches never pin lines");
    if (ev && ev->dirty) {
      Line* l2v = l2_[core]->lookup(ev->line_addr, /*touch=*/false);
      if (l2v != nullptr) {
        l2v->dirty = true;
        l2v->persistent |= ev->persistent;
      } else {
        if (Line* ll = llc_.lookup(ev->line_addr, /*touch=*/false)) {
          ll->dirty = true;
          ll->persistent |= ev->persistent;
        } else {
          writeback_to_memory(ev->line_addr, ev->persistent,
                              mem::Source::kDemand);
        }
      }
    }
    l1l->persistent = persistent;
    l1l->dirty = dirty;
    l1l->tx = tx;
  } else if (dirty) {
    Line* l1l = l1_[core]->lookup(line, /*touch=*/false);
    l1l->dirty = true;
    l1l->persistent |= persistent;
    l1l->tx = tx;
  }
}

bool Hierarchy::nt_write(Cycle now, const mem::MemRequest& req) {
  // The line may still be cached from an earlier round (log-area reuse):
  // keep coherence by dropping any stale copy.
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    bool dirty = false;
    invalidate_private(c, req.line_addr, &dirty);
  }
  llc_.invalidate(req.line_addr);
  return mem_->enqueue(req, now);
}

bool Hierarchy::clwb(Cycle now, CoreId core, Addr addr, mem::Source source,
                     DoneFn on_persisted) {
  const Addr line = line_of(addr);
  if (l1_miss_[core].count(line) != 0) return false;  // store still in flight
  if (mem_->write_queue_full(line)) return false;

  bool was_dirty = false;
  if (Line* l = l1_[core]->lookup(line, false); l && l->dirty) {
    l->dirty = false;
    was_dirty = true;
  }
  if (Line* l = l2_[core]->lookup(line, false); l && l->dirty) {
    l->dirty = false;
    was_dirty = true;
  }
  if (Line* l = llc_.lookup(line, false); l && l->dirty) {
    l->dirty = false;
    was_dirty = true;
  }
  stat_clwb_->inc();

  if (!was_dirty) {
    // Clean or absent everywhere: the line is already durable.
    if (on_persisted) events_->schedule_at(now + 1, std::move(on_persisted));
    return true;
  }

  mem::MemRequest req;
  req.op = mem::MemOp::kWrite;
  req.line_addr = line;
  req.persistent = true;
  req.source = source;
  req.core = core;
  if (vimage_ != nullptr) req.payload = vimage_->words_in_line(line);
  if (on_persisted) {
    auto cb = std::move(on_persisted);
    req.on_complete = [cb](const mem::MemRequest&) { cb(); };
  }
  const bool ok = mem_->enqueue(std::move(req), now);
  NTC_ASSERT(ok, "write queue checked full before clwb issue");
  return true;
}

void Hierarchy::kiln_pin(CoreId core, Addr line_addr, TxId tx) {
  (void)core;
  if (Line* l = llc_.lookup(line_addr, /*touch=*/false)) {
    if (!l->pinned) {
      l->pinned = true;
      l->tx = tx;
      llc_.note_pin(true);
    }
  }
}

bool Hierarchy::kiln_commit_line(CoreId core, Addr line_addr) {
  // The flush moves the data down but the upper levels keep clean copies
  // (clwb semantics — the working set is not evicted by a commit).
  if (Line* l = l1_[core]->lookup(line_addr, false)) l->dirty = false;
  if (Line* l = l2_[core]->lookup(line_addr, false)) l->dirty = false;
  Line* l = llc_.lookup(line_addr, /*touch=*/false);
  if (l == nullptr) {
    // The LLC no longer holds the line (clean eviction while unpinned, or a
    // bypass fill): allocate it as committed-dirty.
    std::optional<Eviction> ev;
    l = llc_.allocate(line_addr, ev);
    if (l == nullptr) {
      // Whole set pinned: send straight to NVM.
      writeback_to_memory(line_addr, /*persistent=*/true, mem::Source::kFlush);
      return false;
    }
    if (ev) handle_llc_eviction(*ev);
  }
  l->dirty = true;
  l->persistent = true;
  l->presence = 0;
  // Committed data has been handed to the persistence domain: once the
  // clean-back completes it should be the first victim, not displace the
  // read working set (streaming-write insertion policy).
  llc_.age_to_lru(*l);
  if (!l->pinned) {
    l->pinned = true;
    llc_.note_pin(true);
  }
  return true;
}

void Hierarchy::kiln_clean_done(Addr line_addr) {
  Line* l = llc_.lookup(line_addr, /*touch=*/false);
  if (l == nullptr) return;  // bypassed or force-written earlier
  if (l->pinned) {
    l->pinned = false;
    llc_.note_pin(false);
  }
  l->dirty = false;
}

void Hierarchy::block_llc_until(Cycle until) {
  llc_blocked_until_ = std::max(llc_blocked_until_, until);
}

void Hierarchy::tick(Cycle now) {
  now_ = now;
  while (!wb_retry_.empty()) {
    if (!mem_->enqueue(wb_retry_.front(), now)) break;
    wb_retry_.pop_front();
  }
  if (unissued_misses_ == 0) return;
  for (auto& [line, miss] : llc_miss_) {
    if (miss.needs_issue) {
      issue_llc_read(now, miss);
      if (miss.needs_issue) break;  // controller still full
    }
  }
}

bool Hierarchy::quiesced() const {
  if (!wb_retry_.empty() || !llc_miss_.empty()) return false;
  for (const auto& m : l1_miss_) {
    if (!m.empty()) return false;
  }
  return true;
}

}  // namespace ntcsim::cache
