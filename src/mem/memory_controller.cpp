#include "mem/memory_controller.hpp"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "common/assert.hpp"

namespace ntcsim::mem {

MemoryController::MemoryController(std::string name, const MemCtrlConfig& cfg,
                                   EventQueue& events, StatSet& stats)
    : name_(std::move(name)),
      cfg_(cfg),
      events_(&events),
      stats_(&stats),
      map_(cfg.ranks, cfg.banks_per_rank, 8 << 10, cfg.channels) {
  banks_.assign(map_.total_banks(), Bank{cfg_.timing});
  acts_.assign(cfg_.ranks, {});
  last_write_end_.assign(cfg_.ranks, 0);
  stat_reads_ = CounterHandle(*stats_, name_ + ".reads");
  stat_writes_ = CounterHandle(*stats_, name_ + ".writes");
  for (unsigned s = 0; s < kSourceCount; ++s) {
    stat_writes_by_source_[s] = CounterHandle(
        *stats_, name_ + ".writes." + to_string(static_cast<Source>(s)));
  }
  stat_row_hits_ = CounterHandle(*stats_, name_ + ".row_hits");
  stat_row_misses_ = CounterHandle(*stats_, name_ + ".row_misses");
  stat_drain_entries_ = CounterHandle(*stats_, name_ + ".drain_mode_entries");
  stat_refreshes_ = CounterHandle(*stats_, name_ + ".refreshes");
  if (cfg_.refresh_interval > 0) {
    // Stagger ranks across the interval, as real controllers do.
    for (unsigned r = 0; r < cfg_.ranks; ++r) {
      next_refresh_.push_back(cfg_.refresh_interval * (r + 1) / cfg_.ranks);
    }
  }
  stat_wq_forwards_ = CounterHandle(*stats_, name_ + ".wq_forwards");
  stat_read_latency_ = AccumulatorHandle(*stats_, name_ + ".read_latency");
}

bool MemoryController::enqueue(MemRequest req, Cycle now) {
  NTC_CHECK_MSG(line_of(req.line_addr) == req.line_addr,
                "%s: unaligned request address 0x%" PRIx64
                " (controllers operate on whole cache lines)",
                name_.c_str(), req.line_addr);
  if (req.op == MemOp::kRead) {
    if (read_queue_full()) return false;
    // Forward from the write queue: a read of a line with a pending write is
    // serviced from the queue entry without touching the array.
    for (const Pending& w : write_q_) {
      if (w.req.line_addr == req.line_addr) {
        stat_wq_forwards_->inc();
        stat_reads_->inc();
        if (req.on_complete) {
          const std::uint32_t slot = park_(std::move(req));
          events_->schedule_at(now + cfg_.bus_latency,
                               [this, slot] { complete_(slot); });
        }
        return true;
      }
    }
    push_(read_q_, std::move(req), now);
    reads_blocked_until_ = kUnscanned;
    wake_at_ = 0;
    return true;
  }
  if (write_queue_full()) return false;
  push_(write_q_, std::move(req), now);
  writes_blocked_until_ = kUnscanned;
  wake_at_ = 0;
  return true;
}

void MemoryController::push_(std::deque<Pending>& q, MemRequest&& req,
                             Cycle now) {
  Pending p;
  p.req = std::move(req);
  p.arrival = now;
  p.coord = map_.decode(p.req.line_addr);
  p.flat_bank = map_.flat_bank(p.coord);
  // §3: "different write requests of conflicted addresses are issued to the
  // NVM in program order" — an entry waits while an older same-line entry
  // is still queued.
  const Addr line = p.req.line_addr;
  p.behind = std::any_of(q.begin(), q.end(), [line](const Pending& o) {
    return o.req.line_addr == line;
  });
  q.push_back(std::move(p));
}

MemoryController::Scan MemoryController::scan_(const std::deque<Pending>& q,
                                               Cycle now) const {
  Scan s;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const Pending& p = q[i];
    if (p.behind) continue;
    const Bank& bank = banks_[p.flat_bank];
    const bool hit = bank.row_hit(p.coord.row);
    Cycle ready = bank.busy_until();
    // tFAW: a fifth activation within the window must wait.
    if (cfg_.tfaw > 0 && !hit) {
      ready = std::max(ready, acts_[p.coord.rank][0] + cfg_.tfaw);
    }
    // tWTR: a read cannot follow a write on the same rank too closely.
    if (cfg_.twtr > 0 && p.req.op == MemOp::kRead) {
      ready = std::max(ready, last_write_end_[p.coord.rank] + cfg_.twtr);
    }
    if (ready > now) {
      s.ready = std::min(s.ready, ready);
      continue;
    }
    if (hit) return {static_cast<int>(i), now};  // FR: row hit first.
    if (s.pick < 0) s.pick = static_cast<int>(i);
  }
  if (s.pick >= 0) s.ready = now;  // FCFS among bank-ready row misses.
  return s;
}

Cycle MemoryController::next_event_cycle(Cycle now) const {
  Cycle next = kNeverCycle;
  // Refresh fires (blocking the rank, bumping its stat) as soon as its
  // deadline passes AND every bank of the rank is idle.
  for (unsigned r = 0; r < next_refresh_.size(); ++r) {
    Cycle t = std::max(next_refresh_[r], now + 1);
    if (t >= next) continue;  // busy banks only delay it further
    for (unsigned b = 0; b < map_.banks_per_rank(); ++b) {
      t = std::max(t, banks_[r * map_.banks_per_rank() + b].busy_until());
    }
    next = std::min(next, t);
  }
  if (next <= now + 1) return now + 1;
  // An issue lowers the write queue's occupancy after this tick's drain
  // check; if it crossed the low watermark, the next tick must leave drain
  // mode before a later push can hide the crossing.
  if (drain_flip_due_()) return now + 1;
  // A queue whose cycle was cleared since the last tick scanned it (an
  // issue, push or refresh) is scanned here, one cycle ahead, and the
  // result cached for the next tick.
  if (reads_blocked_until_ == kUnscanned) {
    reads_blocked_until_ = scan_(read_q_, now + 1).ready;
  }
  next = std::min(next, reads_blocked_until_);
  if (next <= now + 1) return now + 1;
  if (writes_blocked_until_ == kUnscanned) {
    writes_blocked_until_ = scan_(write_q_, now + 1).ready;
  }
  next = std::min(next, writes_blocked_until_);
  return next <= now + 1 ? now + 1 : next;
}

bool MemoryController::drain_flip_due_() const {
  // Write-drain policy (Table 2): read-first normally; once the write queue
  // crosses the high watermark, service writes until the low watermark.
  const double occ = static_cast<double>(write_q_.size()) /
                     static_cast<double>(cfg_.write_queue);
  return draining_ ? occ <= cfg_.drain_low_watermark
                   : occ >= cfg_.drain_high_watermark;
}

void MemoryController::maybe_refresh_(Cycle now) {
  for (unsigned r = 0; r < next_refresh_.size(); ++r) {
    if (now < next_refresh_[r]) continue;
    // All banks of the rank go unavailable for tRFC; rows close.
    bool all_idle = true;
    for (unsigned b = 0; b < map_.banks_per_rank(); ++b) {
      if (!banks_[r * map_.banks_per_rank() + b].ready_at(now)) {
        all_idle = false;
      }
    }
    if (!all_idle) continue;  // refresh waits for in-flight accesses
    for (unsigned b = 0; b < map_.banks_per_rank(); ++b) {
      banks_[r * map_.banks_per_rank() + b].block_until(now +
                                                        cfg_.refresh_cycles);
    }
    next_refresh_[r] = now + cfg_.refresh_interval;
    stat_refreshes_->inc();
    clear_schedule_();
  }
}

void MemoryController::tick(Cycle now) {
  maybe_refresh_(now);
  if (drain_flip_due_()) {
    draining_ = !draining_;
    if (draining_) stat_drain_entries_->inc();
  }

  if (draining_) {
    if (try_issue_(write_q_, writes_blocked_until_, now)) return;
    try_issue_(read_q_, reads_blocked_until_, now);
  } else {
    if (try_issue_(read_q_, reads_blocked_until_, now)) return;
    // Opportunistic writes: reads have priority, but an idle channel may
    // still retire writes (read-first, not read-only).
    if (read_q_.empty()) try_issue_(write_q_, writes_blocked_until_, now);
  }
}

void MemoryController::verify_idle_tick_(Cycle now) {
  // An issue always schedules its completion event.
  const std::uint64_t pushes = events_->total_pushes();
  const std::uint64_t refreshes = stat_refreshes_->value();
  const bool draining = draining_;
  tick(now);
  NTC_CHECK_MSG(events_->total_pushes() == pushes &&
                    stat_refreshes_->value() == refreshes &&
                    draining_ == draining,
                "skip.verify: %s did work at cycle %llu, before the cycle "
                "%llu its next_event_cycle() promised",
                name_.c_str(), static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(wake_at_));
}

bool MemoryController::try_issue_(std::deque<Pending>& q, Cycle& blocked_until,
                                  Cycle now) {
  if (now < blocked_until) return false;
  const Scan s = scan_(q, now);
  if (s.pick < 0) {
    blocked_until = s.ready;
    return false;
  }
  issue_(q, s.pick, now);
  return true;
}

void MemoryController::issue_(std::deque<Pending>& q, int i, Cycle now) {
  const auto pos = q.begin() + i;
  Pending p = std::move(*pos);
  // It was the oldest entry of its line: the next one of that line, if
  // any, is now.
  const Addr line = p.req.line_addr;
  const auto next = std::find_if(pos + 1, q.end(), [line](const Pending& o) {
    return o.req.line_addr == line;
  });
  if (next != q.end()) next->behind = false;
  q.erase(pos);
  clear_schedule_();
  const BankCoord& c = p.coord;
  Bank& bank = banks_[p.flat_bank];
  const bool is_write = p.req.op == MemOp::kWrite;

  if (bank.row_hit(c.row)) {
    stat_row_hits_->inc();
  } else {
    stat_row_misses_->inc();
    // Record the activation for the tFAW window (sorted ascending).
    auto& a = acts_[c.rank];
    a[0] = now;
    std::sort(a.begin(), a.end());
  }
  Cycle done = bank.access(now, c.row, is_write);
  if (is_write) {
    last_write_end_[c.rank] = std::max(last_write_end_[c.rank], done);
  }

  // Serialize the shared data bus: each transfer occupies `burst` cycles.
  Cycle xfer_start = std::max(done, bus_busy_until_);
  Cycle completion = xfer_start + cfg_.timing.burst;
  bus_busy_until_ = completion;

  if (is_write) {
    stat_writes_->inc();
    stat_writes_by_source_[static_cast<unsigned>(p.req.source)]->inc();
    ++wear_[p.req.line_addr];
  } else {
    stat_reads_->inc();
    stat_read_latency_->add(static_cast<double>(completion + cfg_.bus_latency -
                                                p.arrival));
  }

  ++in_flight_;
  const std::uint32_t slot = park_(std::move(p.req));
  events_->schedule_at(completion + cfg_.bus_latency, [this, slot] {
    NTC_CHECK_MSG(in_flight_ > 0,
                  "%s: completion for line 0x%" PRIx64
                  " with no request in flight",
                  name_.c_str(), slots_[slot].line_addr);
    --in_flight_;
    complete_(slot);
  });
}

std::uint32_t MemoryController::park_(MemRequest&& req) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(req));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(req);
  return slot;
}

void MemoryController::complete_(std::uint32_t slot) {
  MemRequest done = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  if (done.on_complete) done.on_complete(done);
}

WearStats MemoryController::wear() const {
  WearStats w;
  w.lines_touched = wear_.size();
  wear_.for_each([&w](Addr line, std::uint32_t count) {
    w.total_writes += count;
    if (count > w.max_writes ||
        (count == w.max_writes && line < w.hottest_line)) {
      w.max_writes = count;
      w.hottest_line = line;
    }
  });
  if (w.lines_touched > 0) {
    w.mean_writes = static_cast<double>(w.total_writes) /
                    static_cast<double>(w.lines_touched);
  }
  return w;
}

}  // namespace ntcsim::mem
