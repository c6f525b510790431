// One memory channel: read/write queues, bank-aware read-first scheduling
// with write-drain (Table 2: 8/64-entry queues, drain at 80 % full), and a
// completion path that delivers read fills and persistent-write
// acknowledgments after a bus delay.
//
// Per §3 of the paper the controller itself is UNMODIFIED by any
// persistence mechanism except for one addition: after completing a
// persistent write it sends an acknowledgment message (carrying the line
// address) back toward the transaction cache.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "common/line_map.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "mem/address_map.hpp"
#include "mem/bank.hpp"
#include "mem/request.hpp"

namespace ntcsim::mem {

/// Per-line write-count summary for endurance analysis (NVM cells wear
/// out; which mechanism concentrates writes where is a first-order
/// persistent-memory concern).
struct WearStats {
  std::uint64_t lines_touched = 0;
  std::uint64_t total_writes = 0;
  std::uint64_t max_writes = 0;     ///< Hottest line.
  double mean_writes = 0.0;         ///< Over touched lines.
  Addr hottest_line = 0;
};

class MemoryController {
 public:
  MemoryController(std::string name, const MemCtrlConfig& cfg, EventQueue& events,
                   StatSet& stats);

  /// Enqueue; returns false when the respective queue is full (the caller
  /// must retry — upstream components carry their own retry buffers). A
  /// request that joins a queue wakes a sleeping controller (tick_when_due).
  bool enqueue(MemRequest req, Cycle now);

  bool read_queue_full() const { return read_q_.size() >= cfg_.read_queue; }
  bool write_queue_full() const { return write_q_.size() >= cfg_.write_queue; }
  std::size_t pending_writes() const { return write_q_.size(); }
  bool idle() const { return read_q_.empty() && write_q_.empty() && in_flight_ == 0; }

  /// Advance one memory-channel cycle: pick at most one request to issue.
  void tick(Cycle now);

  /// tick(now), but only from the cycle next_event_cycle() reported after
  /// the last tick; a request that joins a queue wakes the controller at
  /// once. Exact as long as every enqueue for cycle `now` happens before
  /// this call. With `verify` (skip.verify) a cycle the controller sleeps
  /// through is ticked anyway, and aborts if it did work.
  NTC_HOT void tick_when_due(Cycle now, bool verify) {
    if (now >= wake_at_) {
      tick(now);
      wake_at_ = next_event_cycle(now);
    } else if (verify) {
      verify_idle_tick_(now);
    }
  }

  /// Earliest cycle > now at which tick() could do work (quiescence
  /// contract): the earliest schedulable queue entry under the frozen
  /// bank/rank timing state, or the earliest rank refresh with its banks
  /// idle. kNeverCycle when the queues are empty and refresh is disabled
  /// (in-flight completions are event-driven). Reads the per-queue cycles
  /// the scheduler cached; scans a queue only when a state change has
  /// cleared its cycle since.
  NTC_HOT Cycle next_event_cycle(Cycle now) const;

  /// Per-rank refresh bookkeeping (no-op when refresh is disabled).
  void maybe_refresh_(Cycle now);

  const std::string& name() const { return name_; }

  /// Whole-run per-line wear summary (array writes, not queue traffic).
  /// Among equally worn lines the lowest address is the hottest.
  WearStats wear() const;

 private:
  struct Pending {
    MemRequest req;
    Cycle arrival = 0;
    /// Decoded once at enqueue (line_addr is immutable afterwards); the
    /// scheduler re-examines queued entries and must not pay the full
    /// address decode per scan element.
    BankCoord coord;
    unsigned flat_bank = 0;
    /// An older entry of the same queue targets the same line, so this one
    /// waits for it (program-order writes, §3). Set at enqueue; cleared
    /// when that older entry issues.
    bool behind = false;
  };

  /// One FR-FCFS pass over a queue at cycle `now`.
  struct Scan {
    /// The entry to issue now (first bank-ready row hit, else the oldest
    /// bank-ready miss), or -1 when none is issuable.
    int pick = -1;
    /// Earliest cycle at which some entry could issue under the current
    /// bank/rank state: `now` when pick >= 0, kNeverCycle for a queue
    /// with nothing schedulable.
    Cycle ready = kNeverCycle;
  };
  /// An entry is not schedulable while an older same-line entry is still
  /// queued (program-order writes, §3); otherwise it is issuable once its
  /// bank is free and its rank's tFAW/tWTR windows have cleared.
  Scan scan_(const std::deque<Pending>& q, Cycle now) const;
  /// Appends `req` to `q`, decoded and flagged `behind` any older
  /// same-line entry.
  void push_(std::deque<Pending>& q, MemRequest&& req, Cycle now);
  /// Issue from `q` if anything is issuable now; a scan that finds nothing
  /// caches its ready cycle in `blocked_until`, and until that cycle the
  /// queue is not rescanned.
  bool try_issue_(std::deque<Pending>& q, Cycle& blocked_until, Cycle now);
  void issue_(std::deque<Pending>& q, int i, Cycle now);
  /// Parks `req` in a free completion slot until its event fires.
  std::uint32_t park_(MemRequest&& req);
  /// Frees `slot`, then fires its request's on_complete (which may
  /// enqueue, and so reuse the slot).
  void complete_(std::uint32_t slot);
  /// tick(now) at a cycle before wake_at_, failing loudly if it issued a
  /// request, fired a refresh or flipped the drain mode.
  void verify_idle_tick_(Cycle now);
  /// The next tick enters or leaves write-drain mode.
  bool drain_flip_due_() const;
  /// Forget both cached cycles: the bank/rank state changed.
  void clear_schedule_() {
    reads_blocked_until_ = writes_blocked_until_ = kUnscanned;
  }

  std::string name_;
  MemCtrlConfig cfg_;
  EventQueue* events_;
  StatSet* stats_;
  AddressMap map_;
  std::vector<Bank> banks_;
  std::deque<Pending> read_q_;
  std::deque<Pending> write_q_;
  /// Cached schedule, per queue: no entry of that queue can issue before
  /// this cycle under the current bank/rank state. A push clears its
  /// queue's cycle; an issue or a fired refresh clears both. kUnscanned
  /// (never a computed value: a scan at `now` that finds nothing reports a
  /// cycle > now) means "scan before trusting".
  static constexpr Cycle kUnscanned = 0;
  mutable Cycle reads_blocked_until_ = kUnscanned;
  mutable Cycle writes_blocked_until_ = kUnscanned;
  LineMap<std::uint32_t> wear_;  ///< line -> array writes.
  Cycle bus_busy_until_ = 0;
  std::vector<Cycle> next_refresh_;  ///< Per rank; empty when disabled.
  /// tFAW sliding window: the last four activate times per rank.
  std::vector<std::array<Cycle, 4>> acts_;
  std::vector<Cycle> last_write_end_;  ///< Per rank, for tWTR.
  bool draining_ = false;
  unsigned in_flight_ = 0;
  /// Requests whose completion event is pending, by slot; free_slots_
  /// lists the reusable ones.
  std::vector<MemRequest> slots_;
  std::vector<std::uint32_t> free_slots_;
  Cycle wake_at_ = 0;  ///< tick_when_due(): the next cycle worth a tick.

  CounterHandle stat_reads_;
  CounterHandle stat_writes_;
  CounterHandle stat_writes_by_source_[kSourceCount];
  CounterHandle stat_row_hits_;
  CounterHandle stat_row_misses_;
  CounterHandle stat_drain_entries_;
  CounterHandle stat_refreshes_;
  CounterHandle stat_wq_forwards_;
  AccumulatorHandle stat_read_latency_;
};

}  // namespace ntcsim::mem
