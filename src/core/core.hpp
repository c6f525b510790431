// Out-of-order-window core timing model (the PTLsim substitute): 4-wide
// fetch/retire, ROB-limited instruction window, store buffer with
// forwarding, fence semantics, and the TxID/Mode + NextTxID registers of
// §4.2. The core is mechanism-agnostic: every persistence-specific
// decision at a store, TX_BEGIN or TX_END is delegated to the installed
// PersistHooks (see persist_hooks.hpp); the domain's static traits are
// cached at construction so unused hooks cost nothing per cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "check/events.hpp"
#include "mem/request.hpp"
#include "common/config.hpp"
#include "common/hot.hpp"
#include "common/ring.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/persist_hooks.hpp"
#include "core/trace.hpp"

namespace ntcsim::core {

/// Pending stores per word, counted in a flat power-of-two table indexed
/// by a hash of the word address. A store counts from its fetch until its
/// store-buffer entry drains, so a zero slot proves that no store to the
/// word is pending; a nonzero slot only says one may be (other words
/// share the slot).
class PendingStores {
 public:
  /// `max_pending`: most stores that can be pending at once.
  explicit PendingStores(std::size_t max_pending);

  void add(Addr word) { ++counts_[slot(word)]; }
  void remove(Addr word) { --counts_[slot(word)]; }
  bool maybe_pending(Addr word) const { return counts_[slot(word)] != 0; }
  std::size_t slot(Addr word) const {
    // Fibonacci hashing of the word index: its top bits pick the slot.
    return static_cast<std::size_t>(
        ((word / kWordBytes) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  std::vector<std::uint32_t> counts_;
  unsigned shift_;
};

class Core {
 public:
  /// `clock` is the cluster clock (the cycle whose events are draining or
  /// whose components are ticking); it must outlive the core.
  Core(CoreId id, const CoreConfig& cfg, PersistHooks& domain,
       cache::Hierarchy& hier, StatSet& stats, const Cycle* clock);

  void bind_trace(const Trace* trace);
  void tick(Cycle now);

  /// tick(now), unless the core sleeps. A tick after which the core could
  /// only count one stall per cycle (or nothing) puts it to sleep until
  /// the cycle its ROB head or next request becomes ready, or until a
  /// fill or flush acknowledgement calls back. Waking charges the slept
  /// cycles to that stall counter in one step. With `verify`
  /// (skip.verify) a slept cycle is ticked anyway, and aborts unless it
  /// did nothing but count that one stall.
  NTC_HOT void tick_when_due(Cycle now, bool verify) {
    if (asleep_) {
      if (now < wake_at_) {
        if (verify) verify_sleep_tick_(now);
        return;
      }
      settle(now);
      asleep_ = false;
    }
    tick(now);
    sleep_if_blocked_(now);
  }

  /// Charges a sleeping core's stall counter with the cycles it slept
  /// before `now`, so the counters read what a stepped run's would.
  void settle(Cycle now) {
    if (!asleep_ || now <= slept_from_) return;
    if (sleep_stall_ != Stall::kCount) {
      const auto reason = static_cast<std::size_t>(sleep_stall_);
      stat_stalls_[reason]->inc(now - slept_from_);
    }
    slept_from_ = now;
  }

  /// Earliest cycle > now at which this core's tick could stop being a
  /// no-op, assuming no external input arrives first (quiescence contract,
  /// docs/ARCHITECTURE.md "Clock advance & quiescence"): a sleeping core's
  /// wake cycle, kNeverCycle when only a callback can wake it, and now + 1
  /// for a core that is awake.
  NTC_HOT Cycle next_event_cycle(Cycle now) const {
    return asleep_ ? std::max(wake_at_, now + 1) : now + 1;
  }

  /// Trace fully fetched and every buffered effect has left the core.
  bool finished() const;

  std::uint64_t retired() const { return retired_; }
  std::uint64_t committed_txs() const { return committed_txs_; }
  CoreId id() const { return id_; }
  TxId current_tx() const { return mode_reg_; }

  /// Persistence-order checker tap (null = off): TX_BEGIN / committed
  /// TX_END retires.
  void set_check_sink(check::CheckSink* sink) { sink_ = sink; }

 private:
  // Rings never relocate queued elements, so the unissued-load queue and
  // the hierarchy's fill callback can hold a RobEntry* directly: a load
  // entry retires only after it became ready, i.e. after the callback
  // fired.
  //
  // The compute µops fetched from one run in one cycle share an entry:
  // op.count holds how many are left and they share one ready_at. Every
  // other entry holds one µop (op.count == 1).
  struct RobEntry {
    MicroOp op;
    /// First cycle the entry may retire: compute runs, and loads once they
    /// hit, forward or fill (kNeverCycle until then). Other kinds check
    /// their readiness at retire.
    Cycle ready_at = 0;
    Cycle issue_cycle = 0;  ///< Loads: latency measurement start.
  };
  struct SbEntry {
    Addr addr = 0;
    Word value = 0;
    bool persistent = false;
    TxId tx = kNoTx;
    bool hier_done = false;
    bool routed = false;  ///< Accepted by the domain's route_store().
  };

  /// Retire-blocking reasons, one pre-resolved counter each. Registered
  /// up front under "coreN.stall.<reason>" so a stall cycle bumps a raw
  /// pointer instead of building a dotted name per blocked retire.
  enum class Stall : std::uint8_t {
    kCompute,
    kLoad,
    kSbFull,
    kTxendDrain,
    kTxendFlush,
    kClwbDrain,
    kClwbIssue,
    kSfence,
    kPcommit,
    kCount,
  };

  NTC_HOT void fetch_(Cycle now);
  NTC_HOT void issue_loads_(Cycle now);
  void drain_store_buffer_(Cycle now);
  void flush_wc_buffer_(Cycle now);
  void drain_nt_writes_(Cycle now);
  /// Retires from the ROB head into at most `slots` retire slots; returns
  /// the µops retired (0 = the head is blocked, its stall counted).
  unsigned retire_head_(Cycle now, unsigned slots);
  void on_load_done_(RobEntry* e);
  void note_load_latency_(const RobEntry& e, Cycle latency);
  NTC_HOT bool forwarded_by_store_(const RobEntry* until, Addr addr) const;
  bool sb_holds_line_(Addr line) const;
  void note_stall_(Stall reason) {
    stat_stalls_[static_cast<std::size_t>(reason)]->inc();
  }
  /// After tick(now): sleep if every tick until a known cycle or a
  /// callback would only count the ROB head's stall.
  void sleep_if_blocked_(Cycle now);
  /// A callback changed what the core waits on: tick at the next cycle.
  void wake_() { wake_at_ = 0; }
  /// tick(now) at a cycle the core sleeps through, failing loudly if it
  /// did more than count the predicted stall once.
  void verify_sleep_tick_(Cycle now);
  std::uint64_t stall_total_() const;

  CoreId id_;
  CoreConfig cfg_;
  PersistHooks* domain_;
  PersistCoreTraits traits_;  ///< domain_->core_traits(), cached once.
  cache::Hierarchy* hier_;
  StatSet* stats_;
  check::CheckSink* sink_ = nullptr;
  std::string prefix_;

  const Trace* trace_ = nullptr;
  std::size_t trace_records_ = 0;  ///< trace_->ops().size(), cached.
  std::size_t cursor_ = 0;  ///< Next record of trace_->ops().
  /// µops of the record at cursor_ already fetched (only a compute run
  /// is ever part-fetched).
  std::uint32_t run_fetched_ = 0;
  /// Cycle of the first tick after bind_trace(): arrival stamps on kTxBegin
  /// ops are relative to the trace's start, so the gate and the latency
  /// math rebase them onto the absolute clock.
  Cycle trace_base_ = 0;
  bool trace_base_valid_ = false;
  // Every entry holds at least one µop, so the ROB and the loads waiting
  // in it fit in cfg_.rob_entries entries.
  Ring<RobEntry> rob_;
  unsigned rob_uops_ = 0;  ///< µops in rob_ (cfg_.rob_entries is in µops).
  Ring<RobEntry*> unissued_q_;  ///< Loads awaiting issue, in order.
  Ring<SbEntry> sb_;
  PendingStores pending_stores_;  ///< Stores in rob_ or sb_, per word.

  // §4.2 registers: mode/TxID (0 = normal mode) and next-transaction-ID.
  TxId mode_reg_ = kNoTx;
  TxId next_tx_reg_ = 1;

  unsigned outstanding_log_flushes_ = 0;   ///< clwb(log)/ntstore awaiting ack.
  unsigned outstanding_data_flushes_ = 0;  ///< lazy data clean-backs.

  /// Write-combining buffer for non-temporal stores (one open line; log
  /// writes are sequential so this coalesces a full 64 B line per flush).
  Addr wc_line_ = 0;
  std::vector<std::pair<Addr, Word>> wc_words_;
  std::deque<mem::MemRequest> nt_pending_;  ///< WC flushes awaiting the MC.

  std::uint64_t retired_ = 0;
  std::uint64_t committed_txs_ = 0;
  const Cycle* clock_;  ///< The cluster clock; read by load callbacks.

  // Sleep state (tick_when_due). Sleeping cycles from slept_from_ on are
  // not yet charged to sleep_stall_ (kCount: the ROB is empty, nothing to
  // charge).
  bool asleep_ = false;
  Cycle wake_at_ = 0;  ///< First cycle worth a tick; kNeverCycle: a callback.
  Cycle slept_from_ = 0;
  Stall sleep_stall_ = Stall::kCount;

  /// Request-latency accounting: one entry per in-flight transaction,
  /// pushed at kTxBegin fetch (the request's arrival cycle when service
  /// mode stamped one, else the fetch cycle) and popped at the committed
  /// kTxEnd retire. Transactions are serial per core, so FIFO order holds.
  /// Cross-shard cluster requests carry a response-path interconnect delay
  /// that is added to the recorded latency at retire. Every open request
  /// but the youngest has its kTxEnd in the ROB: cfg_.rob_entries + 1.
  struct ReqStart {
    Cycle start = 0;
    std::uint32_t net_rsp = 0;
  };
  Ring<ReqStart> req_start_q_;

  AccumulatorHandle stat_load_lat_;
  AccumulatorHandle stat_pload_lat_;
  HistogramHandle stat_pload_hist_;
  AccumulatorHandle stat_req_lat_;
  HistogramHandle stat_req_hist_;
  CounterHandle stat_retired_;
  CounterHandle stat_txs_;
  CounterHandle stat_ntc_stall_;
  CounterHandle stat_stalls_[static_cast<std::size_t>(Stall::kCount)];
};

}  // namespace ntcsim::core
