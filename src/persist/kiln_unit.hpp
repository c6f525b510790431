// Kiln-style commit engine [Zhao+ MICRO'13], the prior hardware scheme the
// paper compares against (§5.1): the LLC is nonvolatile; at TX_END the
// cache controllers flush the transaction's dirty lines from L1/L2 into the
// NV-LLC. The flush blocks the LLC for other traffic ("blocks subsequent
// cache and memory requests ... bursts of traffic", §5.2), and uncommitted
// blocks are pinned in the LLC, shrinking its usable capacity (Fig. 8).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "cache/hierarchy.hpp"
#include "check/events.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "mem/memory_system.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "recovery/images.hpp"

namespace ntcsim::persist {

class KilnUnit {
 public:
  KilnUnit(unsigned cores, const KilnConfig& cfg, cache::Hierarchy& hier,
           EventQueue& events, recovery::DurableState* durable, StatSet& stats);

  void begin_tx(CoreId core, TxId tx);
  /// A persistent in-transaction store drained from the store buffer.
  void on_store(Cycle now, CoreId core, Addr addr, Word value, TxId tx);
  /// TX_END reached with all stores drained: start the commit.
  void begin_commit(Cycle now, CoreId core, TxId tx);
  /// True once the in-flight commit of `core` has completed.
  bool commit_done(CoreId core) const;

  /// Issue NVM clean-backs of committed NV-LLC lines; a line stays pinned
  /// in the LLC until its clean-back completes, so under sustained commit
  /// traffic the usable LLC shrinks (the paper's Fig. 8 effect). One line
  /// per cycle; same-line commits racing an in-flight clean coalesce.
  void tick(Cycle now, mem::MemorySystem& mem);

  /// Earliest cycle > now at which tick() could do work (quiescence
  /// contract): now + 1 when a clean-back is eligible, the oldest queued
  /// entry's age-out cycle when the backlog is young, kNeverCycle when the
  /// queue is empty (commit flushes arrive through the event queue).
  NTC_HOT Cycle next_event_cycle(Cycle now) const;

  /// Hierarchy hook: should a freshly filled persistent LLC line be pinned?
  TxId pin_query(CoreId core, Addr line_addr) const;

  /// Persistence-order checker tap (null = off): commit window open/flush
  /// lines/close.
  void set_check_sink(check::CheckSink* sink) { sink_ = sink; }

  /// Test seam (mutation testing of the checker): drop every other line
  /// from the commit flush set, so commits complete with dirty transaction
  /// lines left un-flushed. Never set outside tests.
  void set_lossy_flush_mutant(bool on) { lossy_flush_mutant_ = on; }

 private:
  struct PerCore {
    TxId open_tx = kNoTx;
    std::vector<std::pair<Addr, Word>> writes;  ///< Program order.
    std::unordered_set<Addr> lines;
    // Commit runs in the background: the previous transaction may still be
    // flushing into the NV-LLC while the next one executes (a new commit
    // must wait for it — commits are serialized per core).
    bool committing = false;
    std::vector<std::pair<Addr, Word>> committing_writes;
    std::unordered_set<Addr> committing_lines;
  };

  KilnConfig cfg_;
  cache::Hierarchy* hier_;
  EventQueue* events_;
  recovery::DurableState* durable_;
  check::CheckSink* sink_ = nullptr;
  bool lossy_flush_mutant_ = false;
  std::vector<PerCore> state_;
  std::deque<std::pair<Addr, Cycle>> clean_q_;  ///< (line, enqueue cycle)
  std::unordered_set<Addr> clean_pending_;

  CounterHandle stat_commits_;
  CounterHandle stat_flushed_lines_;
  CounterHandle stat_cleans_;
  AccumulatorHandle stat_commit_cycles_;
};

}  // namespace ntcsim::persist
