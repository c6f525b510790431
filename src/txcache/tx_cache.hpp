// The paper's contribution (§3/§4.1): a per-core nonvolatile transaction
// cache (NTC) implemented as a content-addressable FIFO (CAM-FIFO).
//
//  * Write requests from the CPU (TxID, address, value) are inserted at the
//    head as ACTIVE entries. A cache-line entry holds the whole 64 B line,
//    so same-line writes of the same open transaction coalesce in place;
//    writes of *different* transactions to one line keep separate entries —
//    that is the multi-versioning the recovery path relies on.
//  * A commit request CAM-matches every entry with the TxID and moves it to
//    COMMITTED. Committed entries are issued toward the NVM in FIFO
//    (= program) order, which is the paper's write-order control.
//  * The NVM controller acknowledges each completed persistent write; the
//    ack CAM-matches the entry *nearest the tail* and frees it. The tail
//    then advances over AVAILABLE entries (acks may complete out of order).
//  * An LLC miss probe CAM-matches the entry *nearest the head* (newest
//    value), because the LLC drops persistent write-backs and must not read
//    stale NVM data.
//  * Overflow fall-back (§4.1): when occupancy reaches the threshold
//    (default 90 %), the oldest ACTIVE entries are spilled to a per-core
//    NVM shadow region with hardware-controlled copy-on-write; their home
//    writes are issued when the owning transaction commits.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/events.hpp"
#include "common/config.hpp"
#include "common/hot.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/memory_system.hpp"
#include "recovery/recovery.hpp"

namespace ntcsim::txcache {

class TxCache {
 public:
  TxCache(std::string name, CoreId core, const TxCacheConfig& cfg,
          const AddressSpace& space, mem::MemorySystem& mem, StatSet& stats);

  /// CPU write request. Returns false when the FIFO is full or the CAM
  /// port is still busy with the previous operation (one op per
  /// latency_cycles) — the CPU retries; a full NTC is the only stall that
  /// shows up at paper scale (§5.2).
  bool write(Cycle now, Addr addr, Word value, TxId tx);

  /// CPU commit request: CAM-match `tx`, ACTIVE -> COMMITTED. Non-blocking.
  void commit(TxId tx);

  /// LLC miss request: nearest-head CAM match over valid entries.
  bool probe(Addr line_addr) const;

  /// Acknowledgment message from the NVM controller.
  void on_ack(Addr line_addr);

  /// Issue the oldest committed entry toward the NVM (at most one line per
  /// cycle, in FIFO order); run the overflow fall-back when nearly full.
  /// Call once per cycle.
  void tick(Cycle now);

  /// Earliest cycle > now at which tick() could do work, assuming no
  /// external input (quiescence contract). Committed-but-undrained work or
  /// an imminent overflow with ACTIVE victims pins now + 1; everything
  /// else (acks, reaps they trigger) is event-driven — kNeverCycle.
  NTC_HOT Cycle next_event_cycle(Cycle now) const;

  std::size_t occupancy() const { return count_; }
  std::size_t capacity() const { return entries_.size(); }
  bool full() const { return count_ == entries_.size(); }
  /// The fall-back trip point (§4.1, "e.g., 90 % full").
  bool overflow_imminent() const;

  /// True when nothing remains to drain (active entries may remain).
  bool drained() const;

  /// Nonvolatile contents at crash time, oldest first, for recovery.
  recovery::NtcSnapshot snapshot() const;

  const std::string& name() const { return name_; }

  /// Persistence-order checker tap (null = off): inserts, commits, drain
  /// issues and releases.
  void set_check_sink(check::CheckSink* sink) { sink_ = sink; }

  /// Test seam (mutation testing of the checker): drain the two oldest
  /// committed ring entries in swapped order, breaking the FIFO invariant
  /// the real hardware guarantees. Never set outside tests.
  void set_drain_order_mutant(bool on) { drain_order_mutant_ = on; }

 private:
  enum class State : std::uint8_t { kAvailable, kActive, kCommitted };

  struct Entry {
    State state = State::kAvailable;
    TxId tx = kNoTx;
    Addr line = 0;
    std::vector<std::pair<Addr, Word>> words;
    bool issued = false;       ///< Sent to the NVM, awaiting its ack.
    std::uint64_t seq = 0;     ///< Program-order sequence of the write.
  };

  /// Overflow fall-back record: lives in the NVM shadow region.
  struct Spill {
    TxId tx = kNoTx;
    std::vector<std::pair<Addr, Word>> words;  ///< Home addresses.
    bool committed = false;
    bool home_issued = false;  ///< Home write sent to the NVM controller.
    bool home_done = false;    ///< Home write acked (durable).
    bool shadow_done = false;  ///< Shadow copy-on-write write acked.
    std::uint64_t seq = 0;     ///< Inherited from the spilled entry.
  };

  std::size_t next_(std::size_t i) const { return (i + 1) % entries_.size(); }
  void advance_tail_();
  /// Issues the oldest committed ring entry or spill home write, unless
  /// it would pass an ACTIVE entry or the NVM write queue is full.
  void issue_oldest_committed_(Cycle now);
  bool issue_entry_(Cycle now, std::size_t idx);
  bool issue_spill_home_(Cycle now, const std::shared_ptr<Spill>& spill);
  void run_overflow_fallback_(Cycle now);

  std::string name_;
  CoreId core_;
  TxCacheConfig cfg_;
  AddressSpace space_;
  mem::MemorySystem* mem_;
  check::CheckSink* sink_ = nullptr;
  bool drain_order_mutant_ = false;

  std::vector<Entry> entries_;
  std::size_t head_ = 0;  ///< Next insertion slot.
  std::size_t tail_ = 0;  ///< Oldest live entry.
  std::size_t count_ = 0;

  std::deque<std::shared_ptr<Spill>> spills_;
  std::uint64_t shadow_cursor_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t committed_spills_ = 0;     ///< Spills awaiting home writes.
  Cycle port_free_at_ = 0;               ///< CPU-side CAM port occupancy.
  /// Open-transaction same-line coalescing index: line -> ring slot.
  std::unordered_map<Addr, std::size_t> active_lines_;

  // O(1) drain/spill bookkeeping. The ring region [tail, head) is in
  // ascending seq order (insertion at head), so these deques — fed in ring
  // order — stay seq-sorted without searching:
  //  * active_fifo_ holds the ring slots of ACTIVE entries, oldest first
  //    (front = the FIFO boundary seq and the next spill victim).
  //  * committed_fifo_ holds COMMITTED-but-unissued slots, oldest first
  //    (front = next drain candidate). Slots here are never recycled:
  //    only issued entries are freed by acks.
  //  * spill_home_issued_live_ counts the home_issued prefix of spills_
  //    (home writes issue strictly in seq order), so the next home-write
  //    candidate is spills_[spill_home_issued_live_].
  std::deque<std::size_t> active_fifo_;
  std::deque<std::size_t> committed_fifo_;
  std::size_t spill_home_issued_live_ = 0;
  std::size_t committed_in_ring_ = 0;       ///< Entries in COMMITTED state.
  std::size_t committed_undone_spills_ = 0; ///< Committed, home not durable.

  CounterHandle stat_writes_;
  CounterHandle stat_commits_;
  CounterHandle stat_issued_;
  CounterHandle stat_acks_;
  CounterHandle stat_probe_hits_;
  CounterHandle stat_probe_misses_;
  CounterHandle stat_spills_;
  CounterHandle stat_merges_;
  CounterHandle stat_full_rejects_;
  CounterHandle stat_port_busy_;
};

}  // namespace ntcsim::txcache
