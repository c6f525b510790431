// Three-level inclusive cache hierarchy: private L1 + L2 per core, shared
// LLC, write-back/write-allocate, MSHRs at L1 and LLC, LRU everywhere.
//
// Per the paper (§3) the hierarchy operates unmodified under every
// mechanism; the persistence-specific behaviour is confined to small hooks:
//   * TC   — the LLC *drops* persistent write-backs and *probes* the
//            transaction cache on persistent misses (newest value wins).
//   * Kiln — the LLC is nonvolatile: uncommitted persistent blocks are
//            pinned (not evictable) and commit flushes block the LLC.
//   * SP   — clwb() flushes a line to NVM and reports persistence.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/array.hpp"
#include "check/events.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "common/stat_handle.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/memory_system.hpp"
#include "recovery/images.hpp"

namespace ntcsim::cache {

struct HierarchyHooks {
  /// TC: drop persistent lines evicted from the LLC instead of writing
  /// them back (the NTC path is the only writer of persistent data, §3).
  bool drop_persistent_llc_writeback = false;
  /// TC: CAM probe of the requester core's transaction cache on a
  /// persistent LLC miss; true = newest value found in the NTC.
  std::function<bool(CoreId, Addr)> ntc_probe;
  /// Kiln: the LLC is STT-RAM; evicted dirty persistent lines write back to
  /// NVM as NV-LLC clean-backs and uncommitted blocks are pinned.
  bool llc_nonvolatile = false;
  /// Kiln: asked on LLC fill of a persistent line — if the filling core has
  /// an open transaction that dirtied this line, returns its TxId (pin it).
  std::function<TxId(CoreId, Addr)> kiln_pin_query;
};

/// What a demand access found when its tags were looked up.
enum class AccessKind : std::uint8_t {
  kRejected,  ///< MSHRs or write-back buffer exhausted: retry next cycle.
  kHit,       ///< Served by L1, L2 or the LLC: its timing is known now.
  kMiss,      ///< Allocated, or merged into, an outstanding L1 miss.
};

struct AccessResult {
  AccessKind kind = AccessKind::kRejected;
  Cycle ready = 0;  ///< kHit: the cycle the data reaches the core.
};

class Hierarchy {
 public:
  using DoneFn = std::function<void()>;

  Hierarchy(const NodeConfig& cfg, mem::MemorySystem& mem, EventQueue& events,
            StatSet& stats, recovery::VolatileImage* vimage);

  /// Demand load. A hit carries no persistence work and schedules nothing:
  /// it reports the cycle its data reaches the core. After a kMiss, call
  /// wait_for_fill() for a callback when the data arrives.
  AccessResult load(Cycle now, CoreId core, Addr addr, bool persistent);

  /// Fires `done` when `core`'s outstanding L1 miss on `addr`'s line fills
  /// (the miss a load just reported as kMiss).
  void wait_for_fill(CoreId core, Addr addr, DoneFn done);

  /// Demand store (write-allocate). Completion is acceptance: the store
  /// buffer entry can be freed once this returns true (hit, or merged into
  /// an outstanding miss).
  bool store(Cycle now, CoreId core, Addr addr, Word value, bool persistent,
             TxId tx);

  /// Non-temporal write: bypasses every cache level, straight to memory.
  /// Returns false when the controller queue is full (retry).
  bool nt_write(Cycle now, const mem::MemRequest& req);

  /// Flush `addr`'s line to NVM (clwb semantics: clean, keep a copy).
  /// `on_persisted` fires when the NVM array write completes. Returns false
  /// to request a retry (queue full or the line is still miss-pending).
  bool clwb(Cycle now, CoreId core, Addr addr, mem::Source source,
            DoneFn on_persisted);

  /// Kiln: pin an LLC-resident persistent line against eviction.
  void kiln_pin(CoreId core, Addr line_addr, TxId tx);
  /// Kiln commit step: move one transaction line from L1/L2 into the LLC,
  /// marked committed-dirty and still pinned: an NV-LLC block "cannot be
  /// written back to main memory before the cache flushes complete" (§5.2),
  /// so it occupies the LLC until its NVM clean-back finishes. Upper-level
  /// copies are invalidated — post-commit loads pay the LLC trip (Fig. 10).
  /// Returns false when the LLC could not hold the line (bypass).
  bool kiln_commit_line(CoreId core, Addr line_addr);
  /// Kiln: NVM clean-back of `line_addr` completed — unpin and clean.
  void kiln_clean_done(Addr line_addr);
  /// Kiln: commit flushes block the LLC for other requests (§5.2).
  void block_llc_until(Cycle until);
  Cycle llc_blocked_until() const { return llc_blocked_until_; }

  /// Retry queued write-backs and unissued misses. Call once per cycle.
  void tick(Cycle now);

  /// True when no miss or write-back is outstanding (used to drain runs).
  bool quiesced() const;

  /// Earliest cycle > now at which tick() could do work (quiescence
  /// contract): any outstanding miss or queued write-back pins now + 1
  /// (retry loops, and the completion callbacks read the tick-fresh
  /// clock); a quiesced hierarchy is purely event-driven — kNeverCycle.
  NTC_HOT Cycle next_event_cycle(Cycle now) const {
    return quiesced() ? kNeverCycle : now + 1;
  }

  HierarchyHooks& hooks() { return hooks_; }
  /// Persistence-order checker tap (null = off): accepted persistent
  /// stores, NTC probes and dropped persistent write-backs.
  void set_check_sink(check::CheckSink* sink) { sink_ = sink; }
  const CacheArray& llc() const { return llc_; }
  CacheArray& l1(CoreId core) { return *l1_[core]; }
  CacheArray& l2(CoreId core) { return *l2_[core]; }

 private:
  struct L1Miss {
    Addr line = 0;
    bool persistent = false;
    bool write_merge = false;
    TxId tx = kNoTx;
    std::vector<DoneFn> waiters;
  };
  struct LlcMiss {
    Addr line = 0;
    bool persistent = false;
    bool needs_issue = false;  ///< Read not yet accepted by the controller.
    /// Cores whose private levels fill on completion (the first allocated
    /// the miss).
    std::vector<CoreId> fills;
  };

  /// Common load/store entry: tags, MSHRs and timing.
  AccessResult access(Cycle now, CoreId core, Addr line, bool is_write,
                      bool persistent, TxId tx);

  /// The state an LLC hit leaves behind, without MSHRs or timing: presence,
  /// coherence-lite invalidation of other cores' copies on a write, then
  /// fill the private levels.
  void hit_llc_(CoreId core, Addr line, Line& ll, bool is_write,
                bool persistent, TxId tx);

  /// Fill the private levels of `core` (L2, then L1).
  void fill_private(CoreId core, Addr line, bool persistent, bool dirty,
                    TxId tx);
  /// Fill the LLC (allocating, possibly evicting); returns false on a
  /// Kiln all-pinned bypass.
  bool fill_llc(CoreId core, Addr line, bool persistent);

  void handle_llc_eviction(const Eviction& ev);
  void writeback_to_memory(Addr line, bool persistent, mem::Source source);
  void invalidate_private(CoreId core, Addr line, bool* upper_dirty);
  void issue_llc_read(Cycle now, LlcMiss& miss);
  void complete_llc_miss(Addr line);

  unsigned l1_latency_() const { return cfg_.l1.latency_cycles; }
  unsigned l2_latency_() const { return cfg_.l2.latency_cycles; }
  /// LLC access latency including any Kiln commit-block delay from `now`.
  Cycle llc_ready_delay(Cycle now) const;

  NodeConfig cfg_;
  mem::MemorySystem* mem_;
  EventQueue* events_;
  StatSet* stats_;
  recovery::VolatileImage* vimage_;
  HierarchyHooks hooks_;
  check::CheckSink* sink_ = nullptr;

  std::vector<std::unique_ptr<CacheArray>> l1_;
  std::vector<std::unique_ptr<CacheArray>> l2_;
  CacheArray llc_;

  std::vector<std::unordered_map<Addr, L1Miss>> l1_miss_;  ///< per core
  std::unordered_map<Addr, LlcMiss> llc_miss_;
  std::deque<mem::MemRequest> wb_retry_;
  std::size_t unissued_misses_ = 0;  ///< LlcMiss entries with needs_issue.
  Cycle llc_blocked_until_ = 0;
  Cycle now_ = 0;  ///< Updated by tick(); used by memory callbacks.

  CounterHandle stat_l1_hits_;
  CounterHandle stat_l1_misses_;
  CounterHandle stat_l2_hits_;
  CounterHandle stat_l2_misses_;
  CounterHandle stat_llc_hits_;
  CounterHandle stat_llc_misses_;
  CounterHandle stat_llc_wb_;
  CounterHandle stat_llc_wb_dropped_;
  CounterHandle stat_ntc_probe_hits_;
  CounterHandle stat_llc_bypass_;
  CounterHandle stat_clwb_;
  CounterHandle stat_reject_;
};

}  // namespace ntcsim::cache
