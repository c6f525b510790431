// Hybrid main memory (Fig. 1): one DRAM channel + one NVM channel behind
// separate controllers; requests are routed by physical address. Completed
// persistent writes are mirrored into the durable NVM image (the functional
// state crash recovery is checked against) and acknowledged upstream.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "check/events.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/hot.hpp"
#include "common/stats.hpp"
#include "mem/memory_controller.hpp"
#include "mem/request.hpp"

namespace ntcsim::mem {

/// Observer of durable (array-level) NVM writes; implemented by
/// recovery::DurableState.
class NvmWriteObserver {
 public:
  virtual ~NvmWriteObserver() = default;
  virtual void on_nvm_write(const MemRequest& req) = 0;
};

class MemorySystem {
 public:
  MemorySystem(const NodeConfig& cfg, EventQueue& events, StatSet& stats);

  /// Routes by address. Returns false when the target queue is full.
  /// Persistent writes get the durable-image mirror + upstream ack chained
  /// onto their completion.
  bool enqueue(MemRequest req, Cycle now);

  bool write_queue_full(Addr line_addr) const;
  bool idle() const {
    if (!dram_.idle()) return false;
    for (const auto& ch : nvm_channels_) {
      if (!ch->idle()) return false;
    }
    return true;
  }

  void tick(Cycle now);

  /// Min over every channel's next_event_cycle (quiescence contract).
  NTC_HOT Cycle next_event_cycle(Cycle now) const {
    Cycle next = dram_.next_event_cycle(now);
    if (next <= now + 1) return next;
    for (const auto& ch : nvm_channels_) {
      next = std::min(next, ch->next_event_cycle(now));
      if (next <= now + 1) break;
    }
    return next;
  }

  void set_nvm_observer(NvmWriteObserver* obs) { observer_ = obs; }
  /// Persistence-order checker tap (null = off; see check/events.hpp).
  /// Emits accepted NVM reads/writes and per-word durability events.
  void set_check_sink(check::CheckSink* sink) { sink_ = sink; }
  /// ADR persistence domain: a persistent write becomes durable the moment
  /// the controller accepts it (the write queue is power-fail protected),
  /// not when the array write completes.
  void set_adr_domain(bool adr) { adr_domain_ = adr; }
  /// The cluster's clock-skip settings. With skipping on, a controller
  /// sleeps until its own next_event_cycle (MemoryController::tick_when_due)
  /// and skip.verify ticks the slept cycles to check them; with skipping
  /// off (`--no-skip`) every controller ticks every cycle.
  void set_skip(const SkipConfig& skip) { skip_ = skip; }

  bool is_nvm(Addr a) const { return space_.is_persistent(a); }
  const MemoryController& dram() const { return dram_; }
  /// Channel 0 (or the aggregate view: all channels share stat counters).
  const MemoryController& nvm() const { return *nvm_channels_.front(); }
  unsigned nvm_channel_count() const {
    return static_cast<unsigned>(nvm_channels_.size());
  }
  /// Aggregate per-line wear across every NVM channel; ties between
  /// channels go to the lower address, as within one.
  WearStats nvm_wear() const;
  std::size_t nvm_pending_writes() const;

 private:
  MemoryController& route_nvm_(Addr line_addr) {
    return *nvm_channels_[(line_addr >> kLineShift) % nvm_channels_.size()];
  }
  const MemoryController& route_nvm_(Addr line_addr) const {
    return *nvm_channels_[(line_addr >> kLineShift) % nvm_channels_.size()];
  }

  AddressSpace space_;
  MemoryController dram_;
  std::vector<std::unique_ptr<MemoryController>> nvm_channels_;
  NvmWriteObserver* observer_ = nullptr;
  check::CheckSink* sink_ = nullptr;
  bool adr_domain_ = false;
  SkipConfig skip_;
};

}  // namespace ntcsim::mem
