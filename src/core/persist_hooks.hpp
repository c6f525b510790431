// Core-facing slice of a persistence domain (persist::PersistenceDomain).
// The core model knows nothing about which mechanism is installed: every
// mechanism-specific decision at a store, TX_BEGIN or TX_END is delegated
// through this interface. Keeping the abstract class here avoids a
// core <-> persist dependency cycle: ntc_persist links ntc_core, so the
// core can only ever see persistence through an abstract hook.
#pragma once

#include "common/types.hpp"

namespace ntcsim::core {

/// What a mechanism does with a persistent in-transaction store before it
/// may enter the cache hierarchy (TC-family: insert into the NTC).
enum class StoreRoute : std::uint8_t {
  kAccepted,       ///< Routed (or nothing to do); proceed to the hierarchy.
  kRetry,          ///< Structural reject (port busy); retry next cycle.
  kRetryCapacity,  ///< Capacity reject (NTC full/overflowing); retry next
                   ///< cycle and count a mechanism stall (§5.2 metric).
};

/// TX_END disposition.
enum class TxEndResult : std::uint8_t {
  kCommitted,   ///< Transaction committed; retire the µop.
  kStallDrain,  ///< Tx stores still in the store buffer; retry next cycle.
  kStallFlush,  ///< Previous commit still flushing; retry next cycle.
};

/// Static per-domain wiring facts, resolved once at core construction so
/// the per-cycle loop skips virtual dispatch for hooks a mechanism does
/// not use (everything here is false for Optimal/SP).
struct PersistCoreTraits {
  /// route_store() must run for persistent in-tx stores (TC family).
  bool routes_tx_stores = false;
  /// on_store_retired()/on_store_drained() must run for persistent in-tx
  /// stores (any domain that tracks store-buffer drain or observes stores:
  /// TC family and Kiln).
  bool observes_tx_stores = false;
  /// loads_blocked() must be polled before issuing loads (Kiln: an
  /// in-flight commit flush occupies the cache ports).
  bool may_block_loads = false;
};

class PersistHooks {
 public:
  virtual ~PersistHooks() = default;

  virtual PersistCoreTraits core_traits() const { return {}; }

  /// May this core issue loads this cycle? Polled only when
  /// core_traits().may_block_loads.
  virtual bool loads_blocked(CoreId /*core*/) const { return false; }

  /// TX_BEGIN retired; `tx` is the new mode-register value.
  virtual void on_tx_begin(CoreId /*core*/, TxId /*tx*/) {}

  /// A persistent in-transaction store entered the store buffer.
  virtual void on_store_retired(CoreId /*core*/, TxId /*tx*/) {}

  /// Mechanism-side routing of a persistent in-transaction store draining
  /// from the store buffer, before it is sent to the cache hierarchy.
  virtual StoreRoute route_store(Cycle /*now*/, CoreId /*core*/,
                                 Addr /*addr*/, Word /*value*/,
                                 TxId /*tx*/) {
    return StoreRoute::kAccepted;
  }

  /// A persistent in-transaction store left the store buffer into the
  /// cache hierarchy this cycle.
  virtual void on_store_drained(Cycle /*now*/, CoreId /*core*/,
                                Addr /*addr*/, Word /*value*/,
                                TxId /*tx*/) {}

  /// TX_END reached retirement; decide whether the commit may complete
  /// this cycle. Called again every cycle while it stalls.
  virtual TxEndResult on_tx_end(Cycle /*now*/, CoreId /*core*/,
                                TxId /*tx*/) {
    return TxEndResult::kCommitted;
  }
};

}  // namespace ntcsim::core
