#include "mem/memory_system.hpp"

#include <utility>

namespace ntcsim::mem {

MemorySystem::MemorySystem(const NodeConfig& cfg, EventQueue& events,
                           StatSet& stats)
    : space_(cfg.address_space), dram_("dram", cfg.dram, events, stats) {
  // Every NVM channel registers under the same stat name, so the counters
  // aggregate across channels automatically.
  for (unsigned c = 0; c < cfg.nvm.channels; ++c) {
    nvm_channels_.push_back(
        std::make_unique<MemoryController>("nvm", cfg.nvm, events, stats));
  }
}

namespace {

/// Checker tap: one durability event per payload word, fired at this
/// request's durability point (array completion, or queue acceptance on an
/// ADR platform).
void emit_durable_words(check::CheckSink* sink, const MemRequest& req) {
  if (sink == nullptr) return;
  check::CheckEvent ev;
  ev.kind = check::EventKind::kNvmDurable;
  ev.core = req.core;
  ev.tx = req.tx;
  ev.source = req.source;
  ev.persistent = req.persistent;
  for (const auto& [word, value] : req.payload) {
    ev.addr = word;
    ev.value = value;
    sink->on_event(ev);
  }
}

}  // namespace

bool MemorySystem::enqueue(MemRequest req, Cycle now) {
  if (!is_nvm(req.line_addr)) {
    return dram_.enqueue(std::move(req), now);
  }
  if (req.op == MemOp::kWrite &&
      (observer_ != nullptr || sink_ != nullptr)) {
    if (adr_domain_) {
      // ADR: acceptance into the (power-fail protected) write queue is the
      // durability point.
      const bool ok = route_nvm_(req.line_addr).enqueue(req, now);
      if (ok) {
        if (observer_ != nullptr) observer_->on_nvm_write(req);
        if (sink_ != nullptr) {
          check::CheckEvent ev;
          ev.kind = check::EventKind::kNvmWrite;
          ev.addr = req.line_addr;
          ev.core = req.core;
          ev.tx = req.tx;
          ev.source = req.source;
          ev.persistent = req.persistent;
          sink_->on_event(ev);
          emit_durable_words(sink_, req);
        }
      }
      return ok;
    }
    // The durable image changes at the instant the array write completes —
    // exactly the point after which a crash can no longer lose this write.
    auto upstream = std::move(req.on_complete);
    NvmWriteObserver* obs = observer_;
    check::CheckSink* sink = sink_;
    req.on_complete = [obs, sink, upstream](const MemRequest& done) {
      if (obs != nullptr) obs->on_nvm_write(done);
      if (sink != nullptr) emit_durable_words(sink, done);
      if (upstream) upstream(done);
    };
  }
  check::CheckEvent ev;
  if (sink_ != nullptr) {
    ev.kind = req.op == MemOp::kWrite ? check::EventKind::kNvmWrite
                                      : check::EventKind::kNvmRead;
    ev.addr = req.line_addr;
    ev.core = req.core;
    ev.tx = req.tx;
    ev.source = req.source;
    ev.persistent = req.persistent;
  }
  const Addr line = req.line_addr;
  const bool ok = route_nvm_(line).enqueue(std::move(req), now);
  if (ok && sink_ != nullptr) sink_->on_event(ev);
  return ok;
}

bool MemorySystem::write_queue_full(Addr line_addr) const {
  return is_nvm(line_addr) ? route_nvm_(line_addr).write_queue_full()
                           : dram_.write_queue_full();
}

void MemorySystem::tick(Cycle now) {
  if (!skip_.enabled) {
    dram_.tick(now);
    for (auto& ch : nvm_channels_) ch->tick(now);
    return;
  }
  // Every enqueue for `now` has happened by now: events drained first, and
  // the node ticks its cores, NTCs, Kiln unit and hierarchy before memory.
  dram_.tick_when_due(now, skip_.verify);
  for (auto& ch : nvm_channels_) ch->tick_when_due(now, skip_.verify);
}

WearStats MemorySystem::nvm_wear() const {
  WearStats total;
  for (const auto& ch : nvm_channels_) {
    const WearStats w = ch->wear();
    total.lines_touched += w.lines_touched;
    total.total_writes += w.total_writes;
    if (w.max_writes > total.max_writes ||
        (w.max_writes == total.max_writes && w.max_writes > 0 &&
         w.hottest_line < total.hottest_line)) {
      total.max_writes = w.max_writes;
      total.hottest_line = w.hottest_line;
    }
  }
  if (total.lines_touched > 0) {
    total.mean_writes = static_cast<double>(total.total_writes) /
                        static_cast<double>(total.lines_touched);
  }
  return total;
}

std::size_t MemorySystem::nvm_pending_writes() const {
  std::size_t n = 0;
  for (const auto& ch : nvm_channels_) n += ch->pending_writes();
  return n;
}

}  // namespace ntcsim::mem
