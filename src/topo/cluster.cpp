#include "topo/cluster.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sim/profiler.hpp"

namespace ntcsim::sim {

Cluster::Cluster(const SystemConfig& cfg, SystemOptions opts) : cfg_(cfg) {
  const unsigned n = std::max(1u, cfg_.topo.nodes);
  nodes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(cfg_, i, n, events_, &now_, opts));
    nodes_.back()->set_skip(cfg_.skip);
  }
  // Skip accounting lives on node 0's StatSet, like the cluster's other
  // shared state; resolved once here (the PR 2 handle pattern).
  stat_cycles_skipped_ = CounterHandle(stats(), "sim.cycles_skipped");
  stat_ticks_executed_ = CounterHandle(stats(), "sim.ticks_executed");
}

Cluster::~Cluster() {
  Profiler::add_clock_totals(cycles_skipped_, ticks_executed_);
}

void Cluster::load_trace(NodeId node, CoreId core, core::Trace trace) {
  NTC_ASSERT(node < nodes_.size(), "trace loaded on a nonexistent node");
  nodes_[node]->load_trace(core, std::move(trace));
}

void Cluster::load_trace(CoreId core, core::Trace trace) {
  load_trace(0, core, std::move(trace));
}

void Cluster::step_() {
  {
    NTC_PROF_SCOPE("step.events");
    events_.drain_until(now_);
  }
  for (auto& n : nodes_) n->tick(now_);
  ++now_;
  ++ticks_executed_;
  stat_ticks_executed_->inc();
}

void Cluster::advance_clock_(Cycle limit) {
  if (!cfg_.skip.enabled || now_ >= limit) return;
  // The last executed cycle is now_ - 1; every component's quiescence
  // contract is relative to it. The earliest event-queue delivery bounds
  // the jump first: an event callback is external input the components
  // cannot see coming, and the checker stamps event cycles off the live
  // clock, so the clock must be exactly right when one fires.
  Cycle target = events_.empty() ? kNeverCycle : events_.next_cycle();
  for (const auto& n : nodes_) {
    if (target <= now_) return;  // next cycle is live; nothing to skip
    target = std::min(target, n->next_event_cycle(now_ - 1));
  }
  if (target <= now_) return;
  if (target == kNeverCycle) {
    // No component will ever act again, the event queue is empty, and the
    // cluster is not finished (the caller checked): a deadlock. Jump straight
    // to the cap, so a deadlocked run() times out fast and bit-identically.
    target = limit;
  }
  target = std::min(target, limit);
  if (target <= now_) return;
  if (cfg_.skip.verify) {
    verify_idle_window_(target);
    return;
  }
  const Cycle skipped = target - now_;
  cycles_skipped_ += skipped;
  stat_cycles_skipped_->inc(skipped);
  now_ = target;
}

void Cluster::verify_idle_window_(Cycle target) {
  // Cross-check mode: execute the window the jump would have skipped and
  // fail loudly on any sign of work — an event due before the target, a
  // tick scheduling a new event, or a component moving its next-event
  // estimate earlier. Any of these means some next_event_cycle()
  // over-promised and a release-mode jump would have corrupted the run.
  while (now_ < target) {
    NTC_CHECK_MSG(events_.empty() || events_.next_cycle() >= target,
                  "skip.verify: event due at cycle %llu inside the idle "
                  "window claimed until %llu (now %llu)",
                  static_cast<unsigned long long>(events_.next_cycle()),
                  static_cast<unsigned long long>(target),
                  static_cast<unsigned long long>(now_));
    const std::uint64_t pushes_before = events_.total_pushes();
    step_();
    NTC_CHECK_MSG(events_.total_pushes() == pushes_before,
                  "skip.verify: a tick at cycle %llu scheduled an event "
                  "inside the idle window claimed until %llu",
                  static_cast<unsigned long long>(now_ - 1),
                  static_cast<unsigned long long>(target));
    Cycle recomputed = events_.empty() ? kNeverCycle : events_.next_cycle();
    for (const auto& n : nodes_) {
      recomputed = std::min(recomputed, n->next_event_cycle(now_ - 1));
    }
    NTC_CHECK_MSG(recomputed >= target,
                  "skip.verify: next-event estimate moved from %llu to %llu "
                  "after the supposedly idle cycle %llu — a "
                  "next_event_cycle() over-promised",
                  static_cast<unsigned long long>(target),
                  static_cast<unsigned long long>(recomputed),
                  static_cast<unsigned long long>(now_ - 1));
  }
}

bool Cluster::finished() const {
  for (const auto& n : nodes_) {
    if (!n->drained()) return false;
  }
  return events_.empty();
}

void Cluster::run(Cycle max_cycles) {
  if (!run_for(max_cycles)) timed_out_ = true;
}

// The loop tests finished() once per executed cycle, right after the step,
// and advances the clock only when it is false: a jump changes no
// component state, so the answer still holds at the landing cycle. On
// return every sleeping core has charged its stall cycles, so a caller
// reads the counters of a stepped run.
bool Cluster::run_for(Cycle cycles) {
  const Cycle until = now_ + cycles;
  bool done = finished();
  while (!done && now_ < until) {
    step_();
    done = finished();
    if (!done) advance_clock_(until);
  }
  for (auto& n : nodes_) n->settle(now_);
  return done;
}

recovery::WordImage Cluster::crash_and_recover(NodeId node) const {
  NTC_ASSERT(node < nodes_.size(), "crash on a nonexistent node");
  return nodes_[node]->crash_and_recover();
}

void Cluster::reset_stats() {
  for (auto& n : nodes_) n->reset_stats();
  stats_epoch_ = now_;
}

NodeRaw Cluster::raw() const {
  NodeRaw r;
  for (const auto& n : nodes_) n->add_raw(r);
  return r;
}

Metrics Cluster::metrics() const {
  const Cycle cycles = now_ - stats_epoch_;
  Metrics m = raw().metrics(
      cycles, static_cast<std::uint64_t>(cfg_.cores) * nodes_.size());
  if (nodes_.size() > 1) {
    for (const auto& n : nodes_) {
      NodeRaw r;
      n->add_raw(r);
      m.per_node.push_back(r.metrics(cycles, cfg_.cores));
    }
  }
  m.xshard_requests = route_.xshard;
  if (route_.xshard > 0) {
    m.xshard_fwd_delay = static_cast<double>(route_.fwd_cycles) /
                         static_cast<double>(route_.xshard);
  }
  return m;
}

}  // namespace ntcsim::sim
