#include "sim/node.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "persist/sp_transform.hpp"
#include "sim/config_io.hpp"
#include "sim/profiler.hpp"

namespace ntcsim::sim {

Node::Node(const NodeConfig& cfg, NodeId id, unsigned total_nodes,
           EventQueue& events, const Cycle* clock, SystemOptions opts)
    : cfg_(cfg),
      id_(id),
      opts_(opts),
      domain_(persist::DomainRegistry::instance().create(cfg.mechanism)),
      policy_(domain_->policy()) {
  mem_ = std::make_unique<mem::MemorySystem>(cfg_, events, stats_);
  mem_->set_adr_domain(policy_.adr_domain);
  if (cfg_.track_recovery_state) {
    durable_ = std::make_unique<recovery::DurableState>(stats_);
    mem_->set_nvm_observer(durable_.get());
    vimage_ = std::make_unique<recovery::VolatileImage>();
  }
  hier_ = std::make_unique<cache::Hierarchy>(cfg_, *mem_, events, stats_,
                                             vimage_.get());

  hier_->hooks().drop_persistent_llc_writeback =
      policy_.drop_persistent_llc_writeback;
  hier_->hooks().llc_nonvolatile = policy_.llc_nonvolatile;

  if (policy_.route_stores_to_ntc) {
    for (unsigned c = 0; c < cfg_.cores; ++c) {
      ntcs_.push_back(std::make_unique<txcache::TxCache>(
          "ntc" + std::to_string(c), c, cfg_.ntc, cfg_.address_space, *mem_,
          stats_));
    }
    if (policy_.probe_ntc_on_llc_miss) {
      hier_->hooks().ntc_probe = [this](CoreId core, Addr line) {
        // The requester's private NTC holds its own newest data; with
        // core-partitioned heaps other NTCs never match, but probe them
        // for completeness (shared-address programs).
        if (ntcs_[core]->probe(line)) return true;
        for (unsigned c = 0; c < ntcs_.size(); ++c) {
          if (c != core && ntcs_[c]->probe(line)) return true;
        }
        return false;
      };
    }
  }

  if (policy_.flush_on_commit) {
    kiln_ = std::make_unique<persist::KilnUnit>(
        cfg_.cores, cfg_.kiln, *hier_, events, durable_.get(), stats_);
    hier_->hooks().kiln_pin_query = [this](CoreId core, Addr line) {
      return kiln_->pin_query(core, line);
    };
  }

  // The generic machinery the domain's Policy asked for exists; attach the
  // domain to it before any core can call a hook.
  {
    persist::DomainWiring wiring;
    wiring.cfg = &cfg_;
    for (auto& n : ntcs_) wiring.ntcs.push_back(n.get());
    wiring.kiln = kiln_.get();
    wiring.stats = &stats_;
    domain_->bind(wiring);
  }

  for (unsigned c = 0; c < cfg_.cores; ++c) {
    cores_.push_back(std::make_unique<core::Core>(c, cfg_.core, *domain_,
                                                  *hier_, stats_));
  }
  traces_.resize(cfg_.cores);

  for (unsigned c = 0; c < cfg_.cores; ++c) {
    const std::string p = "core" + std::to_string(c);
    m_retired_.emplace_back(stats_, p + ".retired");
    m_txs_.emplace_back(stats_, p + ".txs");
    m_ntc_stalls_.emplace_back(stats_, p + ".ntc_stall_cycles");
    m_pload_lat_.emplace_back(stats_, p + ".pload_latency");
    m_pload_hist_.emplace_back(stats_, p + ".pload_latency_hist");
    m_req_lat_.emplace_back(stats_, p + ".req_latency");
    m_req_hist_.emplace_back(stats_, p + ".req_latency_hist");
  }
  for (unsigned c = 0; c < ntcs_.size(); ++c) {
    m_ntc_spills_.emplace_back(stats_, "ntc" + std::to_string(c) + ".spills");
  }
  m_llc_hits_ = CounterHandle(stats_, "llc.hits");
  m_llc_misses_ = CounterHandle(stats_, "llc.misses");
  m_llc_wb_dropped_ = CounterHandle(stats_, "llc.wb_dropped");
  m_nvm_writes_ = CounterHandle(stats_, "nvm.writes");
  m_nvm_reads_ = CounterHandle(stats_, "nvm.reads");
  m_dram_writes_ = CounterHandle(stats_, "dram.writes");

  const CheckMode mode = opts_.force_check_off
                             ? CheckMode::kOff
                             : check_mode_from_env(cfg_.check);
  if (mode != CheckMode::kOff) {
    check::CheckerRules rules = domain_->checker_rules();
    if (policy_.software_logging && !opts_.sp_ordered) {
      // The Fig. 2c negative control breaks WAL ordering on purpose; the
      // crash tests assert the *recovery* failure, not a checker abort.
      rules.log_before_data = false;
    }
    if (rules.any()) {
      checker_ = std::make_unique<check::PersistOrderChecker>(
          rules, cfg_.address_space, cfg_.cores, mode == CheckMode::kFatal);
      checker_->set_clock(clock);
      if (total_nodes > 1) {
        checker_->set_scope("node" + std::to_string(id_) + "/");
      }
      mem_->set_check_sink(checker_.get());
      hier_->set_check_sink(checker_.get());
      for (auto& n : ntcs_) n->set_check_sink(checker_.get());
      if (kiln_ != nullptr) kiln_->set_check_sink(checker_.get());
      for (auto& c : cores_) c->set_check_sink(checker_.get());
    }
  }
}

void Node::tap_events(check::CheckSink* sink) {
  NTC_ASSERT(checker_ == nullptr,
             "tap_events needs the check sinks free: run with check off");
  mem_->set_check_sink(sink);
  hier_->set_check_sink(sink);
  for (auto& n : ntcs_) n->set_check_sink(sink);
  if (kiln_ != nullptr) kiln_->set_check_sink(sink);
  for (auto& c : cores_) c->set_check_sink(sink);
}

void Node::load_trace(CoreId core, core::Trace trace) {
  NTC_ASSERT(core < cfg_.cores, "trace loaded on a nonexistent core");
  if (policy_.software_logging) {
    persist::SpOptions sp;
    sp.ordered = opts_.sp_ordered;
    sp.adr = policy_.adr_domain;
    domain_->adjust_sp_options(sp);
    traces_[core] =
        persist::transform_sp(trace, core, cfg_.address_space, sp);
  } else {
    traces_[core] = std::move(trace);
  }
  cores_[core]->bind_trace(&traces_[core]);
}

void Node::tick(Cycle now) {
  // The per-component ProfScopes cost one relaxed load each when profiling
  // is off; under --profile they produce the step.* phase breakdown.
  {
    // A finished core's tick is a no-op (nothing to fetch, every buffer
    // empty); skipping it keeps uneven multi-core runs from paying for
    // cores that retired early.
    NTC_PROF_SCOPE("step.cores");
    for (auto& c : cores_) {
      if (!c->finished()) c->tick(now);
    }
  }
  {
    NTC_PROF_SCOPE("step.ntc");
    for (auto& n : ntcs_) n->tick(now);
  }
  if (kiln_ != nullptr) {
    NTC_PROF_SCOPE("step.kiln");
    kiln_->tick(now, *mem_);
  }
  {
    NTC_PROF_SCOPE("step.hierarchy");
    hier_->tick(now);
  }
  {
    NTC_PROF_SCOPE("step.memory");
    mem_->tick(now);
  }
}

Cycle Node::next_event_cycle(Cycle now) const {
  // Same component set tick() visits; a finished core is a permanent no-op
  // (tick() skips it). Early-out: once any component pins now + 1 the node
  // cannot jump, so the remaining queries are skipped.
  Cycle next = kNeverCycle;
  for (const auto& c : cores_) {
    if (c->finished()) continue;
    next = std::min(next, c->next_event_cycle(now));
    if (next <= now + 1) return next;
  }
  for (const auto& n : ntcs_) {
    next = std::min(next, n->next_event_cycle(now));
    if (next <= now + 1) return next;
  }
  if (kiln_ != nullptr) {
    next = std::min(next, kiln_->next_event_cycle(now));
    if (next <= now + 1) return next;
  }
  next = std::min(next, hier_->next_event_cycle(now));
  if (next <= now + 1) return next;
  return std::min(next, mem_->next_event_cycle(now));
}

bool Node::drained() const {
  for (const auto& c : cores_) {
    if (!c->finished()) return false;
  }
  if (!hier_->quiesced() || !mem_->idle()) return false;
  for (const auto& n : ntcs_) {
    if (!n->drained()) return false;
  }
  return true;
}

recovery::WordImage Node::crash_and_recover() const {
  NTC_ASSERT(durable_ != nullptr,
             "crash_and_recover requires track_recovery_state");
  return domain_->recover(*durable_);
}

void Node::add_raw(NodeRaw& into) const {
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    into.retired += m_retired_[c]->value();
    into.txs += m_txs_[c]->value();
    into.pload_sum += m_pload_lat_[c]->sum();
    into.pload_n += m_pload_lat_[c]->count();
    into.req_sum += m_req_lat_[c]->sum();
    into.req_n += m_req_lat_[c]->count();
    into.ntc_stalls += m_ntc_stalls_[c]->value();
    into.pload_hist.merge(*m_pload_hist_[c]);
    into.req_hist.merge(*m_req_hist_[c]);
  }
  into.llc_hits += m_llc_hits_->value();
  into.llc_misses += m_llc_misses_->value();
  into.nvm_writes += m_nvm_writes_->value();
  into.nvm_reads += m_nvm_reads_->value();
  into.dram_writes += m_dram_writes_->value();
  into.llc_wb_dropped += m_llc_wb_dropped_->value();
  for (const CounterHandle& h : m_ntc_spills_) into.ntc_spills += h->value();
  if (checker_ != nullptr) into.check_violations += checker_->violation_count();
}

// Sums over any grouping of cores are exact: the latency sums add whole
// cycle counts, which a double holds exactly, and the percentiles come from
// integer bucket merges. So a cluster total matches its nodes' rows, and a
// one-node total is that node's row.
Metrics NodeRaw::metrics(Cycle cycles, std::uint64_t cores) const {
  Metrics m;
  m.cycles = cycles;
  m.retired_uops = retired;
  m.committed_txs = txs;
  if (cycles > 0) {
    m.ipc = static_cast<double>(retired) / static_cast<double>(cycles);
    m.tx_per_kilocycle =
        1000.0 * static_cast<double>(txs) / static_cast<double>(cycles);
    m.ntc_stall_frac = static_cast<double>(ntc_stalls) /
                       static_cast<double>(cycles * cores);
  }
  if (llc_hits + llc_misses > 0) {
    m.llc_miss_rate = static_cast<double>(llc_misses) /
                      static_cast<double>(llc_hits + llc_misses);
  }
  m.nvm_writes = nvm_writes;
  m.nvm_reads = nvm_reads;
  m.dram_writes = dram_writes;
  m.llc_wb_dropped = llc_wb_dropped;
  m.ntc_spills = ntc_spills;
  if (pload_n > 0) m.pload_latency = pload_sum / static_cast<double>(pload_n);
  // Percentiles are bucket edges of the merged per-core histograms.
  if (pload_hist.total() > 0) {
    m.pload_latency_p50 = pload_hist.percentile_edge(50.0);
    m.pload_latency_p99 = pload_hist.percentile_edge(99.0);
  }
  m.requests = req_n;
  if (req_n > 0) m.req_latency = req_sum / static_cast<double>(req_n);
  if (req_hist.total() > 0) {
    m.req_latency_p50 = req_hist.percentile_edge(50.0);
    m.req_latency_p95 = req_hist.percentile_edge(95.0);
    m.req_latency_p99 = req_hist.percentile_edge(99.0);
    m.req_latency_p999 = req_hist.percentile_edge(99.9);
  }
  m.check_violations = check_violations;
  return m;
}

}  // namespace ntcsim::sim
