#include "faultsim/campaign.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "faultsim/planner.hpp"
#include "persist/domain.hpp"
#include "recovery/recovery.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "workload/sim_heap.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::faultsim {

namespace {

/// Raw per-(node, core) traces + oracle journal for one cell. Traces are
/// kept pre-SP-transform (load_trace applies it), so the same bundle
/// replays under any mechanism variant and any truncation. The journal
/// follows the crash node only — that is the shard the oracle judges.
struct CellInputs {
  recovery::Journal journal;
  std::vector<std::vector<core::Trace>> traces;  ///< [node][core]
  explicit CellInputs(unsigned cores) : journal(cores) {}
};

CellInputs make_inputs(const SystemConfig& cfg, const CellSpec& spec,
                       NodeId crash_node) {
  const unsigned nodes = std::max(1u, cfg.topo.nodes);
  CellInputs in(cfg.cores);
  in.traces.resize(nodes);
  workload::WorkloadParams base = workload::default_params(spec.wl);
  base.setup_elems = setup_elems(cfg, spec.wl);
  NTC_ASSERT(base.setup_elems > 0, "crash.setup overflows the setup size");
  base.ops =
      static_cast<std::size_t>(std::max<std::uint64_t>(1, cfg.crash.ops));
  for (NodeId n = 0; n < nodes; ++n) {
    workload::SimHeap heap(cfg.address_space, cfg.cores);
    workload::WorkloadParams p = base;
    p.seed = workload::node_seed(spec.seed, n);
    for (CoreId c = 0; c < cfg.cores; ++c) {
      in.traces[n].push_back(workload::generate(
          p, c, heap, n == crash_node ? &in.journal : nullptr));
    }
  }
  return in;
}

SystemConfig cell_config(const SystemConfig& base, const CellSpec& spec) {
  SystemConfig cfg = base;
  cfg.mechanism = spec.mech;
  // Verdicts come from the atomicity oracle; the order checker would both
  // occupy the planner's taps and abort fatally on deliberately broken
  // variants (tiny() defaults to fatal).
  cfg.check = CheckMode::kOff;
  return cfg;
}

sim::SystemOptions cell_options(const CellSpec& spec) {
  sim::SystemOptions opts;
  opts.sp_ordered = spec.sp_ordered;
  opts.force_check_off = true;
  return opts;
}

struct SweepOutcome {
  std::size_t checks = 0;
  std::size_t violations = 0;
  Cycle first_cycle = 0;
  std::string first_msg;
};

/// Replay a cell, crashing nondestructively at each planned point and once
/// more after the run drains. Only `crash_node` crashes; in a multi-node
/// cluster the remaining nodes run through unperturbed (partial failure).
SweepOutcome replay_sweep(const SystemConfig& cfg,
                          const sim::SystemOptions& opts,
                          const std::vector<std::vector<core::Trace>>& traces,
                          const recovery::Journal& journal, NodeId crash_node,
                          const std::vector<Cycle>& points) {
  sim::System sys(cfg, opts);
  for (NodeId n = 0; n < traces.size() && n < sys.nodes(); ++n) {
    for (CoreId c = 0; c < cfg.cores; ++c) sys.load_trace(n, c, traces[n][c]);
  }
  SweepOutcome out;
  auto check_now = [&] {
    const recovery::AtomicityReport report =
        recovery::check_atomicity(sys.crash_and_recover(crash_node), journal);
    ++out.checks;
    if (!report.consistent) {
      if (out.violations == 0) {
        out.first_cycle = sys.now();
        out.first_msg = report.violation;
      }
      ++out.violations;
    }
  };
  for (const Cycle pt : points) {
    if (sys.finished()) break;
    if (pt <= sys.now()) continue;
    sys.run_for(pt - sys.now());
    check_now();
  }
  sys.run();  // drain; the final state must be consistent too
  check_now();
  return out;
}

/// First `n` transactions of a trace (cut after the n-th TX_END). The
/// journal stays full — the oracle accepts any program-order prefix, so a
/// truncated replay is still checkable against it.
core::Trace tx_prefix(const core::Trace& t, std::size_t n) {
  core::Trace out;
  std::size_t ends = 0;
  for (const core::MicroOp& op : t.ops()) {
    out.push(op);
    if (op.kind == core::OpKind::kTxEnd && ++ends == n) break;
  }
  return out;
}

/// Shrink a failing single-core cell to the shortest transaction prefix
/// that still reproduces >= 1 violation. Violations need not be monotone
/// in the prefix length, so the binary search is a heuristic; the result
/// is re-validated and falls back to the full trace if the candidate
/// prefix turns out clean.
void minimize_cell(const SystemConfig& cfg, const sim::SystemOptions& opts,
                   const CellInputs& in, CellResult& result) {
  const core::Trace& full = in.traces[0][0];
  const std::size_t total = full.transactions();
  result.total_txs = total;
  if (total == 0) return;

  auto fails_at = [&](std::size_t n) {
    const std::vector<std::vector<core::Trace>> traces{{tx_prefix(full, n)}};
    const CrashPlan plan = plan_cell(cfg, opts, traces, 0, cfg.crash.points);
    return replay_sweep(cfg, opts, traces, in.journal, 0, plan.points)
               .violations > 0;
  };

  std::size_t lo = 1, hi = total;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails_at(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (!fails_at(lo)) lo = total;
  result.minimized = true;
  result.min_txs = lo;
  result.min_uops = tx_prefix(full, lo).size();
}

std::string mechanism_name(Mechanism m) {
  return persist::DomainRegistry::instance().info(m).name;
}

}  // namespace

std::vector<VariantSpec> default_variants() {
  const persist::DomainRegistry& reg = persist::DomainRegistry::instance();
  std::vector<VariantSpec> variants;
  for (const Mechanism m : reg.matrix_mechanisms()) {
    variants.push_back({m, true,
                        reg.create(m)->crash_profile().expect_consistent,
                        reg.info(m).name});
  }
  // SP-ADR stays out of --matrix but its recovery path deserves the same
  // systematic sweep.
  if (const persist::DomainInfo* adr = reg.find("sp-adr")) {
    variants.push_back({adr->id, true,
                        reg.create(adr->id)->crash_profile().expect_consistent,
                        adr->name});
  }
  // The Fig. 2(c) control: SP with write ordering deliberately broken.
  if (const persist::DomainInfo* sp = reg.find("sp")) {
    variants.push_back({sp->id, false, false, sp->name + "!unordered"});
  }
  return variants;
}

std::vector<WorkloadKind> default_workloads() {
  return {WorkloadKind::kSps, WorkloadKind::kHashtable, WorkloadKind::kRbtree};
}

std::vector<CellSpec> make_cells(const std::vector<VariantSpec>& variants,
                                 const std::vector<WorkloadKind>& workloads,
                                 const std::vector<std::uint64_t>& seeds) {
  std::vector<CellSpec> cells;
  cells.reserve(variants.size() * workloads.size() * seeds.size());
  for (const VariantSpec& v : variants) {
    for (const WorkloadKind wl : workloads) {
      for (const std::uint64_t s : seeds) {
        CellSpec spec;
        spec.mech = v.mech;
        spec.wl = wl;
        spec.seed = s;
        spec.sp_ordered = v.sp_ordered;
        spec.expect_consistent = v.expect_consistent;
        spec.variant = v.label;
        cells.push_back(std::move(spec));
      }
    }
  }
  return cells;
}

std::uint64_t setup_elems(const SystemConfig& cfg, WorkloadKind wl) {
  // Footprint must exceed the preset's LLC so dirty evictions — the crash
  // hazard software schemes must survive — actually happen; sps elements
  // are a single word, so that workload needs a larger index range.
  const std::uint64_t factor = wl == WorkloadKind::kSps ? 7 : 1;
  if (cfg.crash.setup > std::numeric_limits<std::uint64_t>::max() / factor) {
    return 0;
  }
  return cfg.crash.setup * factor;
}

CellResult run_cell(const SystemConfig& base, const CellSpec& spec,
                    const CampaignOptions& opts) {
  const SystemConfig cfg = cell_config(base, spec);
  const unsigned nodes = std::max(1u, cfg.topo.nodes);
  const NodeId crash_node = spec.node < nodes ? spec.node : 0;
  const sim::SystemOptions sopts = cell_options(spec);
  const CellInputs in = make_inputs(cfg, spec, crash_node);

  CellResult result;
  result.spec = spec;
  result.spec.node = crash_node;
  const CrashPlan plan =
      plan_cell(cfg, sopts, in.traces, crash_node, cfg.crash.points);
  result.hazard_events = plan.hazard_events;
  result.crash_points = plan.points.size();
  result.end_cycle = plan.end_cycle;

  const SweepOutcome out = replay_sweep(cfg, sopts, in.traces, in.journal,
                                        crash_node, plan.points);
  result.checks = out.checks;
  result.violations = out.violations;
  result.first_violation_cycle = out.first_cycle;
  result.first_violation = out.first_msg;

  if (spec.expect_consistent) {
    result.status =
        out.violations == 0 ? CellStatus::kPass : CellStatus::kFail;
  } else {
    result.status = out.violations == 0 ? CellStatus::kVacuous
                                        : CellStatus::kExpectedFail;
  }

  result.repro = opts.repro_prefix + " --crash-sweep --mechanism=" +
                 mechanism_name(spec.mech) +
                 " --workload=" + std::string(to_string(spec.wl)) +
                 " --seed=" + std::to_string(spec.seed);
  if (nodes > 1) result.repro += " --nodes=" + std::to_string(nodes);
  if (!spec.sp_ordered) result.repro += "   # with SystemOptions.sp_ordered=false";

  if (result.status == CellStatus::kFail && cfg.crash.minimize &&
      cfg.cores == 1 && nodes == 1) {
    minimize_cell(cfg, sopts, in, result);
  } else {
    result.total_txs = in.traces[crash_node].empty()
                           ? 0
                           : in.traces[crash_node][0].transactions();
  }
  return result;
}

CampaignReport run_campaign(const SystemConfig& cfg,
                            const std::vector<CellSpec>& cells,
                            const CampaignOptions& opts) {
  CampaignReport report;
  report.cells = sim::run_jobs(
      cells.size(), opts.jobs,
      [&](std::size_t i) { return run_cell(cfg, cells[i], opts); });

  std::map<std::string, std::pair<bool, std::size_t>> controls;  // label -> (seen, violations)
  for (const CellResult& r : report.cells) {
    switch (r.status) {
      case CellStatus::kPass: ++report.passed; break;
      case CellStatus::kFail: ++report.failed; break;
      case CellStatus::kExpectedFail: ++report.expected_failed; break;
      case CellStatus::kVacuous: ++report.vacuous; break;
    }
    if (!r.spec.expect_consistent) {
      auto& [seen, v] = controls[r.spec.variant];
      seen = true;
      v += r.violations;
    }
  }
  for (const auto& [label, sv] : controls) {
    if (sv.second == 0) report.toothless.push_back(label);
  }
  return report;
}

}  // namespace ntcsim::faultsim
