// ntclint-suppress-file(determinism): the benchmark times the simulator
// with the host steady clock; the readings feed the benchmark's own
// report and never reach simulated state or the checked CSV rows.
// ntclint-suppress-file(hot-stats): counts are read by name once per
// phase after Cluster::run returns, never on a simulated-cycle path.
#include "pipeline.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "persist/policy.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "topo/interconnect.hpp"
#include "workload/service.hpp"
#include "workload/sim_heap.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

using namespace ntcsim;

int Tracer::open(std::string_view name, int cell) {
  if (!record_) return -1;
  Span s;
  s.name = std::string(name);
  s.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  open_.pop_back();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Phase::Phase(Tracer& tracer, std::string_view name, int cell, double& acc)
    : tracer_(tracer),
      id_(tracer.open(name, cell)),
      acc_(acc),
      start_(thread_cpu_seconds()) {}

Phase::~Phase() {
  acc_ += thread_cpu_seconds() - start_;
  tracer_.close(id_);
}

namespace {

/// "core12.stall.load" -> "core.stall.load", "ntc3.writes" -> "ntc.writes";
/// other names pass through.
std::string layer_name(const std::string& stat) {
  for (const char* prefix : {"core", "ntc"}) {
    const std::size_t n = std::strlen(prefix);
    if (stat.compare(0, n, prefix) != 0) continue;
    std::size_t i = n;
    while (i < stat.size() && std::isdigit(static_cast<unsigned char>(stat[i]))) ++i;
    if (i > n && i < stat.size() && stat[i] == '.') {
      return std::string(prefix) + stat.substr(i);
    }
  }
  return stat;
}

/// Every node's StatSet counters (per phase: reset_stats zeroes them) plus
/// the Cluster's lifetime event-push and clock-skip totals.
Counts read_counts(const sim::Cluster& sys) {
  Counts c;
  for (NodeId n = 0; n < sys.nodes(); ++n) {
    const StatSet& stats = sys.node(n).stats();
    for (const std::string& name : stats.counter_names()) {
      c[layer_name(name)] += static_cast<double>(stats.counter_value(name));
    }
    c["nvm.read_latency.sum"] += stats.accumulator_sum("nvm.read_latency");
    c["nvm.read_latency.count"] +=
        static_cast<double>(stats.accumulator_count("nvm.read_latency"));
  }
  c["events.pushes"] = static_cast<double>(sys.events().total_pushes());
  c["sim.cycles_skipped"] = static_cast<double>(sys.cycles_skipped());
  c["sim.ticks_executed"] = static_cast<double>(sys.ticks_executed());
  return c;
}

/// The cell's workload parameters, as sim::run_cell derives them.
workload::WorkloadParams cell_params(const SimCell& cell) {
  workload::WorkloadParams params = workload::default_params(cell.wl);
  params.seed = cell.opts.seed;
  params.ops = static_cast<std::size_t>(static_cast<double>(params.ops) *
                                        cell.opts.scale);
  if (params.ops == 0) params.ops = 1;
  params.setup_elems = static_cast<std::size_t>(
      static_cast<double>(params.setup_elems) * cell.opts.setup_scale);
  if (params.setup_elems == 0) params.setup_elems = 1;
  if (cell.cfg.service.enabled && cell.cfg.service.requests > 0) {
    params.ops = cell.cfg.service.requests;
  }
  return params;
}

/// Measured-phase transactions (and requests) every finished cell must
/// complete.
std::uint64_t expected_txs(const SimCell& cell) {
  return static_cast<std::uint64_t>(cell_params(cell).ops) * cell.cfg.cores *
         std::max(1u, cell.cfg.topo.nodes);
}

}  // namespace

SimCellResult run_sim_cell(const SimCell& cell, Tracer& tracer, int cell_id) {
  SimCellResult r;
  CellTimes& t = r.times;
  Phase whole(tracer, "cell", cell_id, t.wall);
  try {
    SystemConfig cfg = cell.cfg;
    cfg.mechanism = cell.mech;
    cfg.track_recovery_state =
        cell.opts.track_recovery ||
        persist::policy_for(cell.mech).needs_recovery_images;
    const workload::WorkloadParams params = cell_params(cell);
    const unsigned nodes = std::max(1u, cfg.topo.nodes);

    std::vector<std::vector<workload::TraceBundle>> bundles(nodes);
    {
      Phase p(tracer, "workload.generate", cell_id, t.generate);
      for (NodeId n = 0; n < nodes; ++n) {
        workload::SimHeap heap(cfg.address_space, cfg.cores);
        workload::WorkloadParams np = params;
        np.seed = params.seed + n * 0x9e3779b9ULL;
        for (CoreId c = 0; c < cfg.cores; ++c) {
          bundles[n].push_back(workload::generate_phased(np, c, heap, nullptr));
          workload::stamp_service_arrivals(bundles[n].back().measured,
                                           cfg.service, c, params.seed, n);
        }
      }
    }
    double uops = 0.0;
    for (const auto& node : bundles) {
      for (const workload::TraceBundle& b : node) {
        uops += static_cast<double>(b.setup.size() + b.measured.size());
      }
    }
    topo::RouteStats route;
    if (nodes > 1 && cfg.service.enabled && cfg.service.open_loop) {
      Phase p(tracer, "topo.route", cell_id, t.route);
      std::vector<std::vector<core::Trace*>> measured(nodes);
      for (NodeId n = 0; n < nodes; ++n) {
        for (CoreId c = 0; c < cfg.cores; ++c) {
          measured[n].push_back(&bundles[n][c].measured);
        }
      }
      route = topo::route_service_arrivals(measured, cfg.topo, cfg.ghz,
                                           params.seed);
    }
    std::unique_ptr<sim::Cluster> sys;
    {
      Phase p(tracer, "sim.build", cell_id, t.build);
      sys = std::make_unique<sim::Cluster>(cfg);
    }
    auto require_finished = [&](const char* phase) {
      if (!sys->timed_out()) return;
      throw std::runtime_error(cell.label + " hit the cycle cap in the " +
                               phase + " phase");
    };
    {
      Phase p(tracer, "persist.load_trace", cell_id, t.load);
      for (NodeId n = 0; n < nodes; ++n) {
        for (CoreId c = 0; c < cfg.cores; ++c) {
          sys->load_trace(n, c, std::move(bundles[n][c].setup));
        }
      }
    }
    {
      Phase p(tracer, "sim.warmup", cell_id, t.warmup);
      sys->run();
    }
    require_finished("setup");
    r.setup_counts = read_counts(*sys);
    sys->reset_stats();
    sys->note_route_stats(route);
    {
      Phase p(tracer, "persist.load_trace", cell_id, t.load);
      for (NodeId n = 0; n < nodes; ++n) {
        for (CoreId c = 0; c < cfg.cores; ++c) {
          sys->load_trace(n, c, std::move(bundles[n][c].measured));
        }
      }
    }
    t.setup = t.generate + t.route + t.build + t.load + t.warmup;
    {
      Phase p(tracer, "sim.measured", cell_id, t.measured);
      sys->run();
    }
    require_finished("measured");
    {
      Phase p(tracer, "sim.metrics", cell_id, t.metrics);
      r.metrics = sys->metrics();
    }
    r.measured_counts = read_counts(*sys);
    for (const char* lifetime :
         {"events.pushes", "sim.cycles_skipped", "sim.ticks_executed"}) {
      r.measured_counts[lifetime] -= r.setup_counts[lifetime];
    }
    r.setup_counts["workload.uops"] = uops;
    r.retired = static_cast<std::uint64_t>(r.setup_counts["core.retired"] +
                                           r.measured_counts["core.retired"]);
    {
      Phase p(tracer, "sim.teardown", cell_id, t.teardown);
      sys.reset();
    }
    std::ostringstream csv;
    sim::write_metrics_csv_row(csv, cell.label, r.metrics);
    r.csv = csv.str();

    const std::uint64_t want = expected_txs(cell);
    if (r.metrics.committed_txs != want) {
      r.error = cell.label + " committed " +
                std::to_string(r.metrics.committed_txs) + " of " +
                std::to_string(want) + " transactions";
    } else if (r.metrics.requests != want) {
      r.error = cell.label + " served " + std::to_string(r.metrics.requests) +
                " of " + std::to_string(want) + " requests";
    }
  } catch (const std::exception& e) {
    r.error = cell.label + ": " + e.what();
  }
  return r;
}

CrashCellResult run_crash_cell(const SystemConfig& cfg,
                               const faultsim::CellSpec& spec, Tracer& tracer,
                               int cell_id) {
  CrashCellResult out;
  faultsim::CampaignOptions opts;
  opts.jobs = 1;
  opts.repro_prefix = kCrashReproPrefix;
  Phase p(tracer, "faultsim.cell", cell_id, out.seconds);
  out.result = faultsim::run_cell(cfg, spec, opts);
  return out;
}

CrashReplica replay_crash_cell(const SystemConfig& base,
                               const faultsim::CellSpec& spec) {
  // The campaign's cell configuration and inputs (faultsim/campaign.cpp):
  // checker off, sps scaled 7x to pressure the LLC, node-mixed seeds.
  SystemConfig cfg = base;
  cfg.mechanism = spec.mech;
  cfg.check = CheckMode::kOff;
  sim::SystemOptions opts;
  opts.sp_ordered = spec.sp_ordered;
  opts.force_check_off = true;
  workload::WorkloadParams p = workload::default_params(spec.wl);
  p.setup_elems = static_cast<std::size_t>(cfg.crash.setup) *
                  (spec.wl == WorkloadKind::kSps ? 7 : 1);
  p.ops = static_cast<std::size_t>(std::max<std::uint64_t>(1, cfg.crash.ops));

  sim::Cluster sys(cfg, opts);
  double uops = 0.0;
  for (NodeId n = 0; n < sys.nodes(); ++n) {
    workload::SimHeap heap(cfg.address_space, cfg.cores);
    workload::WorkloadParams np = p;
    np.seed = spec.seed + n * 0x9e3779b9ULL;
    for (CoreId c = 0; c < cfg.cores; ++c) {
      core::Trace trace = workload::generate(np, c, heap, nullptr);
      uops += static_cast<double>(trace.size());
      sys.load_trace(n, c, std::move(trace));
    }
  }
  sys.run();
  CrashReplica out;
  out.counts = read_counts(sys);
  out.counts["workload.uops"] = uops;
  out.retired = static_cast<std::uint64_t>(out.counts["core.retired"]);
  out.end_cycle = sys.now();
  out.ipc = sys.metrics().ipc;
  return out;
}

faultsim::CampaignReport assemble_report(
    std::vector<faultsim::CellResult> cells) {
  faultsim::CampaignReport report;
  report.cells = std::move(cells);
  std::map<std::string, std::size_t> control_violations;
  for (const faultsim::CellResult& r : report.cells) {
    switch (r.status) {
      case faultsim::CellStatus::kPass: ++report.passed; break;
      case faultsim::CellStatus::kFail: ++report.failed; break;
      case faultsim::CellStatus::kExpectedFail: ++report.expected_failed; break;
      case faultsim::CellStatus::kVacuous: ++report.vacuous; break;
    }
    if (!r.spec.expect_consistent) {
      control_violations[r.spec.variant] += r.violations;
    }
  }
  for (const auto& [label, violations] : control_violations) {
    if (violations == 0) report.toothless.push_back(label);
  }
  return report;
}

}  // namespace perfbench
