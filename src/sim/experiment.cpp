#include "sim/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "persist/domain.hpp"
#include "sim/config_io.hpp"
#include "sim/profiler.hpp"
#include "sim/sweep.hpp"
#include "workload/service.hpp"

namespace ntcsim::sim {

namespace {

/// --scale / NTCSIM_SCALE: a positive factor on op counts, capped so the
/// scaled counts stay representable. --jobs / NTCSIM_JOBS: 0 = auto.
constexpr Bounds<double> kScaleBounds{0.0, 1000.0, true};
constexpr Bounds<unsigned> kJobsBounds{};

}  // namespace

std::vector<Mechanism> matrix_mechanisms() {
  return persist::DomainRegistry::instance().matrix_mechanisms();
}

std::string_view mechanism_label(Mechanism mech) {
  return persist::DomainRegistry::instance().display_name(mech);
}

Cell::Cell(const SystemConfig& cfg, const workload::WorkloadParams& params,
           recovery::Journal* journal)
    // ntclint-suppress(determinism): self-profiling wall time, never simulated state
    : start_(std::chrono::steady_clock::now()),
      label_(std::string(mechanism_label(cfg.mechanism)) + "/" +
             std::string(to_string(params.kind))),
      cluster_(cfg) {
  const unsigned nodes = cluster_.nodes();
  // Per-node generation: each node is its own shard with its own heap and
  // seed, so shards hold distinct data.
  std::vector<std::vector<workload::TraceBundle>> bundles(nodes);
  topo::RouteStats route;
  {
    NTC_PROF_SCOPE("cell.generate");
    for (NodeId n = 0; n < nodes; ++n) {
      workload::SimHeap heap(cfg.address_space, cfg.cores);
      workload::WorkloadParams p = params;
      p.seed = workload::node_seed(params.seed, n);
      for (CoreId c = 0; c < cfg.cores; ++c) {
        bundles[n].push_back(workload::generate_phased(
            p, c, heap, n == 0 ? journal : nullptr));
        // Open-loop service: stamp arrival cycles (relative to the
        // measured phase's start; the core rebases them at bind time).
        workload::stamp_service_arrivals(bundles[n].back().measured,
                                         cfg.service, c, params.seed, n);
      }
    }
    // Shard the request stream: pick each request's entry node and charge
    // cross-shard traffic the interconnect round trip (stamp-time, so the
    // cell stays a pure function of its inputs).
    if (nodes > 1 && cfg.service.enabled && cfg.service.open_loop) {
      std::vector<std::vector<core::Trace*>> measured(nodes);
      for (NodeId n = 0; n < nodes; ++n) {
        for (workload::TraceBundle& b : bundles[n]) {
          measured[n].push_back(&b.measured);
        }
      }
      route = topo::route_service_arrivals(measured, cfg.topo, cfg.ghz,
                                           params.seed);
    }
  }
  // Build the structures (warm caches/NTC/NVM), unmeasured; then start the
  // measured epoch with the steady-state traces installed.
  NTC_PROF_SCOPE("cell.setup");
  for (NodeId n = 0; n < nodes; ++n) {
    for (CoreId c = 0; c < cfg.cores; ++c) {
      cluster_.load_trace(n, c, std::move(bundles[n][c].setup));
    }
  }
  cluster_.run();
  require_finished_("setup");
  cluster_.reset_stats();
  cluster_.note_route_stats(route);
  for (NodeId n = 0; n < nodes; ++n) {
    for (CoreId c = 0; c < cfg.cores; ++c) {
      cluster_.load_trace(n, c, std::move(bundles[n][c].measured));
    }
  }
}

void Cell::require_finished_(const char* phase) const {
  if (!cluster_.timed_out()) return;
  throw std::runtime_error("cell " + label_ + " hit the cycle cap in the " +
                           phase + " phase (deadlock or under-budgeted run)");
}

Metrics Cell::run() {
  {
    // The steady state the paper's figures report.
    NTC_PROF_SCOPE("cell.measured");
    cluster_.run();
    require_finished_("measured");
  }
  if (Profiler::enabled()) {
    // ntclint-suppress(determinism): self-profiling wall time, never simulated state
    const auto end = std::chrono::steady_clock::now();
    Profiler::add_cell(label_,
                       std::chrono::duration<double>(end - start_).count());
  }
  return cluster_.metrics();
}

workload::WorkloadParams cell_params(WorkloadKind wl, const SystemConfig& cfg,
                                     const ExperimentOptions& opts) {
  workload::WorkloadParams params = workload::default_params(wl);
  params.seed = opts.seed;
  params.ops = static_cast<std::size_t>(
      static_cast<double>(params.ops) * opts.scale);
  if (params.ops == 0) params.ops = 1;
  params.setup_elems = static_cast<std::size_t>(
      static_cast<double>(params.setup_elems) * opts.setup_scale);
  if (params.setup_elems == 0) params.setup_elems = 1;
  if (cfg.service.enabled && cfg.service.requests > 0) {
    // Service cells pin the request count explicitly; --scale untouched.
    params.ops = cfg.service.requests;
  }
  return params;
}

Metrics run_cell(Mechanism mech, WorkloadKind wl, const SystemConfig& base,
                 const ExperimentOptions& opts) {
  SystemConfig cfg = base;
  cfg.mechanism = mech;
  // Even when the caller skips recovery *checking*, most mechanisms need
  // the volatile/durable images to carry functional payloads (their
  // recovery paths read them); Optimal does not.
  cfg.track_recovery_state =
      opts.track_recovery ||
      persist::policy_for(mech).needs_recovery_images;
  return Cell(cfg, cell_params(wl, cfg, opts)).run();
}

Matrix run_matrix(const SystemConfig& base, const ExperimentOptions& opts) {
  const std::vector<Mechanism> mechs = matrix_mechanisms();
  std::vector<JobSpec> specs;
  for (WorkloadKind wl : kAllWorkloads) {
    for (Mechanism mech : mechs) {
      specs.push_back({mech, wl, base, opts});
    }
  }
  const std::vector<Metrics> cells = run_sweep(specs, opts.jobs);
  Matrix m;
  std::size_t i = 0;
  for (WorkloadKind wl : kAllWorkloads) {
    for (Mechanism mech : mechs) {
      m[wl][mech] = cells[i++];
    }
  }
  return m;
}

double geometric_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    NTC_ASSERT(x > 0.0, "geometric mean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void print_figure(std::ostream& os, const std::string& title,
                  const Matrix& matrix, double (*metric)(const Metrics&),
                  const std::string& caption) {
  os << title << '\n' << caption << '\n';
  // Columns are the mechanisms actually present in this matrix (a caller
  // may build a custom one), ordered as the registry's matrix columns.
  std::vector<Mechanism> mechs;
  for (Mechanism mech : matrix_mechanisms()) {
    if (!matrix.empty() && matrix.begin()->second.count(mech) > 0) {
      mechs.push_back(mech);
    }
  }
  std::vector<std::string> header{"workload"};
  for (Mechanism mech : mechs) {
    header.emplace_back(mechanism_label(mech));
  }
  Table table(std::move(header));

  std::map<Mechanism, std::vector<double>> columns;
  for (const auto& [wl, row] : matrix) {
    const double base = metric(row.at(Mechanism::kOptimal));
    std::vector<double> cells;
    for (Mechanism mech : mechs) {
      const double v = metric(row.at(mech));
      const double norm = base == 0.0 ? 0.0 : v / base;
      cells.push_back(norm);
      if (norm > 0.0) columns[mech].push_back(norm);
    }
    table.add_row(std::string(to_string(wl)), cells);
  }
  std::vector<double> gmeans;
  for (Mechanism mech : mechs) {
    gmeans.push_back(columns[mech].empty() ? 0.0
                                           : geometric_mean(columns[mech]));
  }
  table.add_row("gmean", gmeans);
  table.print(os);
  os << '\n';
}

void apply_env_knobs(ExperimentOptions& opts) {
  parse_env_number("NTCSIM_SCALE", kScaleBounds, opts.scale);
  if (opts.jobs == 0) parse_env_number("NTCSIM_JOBS", kJobsBounds, opts.jobs);
  // Each Node reads NTCSIM_CHECK; reading it here rejects a malformed
  // value before any cell starts.
  check_mode_from_env(CheckMode::kOff);
}

bool parse_harness_flag(int argc, char** argv, int& i, ExperimentOptions& opts,
                        const char*& profile, std::string& error) {
  const std::string a = argv[i];
  // `--flag=value` or `--flag value`.
  auto flag_value = [&](const char* flag) -> const char* {
    const std::string eq = std::string(flag) + "=";
    if (a.rfind(eq, 0) == 0) return argv[i] + eq.size();
    if (a == flag && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  if (const char* jobs = flag_value("--jobs")) {
    error = parse_number("--jobs", jobs, kJobsBounds, opts.jobs);
  } else if (const char* scale = flag_value("--scale")) {
    error = parse_number("--scale", scale, kScaleBounds, opts.scale);
  } else if (a == "--profile") {
    profile = "BENCH_selfperf.json";
  } else if (a.rfind("--profile=", 0) == 0) {
    profile = argv[i] + 10;
  } else {
    return false;
  }
  return true;
}

ExperimentOptions parse_bench_args(int argc, char** argv) {
  ExperimentOptions opts;
  const char* profile = nullptr;
  bool positional = false;
  std::string error;
  for (int i = 1; i < argc && error.empty(); ++i) {
    if (parse_harness_flag(argc, argv, i, opts, profile, error)) continue;
    if (std::string_view(argv[i]).rfind("--", 0) != 0 && !positional) {
      positional = true;
      error = parse_number("scale", argv[i], kScaleBounds, opts.scale);
    } else {
      error = "unknown argument \"" + std::string(argv[i]) + "\"";
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    std::exit(1);
  }
  apply_env_knobs(opts);
  if (profile != nullptr) profile_until_exit(profile);
  return opts;
}

}  // namespace ntcsim::sim
