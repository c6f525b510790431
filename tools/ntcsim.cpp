// ntcsim — command-line driver for the persistent-memory-accelerator
// simulator. Runs one workload under one mechanism on a configurable
// machine and reports metrics (human-readable or CSV), optionally with
// crash injection + recovery checking.
//
//   ntcsim --workload=rbtree --mechanism=tc
//   ntcsim --workload=sps --mechanism=sp --ops=2000 --set cores=2 --csv
//   ntcsim --config=machine.cfg --set llc.size_kb=1024
//   ntcsim --workload=hashtable --mechanism=tc --crash-at=50000
//   ntcsim --serve --rate=4 --requests=2000 --workload=hashtable
//   ntcsim --matrix --jobs=8 --csv
//   ntcsim --dump-config
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "faultsim/campaign.hpp"
#include "persist/domain.hpp"
#include "recovery/recovery.hpp"
#include "sim/cli_help.hpp"
#include "sim/config_io.hpp"
#include "sim/experiment.hpp"
#include "sim/profiler.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace ntcsim;

void usage() { std::fputs(sim::kCliHelp, stdout); }

struct Cli {
  WorkloadKind workload = WorkloadKind::kRbtree;
  Mechanism mechanism = Mechanism::kTc;
  std::string preset = "experiment";
  SystemConfig cfg = SystemConfig::experiment();
  workload::WorkloadParams params;
  Cycle crash_at = 0;
  bool crash_sweep = false;
  std::string crash_report = "CRASH_sweep.json";
  // Which cell coordinates were given explicitly (they narrow the
  // --crash-sweep cell set; defaults sweep everything).
  bool mech_explicit = false;
  bool wl_explicit = false;
  bool seed_explicit = false;
  bool ops_explicit = false;
  bool setup_explicit = false;
  bool matrix = false;
  sim::ExperimentOptions opts;  ///< --scale and --jobs (0 = auto)
  const char* profile = nullptr;  ///< --profile report path, if profiling
  bool csv = false;
  bool stats = false;
  bool dump_config = false;
};

/// Flags that restate config keys. Each applies its `key=value` lines
/// through apply_config_line, so the key table validates them; "{}" stands
/// for the value of a flag spelled with a trailing '='.
struct Alias {
  const char* flag;
  std::vector<const char*> lines;
  bool Cli::* implies = nullptr;  ///< a mode the flag also switches on
};

const Alias kAliases[] = {
    {"--serve", {"serve.enabled=1"}},
    {"--rate=", {"serve.enabled=1", "serve.rate={}"}},
    {"--requests=", {"serve.enabled=1", "serve.requests={}"}},
    {"--closed-loop", {"serve.open_loop=0"}},
    {"--uniform", {"serve.poisson=0"}},
    {"--nodes=", {"topo.nodes={}"}},
    {"--no-skip", {"skip.enabled=0"}},
    {"--crash-points=", {"crash.points={}"}, &Cli::crash_sweep},
    {"--minimize", {"crash.minimize=1"}},
    {"--check", {"check=collect"}},
    {"--check=", {"check={}"}},
};

/// Applies `a` if it spells one of kAliases. Returns false when it does
/// not; sets `error` when it does but its value is rejected.
bool apply_alias(const std::string& a, Cli& cli, std::string& error) {
  for (const Alias& alias : kAliases) {
    const std::string flag = alias.flag;
    if (flag.back() == '=' ? a.rfind(flag, 0) != 0 : a != flag) continue;
    for (std::string line : alias.lines) {
      if (const std::size_t hole = line.find("{}"); hole != line.npos) {
        line.replace(hole, 2, a.substr(flag.size()));
      }
      if (const auto r = sim::apply_config_line(line, cli.cfg); !r.ok) {
        error = a.substr(0, a.find('=')) + ": " + r.error;
        return true;
      }
    }
    if (alias.implies != nullptr) cli.*alias.implies = true;
    return true;
  }
  return false;
}

bool parse_args(int argc, char** argv, Cli& cli) {
  // Two passes: preset first (later keys overlay it).
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--preset=", 0) == 0) {
      cli.preset = a.substr(9);
    }
  }
  if (cli.preset == "paper") {
    cli.cfg = SystemConfig::paper();
  } else if (cli.preset == "experiment") {
    cli.cfg = SystemConfig::experiment();
  } else if (cli.preset == "tiny") {
    cli.cfg = SystemConfig::tiny();
  } else {
    std::fprintf(stderr, "unknown preset \"%s\"\n", cli.preset.c_str());
    return false;
  }

  std::optional<std::uint64_t> ops, setup, seed;
  std::optional<unsigned> lookup;
  std::string error;
  for (int i = 1; i < argc && error.empty(); ++i) {
    const std::string a = argv[i];
    auto value = [&a]() { return a.substr(a.find('=') + 1); };
    // `--flag=N` through parse_number; the error names the flag.
    auto number = [&](const auto& bounds, auto& out) {
      error = sim::parse_number(a.substr(0, a.find('=')), value(), bounds, out);
    };
    if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else if (a.rfind("--workload=", 0) == 0) {
      if (!sim::parse_workload(value(), cli.workload)) {
        error = "unknown workload \"" + value() + "\"";
      }
      cli.wl_explicit = true;
    } else if (a.rfind("--mechanism=", 0) == 0) {
      cli.mech_explicit = true;
      if (!sim::parse_mechanism(value(), cli.mechanism)) {
        error = "unknown mechanism \"" + value() + "\" (known: " +
                persist::DomainRegistry::instance().known_names() + ")";
      }
    } else if (a == "--list-mechanisms") {
      for (Mechanism m : persist::DomainRegistry::instance().all()) {
        const persist::DomainInfo& info =
            persist::DomainRegistry::instance().info(m);
        std::string aliases;
        for (const std::string& alias : info.aliases) {
          aliases += aliases.empty() ? " (alias " : ", ";
          aliases += alias;
        }
        if (!aliases.empty()) aliases += ")";
        std::printf("%-12s %-10s %s%s\n", info.name.c_str(),
                    info.display.c_str(), info.summary.c_str(),
                    aliases.c_str());
      }
      std::exit(0);
    } else if (a.rfind("--preset=", 0) == 0) {
      // handled above
    } else if (a.rfind("--config=", 0) == 0) {
      std::ifstream f(value());
      if (!f) {
        error = "cannot open config \"" + value() + "\"";
      } else if (const auto r = sim::apply_config(f, cli.cfg); !r.ok) {
        error = value() + ": " + r.error;
      }
    } else if (a == "--set" && i + 1 < argc) {
      if (const auto r = sim::apply_config_line(argv[++i], cli.cfg); !r.ok) {
        error = "--set: " + r.error;
      }
    } else if (apply_alias(a, cli, error) ||
               sim::parse_harness_flag(argc, argv, i, cli.opts, cli.profile,
                                       error)) {
      // a config-key alias (kAliases) or a flag shared with the benches
    } else if (a.rfind("--ops=", 0) == 0) {
      number(sim::Bounds<std::uint64_t>{}, ops.emplace());
    } else if (a.rfind("--setup=", 0) == 0) {
      // The generators need at least one element to build.
      number(sim::Bounds<std::uint64_t>{1}, setup.emplace());
    } else if (a.rfind("--lookup=", 0) == 0) {
      number(sim::Bounds<unsigned>{0, 100}, lookup.emplace());
    } else if (a.rfind("--seed=", 0) == 0) {
      number(sim::Bounds<std::uint64_t>{}, seed.emplace());
    } else if (a.rfind("--crash-at=", 0) == 0) {
      number(sim::Bounds<Cycle>{}, cli.crash_at);
    } else if (a == "--crash-sweep") {
      cli.crash_sweep = true;
    } else if (a.rfind("--crash-report=", 0) == 0) {
      cli.crash_report = value();
    } else if (a == "--matrix") {
      cli.matrix = true;
    } else if (a == "--csv") {
      cli.csv = true;
    } else if (a == "--stats") {
      cli.stats = true;
    } else if (a == "--dump-config") {
      cli.dump_config = true;
    } else {
      error = "unknown argument \"" + a + "\" (try --help)";
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  sim::apply_env_knobs(cli.opts);
  if (const std::string geometry = sim::check_geometry(cli.cfg);
      !geometry.empty()) {
    std::fprintf(stderr, "%s\n", geometry.c_str());
    return false;
  }

  cli.cfg.mechanism = cli.mechanism;
  cli.params = workload::default_params(cli.workload);
  cli.ops_explicit = ops.has_value();
  cli.setup_explicit = setup.has_value();
  cli.seed_explicit = seed.has_value();
  if (ops) cli.params.ops = *ops;
  if (cli.cfg.service.enabled && cli.cfg.service.requests > 0) {
    cli.params.ops = cli.cfg.service.requests;  // --requests wins over --ops
  }
  if (setup) cli.params.setup_elems = *setup;
  if (lookup) cli.params.lookup_pct = *lookup;
  if (seed) cli.params.seed = *seed;
  return true;
}

// --crash-sweep: the deterministic fault-injection campaign (src/faultsim/).
// By default every mechanism variant x {sps, hashtable, rbtree} x seeds
// 1..crash.seeds is swept; explicit --mechanism / --workload / --seed narrow
// the cell set (a mechanism filter keeps its negative-control sibling, e.g.
// sp!unordered rides with sp). Exit 2 when any expected-consistent cell
// violated atomicity.
int run_crash_sweep_mode(const Cli& cli) {
  SystemConfig cfg = cli.cfg;
  if (cli.ops_explicit) cfg.crash.ops = cli.params.ops;
  if (cli.setup_explicit) cfg.crash.setup = cli.params.setup_elems;
  const double ops = static_cast<double>(cfg.crash.ops) * cli.opts.scale;
  if (ops >= 0x1p64) {
    std::fprintf(stderr, "--crash-sweep: %g scaled ops per core overflow a "
                         "64-bit count\n", ops);
    return 1;
  }
  cfg.crash.ops = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(ops));

  std::vector<faultsim::VariantSpec> variants = faultsim::default_variants();
  if (cli.mech_explicit) {
    std::vector<faultsim::VariantSpec> kept;
    for (faultsim::VariantSpec& v : variants) {
      if (v.mech == cli.mechanism) kept.push_back(std::move(v));
    }
    if (kept.empty()) {
      std::fprintf(stderr, "--crash-sweep: mechanism \"%s\" has no campaign "
                           "variant\n",
                   persist::DomainRegistry::instance()
                       .info(cli.mechanism).name.c_str());
      return 1;
    }
    variants = std::move(kept);
  }
  const std::vector<WorkloadKind> workloads =
      cli.wl_explicit ? std::vector<WorkloadKind>{cli.workload}
                      : faultsim::default_workloads();
  for (const WorkloadKind wl : workloads) {
    if (faultsim::setup_elems(cfg, wl) == 0) {
      std::fprintf(stderr, "--crash-sweep: crash.setup=%llu overflows the %s "
                           "setup size\n",
                   static_cast<unsigned long long>(cfg.crash.setup),
                   std::string(to_string(wl)).c_str());
      return 1;
    }
  }
  std::vector<std::uint64_t> seeds;
  if (cli.seed_explicit) {
    seeds.push_back(cli.params.seed);
  } else {
    for (unsigned s = 1; s <= std::max(1u, cfg.crash.seeds); ++s) {
      seeds.push_back(s);
    }
  }

  faultsim::CampaignOptions opts;
  opts.jobs = cli.opts.jobs;
  opts.repro_prefix = "ntcsim";
  if (cli.preset != "experiment") opts.repro_prefix += " --preset=" + cli.preset;

  const std::vector<faultsim::CellSpec> cells =
      faultsim::make_cells(variants, workloads, seeds);
  const faultsim::CampaignReport report =
      faultsim::run_campaign(cfg, cells, opts);

  if (cli.crash_report == "-") {
    // Keep stdout pure JSON so `--crash-report=- | jq` works; the human
    // summary moves to stderr.
    faultsim::write_report_text(std::cerr, report);
    faultsim::write_report_json(std::cout, report, cfg);
  } else if (!cli.crash_report.empty()) {
    faultsim::write_report_text(std::cout, report);
    std::ofstream out(cli.crash_report);
    if (!out) {
      std::fprintf(stderr, "cannot write crash report \"%s\"\n",
                   cli.crash_report.c_str());
      return 1;
    }
    faultsim::write_report_json(out, report, cfg);
    std::printf("crash-sweep: report written to %s\n",
                cli.crash_report.c_str());
  } else {
    faultsim::write_report_text(std::cout, report);
  }
  return report.ok() ? 0 : 2;
}

// --matrix: the full mechanism x workload evaluation of the paper's §5 in
// one invocation, cells fanned out over worker threads. CSV mode emits one
// row per cell; otherwise the Fig. 6/7-style normalized tables print.
int run_matrix_mode(const Cli& cli) {
  sim::ExperimentOptions opts = cli.opts;
  opts.seed = cli.params.seed;
  sim::Matrix matrix;
  try {
    matrix = sim::run_matrix(cli.cfg, opts);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "ntcsim: matrix aborted: %s\n", e.what());
    return 4;
  }
  std::uint64_t check_violations = 0;
  for (const auto& [wl, row] : matrix) {
    for (const auto& [mech, m] : row) check_violations += m.check_violations;
  }
  if (cli.csv) {
    sim::write_matrix_csv(std::cout, matrix);
  } else {
    sim::print_figure(
        std::cout, "Matrix: IPC", matrix,
        [](const sim::Metrics& m) { return m.ipc; },
        "IPC normalized to Optimal; higher is better.");
    sim::print_figure(
        std::cout, "Matrix: throughput", matrix,
        [](const sim::Metrics& m) { return m.tx_per_kilocycle; },
        "Transactions/kcycle normalized to Optimal; higher is better.");
  }
  if (cli.cfg.check != CheckMode::kOff) {
    std::fprintf(stderr, "persistence-order checker: %llu violation(s)\n",
                 static_cast<unsigned long long>(check_violations));
    if (check_violations > 0) return 3;
  }
  return 0;
}

int run(const Cli& cli) {
  // The atomicity oracle (--crash-at) follows node 0, where the crash is
  // injected; other nodes' shards run without a journal.
  recovery::Journal journal(cli.cfg.cores);
  sim::Cell cell(cli.cfg, cli.params, &journal);
  sim::Cluster& sys = cell.cluster();

  if (cli.crash_at > 0) {
    const Cycle epoch = sys.now();
    while (sys.now() < epoch + cli.crash_at && !sys.run_for(1000)) {
    }
    const recovery::WordImage img = sys.crash_and_recover();
    const auto report = recovery::check_atomicity(img, journal);
    std::printf("crash at cycle %llu (measured-phase cycle %llu)\n",
                static_cast<unsigned long long>(sys.now()),
                static_cast<unsigned long long>(sys.now() - epoch));
    if (report.consistent) {
      std::printf("recovery: CONSISTENT\n");
      for (CoreId c = 0; c < cli.cfg.cores; ++c) {
        std::printf("  core %u: %zu/%zu transactions durable\n", c,
                    report.durable_tx_prefix[c],
                    journal.per_core(c).size());
      }
      return 0;
    }
    std::printf("recovery: ATOMICITY VIOLATION\n  %s\n",
                report.violation.c_str());
    return 2;
  }

  const sim::Metrics m = cell.run();

  const std::string label = std::string(to_string(cli.workload)) + "/" +
                            std::string(sim::mechanism_label(cli.mechanism));
  if (cli.csv) {
    sim::write_metrics_csv_row(std::cout, label, m, /*header=*/true);
  } else {
    std::printf("%s on %s preset (%u cores)\n", label.c_str(),
                cli.preset.c_str(), cli.cfg.cores);
    std::printf("  cycles               %llu\n",
                static_cast<unsigned long long>(m.cycles));
    std::printf("  IPC (aggregate)      %.3f\n", m.ipc);
    std::printf("  transactions/kcycle  %.3f\n", m.tx_per_kilocycle);
    std::printf("  LLC miss rate        %.4f\n", m.llc_miss_rate);
    std::printf("  NVM writes / reads   %llu / %llu\n",
                static_cast<unsigned long long>(m.nvm_writes),
                static_cast<unsigned long long>(m.nvm_reads));
    std::printf("  pload latency        %.1f cy (p50<=%llu, p99<=%llu)\n",
                m.pload_latency,
                static_cast<unsigned long long>(m.pload_latency_p50),
                static_cast<unsigned long long>(m.pload_latency_p99));
    std::printf("  NTC stalls / spills  %.5f / %llu\n", m.ntc_stall_frac,
                static_cast<unsigned long long>(m.ntc_spills));
    if (cli.cfg.service.enabled) {
      const auto& sv = cli.cfg.service;
      std::printf("  service              %llu requests, %s, %s arrivals"
                  " (offered %.2f/kcycle/core)\n",
                  static_cast<unsigned long long>(m.requests),
                  sv.open_loop ? "open-loop" : "closed-loop",
                  sv.open_loop ? (sv.poisson ? "poisson" : "uniform")
                               : "back-to-back",
                  sv.open_loop ? sv.rate : 0.0);
      std::printf("  request latency      %.1f cy mean (p50<=%llu p95<=%llu"
                  " p99<=%llu p99.9<=%llu)\n",
                  m.req_latency,
                  static_cast<unsigned long long>(m.req_latency_p50),
                  static_cast<unsigned long long>(m.req_latency_p95),
                  static_cast<unsigned long long>(m.req_latency_p99),
                  static_cast<unsigned long long>(m.req_latency_p999));
    }
    if (!m.per_node.empty()) {
      std::printf("  cluster              %u nodes, %llu cross-shard"
                  " requests (avg fwd delay %.1f cy)\n",
                  sys.nodes(),
                  static_cast<unsigned long long>(m.xshard_requests),
                  m.xshard_fwd_delay);
      for (std::size_t n = 0; n < m.per_node.size(); ++n) {
        const sim::Metrics& pm = m.per_node[n];
        std::printf("    node %zu: %.3f tx/kcycle, %llu NVM writes, "
                    "%llu requests (p99<=%llu)\n",
                    n, pm.tx_per_kilocycle,
                    static_cast<unsigned long long>(pm.nvm_writes),
                    static_cast<unsigned long long>(pm.requests),
                    static_cast<unsigned long long>(pm.req_latency_p99));
      }
    }
  }
  if (cli.stats) {
    for (NodeId n = 0; n < sys.nodes(); ++n) {
      std::cout << "\n-- raw statistics";
      if (sys.nodes() > 1) std::cout << " (node " << n << ")";
      std::cout << " --\n";
      sys.node(n).stats().dump(std::cout);
    }
  }
  if (sys.checker() != nullptr) {
    std::fprintf(stderr, "persistence-order checker: %llu violation(s)\n",
                 static_cast<unsigned long long>(m.check_violations));
    if (m.check_violations > 0) {
      for (NodeId n = 0; n < sys.nodes(); ++n) {
        const check::PersistOrderChecker& checker = *sys.node(n).checker();
        if (checker.violation_count() > 0) checker.report(stderr);
      }
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_args(argc, argv, cli)) return 1;
  if (cli.dump_config) {
    sim::write_config(std::cout, cli.cfg);
    return 0;
  }
  if (cli.profile != nullptr) sim::profile_until_exit(cli.profile);
  if (cli.crash_sweep) return run_crash_sweep_mode(cli);
  if (cli.matrix) return run_matrix_mode(cli);
  try {
    return run(cli);
  } catch (const std::runtime_error& e) {
    // A cell that hit the cycle cap: a truncated run, results discarded.
    std::fprintf(stderr, "ntcsim: %s\n", e.what());
    return 4;
  }
}
