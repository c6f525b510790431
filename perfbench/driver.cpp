// ntclint-suppress-file(determinism): the benchmark driver measures host
// time (steady clock) and host memory; none of it feeds simulated state,
// and the checked outputs (CSV rows, campaign JSON) contain no host data.
//
// perfbench_driver: runs one benchmark workload for a time budget and
// prints one JSON object (the last line of stdout) with the end-to-end
// metrics, or with the per-layer split of one traced pass. See README.md
// in this directory for the workloads and the metric map; run.py builds
// this binary and turns its output into the benchmark's result line.
//
//   perfbench_driver --workload=paper_matrix --seed=1 --seconds=20
//                    --trace=0 --out=DIR --golden=DIR [--record]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "faultsim/campaign.hpp"
#include "pipeline.hpp"
#include "sim/experiment.hpp"
#include "sim/profiler.hpp"
#include "speed_probe.hpp"
#include "workload/workloads.hpp"

namespace perfbench {
namespace {

using namespace ntcsim;

// ----------------------------------------------------------------- workloads

// paper_matrix: cells exactly as `ntcsim --matrix` runs them (experiment
// preset, full-size structures, closed loop), warm-up dominating their
// host time. A full-size cell costs 1-3 s, so the 25-cell matrix (about
// 45 s) cannot run even once in a run; the paper's four mechanisms on the
// array and hash structures (8 cells, about 8 s) run three times.
constexpr double kPaperScale = 0.25;
const Mechanism kPaperMechanisms[] = {Mechanism::kSp, Mechanism::kTc,
                                      Mechanism::kKiln, Mechanism::kOptimal};
const WorkloadKind kPaperKinds[] = {WorkloadKind::kSps,
                                    WorkloadKind::kHashtable};
// cache_resident: every matrix mechanism with structures shrunk until the
// working set fits in the caches, and a measured phase long enough to be
// the largest phase of its host time.
constexpr double kResidentSetupScale = 0.1;
constexpr double kResidentScale = 1.0;
const WorkloadKind kResidentKinds[] = {
    WorkloadKind::kSps, WorkloadKind::kHashtable, WorkloadKind::kRbtree};
// service_cluster: open-loop Poisson hashtable service on 4 nodes, below
// every mechanism's saturation knee.
constexpr unsigned kServiceNodes = 4;
constexpr double kServiceRate = 0.5;  // requests per kilocycle per core
constexpr std::uint64_t kServiceRequests = 400;
constexpr double kServiceSetupScale = 0.1;
// crash_campaign: campaign seeds per run; seed s sweeps 3s-2 .. 3s, so
// seed 1 is exactly `ntcsim --preset=tiny --crash-sweep`.
constexpr unsigned kCrashSeeds = 3;
// Repetitions of the crash workload's cell-list build, whose single
// duration is a few microseconds.
constexpr int kCellListReps = 101;
// Least host time between two speed-probe readings in a pass.
constexpr double kProbeEveryS = 0.25;

const char* const kWorkloads[] = {"paper_matrix", "cache_resident",
                                  "service_cluster", "crash_campaign"};

struct Workload {
  std::vector<SimCell> sim;
  SystemConfig crash_cfg;
  std::vector<faultsim::CellSpec> crash;
};

std::vector<SimCell> matrix_cells(const SystemConfig& cfg,
                                  const sim::ExperimentOptions& opts,
                                  const std::vector<WorkloadKind>& kinds,
                                  const std::vector<Mechanism>& mechs) {
  std::vector<SimCell> cells;
  for (WorkloadKind wl : kinds) {
    for (Mechanism mech : mechs) {
      SimCell c;
      c.label = std::string(to_string(wl)) + "/" +
                std::string(sim::mechanism_label(mech));
      c.mech = mech;
      c.wl = wl;
      c.cfg = cfg;
      c.opts = opts;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

std::vector<faultsim::CellSpec> crash_cells(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (unsigned i = 0; i < kCrashSeeds; ++i) {
    seeds.push_back(kCrashSeeds * (seed - 1) + 1 + i);
  }
  return faultsim::make_cells(faultsim::default_variants(),
                              faultsim::default_workloads(), seeds);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  const std::vector<Mechanism> matrix = sim::matrix_mechanisms();
  sim::ExperimentOptions opts;
  opts.seed = seed;
  opts.jobs = 1;
  if (name == "paper_matrix") {
    opts.scale = kPaperScale;
    w.sim = matrix_cells(
        SystemConfig::experiment(), opts,
        {std::begin(kPaperKinds), std::end(kPaperKinds)},
        {std::begin(kPaperMechanisms), std::end(kPaperMechanisms)});
  } else if (name == "cache_resident") {
    opts.scale = kResidentScale;
    opts.setup_scale = kResidentSetupScale;
    w.sim = matrix_cells(
        SystemConfig::experiment(), opts,
        {std::begin(kResidentKinds), std::end(kResidentKinds)}, matrix);
  } else if (name == "service_cluster") {
    SystemConfig cfg = SystemConfig::experiment();
    cfg.topo.nodes = kServiceNodes;
    cfg.service.enabled = true;
    cfg.service.open_loop = true;
    cfg.service.poisson = true;
    cfg.service.rate = kServiceRate;
    cfg.service.requests = kServiceRequests;
    opts.setup_scale = kServiceSetupScale;
    w.sim = matrix_cells(cfg, opts, {WorkloadKind::kHashtable}, matrix);
  } else {
    w.crash_cfg = SystemConfig::tiny();
    w.crash = crash_cells(seed);
  }
  return w;
}

// ---------------------------------------------------------------- one pass

/// Host seconds of one cell in one pass, and the speed-probe reading
/// around it (ProbeReadings::around; 0 when not probed).
struct CellSeconds {
  double wall = 0.0, setup = 0.0, measured = 0.0, simulated = 0.0;
  double probe = 0.0;
};

struct PassResult {
  std::vector<CellSeconds> per_cell;
  double list_build = 0.0;  ///< crash_campaign set-up: the cell-list build
  double list_probe = 0.0;  ///< the probe reading around it
  double wall = 0.0;        ///< the pass, probe readings excluded
  double retired = 0.0;  ///< simulated µops, all cells
  double ticks = 0.0;    ///< cluster ticks executed, all cells
  bool crash = false;
  Counts counts;         ///< setup + measured phase, summed over cells
  Counts setup_counts, measured_counts;
  std::vector<std::string> rows;  ///< the checked outputs, one per cell
  std::vector<std::string> errors;
  std::size_t cells = 0;
  std::size_t failed = 0;
  double paper_err_pp = 0.0;
  double xshard_requests = 0.0, xshard_fwd_sum = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mean gap, in percentage points, between the TC and Kiln
/// normalized-IPC gmeans (Optimal = 1, per group) and the paper's
/// 98.5 % and 87.8 %. `ipc` maps group -> mechanism label -> IPC.
double paper_error(
    const std::map<std::string, std::map<std::string, double>>& ipc,
    const std::string& tc, const std::string& kiln,
    const std::string& optimal) {
  std::vector<double> tc_norm, kiln_norm;
  for (const auto& [group, by_mech] : ipc) {
    const auto base = by_mech.find(optimal);
    if (base == by_mech.end() || base->second <= 0.0) continue;
    const auto t = by_mech.find(tc);
    const auto k = by_mech.find(kiln);
    if (t != by_mech.end() && t->second > 0.0) {
      tc_norm.push_back(t->second / base->second);
    }
    if (k != by_mech.end() && k->second > 0.0) {
      kiln_norm.push_back(k->second / base->second);
    }
  }
  if (tc_norm.empty() || kiln_norm.empty()) return 0.0;
  return 0.5 * (std::abs(100.0 * sim::geometric_mean(tc_norm) - 98.5) +
                std::abs(100.0 * sim::geometric_mean(kiln_norm) - 87.8));
}

double get(const Counts& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0.0 : it->second;
}

void add_counts(Counts& into, const Counts& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

/// Speed-probe readings taken between the timed items of one pass (the
/// cells, and the cell-list build on crash_campaign). A traced pass has
/// no probe and reads nothing.
class ProbeReadings {
 public:
  explicit ProbeReadings(SpeedProbe* probe)
      : probe_(probe), spent0_(probe ? probe->spent() : 0.0) {}

  /// Call before each timed item, and with `force` after the last one.
  /// Reads the probe unless the last reading is under kProbeEveryS old,
  /// so short cells are not slowed down by a reading each. Returns the
  /// item's mark for around().
  std::size_t read(bool force = false) {
    if (probe_ && (force || readings_.empty() ||
                   seconds_since(last_) >= kProbeEveryS)) {
      readings_.push_back(probe_->sample());
      last_ = Clock::now();
    }
    return readings_.size();
  }

  /// The mean of the two readings just before the item with this mark
  /// and the two just after it (fewer at the ends of the pass); 0 without
  /// a probe. One reading is noisy, and the host's slow stretches last
  /// seconds, so four neighbours estimate the speed better than one.
  double around(std::size_t mark) const {
    if (readings_.empty()) return 0.0;
    const std::size_t lo = mark >= 2 ? mark - 2 : 0;
    const std::size_t hi = std::min(mark + 2, readings_.size());
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += readings_[i];
    return sum / static_cast<double>(hi - lo);
  }

  /// Host seconds this pass spent reading the probe.
  double spent() const { return probe_ ? probe_->spent() - spent0_ : 0.0; }

 private:
  SpeedProbe* probe_;
  double spent0_;
  Clock::time_point last_;
  std::vector<double> readings_;
};

PassResult run_sim_pass(const Workload& w, Tracer& tracer, SpeedProbe* probe) {
  PassResult p;
  const auto t0 = Clock::now();
  ProbeReadings readings(probe);
  std::vector<std::size_t> marks;
  std::map<std::string, std::map<std::string, double>> ipc;
  for (std::size_t i = 0; i < w.sim.size(); ++i) {
    const SimCell& cell = w.sim[i];
    marks.push_back(readings.read());
    SimCellResult r = run_sim_cell(cell, tracer, static_cast<int>(i));
    ++p.cells;
    if (!r.error.empty()) {
      ++p.failed;
      p.errors.push_back(r.error);
    }
    p.per_cell.push_back({r.times.wall, r.times.setup, r.times.measured,
                          r.times.warmup + r.times.measured});
    p.retired += static_cast<double>(r.retired);
    add_counts(p.setup_counts, r.setup_counts);
    add_counts(p.measured_counts, r.measured_counts);
    p.xshard_requests += static_cast<double>(r.metrics.xshard_requests);
    p.xshard_fwd_sum += static_cast<double>(r.metrics.xshard_requests) *
                        r.metrics.xshard_fwd_delay;
    ipc[std::string(to_string(cell.wl))]
       [std::string(sim::mechanism_label(cell.mech))] = r.metrics.ipc;
    p.rows.push_back(std::move(r.csv));
  }
  readings.read(true);
  p.wall = seconds_since(t0) - readings.spent();
  for (std::size_t i = 0; i < p.per_cell.size(); ++i) {
    p.per_cell[i].probe = readings.around(marks[i]);
  }
  add_counts(p.counts, p.setup_counts);
  add_counts(p.counts, p.measured_counts);
  p.ticks = get(p.counts, "sim.ticks_executed");
  p.paper_err_pp = paper_error(ipc, "TC", "Kiln", "Optimal");
  return p;
}

/// Per-cell counts of the crash workload, gathered once per run from a
/// plain replica of each cell's planning run (see replay_crash_cell).
struct CrashCounts {
  Counts counts;
  std::vector<CrashReplica> cells;
  double retired = 0.0;
  double paper_err_pp = 0.0;
};

CrashCounts count_crash_cells(const Workload& w) {
  CrashCounts out;
  std::map<std::string, std::map<std::string, double>> ipc;
  for (const faultsim::CellSpec& spec : w.crash) {
    CrashReplica r = replay_crash_cell(w.crash_cfg, spec);
    add_counts(out.counts, r.counts);
    out.retired += static_cast<double>(r.retired);
    if (spec.sp_ordered) {
      ipc[std::string(to_string(spec.wl)) + "/" + std::to_string(spec.seed)]
         [spec.variant] = r.ipc;
    }
    out.cells.push_back(std::move(r));
  }
  out.paper_err_pp = paper_error(ipc, "tc", "kiln", "optimal");
  return out;
}

PassResult run_crash_pass(const Workload& w, std::uint64_t seed,
                          const CrashCounts& counts, Tracer& tracer,
                          SpeedProbe* probe) {
  PassResult p;
  p.crash = true;
  const auto t0 = Clock::now();
  ProbeReadings readings(probe);
  const std::size_t list_mark = readings.read();
  // Set-up is building the cell list: a few microseconds, so time it
  // many times and keep the median.
  std::vector<double> builds;
  std::vector<faultsim::CellSpec> specs;
  for (int i = 0; i < kCellListReps; ++i) {
    double s = 0.0;
    {
      Phase ph(tracer, "faultsim.cell_list", -1, s);
      specs = crash_cells(seed);
    }
    builds.push_back(s);
  }
  p.list_build = median(builds);
  std::vector<std::size_t> marks;
  std::vector<faultsim::CellResult> results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    marks.push_back(readings.read());
    CrashCellResult r =
        run_crash_cell(w.crash_cfg, specs[i], tracer, static_cast<int>(i));
    p.per_cell.push_back({r.seconds, 0.0, r.seconds, r.seconds, 0.0});
    if (r.result.end_cycle != counts.cells[i].end_cycle) {
      ++p.failed;
      p.errors.push_back(specs[i].variant + "/" +
                         std::string(to_string(specs[i].wl)) +
                         ": replica drained at a different cycle than the "
                         "planning run");
    }
    results.push_back(std::move(r.result));
  }
  readings.read(true);
  p.wall = seconds_since(t0) - readings.spent();
  p.list_probe = readings.around(list_mark);
  for (std::size_t i = 0; i < p.per_cell.size(); ++i) {
    p.per_cell[i].probe = readings.around(marks[i]);
  }
  // Each campaign cell simulates its traces twice: planning and replay.
  p.retired = 2.0 * counts.retired;
  p.ticks = 2.0 * get(counts.counts, "sim.ticks_executed");
  p.counts = counts.counts;

  const faultsim::CampaignReport report = assemble_report(results);
  const std::set<std::string> toothless(report.toothless.begin(),
                                        report.toothless.end());
  for (const faultsim::CellResult& r : report.cells) {
    ++p.cells;
    const bool bad = r.status == faultsim::CellStatus::kFail ||
                     toothless.count(r.spec.variant) > 0;
    if (bad) {
      ++p.failed;
      p.errors.push_back(r.spec.variant + "/" +
                         std::string(to_string(r.spec.wl)) + "/seed" +
                         std::to_string(r.spec.seed) + ": " +
                         to_string(r.status));
    }
  }
  p.failed = std::min(p.failed, p.cells);
  for (const faultsim::CellResult& r : report.cells) {
    p.counts["faultsim.hazard_events"] += static_cast<double>(r.hazard_events);
    p.counts["faultsim.crash_points"] += static_cast<double>(r.crash_points);
    p.counts["faultsim.checks"] += static_cast<double>(r.checks);
    p.counts["faultsim.violations"] += static_cast<double>(r.violations);
  }
  std::ostringstream json;
  faultsim::write_report_json(json, report, w.crash_cfg);
  p.rows.push_back(json.str());
  p.paper_err_pp = counts.paper_err_pp;
  return p;
}

// ------------------------------------------------------------------ report

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_metrics(std::ostream& os, const std::vector<Metric>& ms) {
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? "," : "") << json_str(ms[i].name) << ":{\"value\":"
       << json_num(ms[i].value) << ",\"unit\":" << json_str(ms[i].unit)
       << '}';
  }
  os << '}';
}

/// Self time per span name: each span's duration minus the part its
/// children cover.
std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += spans[i].end_s - spans[i].start_s - child[i];
  }
  return out;
}

/// Host seconds scaled to the reference speed. `probe` is the probe's
/// reading around the timed work. The probe waits on the last-level
/// cache alone, so a slow stretch of the host slows it about twice as
/// much as it slows the simulator, whose time mixes computing and waiting
/// on memory: fitted over runs of each simulation workload, a cell's time
/// moved as the probe's reading to a power of 0.4 to 0.7. Hence the
/// square root.
double at_reference(double seconds, double probe) {
  return probe > 0.0 ? seconds * std::sqrt(kReferenceProbeS / probe)
                     : seconds;
}

/// Mean of the faster half of `v`: its minimum for fewer than four.
double faster_half_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = std::max<std::size_t>(1, v.size() / 2);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// Every pass does identical work, and what noise the scaling leaves
/// mostly slows a cell down. So each time is the sum over cells of the
/// mean of that cell's faster half of passes, each pass first scaled to
/// the reference speed.
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               double rss_mb) {
  CellSeconds sum;
  auto over_passes = [&](auto seconds_of) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(seconds_of(p));
    return faster_half_mean(std::move(v));
  };
  for (std::size_t i = 0; i < passes.front().per_cell.size(); ++i) {
    auto cell = [&](double CellSeconds::*field) {
      return over_passes([&](const PassResult& p) {
        return at_reference(p.per_cell[i].*field, p.per_cell[i].probe);
      });
    };
    sum.wall += cell(&CellSeconds::wall);
    sum.setup += cell(&CellSeconds::setup);
    sum.measured += cell(&CellSeconds::measured);
    sum.simulated += cell(&CellSeconds::simulated);
  }
  const double list_build = over_passes([](const PassResult& p) {
    return at_reference(p.list_build, p.list_probe);
  });
  const double retired = passes.front().retired;
  return {{"wall_s", sum.wall + list_build, "s"},
          {"setup_s", sum.setup + list_build, "s"},
          {"measured_s", sum.measured, "s"},
          {"muops_per_s",
           sum.simulated > 0.0 ? retired / sum.simulated / 1e6 : 0.0,
           "Muops/s"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

std::vector<Metric> per_layer(const PassResult& traced, double untraced_wall,
                              const std::vector<Span>& spans) {
  std::vector<Metric> m;
  const std::map<std::string, double> self = self_times(spans);
  auto self_s = [&](const std::string& span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  for (const char* span :
       {"workload.generate", "topo.route", "sim.build", "persist.load_trace",
        "sim.warmup", "sim.measured", "sim.metrics", "sim.teardown",
        "faultsim.cell", "faultsim.cell_list"}) {
    m.push_back({std::string(span) + "_s", self_s(span), "s"});
  }
  m.push_back({"bench.cell_self_s", self_s("cell"), "s"});
  m.push_back({"model.paper_err_pp", traced.paper_err_pp, "pp"});

  const Counts& c = traced.counts;
  const double ticks = traced.ticks;
  double step_total = 0.0;
  std::map<std::string, double> step_ns;
  for (const sim::ProfSite* site : sim::Profiler::sites()) {
    step_ns[site->name()] += static_cast<double>(site->ns());
  }
  for (const char* layer :
       {"events", "cores", "ntc", "kiln", "hierarchy", "memory"}) {
    const double ns = step_ns["step." + std::string(layer)];
    step_total += ns;
    m.push_back({"step." + std::string(layer) + "_s", ns * 1e-9, "s"});
    m.push_back({"step." + std::string(layer) + "_ns_per_tick",
                 ticks > 0.0 ? ns / ticks : 0.0, "ns/tick"});
  }
  m.push_back({"sim.loop_self_s",
               traced.crash ? 0.0
                            : self_s("sim.warmup") + self_s("sim.measured") -
                                  step_total * 1e-9,
               "s"});
  m.push_back({"trace.overhead_pct",
               untraced_wall > 0.0 ? 100.0 * (traced.wall / untraced_wall - 1.0)
                                   : 0.0,
               "%"});

  m.push_back({"workload.uops", get(c, "workload.uops"), "count"});
  for (const char* k : {"events.pushes", "sim.ticks_executed"}) {
    m.push_back({std::string(k) + ".setup", get(traced.setup_counts, k),
                 "count"});
    m.push_back({std::string(k) + ".measured",
                 get(traced.measured_counts, k), "count"});
  }
  const double skipped = get(c, "sim.cycles_skipped");
  m.push_back({"sim.cycles_skipped", skipped, "cycles"});
  m.push_back({"sim.skip_ratio",
               skipped + ticks > 0.0 ? skipped / (skipped + ticks) : 0.0,
               "ratio"});

  m.push_back({"core.retired_uops", get(c, "core.retired"), "count"});
  for (const char* k : {"core.txs", "core.ntc_stall_cycles"}) {
    m.push_back({k, get(c, k), k == std::string("core.txs") ? "count" : "cycles"});
  }
  for (const char* r : {"compute", "load", "sb_full", "txend_drain",
                        "txend_flush", "clwb_drain", "clwb_issue", "sfence",
                        "pcommit"}) {
    m.push_back({"core.stall." + std::string(r),
                 get(c, "core.stall." + std::string(r)), "cycles"});
  }
  for (const char* k :
       {"l1.hits", "l1.misses", "l2.hits", "l2.misses", "llc.hits",
        "llc.misses", "llc.writebacks", "llc.wb_dropped", "llc.ntc_probe_hits",
        "hier.clwb", "hier.rejects", "ntc.writes", "ntc.commits", "ntc.issued",
        "ntc.acks", "ntc.merges", "ntc.spills", "ntc.full_rejects",
        "ntc.port_busy", "kiln.commits", "kiln.flushed_lines", "kiln.cleans"}) {
    m.push_back({k, get(c, k), "count"});
  }
  for (const char* dev : {"nvm", "dram"}) {
    const std::string d = dev;
    for (const char* k : {"reads", "writes", "row_hits", "row_misses",
                          "drain_mode_entries", "wq_forwards"}) {
      m.push_back({d + "." + k, get(c, d + "." + k), "count"});
    }
    const double hits = get(c, d + ".row_hits");
    const double base = hits + get(c, d + ".row_misses");
    m.push_back({d + ".row_accesses", base, "count"});
    m.push_back({d + ".row_hit_ratio", base > 0.0 ? hits / base : 0.0, "ratio"});
  }
  const double lat_n = get(c, "nvm.read_latency.count");
  m.push_back({"nvm.read_latency",
               lat_n > 0.0 ? get(c, "nvm.read_latency.sum") / lat_n : 0.0,
               "cycles"});
  m.push_back({"dram.refreshes", get(c, "dram.refreshes"), "count"});
  m.push_back({"topo.xshard_requests", traced.xshard_requests, "count"});
  m.push_back({"topo.xshard_fwd_delay",
               traced.xshard_requests > 0.0
                   ? traced.xshard_fwd_sum / traced.xshard_requests
                   : 0.0,
               "cycles"});
  for (const char* k : {"faultsim.hazard_events", "faultsim.crash_points",
                        "faultsim.checks", "faultsim.violations"}) {
    m.push_back({k, get(c, k), "count"});
  }
  return m;
}

/// Every pass's raw per-cell host seconds and probe readings, the inputs
/// of the end-to-end metrics.
void write_samples(const std::string& path,
                   const std::vector<PassResult>& passes) {
  std::ofstream os(path);
  os << "[";
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const PassResult& p = passes[k];
    os << (k ? ",\n" : "\n") << "{\"wall\":" << json_num(p.wall)
       << ",\"list_build\":" << json_num(p.list_build)
       << ",\"list_probe\":" << json_num(p.list_probe) << ",\"cells\":[";
    for (std::size_t i = 0; i < p.per_cell.size(); ++i) {
      const CellSeconds& c = p.per_cell[i];
      os << (i ? "," : "") << "[" << json_num(c.wall) << ","
         << json_num(c.setup) << "," << json_num(c.measured) << ","
         << json_num(c.simulated) << "," << json_num(c.probe) << "]";
    }
    os << "]}";
  }
  os << "\n]\n";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i
       << ",\"name\":" << json_str(s.name)
       << ",\"start_s\":" << json_num(s.start_s)
       << ",\"end_s\":" << json_num(s.end_s) << ",\"parent\":" << s.parent
       << ",\"cell\":" << s.cell << "}";
  }
  os << "\n]\n";
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".";
  std::string golden;
  bool record = false;
};

bool parse_uint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 18 ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    std::uint64_t n = 0;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed" && parse_uint(val, n) && n >= 1) {
      a.seed = n;
    } else if (key == "--seconds" && parse_uint(val, n) && n >= 1 &&
               n <= 3600) {
      a.seconds = static_cast<double>(n);
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      a.trace = val == "1";
    } else if (key == "--out" && !val.empty()) {
      a.out = val;
    } else if (key == "--golden" && !val.empty()) {
      a.golden = val;
    } else if (arg == "--record") {
      a.record = true;
    } else {
      std::fprintf(stderr, "perfbench_driver: bad argument \"%s\"\n",
                   arg.c_str());
      return false;
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "perfbench_driver: unknown workload \"%s\"\n",
                 a.workload.c_str());
    return false;
  }
  return a.seconds > 0.0;
}

std::string joined(const std::vector<std::string>& rows) {
  std::string s;
  for (const std::string& r : rows) s += r;
  return s;
}

/// Compares the pass's checked outputs with the recorded bytes (seed 1
/// only); returns how many cells differ. With `record`, writes them.
std::size_t check_golden(const Args& a, const PassResult& p,
                         std::vector<std::string>& errors) {
  if (a.golden.empty() || a.seed != 1) return 0;
  const std::string path = a.golden + "/" + a.workload + ".txt";
  if (a.record) {
    std::ofstream(path) << joined(p.rows);
    return 0;
  }
  std::ifstream in(path);
  if (!in) {
    errors.push_back("missing recorded output " + path);
    return p.cells;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string want = ss.str();
  if (p.rows.size() == 1) {  // the campaign report is one document
    if (p.rows[0] == want) return 0;
    errors.push_back("campaign report differs from " + path);
    return p.cells;
  }
  std::size_t bad = 0, pos = 0;
  for (const std::string& row : p.rows) {
    if (want.compare(pos, row.size(), row) != 0) {
      ++bad;
      errors.push_back("row differs from " + path + ": " +
                       row.substr(0, row.find(',')));
    }
    pos += row.size();
  }
  if (pos != want.size() && bad == 0) {
    errors.push_back(path + " has extra rows");
    bad = 1;
  }
  return bad;
}

int run(const Args& a) {
  Workload w = make_workload(a.workload, a.seed);
  const bool crash = !w.crash.empty();
  CrashCounts crash_counts;
  if (crash) crash_counts = count_crash_cells(w);

  SpeedProbe probe;
  auto one_pass = [&](Tracer& tracer, SpeedProbe* pr) {
    return crash ? run_crash_pass(w, a.seed, crash_counts, tracer, pr)
                 : run_sim_pass(w, tracer, pr);
  };

  std::vector<PassResult> passes;
  const auto start = Clock::now();
  double rss_mb = 0.0;
  // Untraced passes until the budget is spent (a traced run keeps one).
  // Peak RSS is the first pass's: later passes only add heap reuse.
  while (true) {
    Tracer off(false);
    const auto pass_start = Clock::now();
    passes.push_back(one_pass(off, &probe));
    const double last = seconds_since(pass_start);
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    if (a.trace) break;
    if (seconds_since(start) + last > a.seconds) break;
  }
  write_samples(a.out + "/samples_" + a.workload + ".json", passes);

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const PassResult& p : passes) {
    attempted += p.cells;
    failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    if (p.rows != passes.front().rows) {
      ++failed;
      errors.push_back("a repeated pass produced different outputs");
    }
  }
  failed += check_golden(a, passes.front(), errors);

  std::vector<Metric> metrics;
  if (a.trace) {
    Tracer tracer(true);
    PassResult traced;
    {
      sim::ProfileSession session(a.out + "/selfperf_" + a.workload + ".json");
      traced = one_pass(tracer, nullptr);
      metrics = per_layer(traced, passes.front().wall, tracer.spans());
    }
    attempted += traced.cells;
    failed += traced.failed;
    if (traced.rows != passes.front().rows) {
      failed += traced.cells;
      errors.push_back("the traced pass's outputs differ from the untraced");
    }
    write_spans(a.out + "/spans_" + a.workload + ".json", tracer.spans());
  } else {
    metrics = end_to_end(passes, rss_mb);
  }
  failed = std::min(failed, attempted);

  for (const std::string& e : errors) std::fprintf(stderr, "FAIL %s\n", e.c_str());
  std::ostringstream os;
  os << "{\"workload\":" << json_str(a.workload) << ",\"seed\":" << a.seed
     << ",\"passes\":" << passes.size() << ",\"pass_wall_s\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    os << (i ? "," : "") << json_num(passes[i].wall);
  }
  os << "],\"cells\":" << attempted
     << ",\"cells_failed\":" << failed << ",\"metrics\":";
  write_metrics(os, metrics);
  os << '}';
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;
  return perfbench::run(args);
}
