// Quiescence-aware clock advance (docs/ARCHITECTURE.md "Clock advance &
// quiescence"): every component answers next_event_cycle(now) — the
// earliest cycle at which its tick stops being a no-op absent external
// input — and the cluster jumps the shared clock to the min instead of
// executing provably idle cycles.
//
// Two layers of defense are exercised here:
//  1. Per-component contract checks: a claimed-idle window really is
//     frozen (no stat moves before the claimed cycle), with regressions
//     for the two subtlest gates — the controller's periodic refresh /
//     bank timing and the Kiln clean-backlog age threshold — plus the
//     core's arrival-gated fetch in service mode, a blocked core's sleep
//     and one-step stall charge, and the hierarchy leaving accepted
//     misses to their events.
//  2. Bit-identity: skip-on, skip-off (--no-skip) and skip.verify runs of
//     the same cell must produce byte-identical CSV rows and statistics
//     across mechanisms, workloads, node counts and service mode.
//     Skip-off also ticks every core and memory controller every cycle,
//     so the same outputs pin the cores' and controllers' sleep.
//     skip.verify additionally single-steps every claimed window, ticks
//     every cycle a core or controller sleeps through, and aborts (via
//     NTC_CHECK) if any supposedly idle cycle did work, so merely running
//     the sweep under the tiny preset (verify on) is itself a proof.
#include <unistd.h>

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mem/memory_controller.hpp"
#include "persist/kiln_unit.hpp"
#include "persist/policy.hpp"
#include "recovery/images.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "txcache/tx_cache.hpp"
#include "workload/service.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::sim {
namespace {

// ------------------------------------------------------------ components

class McSkipTest : public ::testing::Test {
 protected:
  static MemCtrlConfig small_cfg() {
    MemCtrlConfig c;
    c.read_queue = 4;
    c.write_queue = 8;
    c.ranks = 1;
    c.banks_per_rank = 2;
    c.bus_latency = 2;
    c.timing.row_hit = 10;
    c.timing.row_miss = 30;
    c.timing.write_extra = 5;
    c.timing.burst = 4;
    // DRAM-style refresh so the idle controller still self-schedules;
    // with refresh off (the NVM default) an idle controller is kNever.
    c.refresh_interval = 500;
    c.refresh_cycles = 20;
    return c;
  }

  McSkipTest() : mc_("nvm", small_cfg(), events_, stats_) {}

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      events_.drain_until(now_);
      mc_.tick(now_);
      ++now_;
    }
    events_.drain_until(now_);
  }

  std::string stat_dump() {
    std::ostringstream os;
    stats_.dump(os);
    return os.str();
  }

  EventQueue events_;
  StatSet stats_;
  mem::MemoryController mc_;
  Cycle now_ = 0;
};

TEST_F(McSkipTest, IdleControllerPromisesTheRefreshDeadline) {
  // Empty queues, idle banks: the only self-scheduled work is periodic
  // refresh, which must bound the claim — it bumps a stat when it fires.
  const Cycle claim = mc_.next_event_cycle(now_);
  ASSERT_NE(claim, kNeverCycle);
  EXPECT_GT(claim, now_ + 1);
  EXPECT_LE(claim, now_ + 500);  // never later than the refresh deadline

  // The claimed-idle window really is frozen: ticking up to (but not
  // including) the claimed cycle changes no statistic.
  const std::string before = stat_dump();
  run(claim - now_ - 1);
  EXPECT_EQ(stat_dump(), before)
      << "a tick inside the claimed-idle window did observable work";
}

TEST_F(McSkipTest, QueuedRequestForcesTheNextCycle) {
  mem::MemRequest r;
  r.op = mem::MemOp::kRead;
  r.line_addr = 0;
  ASSERT_TRUE(mc_.enqueue(r, now_));
  // A bank-ready request is serviceable on the very next tick.
  EXPECT_EQ(mc_.next_event_cycle(now_), now_ + 1);
}

TEST_F(McSkipTest, BusyBankDefersButNeverPastTheBankReadyCycle) {
  mem::MemRequest r;
  r.op = mem::MemOp::kRead;
  r.line_addr = 0;
  ASSERT_TRUE(mc_.enqueue(r, now_));
  run(1);  // issue: the bank is now busy for the row-miss latency
  mem::MemRequest r2;
  r2.op = mem::MemOp::kRead;
  r2.line_addr = 1024 * 1024;  // same bank count: eventually reusable
  ASSERT_TRUE(mc_.enqueue(r2, now_));
  const Cycle claim = mc_.next_event_cycle(now_);
  ASSERT_NE(claim, kNeverCycle);
  // Conservative (earlier) is legal; later than the in-flight request's
  // completion event would be a lost wakeup. The first read occupies its
  // bank for row_miss + burst cycles.
  EXPECT_LE(claim, now_ + 30 + 4 + 2);
}

TEST(TxCacheSkip, EmptyIsNeverAndCommittedBacklogIsNow) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.ntc.size_bytes = 512;  // 8 entries
  EventQueue events;
  StatSet stats;
  mem::MemorySystem mem(cfg, events, stats);
  txcache::TxCache ntc("ntc0", 0, cfg.ntc, cfg.address_space, mem, stats);
  const Addr nvm = cfg.address_space.nvm_base();

  EXPECT_EQ(ntc.next_event_cycle(0), kNeverCycle);
  ASSERT_TRUE(ntc.write(0, nvm, 1, 1));
  // Active (uncommitted) entries are not self-scheduled work: nothing
  // happens until the core commits. But a committed entry drains on the
  // very next tick.
  EXPECT_EQ(ntc.next_event_cycle(0), kNeverCycle);
  ntc.commit(1);
  EXPECT_EQ(ntc.next_event_cycle(0), 0 + 1);
}

TEST(KilnSkip, CleanBacklogAgesTowardTheDeadlineRegression) {
  // The drain-threshold regression: a small clean backlog (below
  // clean_batch) is idle until the oldest entry crosses clean_max_age.
  // Claiming kNever here (the PR-draft bug) would strand the backlog
  // forever under skipping.
  SystemConfig cfg = SystemConfig::tiny();
  EventQueue events;
  StatSet stats;
  recovery::VolatileImage vimage;
  mem::MemorySystem mem(cfg, events, stats);
  recovery::DurableState durable(stats);
  mem.set_nvm_observer(&durable);
  Cycle now = 0;
  cache::Hierarchy hier(cfg, mem, events, stats, &vimage, &now);
  hier.hooks().llc_nonvolatile = true;
  KilnConfig kc;
  persist::KilnUnit kiln(1, kc, hier, events, &durable, stats);
  const Addr nvm = cfg.address_space.heap_base();

  EXPECT_EQ(kiln.next_event_cycle(0), kNeverCycle);

  kiln.begin_tx(0, 1);
  vimage.store(nvm, 5);
  kiln.on_store(now, 0, nvm, 5, 1);
  kiln.begin_commit(now, 0, 1);
  for (; now < 200; ++now) {
    events.drain_until(now);
    hier.tick(now);
    kiln.tick(now, mem);
    mem.tick(now);
  }
  ASSERT_TRUE(kiln.commit_done(0));

  const Cycle claim = kiln.next_event_cycle(now);
  ASSERT_NE(claim, kNeverCycle) << "clean backlog stranded as 'never'";
  EXPECT_GT(claim, now + 1);  // below clean_batch: waits for the age-out
  EXPECT_LE(claim, now + kc.clean_max_age);  // never later than the deadline
}

TEST(CoreSkip, ArrivalGatedFetchPromisesTheArrivalCycle) {
  // Service mode: a core whose next request has not arrived yet is idle
  // until the stamped arrival — the regression for the arrival-gating
  // candidate (returning now+1 forever would make service runs unskippable;
  // returning later than the arrival would delay requests).
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = Mechanism::kTc;
  cfg.service.enabled = true;
  cfg.service.rate = 0.05;  // one request per 20k cycles: long idle gaps
  core::Trace t;
  for (int i = 0; i < 4; ++i) {
    t.push(core::MicroOp::tx_begin(static_cast<TxId>(i + 1)));
    t.push(core::MicroOp::compute());
    t.push(core::MicroOp::tx_end());
  }
  ASSERT_GT(workload::stamp_service_arrivals(t, cfg.service, 0, 7), 0u);

  System sys(cfg);
  sys.load_trace(0, std::move(t));
  sys.run_for(2);  // latch the trace base so arrivals are absolute
  const Cycle now = sys.now() - 1;
  const Cycle claim = sys.core(0).next_event_cycle(now);
  ASSERT_NE(claim, kNeverCycle);
  EXPECT_GT(claim, now + 1) << "arrival gap not surfaced as skippable";

  // Never later than the true next state change: nothing retires before
  // the claimed cycle...
  ASSERT_GT(claim, sys.now());
  sys.run_for(claim - sys.now());
  EXPECT_EQ(sys.metrics().retired_uops, 0u);
  // ...and the whole run still completes with every op retired.
  sys.run();
  EXPECT_EQ(sys.metrics().committed_txs, 4u);
}

/// Every statistic of every node at full precision: each counter, each
/// accumulator's sum, count and max, and each core's latency histograms.
/// The skip bookkeeping (sim.cycles_skipped, sim.ticks_executed) is left
/// out, since it is the one thing the modes are meant to change.
std::string all_stats(Cluster& sys) {
  std::ostringstream os;
  os << std::hexfloat;
  for (NodeId n = 0; n < sys.nodes(); ++n) {
    StatSet& stats = sys.node(n).stats();
    std::ostringstream dump;
    stats.dump(dump);
    std::istringstream lines(dump.str());
    for (std::string line; std::getline(lines, line);) {
      const std::string name = line.substr(0, line.find(" = "));
      if (name == "sim.cycles_skipped" || name == "sim.ticks_executed") {
        continue;
      }
      os << "node" << n << " " << line;
      if (line.find(" = mean ") != std::string::npos) {
        const Accumulator& a = stats.accumulator(name);
        os << " sum " << a.sum() << " max " << a.max();
      }
      os << '\n';
    }
    for (CoreId c = 0; c < sys.config().cores; ++c) {
      for (const char* hist : {".pload_latency_hist", ".req_latency_hist"}) {
        const std::string name = "core" + std::to_string(c) + hist;
        const Histogram& h = stats.histogram(name);
        os << "node" << n << " " << name;
        for (int b = 0; b < Histogram::kBuckets; ++b) os << ' ' << h.bucket(b);
        os << '\n';
      }
    }
  }
  return os.str();
}

TEST(HierarchySkip, AcceptedMissIsNeverAndRetryIsNow) {
  // Misses the controller has accepted complete through their events, so
  // they leave the hierarchy idle (kNeverCycle) though not quiesced. A
  // miss the controller refused, and a write-back it could not take, wait
  // in the hierarchy, and tick() retries them the next cycle.
  const SystemConfig cfg = SystemConfig::tiny();
  EventQueue events;
  StatSet stats;
  Cycle now = 0;
  mem::MemorySystem mem(cfg, events, stats);
  cache::Hierarchy hier(cfg, mem, events, stats, nullptr, &now);
  auto step = [&](bool tick_memory) {
    events.drain_until(now);
    hier.tick(now);
    if (tick_memory) mem.tick(now);
    ++now;
  };
  auto drain = [&] {
    for (int i = 0; i < 5000 && !(hier.quiesced() && mem.idle()); ++i) {
      step(true);
    }
    ASSERT_TRUE(hier.quiesced() && mem.idle());
  };
  // Lines one LLC set apart share the set (and the NVM channel).
  const Addr set_stride = cfg.llc.sets() * kLineBytes;
  const Addr base = cfg.address_space.heap_base();
  auto line = [&](unsigned i) { return base + i * set_stride; };

  // Fill the set's ways with dirty lines.
  for (unsigned i = 0; i < cfg.llc.ways; ++i) {
    ASSERT_NE(hier.load(now, 0, line(i), true).kind,
              cache::AccessKind::kRejected);
    drain();
    ASSERT_TRUE(hier.store(now, 0, line(i), i + 1, true, kNoTx));
    drain();
  }
  EXPECT_EQ(hier.next_event_cycle(now - 1), kNeverCycle);

  // A miss the controller accepted: idle until its fill event.
  const std::uint64_t reads = stats.counter_value("nvm.reads");
  ASSERT_EQ(hier.load(now, 0, line(cfg.llc.ways), true).kind,
            cache::AccessKind::kMiss);
  bool filled = false;
  hier.wait_for_fill(0, line(cfg.llc.ways), [&] { filled = true; });
  EXPECT_EQ(hier.next_event_cycle(now), kNeverCycle);
  EXPECT_FALSE(hier.quiesced());

  // Once the read is in flight, fill the write queue behind it: the fill
  // evicts a dirty line whose write-back the controller refuses.
  for (int i = 0; i < 5000 && stats.counter_value("nvm.reads") == reads; ++i) {
    step(true);
  }
  ASSERT_GT(stats.counter_value("nvm.reads"), reads);
  mem::MemRequest w;
  w.op = mem::MemOp::kWrite;
  w.line_addr = line(cfg.llc.ways + 1);
  w.persistent = true;
  while (mem.enqueue(w, now)) {
  }
  for (int i = 0; i < 5000 && !filled; ++i) step(false);
  ASSERT_TRUE(filled);
  EXPECT_EQ(hier.next_event_cycle(now - 1), now) << "queued write-back";
  drain();
  EXPECT_EQ(hier.next_event_cycle(now - 1), kNeverCycle);

  // A miss the controller refused: its read queue is full.
  mem::MemRequest r;
  r.op = mem::MemOp::kRead;
  r.line_addr = line(cfg.llc.ways + 2);
  while (mem.enqueue(r, now)) {
  }
  ASSERT_EQ(hier.load(now, 0, line(cfg.llc.ways + 3), true).kind,
            cache::AccessKind::kMiss);
  EXPECT_EQ(hier.next_event_cycle(now), now + 1) << "unissued miss";
  drain();
  EXPECT_EQ(hier.next_event_cycle(now - 1), kNeverCycle);
}

/// The cycle a load miss to the heap fills when the LLC is blocked until
/// cycle 5, on a hierarchy ticked every cycle or only at cycle 0 (as when
/// the clock jumps over the rest: with the miss accepted by the
/// controller, the hierarchy claims kNeverCycle).
Cycle fill_cycle_after_block(bool tick_hierarchy) {
  const SystemConfig cfg = SystemConfig::tiny();
  EventQueue events;
  StatSet stats;
  Cycle now = 0;
  mem::MemorySystem mem(cfg, events, stats);
  cache::Hierarchy hier(cfg, mem, events, stats, nullptr, &now);
  const Addr a = cfg.address_space.heap_base();
  EXPECT_EQ(hier.load(now, 0, a, true).kind, cache::AccessKind::kMiss);
  Cycle filled = kNeverCycle;
  hier.wait_for_fill(0, a, [&] { filled = now; });
  hier.block_llc_until(5);
  EXPECT_EQ(hier.next_event_cycle(now), kNeverCycle);
  for (; now < 5000 && filled == kNeverCycle; ++now) {
    events.drain_until(now);
    if (now == 0 || tick_hierarchy) hier.tick(now);
    mem.tick(now);
  }
  return filled;
}

TEST(HierarchySkip, KilnBlockIsCheckedOnTheClusterClock) {
  // A fill that arrives after a Kiln commit block has ended completes on
  // arrival, whether or not the hierarchy ticked in between. A block check
  // on a cycle cached by tick() would see the block still on and re-fire
  // the fill at the same cycle forever; the alarm turns that into a
  // failure.
  alarm(30);
  const Cycle stepped = fill_cycle_after_block(true);
  const Cycle jumped = fill_cycle_after_block(false);
  alarm(0);
  ASSERT_NE(stepped, kNeverCycle);
  EXPECT_GT(stepped, 6u) << "the fill must arrive after the block";
  EXPECT_EQ(jumped, stepped);
}

/// The statistics a sleeping core charges or records: every stall
/// counter and the load latencies (sum, count and histogram).
std::string core_stats(Cluster& sys) {
  StatSet& stats = sys.stats();
  std::ostringstream os;
  for (const char* stall : {"compute", "load", "sb_full", "txend_drain",
                            "txend_flush", "clwb_drain", "clwb_issue",
                            "sfence", "pcommit"}) {
    os << stall << ' '
       << stats.counter_value(std::string("core0.stall.") + stall) << '\n';
  }
  for (const char* lat : {"core0.load_latency", "core0.pload_latency"}) {
    os << lat << ' ' << stats.accumulator_sum(lat) << ' '
       << stats.accumulator_count(lat) << '\n';
  }
  const Histogram& h = stats.histogram("core0.pload_latency_hist");
  for (int b = 0; b < Histogram::kBuckets; ++b) os << h.bucket(b) << ' ';
  return os.str();
}

/// A 1-core tiny machine running `trace` under `mech`, skip on with
/// verify off (the jump path) or stepped.
SystemConfig blocked_core_cfg(Mechanism mech, bool skip) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = mech;
  cfg.track_recovery_state = persist::policy_for(mech).needs_recovery_images;
  cfg.skip.enabled = skip;
  cfg.skip.verify = false;
  return cfg;
}

/// Transactions of one persistent store each (SP waits at pcommit for
/// the log flushes), then loads that miss to NVM (Optimal waits at them).
core::Trace blocking_trace(const SystemConfig& cfg) {
  core::Trace t;
  const Addr base = cfg.address_space.heap_base();
  for (TxId tx = 1; tx <= 4; ++tx) {
    t.push(core::MicroOp::tx_begin(tx));
    t.push(core::MicroOp::store(base + tx * 4096, tx, true));
    t.push(core::MicroOp::tx_end());
  }
  for (Addr i = 0; i < 8; ++i) {
    t.push(core::MicroOp::load(base + (i + 64) * 4096, true));
    t.push(core::MicroOp::compute(2));
  }
  return t;
}

/// Runs blocking_trace() under `mech` jumping and stepped, and checks
/// that the core claims kNeverCycle while it waits on `reason`, that the
/// cluster jumps over the waits instead of ticking the core, and that the
/// stall and latency counters end where the stepped run's do.
void expect_blocked_core_sleeps(Mechanism mech, const char* reason) {
  System stepped(blocked_core_cfg(mech, false));
  stepped.load_trace(0, blocking_trace(stepped.config()));
  stepped.run();

  System sys(blocked_core_cfg(mech, true));
  sys.load_trace(0, blocking_trace(sys.config()));
  bool claimed_never = false;
  // Windows end inside the sleeps; a lost wakeup stops at the stepped end.
  while (!sys.run_for(7) && sys.now() < stepped.now()) {
    claimed_never |= sys.core(0).next_event_cycle(sys.now() - 1) == kNeverCycle;
  }
  EXPECT_TRUE(claimed_never) << "no window ended with the core asleep";
  EXPECT_EQ(sys.now(), stepped.now());
  EXPECT_EQ(core_stats(sys), core_stats(stepped));

  // Asleep, the core pins no cycle: in one run() the cluster jumps over
  // the waits instead of ticking the core through them.
  System whole(blocked_core_cfg(mech, true));
  whole.load_trace(0, blocking_trace(whole.config()));
  whole.run();
  const std::uint64_t stalled = whole.stats().counter_value(reason);
  EXPECT_GT(stalled, 100u) << reason;
  EXPECT_GE(whole.cycles_skipped(), stalled / 2) << reason << " " << stalled;
  EXPECT_EQ(whole.cycles_skipped() + whole.ticks_executed(), whole.now());
}

TEST(CoreSkip, SpCoreSleepsAtPcommitUntilTheLogAcknowledgement) {
  expect_blocked_core_sleeps(Mechanism::kSp, "core0.stall.pcommit");
}

TEST(CoreSkip, OptimalCoreSleepsAtALoadMissUntilTheFill) {
  expect_blocked_core_sleeps(Mechanism::kOptimal, "core0.stall.load");
}

TEST(CoreSkip, WindowsEndingMidSleepReadTheSteppedCounters) {
  // Cluster::run_for settles every sleeping core's stall charge before it
  // returns, so a timeline window or a crash point that ends inside a
  // sleep reads what the stepped run reads at the same cycle.
  SystemConfig jump_cfg = blocked_core_cfg(Mechanism::kSp, true);
  jump_cfg.cores = 2;
  SystemConfig step_cfg = blocked_core_cfg(Mechanism::kSp, false);
  step_cfg.cores = 2;
  System jump(jump_cfg);
  System stepped(step_cfg);
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kSps);
  p.setup_elems = 64;
  p.ops = 12;
  workload::SimHeap heap(jump_cfg.address_space, 2);
  for (CoreId c = 0; c < 2; ++c) {
    const core::Trace t = workload::generate(p, c, heap, nullptr);
    jump.load_trace(c, t);
    stepped.load_trace(c, t);
  }
  unsigned mid_sleep = 0;
  bool done = false;
  while (!done) {
    done = jump.run_for(23);
    ASSERT_EQ(stepped.run_for(23), done);
    ASSERT_EQ(jump.now(), stepped.now());
    mid_sleep += jump.core(0).next_event_cycle(jump.now() - 1) > jump.now();
    ASSERT_EQ(all_stats(jump), all_stats(stepped)) << "cycle " << jump.now();
  }
  EXPECT_GT(mid_sleep, 0u) << "no window ended with core 0 asleep";
}

// ---------------------------------------------------------- bit-identity

/// One cell's CSV row followed by all_stats() of its measured phase.
std::string cell_output(Mechanism mech, WorkloadKind wl, SystemConfig base,
                        bool skip_on, bool verify = false,
                        double scale = 0.02, double setup_scale = 0.05) {
  base.skip.enabled = skip_on;
  base.skip.verify = verify;
  base.mechanism = mech;
  base.track_recovery_state = persist::policy_for(mech).needs_recovery_images;
  ExperimentOptions opts;
  opts.scale = scale;
  opts.setup_scale = setup_scale;
  opts.seed = 1;
  Cell cell(base, cell_params(wl, base, opts));
  const Metrics m = cell.run();
  std::ostringstream os;
  write_metrics_csv_row(os,
                        std::string(to_string(wl)) + "/" +
                            std::string(to_string(mech)),
                        m, /*header=*/true);
  return os.str() + all_stats(cell.cluster());
}

/// Runs the cell jumping (verify off), stepped (--no-skip) and under
/// skip.verify, and expects all three outputs to match.
void expect_same_in_every_skip_mode(Mechanism mech, WorkloadKind wl,
                                    const SystemConfig& base,
                                    double scale = 0.02,
                                    double setup_scale = 0.05) {
  const std::string jump =
      cell_output(mech, wl, base, true, false, scale, setup_scale);
  const std::string stepped =
      cell_output(mech, wl, base, false, false, scale, setup_scale);
  const std::string verified =
      cell_output(mech, wl, base, true, true, scale, setup_scale);
  const std::string cell = std::string(to_string(wl)) + "/" +
                           std::string(to_string(mech)) + " on " +
                           std::to_string(base.topo.nodes) + " node(s)";
  EXPECT_EQ(jump, stepped) << cell << ": clock jumping changed a statistic";
  EXPECT_EQ(verified, stepped) << cell << ": verify mode changed a statistic";
}

class SkipIdentity : public ::testing::TestWithParam<Mechanism> {};

TEST_P(SkipIdentity, TinyCellsAreByteIdenticalWithAndWithoutSkip) {
  const SystemConfig base = SystemConfig::tiny();
  for (WorkloadKind wl : {WorkloadKind::kSps, WorkloadKind::kRbtree}) {
    expect_same_in_every_skip_mode(GetParam(), wl, base);
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, SkipIdentity,
                         ::testing::Values(Mechanism::kOptimal, Mechanism::kTc,
                                           Mechanism::kSp, Mechanism::kKiln,
                                           Mechanism::kSpAdr),
                         [](const auto& param_info) {
                           std::string n(to_string(param_info.param));
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(SkipIdentityModes, ServiceModeSingleAndFourNodeCells) {
  SystemConfig base = SystemConfig::tiny();
  base.service.enabled = true;
  base.service.rate = 0.2;  // well under the knee: long skippable gaps
  base.service.requests = 60;
  for (unsigned nodes : {1u, 4u}) {
    base.topo.nodes = nodes;
    // Tail-latency columns and every node's statistics included.
    expect_same_in_every_skip_mode(Mechanism::kTc, WorkloadKind::kSps, base);
  }
}

TEST(SkipIdentityModes, VerifyModeMatchesBothAndExecutesEverything) {
  const SystemConfig base = SystemConfig::tiny();
  expect_same_in_every_skip_mode(Mechanism::kKiln, WorkloadKind::kHashtable,
                                 base);
  SystemConfig cfg = base;
  cfg.mechanism = Mechanism::kKiln;
  cfg.track_recovery_state = true;
  ExperimentOptions opts;
  opts.scale = 0.02;
  opts.setup_scale = 0.05;
  Cell cell(cfg, cell_params(WorkloadKind::kHashtable, cfg, opts));
  cell.run();
  EXPECT_EQ(cell.cluster().cycles_skipped(), 0u);
  EXPECT_EQ(cell.cluster().ticks_executed(), cell.cluster().now());
}

TEST(SkipIdentityModes, ExperimentPresetSpCell) {
  // The measured presets trust the jump (verify off): a 4-core SP cell
  // whose cores spend most cycles at pcommit and at load misses.
  SystemConfig base = SystemConfig::experiment();
  base.skip.verify = false;
  expect_same_in_every_skip_mode(Mechanism::kSp, WorkloadKind::kHashtable,
                                 base, 0.1, 0.05);
}

TEST(SkipIdentityModes, SkipActuallySkipsAndAccountsEveryCycle) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = Mechanism::kTc;
  cfg.skip.verify = false;  // measure the real jump path
  cfg.service.enabled = true;
  cfg.service.rate = 0.05;
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kSps);
  p.setup_elems = 200;
  p.ops = 30;
  workload::SimHeap heap(cfg.address_space, 1);
  core::Trace t = workload::generate(p, 0, heap, nullptr);
  workload::stamp_service_arrivals(t, cfg.service, 0, p.seed);

  System sys(cfg);
  sys.load_trace(0, std::move(t));
  sys.run();
  EXPECT_GT(sys.cycles_skipped(), 0u)
      << "a low-rate service run has long idle gaps; none were skipped";
  // Conservation: every elapsed cycle was either executed or skipped, and
  // the StatSet counters mirror the lifetime totals (no reset here).
  EXPECT_EQ(sys.cycles_skipped() + sys.ticks_executed(), sys.now());
  EXPECT_EQ(sys.stats().counter_value("sim.cycles_skipped"),
            sys.cycles_skipped());
  EXPECT_EQ(sys.stats().counter_value("sim.ticks_executed"),
            sys.ticks_executed());
}

TEST(SkipConfig, TinyPresetVerifiesJumpsEvenInRelease) {
  // The cross-check mode must guard every unit-test run, not only Debug
  // builds: the tiny preset pins it on.
  EXPECT_TRUE(SystemConfig::tiny().skip.verify);
  EXPECT_TRUE(SystemConfig::tiny().skip.enabled);
}

}  // namespace
}  // namespace ntcsim::sim
