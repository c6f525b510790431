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
//     core's arrival-gated fetch in service mode.
//  2. Bit-identity: skip-on, skip-off (--no-skip) and skip.verify runs of
//     the same cell must produce byte-identical CSV rows across
//     mechanisms, workloads, node counts and service mode. Skip-off also
//     ticks every memory controller every cycle, so the same rows pin the
//     controllers' sleep between due cycles. skip.verify additionally
//     single-steps every claimed window, and ticks every cycle a
//     controller sleeps through, and aborts (via NTC_CHECK) if any
//     supposedly idle cycle did work, so merely running the sweep under
//     the tiny preset (verify on) is itself a proof.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mem/memory_controller.hpp"
#include "persist/kiln_unit.hpp"
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
  cache::Hierarchy hier(cfg, mem, events, stats, &vimage);
  hier.hooks().llc_nonvolatile = true;
  KilnConfig kc;
  persist::KilnUnit kiln(1, kc, hier, events, &durable, stats);
  const Addr nvm = cfg.address_space.heap_base();

  EXPECT_EQ(kiln.next_event_cycle(0), kNeverCycle);

  Cycle now = 0;
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

TEST(HierarchySkip, QuiescedIsNeverAndInFlightIsNow) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = Mechanism::kOptimal;
  System sys(cfg);
  core::Trace t;
  t.push(core::MicroOp::load(cfg.address_space.heap_base(), true));
  sys.load_trace(0, std::move(t));
  sys.run_for(2);  // the load's LLC miss is now in flight
  const Cycle mid = sys.now() - 1;
  EXPECT_EQ(sys.hierarchy().next_event_cycle(mid), mid + 1);
  sys.run();
  const Cycle end = sys.now() - 1;
  EXPECT_EQ(sys.hierarchy().next_event_cycle(end), kNeverCycle);
}

// ---------------------------------------------------------- bit-identity

std::string cell_row(Mechanism mech, WorkloadKind wl, SystemConfig base,
                     bool skip_on, bool verify = false) {
  base.skip.enabled = skip_on;
  base.skip.verify = verify;
  ExperimentOptions opts;
  opts.scale = 0.02;
  opts.setup_scale = 0.05;
  opts.seed = 1;
  const Metrics m = run_cell(mech, wl, base, opts);
  std::ostringstream os;
  write_metrics_csv_row(os,
                        std::string(to_string(wl)) + "/" +
                            std::string(to_string(mech)),
                        m, /*header=*/true);
  return os.str();
}

class SkipIdentity : public ::testing::TestWithParam<Mechanism> {};

TEST_P(SkipIdentity, TinyCellsAreByteIdenticalWithAndWithoutSkip) {
  const SystemConfig base = SystemConfig::tiny();
  for (WorkloadKind wl : {WorkloadKind::kSps, WorkloadKind::kRbtree}) {
    const std::string jump = cell_row(GetParam(), wl, base, true);
    const std::string stepped = cell_row(GetParam(), wl, base, false);
    EXPECT_EQ(jump, stepped)
        << to_string(wl) << "/" << to_string(GetParam())
        << ": clock jumping changed a simulated metric";
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
    const std::string jump =
        cell_row(Mechanism::kTc, WorkloadKind::kSps, base, true);
    const std::string stepped =
        cell_row(Mechanism::kTc, WorkloadKind::kSps, base, false);
    EXPECT_EQ(jump, stepped)
        << nodes << "-node service cell diverged under clock jumping "
        << "(tail-latency columns included)";
  }
}

TEST(SkipIdentityModes, VerifyModeMatchesBothAndExecutesEverything) {
  const SystemConfig base = SystemConfig::tiny();
  const std::string jump =
      cell_row(Mechanism::kKiln, WorkloadKind::kRbtree, base, true);
  const std::string verified =
      cell_row(Mechanism::kKiln, WorkloadKind::kRbtree, base, true, true);
  const std::string stepped =
      cell_row(Mechanism::kKiln, WorkloadKind::kRbtree, base, false);
  EXPECT_EQ(jump, verified);
  EXPECT_EQ(verified, stepped);
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
