#include "core/core.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim::core {
namespace {

using sim::System;

SystemConfig tiny(Mechanism mech) {
  SystemConfig c = SystemConfig::tiny();
  c.mechanism = mech;
  return c;
}

Trace computes(std::size_t n) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i) t.push(MicroOp::compute());
  return t;
}

TEST(Core, ComputeIpcApproachesIssueWidth) {
  System sys(tiny(Mechanism::kOptimal));
  sys.load_trace(0, computes(4000));
  sys.run();
  const auto m = sys.metrics();
  EXPECT_EQ(m.retired_uops, 4000u);
  EXPECT_GT(m.ipc, 2.5);  // 4-wide minus pipeline-fill overhead
  EXPECT_LE(m.ipc, 4.0);
}

TEST(Core, LoadMissStallsThePipeline) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  const Addr nvm = cfg.address_space.heap_base();
  t.push(MicroOp::load(nvm, true));
  for (int i = 0; i < 100; ++i) t.push(MicroOp::compute());
  sys.load_trace(0, t);
  sys.run();
  // An STT-RAM row miss costs >130 cycles; 101 ops in far more cycles.
  EXPECT_GT(sys.now(), 130u);
  EXPECT_GT(sys.stats().counter_value("core0.stall.load"), 0u);
}

TEST(Core, StoreToLoadForwardingIsFast) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  const Addr a = cfg.address_space.heap_base();
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::store(a, 7, true));
  t.push(MicroOp::load(a, true));  // forwarded from SB or ROB
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_DOUBLE_EQ(sys.stats().accumulator_mean("core0.load_latency"), 1.0);
}

// Forwarding checks a per-word count of pending stores before it scans the
// store buffer and the ROB. Each trace below holds one load; L1 is slowed
// to 5 cycles so no cache access passes for the 1-cycle bypass.
struct OneLoad {
  double latency;
  std::uint64_t count;
};

OneLoad run_one_load(const Trace& t) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  cfg.l1.latency_cycles = 5;
  System sys(cfg);
  sys.load_trace(0, t);
  sys.run();
  return {sys.stats().accumulator_sum("core0.load_latency"),
          sys.stats().accumulator_count("core0.load_latency")};
}

TEST(Forwarding, OlderStoreStillInTheRobForwards) {
  // Fetched in one cycle: the load issues before the store retires.
  const Addr a = SystemConfig::tiny().address_space.heap_base();
  Trace t;
  t.push(MicroOp::store(a, 7, true));
  t.push(MicroOp::load(a, true));
  const OneLoad r = run_one_load(t);
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.latency, 1.0);
}

TEST(Forwarding, OlderStoreInTheStoreBufferForwards) {
  // Five missing stores exhaust the four L1 MSHRs, so the store buffer
  // stalls behind the fifth and still holds the store to `a` when the
  // load, fetched after the run, issues.
  const Addr heap = SystemConfig::tiny().address_space.heap_base();
  const Addr a = heap + 64 * 4096;
  Trace t;
  for (Addr i = 0; i < 5; ++i) t.push(MicroOp::store(heap + i * 4096, i, true));
  t.push(MicroOp::store(a, 7, true));
  t.push(MicroOp::compute(40));
  t.push(MicroOp::load(a, true));
  const OneLoad r = run_one_load(t);
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.latency, 1.0);
}

TEST(Forwarding, YoungerStoreDoesNotForward) {
  const Addr a = SystemConfig::tiny().address_space.heap_base();
  Trace t;
  t.push(MicroOp::load(a, true));
  t.push(MicroOp::store(a, 7, true));
  const OneLoad r = run_one_load(t);
  EXPECT_EQ(r.count, 1u);
  EXPECT_GT(r.latency, 100.0);  // the cold miss
}

TEST(Forwarding, WordsSharingACountSlotDoNotForward) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  const PendingStores table(std::size_t{cfg.core.rob_entries} +
                            cfg.core.store_buffer_entries);
  const Addr a = cfg.address_space.heap_base();
  Addr b = a + kWordBytes;
  while (table.slot(b) != table.slot(a)) b += kWordBytes;
  Trace t;
  t.push(MicroOp::store(a, 7, true));
  t.push(MicroOp::load(b, true));
  const OneLoad r = run_one_load(t);
  EXPECT_EQ(r.count, 1u);
  EXPECT_GT(r.latency, 100.0);  // the cold miss
}

TEST(Forwarding, StoreDrainedBeforeTheLoadIssuesDoesNotForward) {
  const Addr a = SystemConfig::tiny().address_space.heap_base();
  Trace t;
  t.push(MicroOp::store(a, 7, true));
  t.push(MicroOp::compute(4000));  // the store drains and its line fills
  t.push(MicroOp::load(a, true));
  const OneLoad r = run_one_load(t);
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.latency, 5.0);  // an L1 hit
}

TEST(Core, TxRegistersAssignSequentialIds) {
  System sys(tiny(Mechanism::kOptimal));
  Trace t;
  for (TxId i = 1; i <= 3; ++i) {
    t.push(MicroOp::tx_begin(i));
    t.push(MicroOp::compute());
    t.push(MicroOp::tx_end());
  }
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.core(0).committed_txs(), 3u);
  EXPECT_EQ(sys.metrics().committed_txs, 3u);
}

TEST(Core, NonMonotonicTraceTxIdAborts) {
  System sys(tiny(Mechanism::kOptimal));
  Trace t;
  t.push(MicroOp::tx_begin(5));  // offset start is fine (trace replay)
  t.push(MicroOp::tx_end());
  t.push(MicroOp::tx_begin(3));  // going backwards is a generator bug
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  EXPECT_DEATH(sys.run(), "increasing");
}

TEST(Core, SfenceWaitsForStoreBuffer) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  t.push(MicroOp::tx_begin(1));
  for (int i = 0; i < 8; ++i) {
    t.push(MicroOp::store(cfg.address_space.heap_base() + i * 2048, i, true));
  }
  t.push(MicroOp::tx_end());
  t.push(MicroOp::sfence());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_GT(sys.stats().counter_value("core0.stall.sfence"), 0u);
}

TEST(Core, TcStoresLandInTheNtc) {
  SystemConfig cfg = tiny(Mechanism::kTc);
  System sys(cfg);
  Trace t;
  const Addr a = cfg.address_space.heap_base();
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::store(a, 11, true));
  t.push(MicroOp::store(a + 64, 12, true));
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("ntc0.writes"), 2u);
  EXPECT_EQ(sys.stats().counter_value("ntc0.commits"), 1u);
  // Commit drained to NVM: values durable.
  EXPECT_EQ(sys.durable()->load(a), 11u);
  EXPECT_EQ(sys.durable()->load(a + 64), 12u);
}

TEST(Core, TcVolatileStoresBypassNtc) {
  SystemConfig cfg = tiny(Mechanism::kTc);
  System sys(cfg);
  Trace t;
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::store(64, 1, false));  // DRAM store inside a tx
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("ntc0.writes"), 0u);
}

TEST(Core, KilnCommitRunsTheEngine) {
  SystemConfig cfg = tiny(Mechanism::kKiln);
  System sys(cfg);
  Trace t;
  const Addr a = cfg.address_space.heap_base();
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::store(a, 42, true));
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("kiln.commits"), 1u);
  EXPECT_EQ(sys.durable()->load(a), 42u);  // durable at the NV-LLC
}

TEST(Core, KilnBackToBackCommitsSerialize) {
  SystemConfig cfg = tiny(Mechanism::kKiln);
  System sys(cfg);
  Trace t;
  const Addr a = cfg.address_space.heap_base();
  for (TxId i = 1; i <= 4; ++i) {
    t.push(MicroOp::tx_begin(i));
    t.push(MicroOp::store(a + i * 64, i, true));
    t.push(MicroOp::tx_end());
  }
  sys.load_trace(0, t);
  sys.run();
  // The second TX_END must wait for the first background flush: commits
  // are serialized per core.
  EXPECT_GT(sys.stats().counter_value("core0.stall.txend_flush"), 0u);
  EXPECT_EQ(sys.stats().counter_value("kiln.commits"), 4u);
}

TEST(Core, FinishedOnlyWhenEverythingDrains) {
  SystemConfig cfg = tiny(Mechanism::kTc);
  System sys(cfg);
  Trace t;
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::store(cfg.address_space.heap_base(), 1, true));
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  sys.run_for(2);
  EXPECT_FALSE(sys.finished());
  sys.run();
  EXPECT_TRUE(sys.finished());
}

TEST(Core, ClwbPcommitSequenceCompletes) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  const Addr a = cfg.address_space.heap_base();
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::store(a, 9, true));
  t.push(MicroOp::tx_end());
  // pcommit orders LOG flushes; data flushes drain lazily.
  t.push(MicroOp::clwb(a, FlushKind::kLog));
  t.push(MicroOp::sfence());
  t.push(MicroOp::pcommit());
  t.push(MicroOp::clwb(a, FlushKind::kData));  // lazy clean-back, no stall
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("nvm.writes.log"), 1u);
  EXPECT_EQ(sys.durable()->load(a), 9u);
  EXPECT_GT(sys.stats().counter_value("core0.stall.pcommit"), 0u);
}

TEST(Core, NtStoresCoalesceIntoOneLineWrite) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  const Addr log = cfg.address_space.log_base(0);
  // Four words of one line, then one word of the next line: two flushes.
  for (int i = 0; i < 4; ++i) t.push(MicroOp::ntstore(log + i * 8, i));
  t.push(MicroOp::ntstore(log + 64, 99));
  t.push(MicroOp::sfence());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("nvm.writes.log"), 2u);
  // Payload carried all four words of the first line.
  EXPECT_EQ(sys.durable()->load(log), 0u);
  EXPECT_EQ(sys.durable()->load(log + 8), 1u);
  EXPECT_EQ(sys.durable()->load(log + 24), 3u);
  EXPECT_EQ(sys.durable()->load(log + 64), 99u);
}

TEST(Core, NtStoreBypassesCaches) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  const Addr log = cfg.address_space.log_base(0);
  t.push(MicroOp::ntstore(log, 1));
  t.push(MicroOp::sfence());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_EQ(sys.stats().counter_value("l1.hits") +
                sys.stats().counter_value("l1.misses"),
            0u);
  EXPECT_EQ(sys.hierarchy().l1(0).peek(line_of(log)), nullptr);
}

TEST(Core, TrailingWcLineFlushesWithoutFence) {
  // No sfence after the last ntstore: the WC timeout flushes it so the run
  // still drains (regression test for a real deadlock).
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  System sys(cfg);
  Trace t;
  t.push(MicroOp::ntstore(cfg.address_space.log_base(0), 42));
  sys.load_trace(0, t);
  sys.run(200000);
  EXPECT_TRUE(sys.finished());
  EXPECT_EQ(sys.durable()->load(cfg.address_space.log_base(0)), 42u);
}

TEST(Core, StoreBufferFullStallsRetirement) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  cfg.core.store_buffer_entries = 2;
  System sys(cfg);
  Trace t;
  t.push(MicroOp::tx_begin(1));
  // Misses to distinct lines drain slowly; a 2-entry SB must stall.
  for (int i = 0; i < 12; ++i) {
    t.push(MicroOp::store(cfg.address_space.heap_base() + i * 4096, i, true));
  }
  t.push(MicroOp::tx_end());
  sys.load_trace(0, t);
  sys.run();
  EXPECT_GT(sys.stats().counter_value("core0.stall.sb_full"), 0u);
}

TEST(Core, RobFillsOnLongLatencyLoadButKeepsFetching) {
  SystemConfig cfg = tiny(Mechanism::kOptimal);
  cfg.core.rob_entries = 8;
  System sys(cfg);
  Trace t;
  t.push(MicroOp::load(cfg.address_space.heap_base(), true));
  for (int i = 0; i < 64; ++i) t.push(MicroOp::compute());
  sys.load_trace(0, t);
  sys.run();
  // All 65 ops retired despite the 8-entry window.
  EXPECT_EQ(sys.metrics().retired_uops, 65u);
}

TEST(Core, SpAdrSkipsPcommitStalls) {
  // The same workload under SP and SP-ADR: ADR must never stall on
  // pcommit (none are emitted) and must finish faster.
  auto run_mech = [](Mechanism mech) {
    SystemConfig cfg = tiny(mech);
    workload::WorkloadParams p =
        workload::default_params(WorkloadKind::kSps);
    p.setup_elems = 500;
    p.ops = 200;
    p.compute_per_op = 16;
    workload::SimHeap heap(cfg.address_space, 1);
    System sys(cfg);
    sys.load_trace(0, workload::generate(p, 0, heap, nullptr));
    sys.run();
    return std::pair<Cycle, std::uint64_t>(
        sys.now(), sys.stats().counter_value("core0.stall.pcommit"));
  };
  const auto [sp_cycles, sp_pcommit] = run_mech(Mechanism::kSp);
  const auto [adr_cycles, adr_pcommit] = run_mech(Mechanism::kSpAdr);
  EXPECT_GT(sp_pcommit, 0u);
  EXPECT_EQ(adr_pcommit, 0u);
  EXPECT_LT(adr_cycles, sp_cycles);
}

// ---------------------------------------------------------------------------
// Compute runs. The core fetches a slice of a run per cycle into one ROB
// entry and drains it at retire; the timing must equal a core that
// fetched, held and retired every compute µop on its own. The expected
// values below were recorded with such a per-µop core, under TC and SP
// (which adds log stores, flushes and fences), over compute_latency
// {1, 3} x rob_entries {8, 128} x issue_width {1, 4}. Only
// compute_latency > 1 makes stall.compute fire.

constexpr const char* kStallNames[] = {
    "compute",    "load",       "sb_full", "txend_drain", "txend_flush",
    "clwb_drain", "clwb_issue", "sfence",  "pcommit"};

struct RunTimingCase {
  Mechanism mech;
  unsigned compute_latency;
  unsigned rob_entries;
  unsigned issue_width;
  Cycle end_cycle;
  std::uint64_t retired;
  std::array<std::uint64_t, std::size(kStallNames)> stalls;
};

// Runs of 1, 3, 5 and 640 µops between loads (missing, forwarded and
// volatile), persistent and volatile stores and transaction boundaries.
Trace mixed_runs_trace(const AddressSpace& space) {
  Trace t;
  auto run = [&t](int n) {
    for (int i = 0; i < n; ++i) t.push(MicroOp::compute());
  };
  for (TxId tx = 1; tx <= 6; ++tx) {
    const Addr a = space.heap_base() + tx * 4096;
    run(3);
    t.push(MicroOp::load(a, true));
    run(1);
    t.push(MicroOp::tx_begin(tx));
    run(5);
    t.push(MicroOp::store(a, tx, true));
    t.push(MicroOp::load(a, true));  // forwarded from the SB or ROB
    run(640);
    t.push(MicroOp::store(a + 64, tx, true));
    run(1);
    t.push(MicroOp::tx_end());
    run(3);
    t.push(MicroOp::load(64 * tx, false));
    t.push(MicroOp::store(128 * tx, tx, false));
    run(5);
    if (tx == 3) {
      // A burst of missing volatile stores fills the store buffer.
      for (Addr i = 0; i < 80; ++i) {
        t.push(MicroOp::store((1 << 20) + i * 4096, i, false));
      }
    }
  }
  return t;
}

// {mechanism, compute_latency, rob_entries, issue_width,
//  end cycle, retired µops, stalls in kStallNames order}
constexpr Mechanism kTc = Mechanism::kTc;
constexpr Mechanism kSp = Mechanism::kSp;
constexpr RunTimingCase kRunTimingCases[] = {
    {kTc, 1, 8, 1, 11432, 4076, {0, 5876, 1394, 0, 0, 0, 0, 0, 0}},
    {kTc, 1, 8, 4, 8559, 4076, {0, 5979, 1463, 0, 0, 0, 0, 0, 0}},
    {kTc, 1, 128, 1, 10366, 4076, {0, 332, 1464, 4408, 0, 0, 0, 0, 0}},
    {kTc, 1, 128, 4, 8253, 4076, {0, 564, 1542, 4904, 0, 0, 0, 0, 0}},
    {kTc, 3, 8, 1, 11432, 4076, {2, 5874, 1394, 0, 0, 0, 0, 0, 0}},
    {kTc, 3, 8, 4, 8982, 4076, {982, 5925, 1463, 0, 0, 0, 0, 0, 0}},
    {kTc, 3, 128, 1, 10366, 4076, {2, 330, 1464, 4408, 0, 0, 0, 0, 0}},
    {kTc, 3, 128, 4, 8253, 4076, {2, 562, 1542, 4904, 0, 0, 0, 0, 0}},
    {kSp, 1, 8, 1, 13615, 4154, {0, 5618, 1394, 0, 0, 0, 858, 12, 1486}},
    {kSp, 1, 8, 4, 10624, 4154, {0, 5669, 1463, 0, 0, 0, 864, 12, 1502}},
    {kSp, 1, 128, 1, 12340, 4154, {0, 145, 1394, 0, 0, 7, 886, 4377, 1321}},
    {kSp, 1, 128, 4, 9855, 4154, {0, 157, 1463, 0, 0, 13, 892, 4871, 1341}},
    {kSp, 3, 8, 1, 13615, 4154, {2, 5616, 1394, 0, 0, 0, 858, 12, 1486}},
    {kSp, 3, 8, 4, 11108, 4154, {974, 5663, 1462, 0, 0, 0, 864, 12, 1500}},
    {kSp, 3, 128, 1, 12340, 4154, {2, 143, 1394, 0, 0, 7, 886, 4377, 1321}},
    {kSp, 3, 128, 4, 9855, 4154, {2, 155, 1463, 0, 0, 13, 892, 4871, 1341}},
};

TEST(CoreRuns, TimingMatchesThePerUopCore) {
  // Each case also runs with the clock jumping and verify off, where a
  // core sleeping at an unready compute run or load charges its stalls in
  // one step, and stepped (--no-skip).
  const SkipConfig modes[] = {{true, true}, {true, false}, {false, false}};
  for (const RunTimingCase& c : kRunTimingCases) {
    for (const SkipConfig& skip : modes) {
      const std::string row =
          std::string(to_string(c.mech)) + " latency " +
          std::to_string(c.compute_latency) + " rob " +
          std::to_string(c.rob_entries) + " width " +
          std::to_string(c.issue_width) + " skip " +
          std::to_string(skip.enabled) + " verify " +
          std::to_string(skip.verify);
      SCOPED_TRACE(row);
      SystemConfig cfg = tiny(c.mech);
      cfg.core.compute_latency = c.compute_latency;
      cfg.core.rob_entries = c.rob_entries;
      cfg.core.issue_width = c.issue_width;
      cfg.skip = skip;
      System sys(cfg);
      sys.load_trace(0, mixed_runs_trace(cfg.address_space));
      sys.run();
      EXPECT_EQ(sys.now(), c.end_cycle);
      EXPECT_EQ(sys.stats().counter_value("core0.retired"), c.retired);
      for (std::size_t i = 0; i < std::size(kStallNames); ++i) {
        EXPECT_EQ(sys.stats().counter_value(std::string("core0.stall.") +
                                            kStallNames[i]),
                  c.stalls[i])
            << kStallNames[i];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hit timing. A cache hit is not an event: the hierarchy reports the cycle
// its data reaches the core and the ROB entry keeps it, and the load
// retires from that cycle on, never in its issue tick. The expected values
// below were recorded with a core whose hits completed through scheduled
// events, over l1.latency {0, 1, 3} and a raised l2/llc latency, under TC,
// SP and Kiln, with persistent and volatile loads. Core 1 commits
// transactions meanwhile, so under Kiln its commit flushes block the shared
// LLC while core 0's LLC hits look their lines up.

// Each round walks one line through every level: a miss, L1 hits, an L2
// hit once two lines of its L1 set pushed it out, and an LLC hit once two
// more pushed it out of L2. The tiny preset's L1 has 8 sets and 2 ways, its
// L2 16 sets and 2 ways and its LLC 16 sets and 4 ways: lines 8 apart share
// an L1 set and lines 16 apart share every set. Round r uses LLC sets r and
// r + 8; the 640-µop runs let each load finish before the next one issues.
Trace hit_levels_trace(Addr base, bool persistent) {
  Trace t;
  auto run = [&t](int n) {
    for (int i = 0; i < n; ++i) t.push(MicroOp::compute());
  };
  auto load = [&t, persistent](Addr a) {
    t.push(MicroOp::load(a, persistent));
  };
  for (Addr r = 0; r < 6; ++r) {
    const Addr a = base + r * kLineBytes;
    load(a);
    run(640);  // miss
    load(a);
    load(a + 8);
    run(3);  // L1 hits
    load(a + 8 * kLineBytes);
    run(640);
    load(a + 16 * kLineBytes);
    run(640);  // a leaves L1
    load(a + 16);
    run(640);  // L2 hit
    load(a + 32 * kLineBytes);
    run(640);
    load(a + 48 * kLineBytes);
    run(640);  // a leaves L2
    load(a + 24);
    run(5);  // LLC hit
  }
  return t;
}

// Transactions of four persistent stores, one line in each of the LLC sets
// the loads leave alone (6, 7, 14 and 15).
Trace committer_trace(Addr base) {
  Trace t;
  for (TxId tx = 1; tx <= 100; ++tx) {
    t.push(MicroOp::tx_begin(tx));
    for (const Addr line : {6, 7, 14, 15}) {
      t.push(MicroOp::store(base + line * kLineBytes, tx, true));
    }
    t.push(MicroOp::tx_end());
    for (int i = 0; i < 400; ++i) t.push(MicroOp::compute());
  }
  return t;
}

struct HitTiming {
  Cycle end_cycle = 0;
  std::uint64_t retired = 0;
  // load_latency and pload_latency: sum, count, max.
  std::array<std::uint64_t, 3> load{};
  std::array<std::uint64_t, 3> pload{};
  std::string pload_hist;  ///< "bucket:count" of every nonzero bucket
  std::array<std::uint64_t, std::size(kStallNames)> stalls{};
  bool operator==(const HitTiming&) const = default;
};

struct HitTimingCase {
  Mechanism mech;
  unsigned l1_latency;
  unsigned l2_latency;
  unsigned llc_latency;
  bool persistent;
  HitTiming expected;
};

HitTiming run_hit_timing(const HitTimingCase& c) {
  SystemConfig cfg = tiny(c.mech);
  cfg.cores = 2;
  cfg.l1.latency_cycles = c.l1_latency;
  cfg.l2.latency_cycles = c.l2_latency;
  cfg.llc.latency_cycles = c.llc_latency;
  System sys(cfg);
  const Addr loads = c.persistent ? cfg.address_space.heap_base() : 1 << 20;
  sys.load_trace(0, hit_levels_trace(loads, c.persistent));
  sys.load_trace(1, committer_trace(cfg.address_space.heap_base() +
                                    (1 << 20)));
  sys.run();
  StatSet& st = sys.stats();
  auto acc = [&st](const char* name) {
    const Accumulator& a = st.accumulator(name);
    return std::array<std::uint64_t, 3>{static_cast<std::uint64_t>(a.sum()),
                                        a.count(),
                                        static_cast<std::uint64_t>(a.max())};
  };
  HitTiming r;
  r.end_cycle = sys.now();
  r.retired = st.counter_value("core0.retired");
  r.load = acc("core0.load_latency");
  r.pload = acc("core0.pload_latency");
  const Histogram& h = st.histogram("core0.pload_latency_hist");
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    if (!r.pload_hist.empty()) r.pload_hist += ' ';
    r.pload_hist += std::to_string(b) + ':' + std::to_string(h.bucket(b));
  }
  for (std::size_t i = 0; i < std::size(kStallNames); ++i) {
    r.stalls[i] =
        st.counter_value(std::string("core0.stall.") + kStallNames[i]);
  }
  return r;
}

constexpr Mechanism kKiln = Mechanism::kKiln;
const HitTimingCase kHitTimingCases[] = {
    {kTc, 0, 3, 6, true,
     {27894, 23142, {5828, 54, 361}, {5828, 54, 361},
      "1:12 2:6 4:6 8:25 9:5",
      {0, 4845, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 0, 3, 6, false,
     {24607, 23142, {1452, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 1, 3, 6, true,
     {27894, 23142, {5840, 54, 361}, {5840, 54, 361},
      "1:12 3:6 4:6 8:25 9:5",
      {0, 4845, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 1, 3, 6, false,
     {24607, 23142, {1464, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 3, 3, 6, true,
     {27894, 23142, {5888, 54, 361}, {5888, 54, 361},
      "2:12 3:6 4:6 8:25 9:5",
      {0, 4845, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 3, 3, 6, false,
     {24607, 23142, {1512, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 1, 9, 20, true,
     {27894, 23142, {5996, 54, 361}, {5996, 54, 361},
      "1:12 4:6 5:6 8:25 9:5",
      {0, 4845, 0, 0, 0, 0, 0, 0, 0}}},
    {kTc, 1, 9, 20, false,
     {24607, 23142, {1620, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 0, 3, 6, true,
     {51191, 23142, {5253, 54, 265}, {5253, 54, 265},
      "1:12 2:6 4:6 8:29 9:1",
      {0, 4270, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 0, 3, 6, false,
     {46866, 23142, {1452, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 1, 3, 6, true,
     {51191, 23142, {5265, 54, 265}, {5265, 54, 265},
      "1:12 3:6 4:6 8:29 9:1",
      {0, 4270, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 1, 3, 6, false,
     {46866, 23142, {1464, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 3, 3, 6, true,
     {51191, 23142, {5313, 54, 265}, {5313, 54, 265},
      "2:12 3:6 4:6 8:29 9:1",
      {0, 4270, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 3, 3, 6, false,
     {46866, 23142, {1512, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 1, 9, 20, true,
     {51191, 23142, {5421, 54, 265}, {5421, 54, 265},
      "1:12 4:6 5:6 8:29 9:1",
      {0, 4270, 0, 0, 0, 0, 0, 0, 0}}},
    {kSp, 1, 9, 20, false,
     {46866, 23142, {1620, 54, 96}, {0, 0, 0},
      "",
      {0, 469, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 0, 3, 6, true,
     {10202, 23142, {4355, 54, 323}, {4355, 54, 323},
      "1:12 2:6 7:25 8:9 9:2",
      {0, 2989, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 0, 3, 6, false,
     {10202, 23142, {3101, 54, 176}, {0, 0, 0},
      "",
      {0, 1762, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 1, 3, 6, true,
     {10202, 23142, {4366, 54, 323}, {4366, 54, 323},
      "1:12 3:6 7:25 8:9 9:2",
      {0, 2990, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 1, 3, 6, false,
     {10202, 23142, {3109, 54, 176}, {0, 0, 0},
      "",
      {0, 1763, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 3, 3, 6, true,
     {10202, 23142, {4412, 54, 323}, {4412, 54, 323},
      "2:12 3:6 7:25 8:9 9:2",
      {0, 2992, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 3, 3, 6, false,
     {10202, 23142, {3149, 54, 176}, {0, 0, 0},
      "",
      {0, 1765, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 1, 9, 20, true,
     {10202, 23142, {4502, 54, 323}, {4502, 54, 323},
      "1:12 4:6 7:25 8:10 9:1",
      {0, 3010, 0, 0, 0, 0, 0, 0, 0}}},
    {kKiln, 1, 9, 20, false,
     {10202, 23142, {3185, 54, 176}, {0, 0, 0},
      "",
      {0, 1783, 0, 0, 0, 0, 0, 0, 0}}},
};

TEST(CoreHits, TimingMatchesHitCompletionEvents) {
  for (const HitTimingCase& c : kHitTimingCases) {
    SCOPED_TRACE(std::string(to_string(c.mech)) + " l1 " +
                 std::to_string(c.l1_latency) + " l2 " +
                 std::to_string(c.l2_latency) + " llc " +
                 std::to_string(c.llc_latency) +
                 (c.persistent ? " persistent" : " volatile"));
    const HitTiming got = run_hit_timing(c);
    const HitTiming& want = c.expected;
    EXPECT_EQ(got.end_cycle, want.end_cycle);
    EXPECT_EQ(got.retired, want.retired);
    EXPECT_EQ(got.load, want.load);
    EXPECT_EQ(got.pload, want.pload);
    EXPECT_EQ(got.pload_hist, want.pload_hist);
    for (std::size_t i = 0; i < std::size(kStallNames); ++i) {
      EXPECT_EQ(got.stalls[i], want.stalls[i]) << kStallNames[i];
    }
  }
}

}  // namespace
}  // namespace ntcsim::core
