// Property tests on the memory controller: under randomized request
// streams and arbitrary geometry, every request completes exactly once,
// same-line writes complete in order, and the durable image ends equal to
// program order. A differential test pins the cached scheduler against a
// plain full-scan FR-FCFS reference, cycle for cycle, and another pins a
// controller that sleeps between due cycles against one ticked every cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mem/address_map.hpp"
#include "mem/bank.hpp"
#include "mem/memory_controller.hpp"

namespace ntcsim::mem {
namespace {

struct Geometry {
  std::uint64_t seed;
  unsigned ranks;
  unsigned banks;
  unsigned read_q;
  unsigned write_q;
  unsigned requests;
  unsigned line_space;
};

class McPropertyTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(McPropertyTest, EveryRequestCompletesExactlyOnce) {
  const Geometry g = GetParam();
  Rng rng(g.seed);

  MemCtrlConfig cfg;
  cfg.ranks = g.ranks;
  cfg.banks_per_rank = g.banks;
  cfg.read_queue = g.read_q;
  cfg.write_queue = g.write_q;
  cfg.timing = DeviceTiming::sttram();

  EventQueue events;
  StatSet stats;
  MemoryController mc("nvm", cfg, events, stats);

  Cycle now = 0;
  auto tick = [&](unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      events.drain_until(now);
      mc.tick(now);
      ++now;
    }
  };

  unsigned completions = 0;
  std::vector<unsigned> per_request_completions(g.requests, 0);
  // Track same-line write completion order: value written monotonic per line.
  std::map<Addr, Word> last_value_completed;
  std::map<Addr, Word> last_value_issued;
  bool order_ok = true;

  unsigned accepted = 0;
  for (unsigned r = 0; r < g.requests; ++r) {
    MemRequest req;
    const bool is_write = rng.chance(2, 3);
    req.op = is_write ? MemOp::kWrite : MemOp::kRead;
    req.line_addr = rng.below(g.line_space) * kLineBytes;
    const unsigned id = r;
    if (is_write) {
      const Word v = ++last_value_issued[req.line_addr];
      req.payload = {{req.line_addr, v}};
      req.on_complete = [&, id, v](const MemRequest& done) {
        ++completions;
        ++per_request_completions[id];
        Word& last = last_value_completed[done.line_addr];
        if (v <= last) order_ok = false;  // same-line order violated
        last = v;
      };
    } else {
      req.on_complete = [&, id](const MemRequest&) {
        ++completions;
        ++per_request_completions[id];
      };
    }
    // Retry until accepted (bounded).
    unsigned guard = 0;
    while (!mc.enqueue(req, now)) {
      tick(1);
      ASSERT_LT(++guard, 100000u);
    }
    ++accepted;
    if (rng.chance(1, 2)) tick(rng.below(40));
  }

  unsigned guard = 0;
  while (!mc.idle()) {
    tick(100);
    ASSERT_LT(++guard, 100000u) << "controller failed to drain";
  }
  events.drain_until(now);

  EXPECT_EQ(completions, accepted);
  for (unsigned r = 0; r < g.requests; ++r) {
    EXPECT_LE(per_request_completions[r], 1u) << "request " << r;
  }
  EXPECT_TRUE(order_ok) << "same-line writes completed out of order";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, McPropertyTest,
    ::testing::Values(Geometry{1, 1, 1, 4, 8, 200, 4},
                      Geometry{2, 1, 2, 4, 8, 300, 16},
                      Geometry{3, 4, 8, 8, 64, 400, 64},
                      Geometry{4, 2, 4, 8, 16, 400, 2},
                      Geometry{5, 4, 8, 8, 64, 500, 512},
                      Geometry{6, 1, 8, 2, 4, 250, 8}),
    [](const auto& p) {
      return "seed" + std::to_string(p.param.seed) + "_r" +
             std::to_string(p.param.ranks) + "b" +
             std::to_string(p.param.banks);
    });

// ---------------------------------------------------------------------------
// Scheduler differential test. The controller caches, per queue, the first
// cycle anything there could issue and skips its scan until then. The
// reference below is the same policy with no cache: every tick and every
// next-event query rescans both queues from scratch. The two must agree on
// every issue (cycle, op, row outcome, and through the completion cycle,
// which request) and on every next_event_cycle() answer.

/// Plain FR-FCFS with same-line ordering, read-first with write drain and
/// staggered per-rank refresh: the controller's documented policy,
/// rescanned in full every cycle.
class ReferenceScheduler {
 public:
  struct Issued {
    unsigned id = 0;
    MemOp op = MemOp::kRead;
    bool row_hit = false;
    Cycle fires = 0;  ///< Cycle the completion callback runs.
  };

  explicit ReferenceScheduler(const MemCtrlConfig& cfg)
      : cfg_(cfg), map_(cfg.ranks, cfg.banks_per_rank, 8 << 10, cfg.channels) {
    banks_.assign(map_.total_banks(), Bank{cfg_.timing});
    if (cfg_.refresh_interval > 0) {
      for (unsigned r = 0; r < cfg_.ranks; ++r) {
        next_refresh_.push_back(cfg_.refresh_interval * (r + 1) / cfg_.ranks);
      }
    }
  }
  // banks_ point at cfg_.timing.
  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  enum class Accept { kFull, kQueued, kForwarded };
  Accept enqueue(unsigned id, Addr line, MemOp op) {
    std::deque<Entry>& q = op == MemOp::kRead ? reads_ : writes_;
    const unsigned cap =
        op == MemOp::kRead ? cfg_.read_queue : cfg_.write_queue;
    if (q.size() >= cap) return Accept::kFull;
    if (op == MemOp::kRead) {
      for (const Entry& w : writes_) {
        if (w.line == line) return Accept::kForwarded;
      }
    }
    q.push_back({id, line, op});
    return Accept::kQueued;
  }

  /// One cycle; returns the issued request, if any. Refreshes are counted.
  std::optional<Issued> tick(Cycle now) {
    for (unsigned r = 0; r < next_refresh_.size(); ++r) {
      if (now < next_refresh_[r]) continue;
      bool all_idle = true;
      for (unsigned b = 0; b < cfg_.banks_per_rank; ++b) {
        all_idle = all_idle && bank(r, b).ready_at(now);
      }
      if (!all_idle) continue;
      for (unsigned b = 0; b < cfg_.banks_per_rank; ++b) {
        bank(r, b).block_until(now + cfg_.refresh_cycles);
      }
      next_refresh_[r] = now + cfg_.refresh_interval;
      ++refreshes;
    }
    if (drain_flip_due()) {
      draining_ = !draining_;
      ++(draining_ ? drain_entries : drain_exits);
    }
    std::deque<Entry>& first = draining_ ? writes_ : reads_;
    std::deque<Entry>& second = draining_ ? reads_ : writes_;
    if (const int i = pick(first, now); i >= 0) return issue(first, i, now);
    if (draining_ || reads_.empty()) {
      if (const int i = pick(second, now); i >= 0) {
        return issue(second, i, now);
      }
    }
    return std::nullopt;
  }

  /// Earliest cycle > now at which tick() could issue, refresh or flip
  /// the drain mode, with the state frozen.
  Cycle next_event_cycle(Cycle now) const {
    if (drain_flip_due()) return now + 1;
    Cycle next = kNeverCycle;
    for (unsigned r = 0; r < next_refresh_.size(); ++r) {
      Cycle t = std::max(next_refresh_[r], now + 1);
      for (unsigned b = 0; b < cfg_.banks_per_rank; ++b) {
        t = std::max(t, bank(r, b).busy_until());
      }
      next = std::min(next, t);
    }
    for (const std::deque<Entry>* q : {&reads_, &writes_}) {
      for (std::size_t i = 0; i < q->size(); ++i) {
        if (!oldest_for_line(*q, i)) continue;
        next = std::min(next, std::max(now + 1, ready_at((*q)[i])));
      }
    }
    return next;
  }

  unsigned refreshes = 0;
  unsigned drain_entries = 0;
  unsigned drain_exits = 0;
  /// Times pick() passed over an entry behind an older same-line one.
  unsigned conflict_holds = 0;

 private:
  struct Entry {
    unsigned id;
    Addr line;
    MemOp op;
  };

  Bank& bank(unsigned rank, unsigned b) {
    return banks_[rank * cfg_.banks_per_rank + b];
  }
  const Bank& bank(unsigned rank, unsigned b) const {
    return banks_[rank * cfg_.banks_per_rank + b];
  }
  bool drain_flip_due() const {
    const double occ = static_cast<double>(writes_.size()) /
                       static_cast<double>(cfg_.write_queue);
    return draining_ ? occ <= cfg_.drain_low_watermark
                     : occ >= cfg_.drain_high_watermark;
  }
  static bool oldest_for_line(const std::deque<Entry>& q, std::size_t i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (q[j].line == q[i].line) return false;
    }
    return true;
  }
  Cycle ready_at(const Entry& e) const {
    return banks_[map_.flat_bank(map_.decode(e.line))].busy_until();
  }
  /// First ready row hit, else the oldest ready entry, else -1.
  int pick(const std::deque<Entry>& q, Cycle now) {
    int oldest = -1;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const BankCoord c = map_.decode(q[i].line);
      const Bank& b = banks_[map_.flat_bank(c)];
      if (!oldest_for_line(q, i)) {
        ++conflict_holds;
        continue;
      }
      if (!b.ready_at(now)) continue;
      if (b.row_hit(c.row)) return static_cast<int>(i);
      if (oldest < 0) oldest = static_cast<int>(i);
    }
    return oldest;
  }
  Issued issue(std::deque<Entry>& q, int i, Cycle now) {
    const Entry e = q[static_cast<std::size_t>(i)];
    q.erase(q.begin() + i);
    const BankCoord c = map_.decode(e.line);
    Bank& b = banks_[map_.flat_bank(c)];
    Issued out{e.id, e.op, b.row_hit(c.row), 0};
    const Cycle done = b.access(now, c.row, e.op == MemOp::kWrite);
    bus_busy_until_ = std::max(done, bus_busy_until_) + cfg_.timing.burst;
    out.fires = bus_busy_until_ + cfg_.bus_latency;
    return out;
  }

  MemCtrlConfig cfg_;
  AddressMap map_;
  std::vector<Bank> banks_;
  std::deque<Entry> reads_;
  std::deque<Entry> writes_;
  std::vector<Cycle> next_refresh_;
  Cycle bus_busy_until_ = 0;
  bool draining_ = false;
};

struct DiffCase {
  std::uint64_t seed;
  unsigned ranks;
  unsigned banks;
  unsigned read_q;
  unsigned write_q;
  unsigned line_space;  ///< Small => many same-line conflicts.
  double drain_high;  ///< Write-drain watermarks (nvm.drain_high/low).
  double drain_low;
  Cycle refresh_interval;  ///< 0 = refresh off.
  bool skip;  ///< Jump idle windows the way the cluster's clock does.
};

class SchedulerDiffTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SchedulerDiffTest, CachedScanMatchesFullScanReference) {
  const DiffCase dc = GetParam();
  MemCtrlConfig cfg;
  cfg.ranks = dc.ranks;
  cfg.banks_per_rank = dc.banks;
  cfg.read_queue = dc.read_q;
  cfg.write_queue = dc.write_q;
  cfg.drain_high_watermark = dc.drain_high;
  cfg.drain_low_watermark = dc.drain_low;
  cfg.refresh_interval = dc.refresh_interval;
  cfg.refresh_cycles = dc.refresh_interval / 20;
  cfg.timing = DeviceTiming::sttram();

  EventQueue events;
  StatSet stats;
  MemoryController mc("nvm", cfg, events, stats);
  ReferenceScheduler ref(cfg);
  const Counter& reads = stats.counter("nvm.reads");
  const Counter& writes = stats.counter("nvm.writes");
  const Counter& hits = stats.counter("nvm.row_hits");
  const Counter& forwards = stats.counter("nvm.wq_forwards");
  const Counter& refreshes = stats.counter("nvm.refreshes");
  const Counter& drains = stats.counter("nvm.drain_mode_entries");

  struct Req {
    Addr line;
    MemOp op;
    Cycle fires = kNeverCycle;  ///< From the reference schedule.
    unsigned completions = 0;
  };
  std::vector<Req> reqs;
  Cycle now = 0;

  // The latest next_event_cycle() answer and whether a request arrived
  // since: with no input in between, the controller must not issue or
  // refresh before the cycle it claimed.
  Cycle claim = 0;
  bool input_since_claim = true;

  auto submit = [&](unsigned id) {
    MemRequest req;
    req.op = reqs[id].op;
    req.line_addr = reqs[id].line;
    req.on_complete = [&reqs, &now, id](const MemRequest& done) {
      Req& r = reqs[id];
      ++r.completions;
      EXPECT_EQ(done.line_addr, r.line);
      EXPECT_EQ(now, r.fires) << "request " << id
                              << " completed off the reference schedule";
    };
    const std::uint64_t fwd0 = forwards.value();
    const bool accepted = mc.enqueue(std::move(req), now);
    const auto ra = ref.enqueue(id, reqs[id].line, reqs[id].op);
    EXPECT_EQ(accepted, ra != ReferenceScheduler::Accept::kFull);
    EXPECT_EQ(forwards.value() != fwd0,
              ra == ReferenceScheduler::Accept::kForwarded);
    if (ra == ReferenceScheduler::Accept::kForwarded) {
      reqs[id].fires = now + cfg.bus_latency;
    }
    if (accepted) input_since_claim = true;
    return accepted;
  };

  // Traffic in phases: write bursts push the write queue past the high
  // watermark, read-heavy stretches drain it below the low one, and idle
  // gaps give the clock windows to skip.
  enum Phase : unsigned { kWriteBurst, kReadHeavy, kIdle };
  constexpr Cycle kTrafficEnd = 30000;
  unsigned phase = kIdle;
  Cycle phase_end = 0;
  unsigned waiting = 0;  // a request a full queue rejected; retried
  bool have_waiting = false;
  Rng rng(dc.seed);
  std::uint64_t skipped = 0;

  while (now < kTrafficEnd || have_waiting || !mc.idle() ||
         !events.empty()) {
    ASSERT_LT(now, kTrafficEnd + 1'000'000) << "controller failed to drain";
    events.drain_until(now);
    if (now < kTrafficEnd) {
      if (now >= phase_end) {
        phase = static_cast<unsigned>(rng.below(3));
        phase_end = now + rng.range(100, 600);
      }
      const std::uint64_t rate = phase == kWriteBurst ? 3 : phase == kReadHeavy;
      if (!have_waiting && rng.chance(rate, 4)) {
        const bool w =
            phase == kWriteBurst ? rng.chance(9, 10) : rng.chance(1, 5);
        waiting = static_cast<unsigned>(reqs.size());
        have_waiting = true;
        reqs.push_back({rng.below(dc.line_space) * kLineBytes,
                        w ? MemOp::kWrite : MemOp::kRead});
      }
    }
    if (have_waiting && submit(waiting)) have_waiting = false;

    const std::uint64_t r0 = reads.value();
    const std::uint64_t w0 = writes.value();
    const std::uint64_t h0 = hits.value();
    const std::uint64_t f0 = refreshes.value();
    mc.tick(now);
    const std::optional<ReferenceScheduler::Issued> want = ref.tick(now);
    ASSERT_EQ(reads.value() + writes.value() - r0 - w0, want ? 1u : 0u)
        << "cycle " << now;
    if (want) {
      ASSERT_EQ(writes.value() - w0, want->op == MemOp::kWrite ? 1u : 0u)
          << "cycle " << now;
      ASSERT_EQ(hits.value() - h0, want->row_hit ? 1u : 0u) << "cycle " << now;
      reqs[want->id].fires = want->fires;
    }
    ASSERT_EQ(refreshes.value(), ref.refreshes) << "cycle " << now;
    ASSERT_EQ(drains.value(), ref.drain_entries) << "cycle " << now;
    if ((want || refreshes.value() != f0) && !input_since_claim) {
      ASSERT_LE(claim, now) << "next_event_cycle over-promised";
    }

    // Query on most cycles, but leave some ticks to refill the cache on
    // their own.
    if (dc.skip || rng.chance(3, 4)) {
      claim = mc.next_event_cycle(now);
      input_since_claim = false;
      ASSERT_EQ(claim, ref.next_event_cycle(now)) << "cycle " << now;
    }
    ++now;

    // Quiescence skip: with no traffic due, jump to the claimed cycle,
    // bounded by the next completion event. The controller does not tick
    // inside the window; the reference does, and must find nothing to do.
    if (dc.skip && !have_waiting && (phase == kIdle || now >= kTrafficEnd)) {
      Cycle target = claim;
      if (now < kTrafficEnd) target = std::min(target, phase_end);
      if (!events.empty()) target = std::min(target, events.next_cycle());
      for (; target != kNeverCycle && now < target; ++now, ++skipped) {
        ASSERT_FALSE(ref.tick(now).has_value()) << "skipped cycle " << now;
        ASSERT_EQ(ref.refreshes, refreshes.value()) << "skipped cycle " << now;
      }
    }
  }

  for (std::size_t id = 0; id < reqs.size(); ++id) {
    EXPECT_EQ(reqs[id].completions, 1u) << "request " << id;
  }
  // Every scheduler rule the cache must respect actually fired.
  EXPECT_GT(ref.conflict_holds, 0u);
  EXPECT_GT(ref.drain_entries, 0u);
  EXPECT_GT(ref.drain_exits, 0u);
  if (dc.refresh_interval > 0) {
    EXPECT_GT(ref.refreshes, 0u);
  }
  if (dc.skip) {
    EXPECT_GT(skipped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SchedulerDiffTest,
    ::testing::Values(
        DiffCase{11, 2, 4, 8, 16, 32, 0.8, 0.25, 1500, true},
        DiffCase{12, 1, 2, 4, 8, 8, 0.75, 0.25, 0, true},
        DiffCase{13, 4, 8, 8, 64, 512, 0.9, 0.3, 3000, false},
        DiffCase{14, 2, 8, 8, 64, 4, 0.5, 0.125, 1000, true},
        DiffCase{15, 1, 4, 2, 4, 16, 1.0, 0.0, 800, false}),
    [](const ::testing::TestParamInfo<DiffCase>& p) {
      return "seed" + std::to_string(p.param.seed);
    });

// ---------------------------------------------------------------------------
// Controller sleep. MemorySystem ticks a controller only from the cycle
// its next_event_cycle() reported after its last tick, or at once after a
// request joins a queue (tick_when_due). Fed the same seeded stream, such a
// controller must complete every request on the same cycle and in the same
// order as one ticked every cycle, and end with the same statistics. So
// must one in skip.verify mode, which ticks the slept cycles and aborts if
// one of them does work.

struct SleepCase {
  std::uint64_t seed;
  const char* name;  ///< "nvm" (STT-RAM timing) or "dram" (DDR3 timing)
  unsigned read_q;
  unsigned write_q;
  unsigned line_space;  ///< Small => same-line conflicts and forwards.
  double drain_high;  ///< Write-drain watermarks.
  double drain_low;
  Cycle refresh_interval;
};

class SleepDiffTest : public ::testing::TestWithParam<SleepCase> {};

TEST_P(SleepDiffTest, SleepingControllerMatchesEveryCycleTicks) {
  const SleepCase sc = GetParam();
  const bool dram = std::string(sc.name) == "dram";
  MemCtrlConfig cfg;
  cfg.ranks = 2;
  cfg.banks_per_rank = 4;
  cfg.read_queue = sc.read_q;
  cfg.write_queue = sc.write_q;
  cfg.drain_high_watermark = sc.drain_high;
  cfg.drain_low_watermark = sc.drain_low;
  cfg.refresh_interval = sc.refresh_interval;
  cfg.refresh_cycles = sc.refresh_interval / 20;
  cfg.timing = dram ? DeviceTiming::ddr3() : DeviceTiming::sttram();

  /// One controller and what it writes to, with its completion log.
  struct Side {
    Side(const char* name, const MemCtrlConfig& c)
        : mc(name, c, events, stats) {}
    EventQueue events;
    StatSet stats;
    MemoryController mc;
    std::vector<std::pair<Cycle, unsigned>> done;  ///< (cycle, request id)
    unsigned next_id = 0;
    bool woken = false;  ///< A request joined a queue since the last tick.
  };
  Side every(sc.name, cfg);
  Side sleeping(sc.name, cfg);
  Side verifying(sc.name, cfg);
  Cycle now = 0;

  // Every fourth completion asks for its line again from inside
  // on_complete, where a forwarded read takes the slot just freed.
  std::function<bool(Side&, Addr, MemOp)> submit = [&](Side& s, Addr line,
                                                       MemOp op) {
    MemRequest req;
    req.op = op;
    req.line_addr = line;
    const unsigned id = s.next_id++;
    req.on_complete = [&submit, &now, side = &s, id](const MemRequest& r) {
      side->done.emplace_back(now, id);
      if (id % 4 == 0) submit(*side, r.line_addr, MemOp::kRead);
    };
    const std::uint64_t forwards =
        s.stats.counter_value(std::string(sc.name) + ".wq_forwards");
    const bool accepted = s.mc.enqueue(std::move(req), now);
    s.woken |= accepted && s.stats.counter_value(std::string(sc.name) +
                                                 ".wq_forwards") == forwards;
    return accepted;
  };

  enum Phase : unsigned { kWriteBurst, kReadHeavy, kIdle };
  constexpr Cycle kTrafficEnd = 30000;
  unsigned phase = kIdle;
  Cycle phase_end = 0;
  MemRequest waiting;  // line and op of the next request
  bool have_waiting = false;  // it was rejected, or not sent yet
  Rng rng(sc.seed);
  Cycle wake = 0;  // when tick_when_due next ticks, mirrored
  std::uint64_t slept = 0;

  while (now < kTrafficEnd || have_waiting || !every.mc.idle() ||
         !sleeping.mc.idle() || !verifying.mc.idle() ||
         !every.events.empty() || !sleeping.events.empty() ||
         !verifying.events.empty()) {
    ASSERT_LT(now, kTrafficEnd + 1'000'000) << "controllers failed to drain";
    every.events.drain_until(now);
    sleeping.events.drain_until(now);
    verifying.events.drain_until(now);
    if (now < kTrafficEnd) {
      if (now >= phase_end) {
        phase = static_cast<unsigned>(rng.below(3));
        phase_end = now + rng.range(100, 600);
      }
      const std::uint64_t rate = phase == kWriteBurst ? 3 : phase == kReadHeavy;
      if (!have_waiting && rng.chance(rate, 4)) {
        const bool w =
            phase == kWriteBurst ? rng.chance(9, 10) : rng.chance(1, 5);
        waiting.line_addr = rng.below(sc.line_space) * kLineBytes;
        waiting.op = w ? MemOp::kWrite : MemOp::kRead;
        have_waiting = true;
      }
    }
    if (have_waiting) {
      const bool a = submit(every, waiting.line_addr, waiting.op);
      const bool b = submit(sleeping, waiting.line_addr, waiting.op);
      const bool c = submit(verifying, waiting.line_addr, waiting.op);
      ASSERT_EQ(a, b) << "cycle " << now;
      ASSERT_EQ(a, c) << "cycle " << now;
      have_waiting = !a;
    }

    every.mc.tick(now);
    sleeping.mc.tick_when_due(now, /*verify=*/false);
    verifying.mc.tick_when_due(now, /*verify=*/true);
    if (sleeping.woken) wake = 0;
    sleeping.woken = false;
    if (now < wake) {
      ++slept;
    } else {
      wake = sleeping.mc.next_event_cycle(now);
    }
    ++now;
  }

  EXPECT_EQ(every.done, sleeping.done);
  EXPECT_EQ(every.done, verifying.done);
  auto dump = [](const Side& s) {
    std::ostringstream os;
    s.stats.dump(os);
    return os.str();
  };
  EXPECT_EQ(dump(every), dump(sleeping));
  EXPECT_EQ(dump(every), dump(verifying));

  // The controller did sleep, and every wake-up source fired.
  const std::string n = sc.name;
  EXPECT_GT(slept, 0u);
  EXPECT_GT(every.stats.counter_value(n + ".refreshes"), 0u);
  EXPECT_GT(every.stats.counter_value(n + ".drain_mode_entries"), 0u);
  EXPECT_GT(every.stats.counter_value(n + ".wq_forwards"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SleepDiffTest,
    ::testing::Values(SleepCase{21, "nvm", 8, 16, 32, 0.8, 0.25, 1500},
                      SleepCase{22, "dram", 4, 8, 8, 0.5, 0.25, 800},
                      SleepCase{23, "nvm", 8, 64, 64, 0.9, 0.3, 3000},
                      SleepCase{24, "dram", 2, 4, 16, 1.0, 0.0, 1000}),
    [](const ::testing::TestParamInfo<SleepCase>& p) {
      return std::string(p.param.name) + "_seed" +
             std::to_string(p.param.seed);
    });

}  // namespace
}  // namespace ntcsim::mem
