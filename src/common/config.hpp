// Machine configuration (paper Table 2) and experiment presets.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace ntcsim {

/// Physical address-space layout of the hybrid DRAM+NVM system (Fig. 1).
/// DRAM occupies the low half, NVM the high half. Inside NVM we reserve
/// per-core regions for the SP log area and the NTC overflow (hardware
/// copy-on-write) shadow area.
struct AddressSpace {
  /// Each reserved area (logs, shadows) holds one region per core, which
  /// bounds the core count of a node.
  static constexpr std::uint64_t kRegionBytes = 64ULL << 20;
  static constexpr std::uint64_t kAreaBytes = 1ULL << 30;
  static constexpr unsigned kMaxCores = 16;
  static_assert(kMaxCores * kRegionBytes <= kAreaBytes,
                "every core's log and shadow region fits its area");

  std::uint64_t dram_bytes = 8ULL << 30;  ///< 8 GB DRAM (Table 2).
  std::uint64_t nvm_bytes = 8ULL << 30;   ///< 8 GB STT-RAM NVM (Table 2).

  Addr nvm_base() const { return dram_bytes; }
  Addr nvm_end() const { return dram_bytes + nvm_bytes; }
  bool is_persistent(Addr a) const { return a >= nvm_base() && a < nvm_end(); }

  /// Per-core write-ahead-log region (used by the SP mechanism).
  Addr log_base(CoreId core) const {
    return nvm_base() + nvm_bytes - 2 * kAreaBytes + core * kRegionBytes;
  }
  std::uint64_t log_bytes_per_core() const { return kRegionBytes; }

  /// Per-core NTC overflow shadow region (hardware copy-on-write, §4.1).
  Addr shadow_base(CoreId core) const {
    return nvm_base() + nvm_bytes - kAreaBytes + core * kRegionBytes;
  }

  /// Usable persistent heap: NVM minus the reserved log/shadow regions.
  Addr heap_base() const { return nvm_base(); }
  std::uint64_t heap_bytes() const { return nvm_bytes - 2 * kAreaBytes; }
};

/// Victim-selection policy for a set-associative cache level.
enum class ReplacementPolicy : std::uint8_t {
  kLru,     ///< True LRU (the default; what the paper's simulators use).
  kRandom,  ///< Pseudo-random victim (cheap hardware).
  kSrrip,   ///< Static RRIP (2-bit re-reference interval prediction).
};

constexpr std::string_view to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kSrrip: return "srrip";
  }
  return "?";
}

/// One cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 32 << 10;
  unsigned ways = 4;
  unsigned latency_cycles = 1;  ///< Access (hit) latency in CPU cycles.
  unsigned mshrs = 16;          ///< Outstanding-miss registers.
  unsigned writeback_buffer = 16;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;

  std::uint64_t lines() const { return size_bytes / kLineBytes; }
  std::uint64_t sets() const { return lines() / ways; }
};

/// Core model (PTLsim-substitute, DESIGN.md §2).
struct CoreConfig {
  unsigned issue_width = 4;
  unsigned rob_entries = 128;
  unsigned store_buffer_entries = 56;
  unsigned compute_latency = 1;
};

/// Transaction cache (the paper's contribution, §4.1 and Table 2).
struct TxCacheConfig {
  std::uint64_t size_bytes = 4 << 10;  ///< 4 KB per core.
  unsigned latency_cycles = 1;         ///< 0.5 ns at 2 GHz.
  double overflow_threshold = 0.9;     ///< Fall-back path trips at 90 % full.
  unsigned drain_per_cycle = 1;        ///< Committed lines issued to NVM per cycle.

  std::uint64_t entries() const { return size_bytes / kLineBytes; }
};

/// Kiln commit engine (persist::KilnUnit); set in code, no config keys.
struct KilnConfig {
  unsigned commit_fixed_cycles = 40;  ///< Per-commit controller handshake.
  unsigned cycles_per_line = 10;      ///< Pipelined L1/L2 -> LLC flush rate.
  /// Lazy clean-back policy: committed NV-LLC lines are written to NVM
  /// once the backlog reaches `clean_batch` lines or the oldest entry ages
  /// past `clean_max_age` cycles. The window lets same-line commits of
  /// successive transactions coalesce into one NVM write — the reason the
  /// paper's Kiln writes less to NVM than TC (Fig. 9).
  unsigned clean_batch = 16;
  Cycle clean_max_age = 2000;
};

/// Device timing for one memory technology, in CPU cycles (2 GHz: 1 cy = 0.5 ns).
struct DeviceTiming {
  unsigned row_hit = 30;     ///< CAS-only access.
  unsigned row_miss = 56;    ///< PRE + ACT + CAS.
  unsigned write_extra = 0;  ///< Additional array-write time over a read.
  unsigned burst = 8;        ///< Data-bus occupancy per 64 B line.

  static DeviceTiming ddr3();
  /// STT-RAM: 65 ns read, 76 ns write (Table 2 / [Zhao+ MICRO'13]).
  static DeviceTiming sttram();
};

/// Memory controller (Table 2): 8-entry read queue, 64-entry write queue,
/// read-first scheduling with write drain when the write queue is 80 % full.
struct MemCtrlConfig {
  unsigned read_queue = 8;
  unsigned write_queue = 64;
  double drain_high_watermark = 0.8;
  double drain_low_watermark = 0.25;
  unsigned ranks = 4;
  unsigned banks_per_rank = 8;
  /// Line-interleaved channels, each with its own controller, queues and
  /// data bus (1 = the paper's configuration).
  unsigned channels = 1;
  unsigned bus_latency = 8;  ///< LLC<->controller and ack-message latency.
  /// Refresh: every `refresh_interval` cycles a rank spends
  /// `refresh_cycles` unavailable (tREFI/tRFC). 0 disables refresh —
  /// STT-RAM cells are nonvolatile and never refresh, one of NVM's
  /// latency advantages the model keeps visible.
  Cycle refresh_interval = 0;
  Cycle refresh_cycles = 0;
  /// tFAW: at most four row activations per rank within this window
  /// (0 disables — the default, matching the published results).
  Cycle tfaw = 0;
  /// Write-to-read turnaround per rank (0 disables).
  Cycle twtr = 0;
  DeviceTiming timing;
};

/// Activation mode of the online persistence-order checker (src/check/).
enum class CheckMode : std::uint8_t {
  kOff,      ///< No taps installed; zero per-access cost.
  kCollect,  ///< Record violations, report at the end of the run.
  kFatal,    ///< Abort at the first violation (NTC_ASSERT-style).
};

constexpr std::string_view to_string(CheckMode m) {
  switch (m) {
    case CheckMode::kOff: return "off";
    case CheckMode::kCollect: return "collect";
    case CheckMode::kFatal: return "fatal";
  }
  return "?";
}

/// Service-mode request frontend: instead of replaying the measured trace
/// back-to-back, transactions become *requests* that arrive at a
/// configured rate, and the per-request latency (retire − arrival,
/// queueing included) feeds the tail-latency histogram. Arrivals are
/// precomputed deterministically per (seed, core) from common/rng.hpp, so
/// service cells stay bit-identical under `--jobs=N`.
struct ServiceConfig {
  bool enabled = false;
  /// Offered load in requests per kilocycle per core (open loop).
  double rate = 1.0;
  /// Measured requests (transactions) per core; 0 keeps the workload's
  /// default operation count.
  std::uint64_t requests = 0;
  /// Open loop: arrival times are independent of completion, so queueing
  /// delay shows up in the latency tail. Closed loop: the next request is
  /// issued as soon as the previous one retires (back-to-back).
  bool open_loop = true;
  /// Poisson process (exponential interarrival) vs fixed spacing.
  bool poisson = true;
};

/// Crash-injection campaign (src/faultsim/, `ntcsim --crash-sweep`).
/// Deterministic by construction: nothing here involves wall-clock time,
/// and the planner subsamples hazard cycles reproducibly.
struct CrashCampaignConfig {
  /// Crash points kept per cell after hazard-guided subsampling (first and
  /// last hazards always survive). 0 = keep every enumerated point.
  std::uint64_t points = 64;
  /// Workload RNG seeds swept per (mechanism, workload): seeds 1..N.
  unsigned seeds = 3;
  /// Measured operations per core in each campaign cell.
  std::uint64_t ops = 150;
  /// Structure size built before the measured phase (the sps workload
  /// scales this up internally to pressure the tiny LLC).
  std::uint64_t setup = 300;
  /// Shrink unexpected failures to the shortest reproducing transaction
  /// prefix (costs extra replays per failure).
  bool minimize = false;
};

/// Interconnect topology of a multi-node cluster (sim::Cluster). One node
/// is the paper's whole machine; a cluster shards the service-mode request
/// stream across `nodes` of them and charges cross-shard requests a
/// forward and a response traversal of the node-to-node fabric.
struct TopoConfig {
  /// Nodes in the cluster. 1 (the default) is the single-socket paper
  /// machine, byte-identical to the pre-cluster simulator.
  unsigned nodes = 1;
  /// One-way node-to-node hop latency, nanoseconds (RDMA-class fabric).
  double hop_ns = 300.0;
  /// Per-directed-link bandwidth, Gbit/s. Messages serialize onto a link
  /// in ingress order, so an overloaded link adds queueing delay.
  double link_gbps = 25.0;
  /// Modeled wire size of one request or response message, bytes.
  unsigned msg_bytes = 256;

  /// Hop latency in CPU cycles at `ghz`.
  Cycle hop_cycles(double ghz) const {
    return static_cast<Cycle>(hop_ns * ghz);
  }
  /// Link-serialization time of one message in CPU cycles at `ghz`.
  Cycle serialize_cycles(double ghz) const {
    if (link_gbps <= 0.0) return 0;
    const double ns = static_cast<double>(msg_bytes) * 8.0 / link_gbps;
    return static_cast<Cycle>(ns * ghz);
  }
};

/// Everything one node (cores + caches + NTCs + hybrid memory + domain)
/// needs. The single-socket configuration of the paper's Table 2; a
/// sim::Cluster instantiates one sim::Node per topo.nodes from this.
struct NodeConfig {
  unsigned cores = 4;  ///< 1 to AddressSpace::kMaxCores.
  double ghz = 2.0;
  AddressSpace address_space;
  CoreConfig core;
  CacheConfig l1;   ///< Private, 32 KB, 4-way, 0.5 ns.
  CacheConfig l2;   ///< Private, 256 KB, 8-way, 4.5 ns.
  CacheConfig llc;  ///< Shared, 64 MB, 16-way, 10 ns.
  TxCacheConfig ntc;
  KilnConfig kiln;
  MemCtrlConfig dram;
  MemCtrlConfig nvm;
  ServiceConfig service;
  Mechanism mechanism = Mechanism::kOptimal;

  /// Record functional values and transaction journals so that crash
  /// recovery can be simulated and checked (costs some simulation speed).
  bool track_recovery_state = true;

  /// Online persistence-order checker. Debug builds check fatally by
  /// default; release builds (the measured perf path) keep it off — the
  /// tiny() test preset and `ntcsim --check` / NTCSIM_CHECK opt in
  /// explicitly.
#ifndef NDEBUG
  CheckMode check = CheckMode::kFatal;
#else
  CheckMode check = CheckMode::kOff;
#endif
};

/// Quiescence-aware clock advance (topo::Cluster). When every component
/// reports itself idle until some future cycle, the cluster jumps the
/// shared clock there instead of ticking through the gap. Skipped cycles
/// are provably no-ops, so all observable output is bit-identical with
/// skipping on or off (`--no-skip` is the escape hatch / A-B probe).
struct SkipConfig {
  bool enabled = true;
  /// Cross-check mode: compute each jump target, then single-step the gap
  /// anyway and fail loudly if any supposedly-idle cycle did work (a
  /// too-late next_event_cycle is a real bug). Debug builds verify by
  /// default; release builds (the measured perf path) trust the jump.
#ifndef NDEBUG
  bool verify = true;
#else
  bool verify = false;
#endif
};

/// Whole-experiment configuration: the per-node machine (inherited — every
/// `cfg.cores`-style access keeps working) plus cluster topology and the
/// crash-campaign knobs that never vary per node.
struct SystemConfig : public NodeConfig {
  CrashCampaignConfig crash;
  TopoConfig topo;
  SkipConfig skip;

  /// Table 2 configuration verbatim.
  static SystemConfig paper();
  /// Paper configuration with a pressure-scaled LLC and shorter runs, used
  /// by the experiment harness (EXPERIMENTS.md documents the scaling).
  static SystemConfig experiment();
  /// Tiny machine for unit tests: small caches/queues so that evictions,
  /// overflows and drains happen within a few thousand cycles.
  static SystemConfig tiny();
};

}  // namespace ntcsim
