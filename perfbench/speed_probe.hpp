// Host-speed probe. On a shared host the same deterministic pass runs up
// to a third slower for seconds or minutes at a time, while a probe on
// another core stays steady: the slowdown is in the memory system the
// benchmark's thread sees. So the driver times a fixed reference kernel,
// a dependent pointer chase sized to the last-level cache like the
// simulator's working set, on its own thread between cells, and scales
// each cell's host seconds to the reference speed (README.md,
// "Host-speed scaling"). The kernel is the benchmark's own code: a change
// to the simulator moves the cells' times and leaves the kernel alone.
//
// ntclint-suppress-file(determinism): the probe reads the thread's CPU
// clock; its readings only scale the benchmark's report.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  SpeedProbe();

  /// One reading: walks a fixed path through the ring once to bring it
  /// back into the caches the previous cell evicted it from, then returns
  /// the thread CPU seconds of a second, timed walk of the same path. The
  /// untimed walk keeps the reading independent of how much memory the
  /// cell before it touched.
  double sample();

  /// Thread CPU seconds spent in sample() so far, both walks.
  double spent() const { return spent_; }

 private:
  double walk();

  std::vector<std::uint32_t> ring_;
  std::uint64_t sink_ = 0;
  double spent_ = 0.0;
};

/// The timed walk's CPU seconds at the reference speed, the speed all
/// end-to-end times are reported at: a typical reading on the 4-core
/// 2.1 GHz Xeon VM the benchmark was tuned on.
inline constexpr double kReferenceProbeS = 0.005;

}  // namespace perfbench
