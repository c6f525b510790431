// ntclint-suppress-file(determinism): the probe reads the thread's CPU
// clock; its readings only scale the benchmark's report.
#include "speed_probe.hpp"

#include <numeric>
#include <utility>

#include "pipeline.hpp"

namespace perfbench {

namespace {
// 8 MiB of 4-byte slots: past L2, so a walk waits on the last-level
// cache, which neighbours on a shared host contend for.
constexpr std::size_t kRingSlots = std::size_t{1} << 21;
// Loads per walk: about 5 ms at the reference speed.
constexpr std::size_t kWalkSteps = std::size_t{1} << 16;
}  // namespace

SpeedProbe::SpeedProbe() : ring_(kRingSlots) {
  // Sattolo's shuffle makes one cycle through every slot, so each load
  // waits for the one before and lands on an unpredictable line.
  std::iota(ring_.begin(), ring_.end(), 0u);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = ring_.size() - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(ring_[i], ring_[(x >> 33) % i]);
  }
}

double SpeedProbe::walk() {
  const double t0 = thread_cpu_seconds();
  std::uint32_t p = 0;
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < kWalkSteps; ++i) {
    p = ring_[p];
    h = (h ^ p) * 0x100000001b3ULL;
  }
  sink_ += h;
  const double s = thread_cpu_seconds() - t0;
  spent_ += s;
  return s;
}

double SpeedProbe::sample() {
  walk();
  return walk();
}

}  // namespace perfbench
