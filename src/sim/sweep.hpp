// Parallel sweep runner for the evaluation harness.
//
// Every cell of the paper's mechanism x workload matrix — and every point
// of an ablation sweep — is an independent, deterministic simulation: it
// owns its SystemConfig, SimHeap, workload generator and System, and the
// only RNG involved is seeded per cell. That independence makes cell-level
// parallelism safe: running cells on worker threads produces bit-identical
// Metrics to the serial loop, in any interleaving (enforced by
// tests/test_sweep.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace ntcsim::sim {

/// Worker-thread count used when the caller passes jobs == 0 ("auto"):
/// the NTCSIM_JOBS environment variable if set to a positive integer,
/// otherwise std::thread::hardware_concurrency(), never less than 1. A
/// malformed NTCSIM_JOBS exits 1 (see parse_env_number).
unsigned default_jobs();

/// Run fn(0) .. fn(count - 1) on up to `jobs` worker threads (0 = auto via
/// default_jobs()). Indices are handed out dynamically, so uneven cell
/// costs load-balance. With an effective job count of 1 everything runs
/// inline on the calling thread — no threads are created, exceptions
/// propagate directly, and the execution order is 0..count-1.
///
/// If any invocation throws, remaining *unstarted* indices are abandoned
/// and the exception from the lowest-numbered failed index is rethrown on
/// the calling thread after all workers have joined.
void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for collecting fn(i) into a vector in index order, so callers
/// keep the exact result layout of the serial loop they replaced.
/// The result type must be default-constructible (Metrics is).
template <typename Fn>
auto run_jobs(std::size_t count, unsigned jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(count);
  parallel_for(count, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One run_cell invocation, self-contained by value so a worker thread
/// shares nothing with its siblings.
struct JobSpec {
  Mechanism mech = Mechanism::kTc;
  WorkloadKind wl = WorkloadKind::kSps;
  SystemConfig cfg;
  ExperimentOptions opts;
};

/// Run every spec (in spec order in the result) on up to `jobs` threads.
/// A spec whose config fails check_geometry prints one line and exits 1
/// before any cell starts.
/// Seeds are taken from each spec's opts, so a sweep that wants distinct
/// random streams per point sets opts.seed per spec; the common case —
/// same seed, different configs — reproduces the serial harness exactly.
std::vector<Metrics> run_sweep(const std::vector<JobSpec>& specs,
                               unsigned jobs);

}  // namespace ntcsim::sim
