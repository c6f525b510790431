#include "sim/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/config_io.hpp"

namespace ntcsim::sim {

unsigned default_jobs() {
  unsigned n = 0;
  parse_env_number("NTCSIM_JOBS", Bounds<unsigned>{}, n);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  unsigned effective = jobs == 0 ? default_jobs() : jobs;
  if (effective > count) effective = static_cast<unsigned>(count);

  if (effective <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = count;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(effective);
  for (unsigned t = 0; t < effective; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

std::vector<Metrics> run_sweep(const std::vector<JobSpec>& specs,
                               unsigned jobs) {
  for (const JobSpec& s : specs) {
    if (const std::string error = check_geometry(s.cfg); !error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::exit(1);
    }
  }
  return run_jobs(specs.size(), jobs, [&](std::size_t i) {
    const JobSpec& s = specs[i];
    return run_cell(s.mech, s.wl, s.cfg, s.opts);
  });
}

}  // namespace ntcsim::sim
