#pragma once
// Shared pieces of the benchmark driver: clocks, exact quantiles, and the
// per-episode record every workload fills in.
//
// An episode is one complete, seed-determined run of a workload: set up,
// measured phase, correctness check. A benchmark run repeats episodes of
// identical input until its time budget is spent, so machine noise
// averages out while every count stays exact per episode.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double wall_s() { return clock_s(CLOCK_MONOTONIC); }
/// CPU time of every thread of the process.
inline double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Nearest-rank quantile (q in (0, 1]) of an unsorted sample; 0 if empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Episode {
  bool traced = false;
  double setup_s = 0.0;  // CPU seconds, all threads
  double cpu_s = 0.0;    // measured phase, CPU seconds, all threads
  double wall_s = 0.0;   // measured phase, wall seconds
  std::uint64_t deliveries = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // human-readable failure reasons
  double lat_p50_us = 0.0;
  double lat_p99_us = 0.0;
  std::uint64_t lat_samples = 0;
  // Counts that must repeat bit-for-bit for one seed (compared across the
  // episodes of a run and across runs by the determinism test).
  std::map<std::string, double> exact;
  // Per-layer metrics (traced episodes only).
  std::map<std::string, double> layer;
};

}  // namespace perfbench
