#pragma once
// Unified metrics registry shared by the deterministic simulation and the
// real-socket runtime: one relaxed-atomic counter and one CAS-max gauge per
// metric in obs/names.hpp, held in a fixed array indexed by the enum. Every
// incr/gauge_max is one atomic slot write, and a key that is not a
// names::Metric does not compile. Mutation is thread-safe, so parallel
// shards and runtime threads share one registry: additions commute and
// maxima are order-free, which keeps totals identical between the sharded
// and single-heap sim engines.
//
// The registry holds counters and max-gauges only. Latency distributions
// stay with their single writers, which read them safely: the simulator's
// per-context histograms and the runtime MH's mutex-guarded one.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/names.hpp"

namespace ringnet::obs {

class Metrics {
 public:
  void incr(names::Metric m, std::uint64_t delta = 1) {
    slots_[m].counter.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t counter(names::Metric m) const {
    return slots_[m].counter.load(std::memory_order_relaxed);
  }

  /// Record an observation; the gauge keeps the maximum ever seen.
  void gauge_max(names::Metric m, double value) {
    std::atomic<double>& g = slots_[m].gauge;
    double cur = g.load(std::memory_order_relaxed);
    while (value > cur &&
           !g.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  double gauge(names::Metric m) const {
    return slots_[m].gauge.load(std::memory_order_relaxed);
  }

  /// Visit every (metric, counter, gauge) triple in enum order.
  /// Snapshot-consistent only after quiescence; live values are relaxed
  /// reads.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (std::size_t i = 0; i < names::kMetricCount; ++i) {
      const auto m = static_cast<names::Metric>(i);
      fn(m, counter(m), gauge(m));
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> counter{0};
    std::atomic<double> gauge{0.0};
  };

  // Cache lines of its own: the simulator holds the registry inline next to
  // fields every shard worker reads per event, and counter writes must not
  // invalidate those lines.
  alignas(64) std::array<Slot, names::kMetricCount> slots_{};
};

}  // namespace ringnet::obs
