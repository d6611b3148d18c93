#pragma once
// Unified metrics registry shared by the deterministic simulation and the
// real-socket runtime: one relaxed-atomic counter and one CAS-max gauge per
// metric in obs/names.hpp, held in a fixed array indexed by the enum. Every
// incr/gauge_max is one atomic slot write, and a key that is not a
// names::Metric does not compile. Mutation is thread-safe, so parallel
// shards and runtime threads share one registry: additions commute and
// maxima are order-free, which keeps totals identical between the sharded
// and single-heap sim engines. A copy is a relaxed snapshot, and merge_from
// folds one node's registry into a run-wide one, so a run's result carries
// the registry itself rather than fields copied out of it.
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
  Metrics() = default;
  /// A snapshot: each slot is read once (relaxed), so later writes to the
  /// source do not show. Exact once the source's writers are quiescent.
  Metrics(const Metrics& other) noexcept { *this = other; }
  Metrics& operator=(const Metrics& other) noexcept {
    for (std::size_t i = 0; i < names::kMetricCount; ++i) {
      slots_[i].counter.store(
          other.slots_[i].counter.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      slots_[i].gauge.store(
          other.slots_[i].gauge.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    return *this;
  }

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

  /// Add `other`'s counters to this registry's and keep each gauge's
  /// maximum of the two.
  void merge_from(const Metrics& other) {
    other.for_each_counter([this](names::Metric m, std::uint64_t c, double g) {
      incr(m, c);
      gauge_max(m, g);
    });
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
