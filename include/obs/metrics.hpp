#pragma once
// Unified metrics registry shared by the deterministic simulation and the
// real-socket runtime. Names are interned once into dense handles; hot
// paths hold a MetricId and every incr/gauge_max is an atomic slot write,
// not a string-keyed tree lookup. Mutation is thread-safe (relaxed
// increments, CAS-max gauges) so parallel shards and runtime threads share
// one registry: additions commute and maxima are order-free, which keeps
// totals identical between the sharded and single-heap sim engines.
//
// intern() is safe for concurrent first-intern: the name map is mutex-
// guarded and slot storage lives in fixed-size chunks published through
// atomic pointers, so a thread incrementing an already-held handle never
// races a thread interning a new name (no deque/vector growth on the read
// path).
//
// The registry holds counters and max-gauges only. Latency distributions
// stay with their single writers, which read them safely: the simulator's
// per-context histograms and the runtime MH's mutex-guarded one.

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ringnet::obs {

class Metrics {
 public:
  using MetricId = std::uint32_t;

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Idempotent: interning the same name again returns the same handle.
  /// Safe to call concurrently with other intern() calls and with hot-path
  /// mutation through previously returned handles.
  MetricId intern(const std::string& name) {
    util::MutexLock lock(mu_);
    const auto [it, inserted] = ids_.emplace(name, next_id_);
    if (inserted) {
      ensure_chunk(next_id_);
      ++next_id_;
    }
    return it->second;
  }

  void incr(MetricId id, std::uint64_t delta = 1) {
    slot(id).counter.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t counter(MetricId id) const {
    return slot(id).counter.load(std::memory_order_relaxed);
  }

  /// Record an observation; the gauge keeps the maximum ever seen.
  void gauge_max(MetricId id, double value) {
    std::atomic<double>& g = slot(id).gauge;
    double cur = g.load(std::memory_order_relaxed);
    while (value > cur &&
           !g.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  double gauge(MetricId id) const {
    return slot(id).gauge.load(std::memory_order_relaxed);
  }

  void incr(const std::string& name, std::uint64_t delta = 1) {
    incr(intern(name), delta);
  }
  std::uint64_t counter(const std::string& name) const {
    util::MutexLock lock(mu_);
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0;
    const MetricId id = it->second;
    return slot(id).counter.load(std::memory_order_relaxed);
  }
  void gauge_max(const std::string& name, double value) {
    gauge_max(intern(name), value);
  }
  double gauge(const std::string& name) const {
    util::MutexLock lock(mu_);
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0.0;
    const MetricId id = it->second;
    return slot(id).gauge.load(std::memory_order_relaxed);
  }

  /// Visit every (name, counter, gauge) triple. Snapshot-consistent only
  /// after quiescence; live values are relaxed reads.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    util::MutexLock lock(mu_);
    for (const auto& [name, id] : ids_) {
      fn(name, slot(id).counter.load(std::memory_order_relaxed),
         slot(id).gauge.load(std::memory_order_relaxed));
    }
  }

 private:
  // Fixed-geometry chunked storage: a slot's address never changes after
  // intern, and chunk pointers are published with release/acquire, so the
  // lock-free read path never observes a container mid-growth.
  static constexpr std::size_t kChunkBits = 6;
  static constexpr std::size_t kChunk = 1u << kChunkBits;  // 64 slots
  static constexpr std::size_t kMaxChunks = 256;           // 16384 names

  struct Slot {
    std::atomic<std::uint64_t> counter{0};
    std::atomic<double> gauge{0.0};
  };

  struct Chunk {
    std::array<Slot, kChunk> slots;
  };

  struct ChunkTable {
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};

    ~ChunkTable() {
      for (auto& c : chunks) delete c.load(std::memory_order_relaxed);
    }
    Slot& at(std::uint32_t id) const {
      Chunk* c = chunks[id >> kChunkBits].load(std::memory_order_acquire);
      return c->slots[id & (kChunk - 1)];
    }
  };

  void ensure_chunk(std::uint32_t id) {
    const std::size_t c = id >> kChunkBits;
    assert(c < kMaxChunks && "metric name space exhausted");
    if (slots_.chunks[c].load(std::memory_order_relaxed) == nullptr) {
      slots_.chunks[c].store(new Chunk, std::memory_order_release);
    }
  }

  Slot& slot(MetricId id) const { return slots_.at(id); }

  mutable util::Mutex mu_;
  std::unordered_map<std::string, MetricId> ids_ RN_GUARDED_BY(mu_);
  MetricId next_id_ RN_GUARDED_BY(mu_) = 0;
  ChunkTable slots_;
};

}  // namespace ringnet::obs
