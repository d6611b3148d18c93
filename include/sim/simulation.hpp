#pragma once
// Simulation: the deterministic world one experiment runs in — an event
// scheduler, seeded RNG streams, a metrics registry (counters + high-
// watermark gauges) and optional event recording into obs::FlightRecorder,
// the runtime's event log. Protocol code never touches wall-clock time or
// global RNG state, only this object.
//
// A Simulation can be planned with execution contexts ("domains", one per
// BR subtree, plus a serialized global context). rng(), record() and now()
// route to the currently-executing context, so the same protocol code runs
// unchanged on the single-heap oracle Scheduler (threads == 0) or the
// domain-sharded parallel engine (threads > 0) — and, because both engines
// execute the identical per-context event order with identical per-context
// RNG streams, the two modes produce identical delivery traces.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace ringnet::sim {

/// Execution plan for a Simulation. domains == 0 is the classic
/// single-context simulation. With domains > 0, threads selects the
/// engine: 0 runs the single-heap deterministic oracle (same contexts,
/// same event keys, serial execution); > 0 runs the domain-sharded
/// conservative-lookahead engine on that many pool workers.
struct ShardPlan {
  Domain domains = 0;
  SimTime lookahead = msecs(5);  // inter-domain latency floor
  std::size_t threads = 0;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed) : Simulation(seed, ShardPlan{}) {}

  Simulation(std::uint64_t seed, ShardPlan plan)
      : plan_(plan),
        seed_(seed),
        single_(plan.domains) {
    const std::size_t n_ctx = static_cast<std::size_t>(plan.domains) + 1;
    rngs_.reserve(n_ctx);
    for (std::size_t i = 0; i < n_ctx; ++i) {
      // The global context keeps the raw seed (bit-compatible with the
      // pre-sharding single-stream simulation); shard streams split off
      // with a fixed odd multiplier.
      rngs_.emplace_back(i + 1 == n_ctx
                             ? seed
                             : seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    }
    if (plan.domains > 0 && plan.threads > 0) {
      sharded_ = std::make_unique<ShardedScheduler>(
          plan.domains, plan.lookahead, plan.threads);
      sharded_->set_metrics(&metrics_);
    }
  }

  std::uint64_t seed() const { return seed_; }
  Domain domain_count() const { return plan_.domains; }
  Domain global_domain() const { return plan_.domains; }

  /// The context currently executing (global when called between runs).
  Domain current_ctx() const {
    return tls_exec_ctx ? tls_exec_ctx->domain : global_domain();
  }

  SimTime now() const {
    if (tls_exec_ctx) return tls_exec_ctx->now;
    return sharded_ ? sharded_->now() : single_.now();
  }

  util::Rng& rng() { return rngs_[current_ctx()]; }
  obs::Metrics& metrics() { return metrics_; }
  const obs::Metrics& metrics() const { return metrics_; }

  /// Give every execution context a flight recorder keeping its latest
  /// `capacity` events (0 keeps them all). Tracing is off until then.
  void enable_trace(std::size_t capacity = 0) {
    recorders_.clear();
    for (std::size_t i = 0; i < rngs_.size(); ++i) {
      recorders_.push_back(std::make_unique<obs::FlightRecorder>(capacity));
    }
  }

  /// Record an event at `node` into the executing context's recorder, at
  /// the current time. A single branch while tracing is off.
  void record(obs::FrEvent kind, NodeId node, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!recorders_.empty()) record_traced(kind, node, a, b);
  }

  /// The recorder of context `ctx` (global_domain() is the global one);
  /// only after enable_trace().
  const obs::FlightRecorder& recorder(Domain ctx) const {
    return *recorders_[ctx];
  }
  const obs::FlightRecorder& recorder() const {
    return recorder(global_domain());
  }

  std::uint64_t executed_events() const {
    return sharded_ ? sharded_->executed() : single_.executed();
  }

  /// Schedule into the currently-executing context. A closure passed here
  /// becomes a temporary Action that is moved once, into the event heap.
  void at(SimTime t, Action&& action) {
    if (sharded_) {
      sharded_->schedule_at(t, std::move(action));
    } else {
      single_.schedule_at(t, std::move(action));
    }
  }
  void after(SimTime delay, Action&& action) {
    at(now() + delay, std::move(action));
  }

  /// Schedule into an explicit target context.
  void at(Domain target, SimTime t, Action&& action) {
    if (sharded_) {
      sharded_->schedule(target, t, std::move(action));
    } else {
      single_.schedule(target, t, std::move(action));
    }
  }
  void after(Domain target, SimTime delay, Action&& action) {
    at(target, now() + delay, std::move(action));
  }

  /// Advance simulated time by `span`, running everything due in between.
  void run_for(SimTime span) {
    const SimTime until = now() + span;
    if (sharded_) {
      sharded_->run_until(until);
    } else {
      single_.run_until(until);
    }
  }
  void run_to_completion() {
    if (sharded_) {
      sharded_->run_to_completion();
    } else {
      single_.run_to_completion();
    }
  }

 private:
  // Out of line, so that record() inlines to its branch.
  [[gnu::noinline]] void record_traced(obs::FrEvent kind, NodeId node,
                                       std::uint64_t a, std::uint64_t b) {
    recorders_[current_ctx()]->record(kind, now().us, node.v, a, b);
  }

  ShardPlan plan_;
  std::uint64_t seed_;
  Scheduler single_;
  std::unique_ptr<ShardedScheduler> sharded_;
  std::vector<util::Rng> rngs_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  obs::Metrics metrics_;
};

}  // namespace ringnet::sim
