#pragma once
// Single-heap event scheduler: the deterministic oracle. Events are
// ordered by the mode-independent key K = (at, src_domain, src_seq) from
// event_heap.hpp, so a run here executes the exact event sequence the
// domain-sharded engine executes in parallel — that is what the
// sharded-vs-oracle equivalence tests lean on. A non-sharded scheduler
// (domains == 0) has a single context and degenerates to the classic
// "timestamp, then FIFO" order.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_heap.hpp"
#include "sim/time.hpp"

namespace ringnet::sim {

class Scheduler {
 public:
  using Action = sim::Action;

  /// `domains` parallel-capable contexts + one global context (index
  /// `domains`). The default is the classic single-context scheduler.
  explicit Scheduler(Domain domains = 0)
      : global_(domains), seq_(static_cast<std::size_t>(domains) + 1, 0) {}

  Domain global_domain() const { return global_; }

  /// Schedule into `target`'s context. The key is stamped from the
  /// currently-executing context (global when called from outside a run).
  /// Actions are taken by rvalue reference, here and in Simulation, so a
  /// closure is moved once on its way into the heap.
  void schedule(Domain target, SimTime t, Action&& action) {
    const Domain src = tls_exec_ctx ? tls_exec_ctx->domain : global_;
    heap_.push(EventKey{t, src, seq_[src]++}, target, std::move(action));
  }

  /// Context-oblivious schedule: runs in whichever context scheduled it.
  void schedule_at(SimTime t, Action&& action) {
    const Domain src = tls_exec_ctx ? tls_exec_ctx->domain : global_;
    schedule(src, t, std::move(action));
  }

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Run every pending event (including ones scheduled while running).
  void run_to_completion() {
    while (!heap_.empty()) pop_and_run();
  }

  /// Run all events with timestamp <= `until`, then advance `now` to
  /// `until` even if the heap still holds later events.
  void run_until(SimTime until) {
    while (!heap_.empty() && heap_.top_key().at <= until) pop_and_run();
    if (until > now_) now_ = until;
  }

 private:
  void pop_and_run() {
    Event ev = heap_.pop_min();
    if (ev.key.at > now_) now_ = ev.key.at;
    ++executed_;
    ExecContext ctx{ev.target, now_};
    ExecScope scope(&ctx);
    ev.action();
  }

  EventHeap heap_;
  Domain global_;
  std::vector<std::uint64_t> seq_;  // per-context schedule counters
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
};

}  // namespace ringnet::sim
