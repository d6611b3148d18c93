#pragma once
// Domain-sharded conservative parallel scheduler. One event heap per BR
// subtree (shards 0..D-1) plus a serialized global context (index D) for
// everything ring-wide: token hops, heartbeats/ring repair, mobility and
// churn, fault injection, archive maintenance.
//
// Execution alternates between two phases:
//
//  * serial step — when the next global event is due no later than every
//    shard's next event, shards stay paused and all events at that exact
//    timestamp (global and shard alike) run on the calling thread in key
//    order. Global handlers may therefore touch any state; this is the
//    synchronization point at top-ring token hops.
//
//  * parallel window — otherwise, every shard independently executes its
//    events with timestamp < window_end on the thread pool, where
//    window_end = min(next global event, min shard horizon + lookahead).
//    The conservative lookahead is the inter-domain latency floor: a shard
//    event at local time u can only affect another shard at >= u + L, so
//    no shard can receive anything that lands inside the current window.
//
// Cross-shard schedules made *during* a window go through a per-shard
// mutex-protected inbox and are ingested at the next barrier; their
// timestamps are asserted >= window_end (the lookahead contract). Events
// are keyed exactly as in the single-heap Scheduler, so both engines
// execute identical per-context event sequences — the oracle equivalence
// the tests assert.

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/event_heap.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace ringnet::sim {

class ShardedScheduler {
 public:
  using Action = sim::Action;

  ShardedScheduler(Domain domains, SimTime lookahead, std::size_t threads)
      : global_(domains),
        lookahead_(lookahead < usecs(1) ? usecs(1) : lookahead),
        pool_(threads == 0 ? util::default_parallelism() : threads) {
    shards_.reserve(static_cast<std::size_t>(domains) + 1);
    for (Domain d = 0; d <= domains; ++d) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  Domain global_domain() const { return global_; }
  std::size_t worker_count() const { return pool_.worker_count(); }

  /// Report engine-level counters (serial steps, parallel windows,
  /// barrier-deferred cross-shard events) into the unified registry.
  void set_metrics(obs::Metrics* metrics) { metrics_ = metrics; }

  void schedule(Domain target, SimTime t, Action&& action) {
    const ExecContext* ec = tls_exec_ctx;
    const Domain src = ec ? ec->domain : global_;
    Shard& s = *shards_[src];
    const EventKey key{t, src, s.seq++};
    if (parallel_phase_ && src != global_ && src != target) {
      // A running shard reaching across: the lookahead contract says this
      // cannot land inside the open window.
      assert(t >= window_end_);
      if (metrics_ != nullptr) metrics_->incr(obs::names::kSchedInboxDeferred);
      Shard& dst = *shards_[target];
      util::MutexLock lock(dst.inbox_mu);
      dst.inbox.push_back(Event{key, target, std::move(action)});
      return;
    }
    shards_[target]->heap.push(key, target, std::move(action));
  }

  void schedule_at(SimTime t, Action&& action) {
    const Domain src = tls_exec_ctx ? tls_exec_ctx->domain : global_;
    schedule(src, t, std::move(action));
  }

  SimTime now() const { return now_; }

  bool empty() const {
    for (const auto& s : shards_) {
      if (!s->heap.empty()) return false;
    }
    return pending_inbox() == 0;
  }

  std::size_t pending() const {
    std::size_t n = pending_inbox();
    for (const auto& s : shards_) n += s->heap.size();
    return n;
  }

  std::uint64_t executed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->executed;
    return n;
  }

  /// Run all events with timestamp <= `until`, then advance now to `until`.
  void run_until(SimTime until) {
    for (;;) {
      drain_inboxes();
      const SimTime t_g =
          shards_[global_]->heap.empty() ? SimTime::max()
                                         : shards_[global_]->heap.top_key().at;
      SimTime t_min = SimTime::max();
      for (Domain d = 0; d < global_; ++d) {
        const Shard& s = *shards_[d];
        if (!s.heap.empty() && s.heap.top_key().at < t_min) {
          t_min = s.heap.top_key().at;
        }
      }
      const SimTime next = t_g < t_min ? t_g : t_min;
      if (next == SimTime::max() || next > until) break;
      if (t_g <= t_min) {
        serial_step(t_g);
        continue;
      }
      // Parallel window [t_min, end): saturate the additions so an
      // unbounded `until` cannot overflow the int64 microsecond clock.
      SimTime end = t_g;
      if (sat_add(t_min, lookahead_) < end) end = sat_add(t_min, lookahead_);
      if (sat_add(until, usecs(1)) < end) end = sat_add(until, usecs(1));
      run_window(end);
    }
    if (until > now_) now_ = until;
  }

  void run_to_completion() {
    while (!empty()) run_until(SimTime::max());
  }

 private:
  struct Shard {
    EventHeap heap;            // owner: the shard's worker inside a window,
                               // the coordinating thread at barriers
    std::uint64_t seq = 0;     // schedule counter (stamped into keys)
    std::uint64_t executed = 0;
    mutable util::Mutex inbox_mu;
    std::vector<Event> inbox RN_GUARDED_BY(inbox_mu);
  };

  static SimTime sat_add(SimTime a, SimTime b) {
    if (a.us > SimTime::max().us - b.us) return SimTime::max();
    return a + b;
  }

  std::size_t pending_inbox() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      util::MutexLock lock(s->inbox_mu);
      n += s->inbox.size();
    }
    return n;
  }

  void drain_inboxes() {
    for (auto& s : shards_) {
      util::MutexLock lock(s->inbox_mu);
      for (auto& ev : s->inbox) {
        s->heap.push(ev.key, ev.target, std::move(ev.action));
      }
      s->inbox.clear();
    }
  }

  /// Run every event at exactly time `t`, across all heaps, in key order,
  /// on the calling thread. Shards are paused, so global handlers may read
  /// and write shard-owned state.
  void serial_step(SimTime t) {
    if (t > now_) now_ = t;
    if (metrics_ != nullptr) metrics_->incr(obs::names::kSchedSerialSteps);
    for (;;) {
      Shard* best = nullptr;
      for (auto& s : shards_) {
        if (s->heap.empty() || s->heap.top_key().at != t) continue;
        if (best == nullptr || s->heap.top_key() < best->heap.top_key()) {
          best = s.get();
        }
      }
      if (best == nullptr) return;
      Event ev = best->heap.pop_min();
      ++best->executed;
      ExecContext ctx{ev.target, t};
      ExecScope scope(&ctx);
      ev.action();
    }
  }

  void run_window(SimTime end) {
    window_end_ = end;
    parallel_phase_ = true;
    if (metrics_ != nullptr) metrics_->incr(obs::names::kSchedWindows);
    for (Domain d = 0; d < global_; ++d) {
      Shard* s = shards_[d].get();
      if (s->heap.empty() || !(s->heap.top_key().at < end)) continue;
      // Capture 16 B at most, which std::function keeps in place: the
      // window's end is read from window_end_, set above and not written
      // until the window closes.
      pool_.submit([this, d] {
        Shard& shard = *shards_[d];
        const SimTime until = window_end_;
        ExecContext ctx{d, SimTime::zero()};
        ExecScope scope(&ctx);
        while (!shard.heap.empty() && shard.heap.top_key().at < until) {
          Event ev = shard.heap.pop_min();
          ctx.now = ev.key.at;
          ++shard.executed;
          ev.action();
        }
      });
    }
    try {
      pool_.wait_idle();
    } catch (...) {
      parallel_phase_ = false;
      throw;
    }
    parallel_phase_ = false;
    if (end > now_) now_ = end;
  }

  std::vector<std::unique_ptr<Shard>> shards_;  // sized in the constructor
  Domain global_;
  SimTime lookahead_;
  SimTime now_ = SimTime::zero();
  SimTime window_end_ = SimTime::zero();
  bool parallel_phase_ = false;
  obs::Metrics* metrics_ = nullptr;
  util::ThreadPool pool_;
};

}  // namespace ringnet::sim
