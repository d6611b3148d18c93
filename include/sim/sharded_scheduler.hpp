#pragma once
// Domain-sharded conservative parallel scheduler. One event heap per BR
// subtree (shards 0..D-1) plus a serialized global context (index D) for
// everything ring-wide: token hops, heartbeats/ring repair, mobility and
// churn, fault injection, archive maintenance.
//
// Execution alternates between two phases, both bounded by event keys:
//
//  * serial step — when the next global event's key sorts below every
//    shard's next key, shards stay paused and the global events at that
//    timestamp run on the calling thread, in key order, for as long as the
//    global top key stays below every shard's top key. Only global events
//    run here. Every event with a smaller key has run and none with a
//    larger key has, exactly as in the single heap, so global handlers may
//    touch any state; this is the synchronization point at top-ring token
//    hops.
//
//  * parallel window — otherwise, every shard independently executes its
//    events with key < window_end on the thread pool, where window_end is
//    the least of the next global event's key, (t_min + lookahead, 0, 0)
//    and (until + 1 us, 0, 0): the window is
//    [t_min, min(t_min + lookahead, next global key)). A shard event that
//    shares its timestamp with a global event therefore runs on a worker
//    too, in the window before or after that event as its key says. The
//    conservative lookahead is the inter-domain latency floor: a shard
//    event at local time u can only affect another shard at >= u + L, so
//    no shard can receive anything that lands inside the current window.
//
// Cross-context schedules made *during* a window go through a per-shard
// mutex-protected inbox and are ingested at the next barrier. Each must
// sort at or after window_end (the lookahead contract in key form), or
// schedule() throws std::logic_error in every build. Events are keyed
// exactly as in the single-heap Scheduler, so both engines execute
// identical per-context event sequences — the oracle equivalence the
// tests assert.

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
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
      // cannot sort inside the open window.
      if (key < window_end_) throw_contract_violation(src, target, key);
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
      const EventKey k_g = top_key(global_);
      const EventKey k_min = least_shard_key();
      const SimTime next = k_g < k_min ? k_g.at : k_min.at;
      if (next == SimTime::max() || next > until) break;
      if (k_g < k_min) {
        serial_step();
        continue;
      }
      // Parallel window [t_min, end): saturate the additions so an
      // unbounded `until` cannot overflow the int64 microsecond clock.
      EventKey end = k_g;
      const EventKey horizon{sat_add(k_min.at, lookahead_), 0, 0};
      if (horizon < end) end = horizon;
      const EventKey stop{sat_add(until, usecs(1)), 0, 0};
      if (stop < end) end = stop;
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

  /// The key of context `ctx`'s next event; kNoEvent when it has none.
  EventKey top_key(Domain ctx) const {
    const EventHeap& heap = shards_[ctx]->heap;
    return heap.empty() ? kNoEvent : heap.top_key();
  }

  EventKey least_shard_key() const {
    EventKey least = kNoEvent;
    for (Domain d = 0; d < global_; ++d) {
      const EventKey k = top_key(d);
      if (k < least) least = k;
    }
    return least;
  }

  /// Run the global events at the global top key's timestamp, in key
  /// order on the calling thread, while they sort below every shard's top
  /// key. Shards are paused, so global handlers may read and write
  /// shard-owned state; what they schedule into a shard may lower its top
  /// key, so the shard keys are re-read after each event.
  void serial_step() {
    if (metrics_ != nullptr) metrics_->incr(obs::names::kSchedSerialSteps);
    Shard& g = *shards_[global_];
    const SimTime t = g.heap.top_key().at;
    if (t > now_) now_ = t;
    ExecContext ctx{global_, t};
    ExecScope scope(&ctx);
    do {
      Event ev = g.heap.pop_min();
      ++g.executed;
      ev.action();
    } while (!g.heap.empty() && g.heap.top_key().at == t &&
             g.heap.top_key() < least_shard_key());
  }

  void run_window(const EventKey& end) {
    window_end_ = end;
    parallel_phase_ = true;
    if (metrics_ != nullptr) metrics_->incr(obs::names::kSchedWindows);
    for (Domain d = 0; d < global_; ++d) {
      if (!(top_key(d) < end)) continue;
      // Capture 16 B at most, which std::function keeps in place: the
      // window's end is read from window_end_, set above and not written
      // until the window closes.
      pool_.submit([this, d] {
        Shard& shard = *shards_[d];
        const EventKey until = window_end_;
        ExecContext ctx{d, SimTime::zero()};
        ExecScope scope(&ctx);
        while (!shard.heap.empty() && shard.heap.top_key() < until) {
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
    if (end.at > now_) now_ = end.at;
  }

  /// Thrown on a worker inside a window; ThreadPool::wait_idle() rethrows
  /// it from run_window() on the calling thread.
  [[noreturn]] [[gnu::cold]] void throw_contract_violation(
      Domain src, Domain target, const EventKey& key) const {
    const auto str = [](const EventKey& k) {
      return "(" + std::to_string(k.at.us) + " us, ctx " +
             std::to_string(k.src) + ", seq " + std::to_string(k.seq) + ")";
    };
    throw std::logic_error(
        "sharded scheduler: context " + std::to_string(src) +
        " scheduled into context " + std::to_string(target) + " at key " +
        str(key) + ", below the open window's end key " + str(window_end_) +
        "; a cross-context event must sort at or after the window's end "
        "(the lookahead contract)");
  }

  // Sorts after every real key: the top key of an empty heap.
  static constexpr EventKey kNoEvent{
      SimTime::max(), std::numeric_limits<Domain>::max(),
      std::numeric_limits<std::uint64_t>::max()};

  std::vector<std::unique_ptr<Shard>> shards_;  // sized in the constructor
  Domain global_;
  SimTime lookahead_;
  SimTime now_ = SimTime::zero();
  EventKey window_end_;
  bool parallel_phase_ = false;
  obs::Metrics* metrics_ = nullptr;
  util::ThreadPool pool_;
};

}  // namespace ringnet::sim
