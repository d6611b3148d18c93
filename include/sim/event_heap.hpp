#pragma once
// The event container shared by both schedulers: a binary min-heap over a
// plain vector, ordered by a mode-independent event key. Unlike
// std::priority_queue, pop_min() hands the event out by value (the action
// is moved, never const_cast away), and top_key() exposes the ordering key
// without exposing mutable access to the stored action.
//
// The key K = (at, src_domain, src_seq) is what makes the single-heap
// oracle and the domain-sharded engine execute the *same* total order:
// src_seq is a per-source-domain schedule counter, so an event's key
// depends only on (a) its timestamp and (b) how many events its scheduling
// context had scheduled before it — both identical across execution modes.
// Equal-timestamp events from one context keep FIFO order; cross-context
// ties break by domain id, deterministically everywhere.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace ringnet::sim {

/// Execution-context index. Domains 0..D-1 are the parallel shards (one
/// per BR subtree); index D is the serialized global context. A
/// non-sharded simulation has D == 0, so everything runs in context 0.
using Domain = std::uint32_t;

using Action = std::function<void()>;

struct EventKey {
  SimTime at = SimTime::zero();
  Domain src = 0;          // scheduling context
  std::uint64_t seq = 0;   // per-src monotone schedule counter

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

struct Event {
  EventKey key;
  Domain target = 0;  // context this event executes in
  Action action;
};

/// Binary min-heap keyed by EventKey. pop_min() returns the minimum event
/// by value; no const_cast, no UB-adjacent move-from-top.
class EventHeap {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const EventKey& top_key() const { return v_.front().key; }

  void push(Event ev) {
    v_.push_back(std::move(ev));
    sift_up(v_.size() - 1);
  }

  Event pop_min() {
    Event out = std::move(v_.front());
    if (v_.size() > 1) {
      v_.front() = std::move(v_.back());
      v_.pop_back();
      sift_down(0);
    } else {
      v_.pop_back();
    }
    return out;
  }

 private:
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(v_[i].key < v_[parent].key)) break;
      std::swap(v_[i], v_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = v_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && v_[l].key < v_[best].key) best = l;
      if (r < n && v_[r].key < v_[best].key) best = r;
      if (best == i) return;
      std::swap(v_[i], v_[best]);
      i = best;
    }
  }

  std::vector<Event> v_;
};

/// The context an event is currently executing in, published thread-locally
/// by whichever scheduler is driving this thread. Simulation routes rng(),
/// record() and now() through it so protocol code is context-oblivious.
struct ExecContext {
  Domain domain = 0;
  SimTime now = SimTime::zero();
};

inline thread_local const ExecContext* tls_exec_ctx = nullptr;

/// RAII publish/restore of the executing context for one event batch.
class ExecScope {
 public:
  explicit ExecScope(const ExecContext* ctx) : prev_(tls_exec_ctx) {
    tls_exec_ctx = ctx;
  }
  ~ExecScope() { tls_exec_ctx = prev_; }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  const ExecContext* prev_;
};

}  // namespace ringnet::sim
