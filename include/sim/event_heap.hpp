#pragma once
// The event container shared by both schedulers: a 4-ary min-heap ordered
// by a mode-independent event key. pop_min() hands the event out by value
// (the action is moved, never const_cast away), and top_key() exposes the
// ordering key without exposing mutable access to the stored action.
//
// The key K = (at, src_domain, src_seq) is what makes the single-heap
// oracle and the domain-sharded engine execute the *same* total order:
// src_seq is a per-source-domain schedule counter, so an event's key
// depends only on (a) its timestamp and (b) how many events its scheduling
// context had scheduled before it — both identical across execution modes.
// Equal-timestamp events from one context keep FIFO order; cross-context
// ties break by domain id, deterministically everywhere. Keys are unique,
// so the pop order is the sorted key order whatever the heap's shape.
//
// The heap itself holds 32-byte (key, slot) nodes, moved through a hole
// rather than swapped. Each event's target and action wait in a slot
// vector with a free list, so a pending event is moved twice (into its
// slot, out of it) whatever its depth, and a popped slot is reused by the
// next push without an allocation.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace ringnet::sim {

/// Execution-context index. Domains 0..D-1 are the parallel shards (one
/// per BR subtree); index D is the serialized global context. A
/// non-sharded simulation has D == 0, so everything runs in context 0.
using Domain = std::uint32_t;

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

/// 4-ary min-heap keyed by EventKey. pop_min() returns the minimum event
/// by value: running it may push events and grow the slot vector, so the
/// action must not run from inside its slot.
class EventHeap {
 public:
  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return nodes_.size(); }
  const EventKey& top_key() const { return nodes_.front().key; }

  void push(const EventKey& key, Domain target, Action&& action) {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(action), target});
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].action = std::move(action);
      slots_[slot].target = target;
    }
    nodes_.push_back(Node{});  // the hole starts at the new leaf
    sift_up(nodes_.size() - 1, Node{key, slot});
  }

  Event pop_min() {
    const Node top = nodes_.front();
    Slot& s = slots_[top.slot];
    Event out{top.key, s.target, std::move(s.action)};
    free_.push_back(top.slot);
    const Node last = nodes_.back();
    nodes_.pop_back();
    if (!nodes_.empty()) sift_down(last);
    return out;
  }

 private:
  static constexpr std::size_t kArity = 4;

  struct Node {
    EventKey key;
    std::uint32_t slot = 0;
  };

  struct Slot {
    Action action;
    Domain target = 0;
  };

  /// Moves parents down into the hole at `i` until `node` fits there.
  void sift_up(std::size_t i, const Node& node) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(node.key < nodes_[parent].key)) break;
      nodes_[i] = nodes_[parent];
      i = parent;
    }
    nodes_[i] = node;
  }

  /// Moves the smallest child up into the hole at the root until `node`
  /// fits there.
  void sift_down(const Node& node) {
    const std::size_t n = nodes_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t stop = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < stop; ++c) {
        if (nodes_[c].key < nodes_[best].key) best = c;
      }
      if (!(nodes_[best].key < node.key)) break;
      nodes_[i] = nodes_[best];
      i = best;
    }
    nodes_[i] = node;
  }

  std::vector<Node> nodes_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // slots of popped events, reused LIFO
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
