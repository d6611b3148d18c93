// Event-heap scheduler: timestamp ordering, FIFO tie-breaking (the
// determinism keystone), run_until horizon semantics, re-entrant
// scheduling from inside handlers, the pop order of the 4-ary slot heap
// against a sorted reference, and the event core's allocation contract:
// in place for small captures, spilled and destroyed once for large and
// move-only ones.

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <tuple>
#include <vector>

#include "ringnet_test.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

using namespace ringnet;

// Test-local allocation tally: every operator new in this binary counts
// while `g_counting` is set.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

TEST(orders_by_timestamp) {
  sim::Scheduler s;
  std::vector<int> order;
  s.schedule_at(sim::SimTime{30}, [&] { order.push_back(3); });
  s.schedule_at(sim::SimTime{10}, [&] { order.push_back(1); });
  s.schedule_at(sim::SimTime{20}, [&] { order.push_back(2); });
  s.run_to_completion();
  CHECK_EQ(order.size(), std::size_t{3});
  CHECK_EQ(order[0], 1);
  CHECK_EQ(order[1], 2);
  CHECK_EQ(order[2], 3);
  CHECK_EQ(s.now().us, std::int64_t{30});
}

TEST(equal_timestamps_run_fifo) {
  sim::Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(sim::SimTime{5}, [&order, i] { order.push_back(i); });
  }
  s.run_to_completion();
  for (int i = 0; i < 100; ++i) CHECK_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(run_until_respects_horizon) {
  sim::Scheduler s;
  int fired = 0;
  s.schedule_at(sim::SimTime{10}, [&] { ++fired; });
  s.schedule_at(sim::SimTime{20}, [&] { ++fired; });
  s.schedule_at(sim::SimTime{30}, [&] { ++fired; });
  s.run_until(sim::SimTime{20});
  CHECK_EQ(fired, 2);
  CHECK_EQ(s.now().us, std::int64_t{20});
  CHECK_EQ(s.pending(), std::size_t{1});
  s.run_until(sim::SimTime{100});
  CHECK_EQ(fired, 3);
  CHECK_EQ(s.now().us, std::int64_t{100});  // advances past the last event
}

TEST(reentrant_scheduling) {
  sim::Scheduler s;
  std::vector<std::int64_t> at;
  // Each handler schedules its successor; the chain must run in-order
  // within a single run_to_completion.
  std::function<void()> chain = [&] {
    at.push_back(s.now().us);
    if (at.size() < 5) s.schedule_at(sim::SimTime{s.now().us + 7}, chain);
  };
  s.schedule_at(sim::SimTime{0}, chain);
  s.run_to_completion();
  CHECK_EQ(at.size(), std::size_t{5});
  for (std::size_t i = 0; i < at.size(); ++i) {
    CHECK_EQ(at[i], static_cast<std::int64_t>(7 * i));
  }
}

TEST(same_time_event_from_handler_still_runs) {
  sim::Scheduler s;
  bool inner = false;
  s.schedule_at(sim::SimTime{10}, [&] {
    s.schedule_at(sim::SimTime{10}, [&] { inner = true; });
  });
  s.run_until(sim::SimTime{10});
  CHECK(inner);
}

namespace {

// One sim-e13 shard's ack chains: a self-rescheduling timer whose capture
// is 24 bytes, like the protocol's [this, mh, gen].
struct AckTimer {
  sim::Scheduler* s;
  std::uint64_t id;
  std::uint64_t period_us;

  void operator()() const {
    s->schedule_at(s->now() + sim::usecs(static_cast<std::int64_t>(period_us)),
                   AckTimer{*this});
  }
};
static_assert(sizeof(AckTimer) == 24);

// Counts its own destruction once, however often it was moved.
struct DestroyCount {
  int* destroyed;
  bool owner = true;

  explicit DestroyCount(int* d) : destroyed(d) {}
  DestroyCount(DestroyCount&& o) noexcept
      : destroyed(o.destroyed), owner(o.owner) {
    o.owner = false;
  }
  DestroyCount(const DestroyCount&) = delete;
  DestroyCount& operator=(const DestroyCount&) = delete;
  DestroyCount& operator=(DestroyCount&&) = delete;
  ~DestroyCount() {
    if (owner) ++*destroyed;
  }
};

}  // namespace

TEST(steady_state_allocates_nothing) {
  constexpr std::uint64_t kPending = 6250;
  constexpr std::uint64_t kSteps = 100000;
  sim::Scheduler s;
  for (std::uint64_t i = 0; i < kPending; ++i) {
    s.schedule_at(sim::usecs(static_cast<std::int64_t>(i % 1000)),
                  AckTimer{&s, i, 1000 + i % 97});
  }
  // Warm-up: the heap, slot and free-list vectors reach their sizes.
  const auto run_steps = [&s](std::uint64_t steps) {
    const std::uint64_t until = s.executed() + steps;
    while (s.executed() < until) s.run_until(s.now() + sim::usecs(1));
  };
  run_steps(2 * kPending);
  const std::uint64_t before = s.executed();
  g_allocs = 0;
  g_counting = true;
  run_steps(kSteps);
  g_counting = false;
  CHECK(s.executed() - before >= kSteps);
  CHECK_EQ(s.pending(), std::size_t{kPending});
  CHECK_EQ(g_allocs.load(), std::uint64_t{0});
}

TEST(spilled_and_move_only_captures_run_once) {
  int big_runs = 0;
  int owned_runs = 0;
  std::array<unsigned char, sim::Action::kInlineBytes + 16> pad{};
  pad[0] = 1;
  {
    sim::Scheduler s;
    s.schedule_at(sim::SimTime{1}, [&big_runs, pad] { big_runs += pad[0]; });
    auto owned = std::make_unique<int>(5);
    s.schedule_at(sim::SimTime{2}, [&owned_runs, p = std::move(owned)] {
      owned_runs += *p == 5 ? 1 : 100;
    });
    s.run_to_completion();
  }
  CHECK_EQ(big_runs, 1);
  CHECK_EQ(owned_runs, 1);

  // A capture is destroyed exactly once whether it ran or was still
  // pending when the scheduler died, in place or spilled.
  int ran = 0;
  int destroyed_small = 0;
  int destroyed_big = 0;
  int pending_small = 0;
  int pending_big = 0;
  {
    sim::Scheduler s;
    s.schedule_at(sim::SimTime{1},
                  [c = DestroyCount(&destroyed_small), &ran] { ++ran; });
    s.schedule_at(sim::SimTime{2},
                  [c = DestroyCount(&destroyed_big), pad, &ran] {
                    ran += 10 * pad[0];
                  });
    s.schedule_at(sim::SimTime{100},
                  [c = DestroyCount(&pending_small), &ran] { ++ran; });
    s.schedule_at(sim::SimTime{100},
                  [c = DestroyCount(&pending_big), pad, &ran] { ++ran; });
    s.run_until(sim::SimTime{10});
    CHECK_EQ(ran, 11);
    CHECK_EQ(destroyed_small, 1);
    CHECK_EQ(destroyed_big, 1);
    CHECK_EQ(pending_small, 0);
    CHECK_EQ(pending_big, 0);
  }
  CHECK_EQ(ran, 11);
  CHECK_EQ(destroyed_small, 1);
  CHECK_EQ(destroyed_big, 1);
  CHECK_EQ(pending_small, 1);
  CHECK_EQ(pending_big, 1);
}

TEST(heap_pops_in_sorted_key_order) {
  // Random interleaved pushes and pops, with many equal timestamps from
  // several source contexts and popped slots reused by later pushes, must
  // pop in the order of a sorted reference of the keys.
  util::Rng rng(2024);
  sim::EventHeap heap;
  using Key = std::tuple<std::int64_t, sim::Domain, std::uint64_t>;
  std::set<Key> reference;
  std::array<std::uint64_t, 4> seq{};
  std::uint64_t ran_seq = 0;
  bool ok = true;
  const auto pop_one = [&] {
    const Key want = *reference.begin();
    reference.erase(reference.begin());
    sim::Event ev = heap.pop_min();
    ev.action();
    ok = ok && Key{ev.key.at.us, ev.key.src, ev.key.seq} == want &&
         ev.target == ev.key.src + 1 && ran_seq == ev.key.seq;
  };
  for (int op = 0; op < 20000; ++op) {
    if (!reference.empty() && rng.chance(0.45)) {
      pop_one();
      continue;
    }
    const auto src = static_cast<sim::Domain>(rng.next() % seq.size());
    const auto at = static_cast<std::int64_t>(rng.next() % 50);
    const sim::EventKey key{sim::SimTime{at}, src, seq[src]++};
    reference.insert(Key{key.at.us, key.src, key.seq});
    heap.push(key, src + 1, [&ran_seq, k = key.seq] { ran_seq = k; });
  }
  while (!reference.empty()) pop_one();
  CHECK(ok);
  CHECK(heap.empty());
}

TEST_MAIN()
