// MessageQueue (MQ) semantics: in-order and reverse-window acks, duplicate
// and stale rejection, retention / ValidFront pruning, gap skipping, the
// high-water and the gseq-order forward cursor; then a randomized run of
// each engine's release rule against a brute-force model, and of the
// AckFloor member counts against a brute-force minimum.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/message_queue.hpp"
#include "ringnet_test.hpp"
#include "util/rng.hpp"

using namespace ringnet;

namespace {

proto::DataMsg mk(GlobalSeq g) {
  proto::DataMsg m;
  m.gid = GroupId{1};
  m.source = NodeId{1};
  m.lseq = g;
  m.gseq = g;
  return m;
}

const sim::SimTime t0{0};

std::vector<GlobalSeq> forwarded(core::MessageQueue& mq) {
  std::vector<GlobalSeq> out;
  mq.forward_in_order([&](const proto::DataMsg& m) { out.push_back(m.gseq); });
  return out;
}

}  // namespace

TEST(in_order_ack) {
  core::MessageQueue mq(8);
  for (GlobalSeq g = 0; g < 5; ++g) CHECK(mq.store(mk(g), t0) != nullptr);
  mq.ack_to(5);
  CHECK_EQ(mq.next_expected(), GlobalSeq{5});
  CHECK_EQ(mq.size(), std::size_t{5});  // all within retention
  CHECK_EQ(mq.high_water().next_gseq(), GlobalSeq{5});
}

TEST(worst_case_out_of_order_window) {
  // Reverse arrival inside a 512-wide window: nothing is ackable until
  // gseq 0 lands, then the whole window opens at once.
  core::MessageQueue mq(16);
  const GlobalSeq window = 512;
  for (GlobalSeq i = window; i-- > 1;) CHECK(mq.store(mk(i), t0) != nullptr);
  CHECK_EQ(mq.size(), static_cast<std::size_t>(window - 1));
  mq.ack_to(window);
  CHECK_EQ(mq.next_expected(), GlobalSeq{0});  // stops at the hole
  CHECK(forwarded(mq).empty());
  CHECK(mq.store(mk(0), t0) != nullptr);
  CHECK_EQ(forwarded(mq).size(), static_cast<std::size_t>(window));
  mq.ack_to(window);
  CHECK_EQ(mq.next_expected(), window);
  // Retention bounds what survives the ack.
  CHECK_EQ(mq.size(), std::size_t{16});
  CHECK_EQ(mq.valid_front(), window - 16);
}

TEST(store_stamps_the_stored_copy_and_notes_the_high_water) {
  core::MessageQueue mq(8);
  const proto::DataMsg* m = mq.store(mk(3), sim::SimTime{42});
  CHECK(m != nullptr);
  CHECK_EQ(m->relay_rx_at.us, std::int64_t{42});
  CHECK_EQ(mq.find(3), m);
  mq.store(mk(0), t0);
  mq.store(mk(5), t0);
  CHECK_EQ(mq.high_water().next_gseq(), GlobalSeq{6});
}

TEST(duplicates_and_stale_rejected) {
  core::MessageQueue mq(4);
  CHECK(mq.store(mk(0), t0) != nullptr);
  CHECK(mq.store(mk(0), sim::SimTime{1}) == nullptr);
  CHECK_EQ(mq.find(0)->relay_rx_at.us, std::int64_t{0});  // first copy kept
  mq.ack_to(1);
  // Re-store of an acked gseq is stale, even while it is retained.
  CHECK(mq.contains(0));
  CHECK(mq.store(mk(0), sim::SimTime{2}) == nullptr);
}

TEST(zero_retention_prunes_immediately) {
  core::MessageQueue mq(0);
  for (GlobalSeq g = 0; g < 10; ++g) mq.store(mk(g), t0);
  mq.ack_to(10);
  CHECK_EQ(mq.size(), std::size_t{0});
  CHECK(mq.find(9) == nullptr);
  CHECK_EQ(mq.valid_front(), GlobalSeq{10});
}

TEST(valid_front_ignores_front_hole) {
  // An oldest entry above next_expected means the front is merely in
  // flight, not pruned: the queue must not claim it cannot serve it.
  core::MessageQueue mq(4);
  mq.store(mk(5), t0);
  CHECK_EQ(mq.valid_front(), GlobalSeq{0});
  // Once 0..5 are acked and pruned past, the front really moves.
  for (GlobalSeq g = 0; g < 5; ++g) mq.store(mk(g), t0);
  mq.ack_to(6);
  CHECK_EQ(mq.valid_front(), GlobalSeq{2});  // retention 4 behind cursor 6
}

TEST(skip_to_advances_cursor_and_never_rewinds) {
  core::MessageQueue mq(4);
  mq.store(mk(100), t0);
  mq.skip_to(100);
  CHECK_EQ(mq.next_expected(), GlobalSeq{100});
  CHECK_EQ(mq.valid_front(), GlobalSeq{100});  // the holes below are gone
  mq.skip_to(50);
  CHECK_EQ(mq.next_expected(), GlobalSeq{100});
  CHECK(mq.store(mk(99), t0) == nullptr);  // stale behind the skip
  CHECK_EQ(forwarded(mq), std::vector<GlobalSeq>{100});
}

TEST(keep_newest_moves_the_ack_and_forward_cursors) {
  // The window rule (runtime BRs, memberless sim BRs): keep the newest
  // gseqs, holes included.
  core::MessageQueue mq;
  for (GlobalSeq g = 0; g < 4; ++g) mq.store(mk(g), t0);
  mq.store(mk(6), t0);
  CHECK_EQ(forwarded(mq), (std::vector<GlobalSeq>{0, 1, 2, 3}));
  CHECK_EQ(mq.forward_next(), GlobalSeq{4});
  mq.keep_newest(2);  // keeps gseqs 5 and 6
  CHECK_EQ(mq.next_expected(), GlobalSeq{5});
  CHECK_EQ(mq.valid_front(), GlobalSeq{5});
  CHECK_EQ(mq.size(), std::size_t{1});
  CHECK(mq.store(mk(4), t0) == nullptr);  // below the cursor
  CHECK(forwarded(mq).empty());           // cursor jumps to 5, a hole
  CHECK(mq.store(mk(5), t0) != nullptr);
  CHECK_EQ(forwarded(mq), (std::vector<GlobalSeq>{5, 6}));
  CHECK_EQ(mq.high_water().next_gseq(), GlobalSeq{7});
}

namespace {

// What the MQ must show, kept the obvious way: every stored, unreleased
// message in a map, the cursors as plain numbers.
struct Model {
  std::map<GlobalSeq, std::int64_t> held;  // gseq -> relay stamp
  GlobalSeq acked = 0;
  GlobalSeq next_gseq = 0;
  GlobalSeq fwd = 0;
  std::size_t retention = 0;

  bool store(GlobalSeq g, std::int64_t now) {
    if (g < acked || held.count(g) != 0) return false;
    held.emplace(g, now);
    next_gseq = std::max(next_gseq, g + 1);
    return true;
  }
  void release() {
    if (acked <= retention) return;
    held.erase(held.begin(), held.lower_bound(acked - retention));
  }
  void ack_to(GlobalSeq floor) {
    while (acked < floor && held.count(acked) != 0) ++acked;
    release();
  }
  void skip_to(GlobalSeq g) {
    acked = std::max(acked, g);
    release();
  }
  void keep_newest(std::size_t window) {
    if (next_gseq > window) skip_to(next_gseq - window);
  }
  // The paper's ValidFront: the oldest held message, unless the ack cursor
  // is older still.
  GlobalSeq valid_front() const {
    return held.empty() ? acked : std::min(acked, held.begin()->first);
  }
  std::vector<GlobalSeq> forward() {
    std::vector<GlobalSeq> out;
    fwd = std::max(fwd, acked);
    for (; held.count(fwd) != 0; ++fwd) out.push_back(fwd);
    return out;
  }
};

// Runs `ops` random calls on one MQ; `ack_rule` picks the simulator's
// release rule (ack_to, skip_to), otherwise the runtime's (keep_newest
// after every store).
// Returns the number of mismatches against the model.
int run_against_model(std::uint64_t seed, bool ack_rule, int ops) {
  util::Rng rng(seed);
  const std::size_t retention = rng.bounded(12);
  const std::size_t window = rng.bounded(20);
  core::MessageQueue mq(ack_rule ? retention : 0);
  Model model;
  model.retention = ack_rule ? retention : 0;
  int bad = 0;
  const auto expect = [&bad](bool ok) { bad += ok ? 0 : 1; };
  GlobalSeq next = 0;  // the next gseq never offered yet
  for (int op = 0; op < ops; ++op) {
    const auto now = static_cast<std::int64_t>(op);
    const std::uint64_t pick = rng.bounded(100);
    if (pick < 70) {
      GlobalSeq g;
      if (pick < 30) {
        g = next;  // in order
      } else if (pick < 50) {
        g = next + rng.bounded(12);  // out of order: leaves holes
      } else if (pick < 60 && !model.held.empty()) {
        auto it = model.held.begin();  // duplicate
        for (auto k = rng.bounded(model.held.size()); k > 0; --k) ++it;
        g = it->first;
      } else {
        g = next - std::min<GlobalSeq>(next, rng.bounded(24));  // maybe stale
      }
      next = std::max(next, g + 1);
      const proto::DataMsg* got = mq.store(mk(g), sim::SimTime{now});
      const bool want = model.store(g, now);
      expect((got != nullptr) == want);
      if (got != nullptr) {
        expect(got->gseq == g && got->relay_rx_at.us == now);
        if (!ack_rule) {
          mq.keep_newest(window);
          model.keep_newest(window);
        }
      }
    } else if (pick < 85) {
      std::vector<GlobalSeq> got;
      mq.forward_in_order(
          [&](const proto::DataMsg& m) { got.push_back(m.gseq); });
      expect(got == model.forward());
    } else if (!ack_rule) {
      // The window rule releases only after a store.
    } else if (pick < 95) {
      const GlobalSeq floor = model.acked + rng.bounded(16);
      mq.ack_to(floor);
      model.ack_to(floor);
    } else {
      // Forward over holes, or (never rewinding) behind the cursor.
      const GlobalSeq up = model.acked + rng.bounded(24);
      const GlobalSeq g = up > 8 ? up - 8 : 0;
      mq.skip_to(g);
      model.skip_to(g);
      next = std::max(next, model.acked);
    }
    expect(mq.size() == model.held.size());
    expect(mq.next_expected() == model.acked);
    expect(mq.valid_front() == model.valid_front());
    expect(mq.high_water().next_gseq() == model.next_gseq);
    expect(mq.forward_next() == model.fwd);
    const GlobalSeq lo = next > 40 ? next - 40 : 0;
    for (GlobalSeq g = lo; g < next + 4; ++g) {
      const auto it = model.held.find(g);
      const proto::DataMsg* m = mq.find(g);
      expect(mq.contains(g) == (it != model.held.end()));
      expect((m != nullptr) == (it != model.held.end()));
      if (m != nullptr && it != model.held.end()) {
        expect(m->gseq == g && m->relay_rx_at.us == it->second);
      }
    }
    if (bad != 0) {
      std::printf("  seed %llu (%s rule) diverged at op %d\n",
                  static_cast<unsigned long long>(seed),
                  ack_rule ? "ack" : "window", op);
      return bad;
    }
  }
  return 0;
}

}  // namespace

TEST(random_calls_match_a_brute_force_model) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    CHECK_EQ(run_against_model(seed, /*ack_rule=*/true, 400), 0);
    CHECK_EQ(run_against_model(seed, /*ack_rule=*/false, 400), 0);
  }
}

namespace {

// Runs `ops` random add/raise/remove calls on one AckFloor and checks it
// against the obvious multiset, every member's watermark in a vector, after
// each call. Watermarks start in a narrow range and rise by small steps, so
// members often share one. Returns the number of mismatches.
int run_floor_against_model(std::uint64_t seed, int ops) {
  util::Rng rng(seed);
  core::AckFloor floor;
  std::vector<GlobalSeq> members;
  int bad = 0;
  const auto expect = [&bad](bool ok) { bad += ok ? 0 : 1; };
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.bounded(100);
    if (members.empty() || pick < 35) {
      const GlobalSeq wm = rng.bounded(8);  // attach, maybe below the floor
      floor.add(wm);
      members.push_back(wm);
    } else {
      const auto i = static_cast<std::size_t>(rng.bounded(members.size()));
      if (pick < 75) {
        const GlobalSeq to = members[i] + 1 + rng.bounded(3);  // an ack
        floor.raise(members[i], to);
        members[i] = to;
      } else {
        floor.remove(members[i]);  // detach
        members[i] = members.back();
        members.pop_back();
      }
    }
    expect(floor.empty() == members.empty());
    if (!members.empty()) {
      expect(floor.floor() ==
             *std::min_element(members.begin(), members.end()));
    }
    if (bad != 0) {
      std::printf("  seed %llu diverged at op %d\n",
                  static_cast<unsigned long long>(seed), op);
      return bad;
    }
  }
  return 0;
}

}  // namespace

TEST(ack_floor_matches_the_member_minimum) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    CHECK_EQ(run_floor_against_model(seed, 400), 0);
  }
}

TEST_MAIN()
