// MessageQueue (MQ) semantics: contiguous delivery, worst-case
// out-of-order gap windows, duplicate rejection, retention / ValidFront
// pruning, and gap skipping.

#include "core/message_queue.hpp"
#include "ringnet_test.hpp"

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

}  // namespace

TEST(in_order_delivery) {
  core::MessageQueue mq(8);
  for (GlobalSeq g = 0; g < 5; ++g) CHECK(mq.store(mk(g), sim::SimTime{0}));
  for (GlobalSeq g = 0; g < 5; ++g) mq.mark_delivered(g);
  CHECK_EQ(mq.next_expected(), GlobalSeq{5});
}

TEST(worst_case_out_of_order_window) {
  // Reverse arrival inside a 512-wide window: nothing is deliverable until
  // gseq 0 lands, then the whole window opens at once.
  core::MessageQueue mq(16);
  const GlobalSeq window = 512;
  for (GlobalSeq i = window; i-- > 1;) {
    CHECK(mq.store(mk(i), sim::SimTime{0}));
  }
  CHECK_EQ(mq.size(), static_cast<std::size_t>(window - 1));
  CHECK(mq.store(mk(0), sim::SimTime{0}));
  for (GlobalSeq i = 0; i < window; ++i) mq.mark_delivered(i);
  CHECK_EQ(mq.next_expected(), window);
  // Retention bounds what survives delivery.
  CHECK_EQ(mq.size(), std::size_t{16});
  CHECK_EQ(mq.valid_front(), window - 16);
}

TEST(gap_list_and_max_seen) {
  core::MessageQueue mq(8);
  mq.store(mk(0), sim::SimTime{0});
  mq.store(mk(3), sim::SimTime{0});
  mq.store(mk(5), sim::SimTime{0});
  CHECK_EQ(mq.max_seen(), GlobalSeq{5});
}

TEST(duplicates_rejected) {
  core::MessageQueue mq(4);
  CHECK(mq.store(mk(0), sim::SimTime{0}));
  CHECK(!mq.store(mk(0), sim::SimTime{1}));
  mq.mark_delivered(0);
  // Re-store of an already-delivered gseq is stale.
  CHECK(!mq.store(mk(0), sim::SimTime{2}));
}

TEST(zero_retention_prunes_immediately) {
  core::MessageQueue mq(0);
  for (GlobalSeq g = 0; g < 10; ++g) mq.store(mk(g), sim::SimTime{0});
  for (GlobalSeq g = 0; g < 10; ++g) mq.mark_delivered(g);
  CHECK(mq.empty());
  CHECK_EQ(mq.valid_front(), GlobalSeq{10});
}

TEST(valid_front_ignores_front_hole) {
  // An oldest entry above next_expected means the front is merely in
  // flight, not pruned: the queue must not claim it cannot serve it.
  core::MessageQueue mq(4);
  mq.store(mk(5), sim::SimTime{0});
  CHECK_EQ(mq.valid_front(), GlobalSeq{0});
  // Once 0..5 are delivered and pruned past, the front really moves.
  for (GlobalSeq g = 0; g < 5; ++g) mq.store(mk(g), sim::SimTime{0});
  for (GlobalSeq g = 0; g <= 5; ++g) mq.mark_delivered(g);
  CHECK_EQ(mq.valid_front(), GlobalSeq{2});  // retention 4 behind wm 5
}

TEST(skip_to_advances_cursor) {
  core::MessageQueue mq(4);
  mq.store(mk(100), sim::SimTime{0});
  mq.skip_to(100);
  CHECK_EQ(mq.next_expected(), GlobalSeq{100});
  // skip_to never rewinds.
  mq.skip_to(50);
  CHECK_EQ(mq.next_expected(), GlobalSeq{100});
}

TEST(stored_at_visible_until_pruned) {
  core::MessageQueue mq(0);
  mq.store(mk(0), sim::SimTime{42});
  CHECK(mq.stored_at(0).has_value());
  CHECK_EQ(mq.stored_at(0)->us, std::int64_t{42});
  mq.mark_delivered(0);
  CHECK(!mq.stored_at(0).has_value());
}

TEST_MAIN()
