// The shared Message-Ordering step: WorkingQueue::assign binds queued
// messages in FIFO order to contiguous gseqs, the ordering node, the
// token's epoch, the assignment time and per-group seqs, and drains the
// queue. SeqHighWater seeds a regenerated token past every stored message.

#include "core/message_queue.hpp"
#include "core/working_queue.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

const NodeId kBr = NodeId::make(Tier::BR, 2);

proto::DataMsg mk(std::uint32_t source, LocalSeq lseq,
                  std::initializer_list<std::uint32_t> groups = {}) {
  proto::DataMsg m;
  m.source = NodeId{source};
  m.lseq = lseq;
  for (const std::uint32_t g : groups) m.groups.insert(GroupId{g});
  return m;
}

}  // namespace

TEST(assign_binds_in_fifo_order) {
  core::WorkingQueue wq;
  wq.add(mk(1, 0));
  wq.add(mk(2, 0));
  wq.add(mk(1, 1));
  CHECK_EQ(wq.size(), std::size_t{3});

  proto::OrderingToken token(GroupId{1}, 4);
  token.set_next_gseq(100);
  const auto out = wq.assign(token, kBr, sim::usecs(250));
  CHECK_EQ(out.size(), std::size_t{3});
  CHECK(wq.empty());
  // FIFO: arrival order defines gseq order, contiguous from the token's
  // next gseq.
  CHECK_EQ(out[0].source.v, std::uint32_t{1});
  CHECK_EQ(out[1].source.v, std::uint32_t{2});
  CHECK_EQ(out[2].lseq, LocalSeq{1});
  for (std::size_t i = 0; i < out.size(); ++i) {
    CHECK_EQ(out[i].gseq, GlobalSeq{100 + i});
    CHECK_EQ(out[i].ordering_node.v, kBr.v);
    CHECK_EQ(out[i].epoch, std::uint64_t{4});
    CHECK(out[i].assigned_at == sim::usecs(250));
  }
  CHECK_EQ(token.next_gseq(), GlobalSeq{103});
  // The WTSNP table records each binding.
  CHECK_EQ(*token.lookup(NodeId{1}, 1), GlobalSeq{102});
}

TEST(assign_stamps_per_group_seqs) {
  core::WorkingQueue wq;
  wq.add(mk(1, 0, {2, 5}));
  wq.add(mk(1, 1, {5}));
  wq.add(mk(2, 0));  // single-group message: no group section
  wq.add(mk(2, 1, {2}));
  proto::OrderingToken token(GroupId{1}, 1);
  token.set_group_seq(GroupId{5}, 7);
  const auto out = wq.assign(token, kBr, sim::SimTime::zero());
  CHECK_EQ(out.size(), std::size_t{4});
  CHECK_EQ(out[0].group_seqs[0], std::uint64_t{0});  // group 2
  CHECK_EQ(out[0].group_seqs[1], std::uint64_t{7});  // group 5
  CHECK_EQ(out[1].group_seqs[0], std::uint64_t{8});
  CHECK_EQ(out[2].group_seqs[0], std::uint64_t{0});
  CHECK_EQ(out[3].group_seqs[0], std::uint64_t{1});
  CHECK_EQ(token.group_seq(GroupId{2}), std::uint64_t{2});
  CHECK_EQ(token.group_seq(GroupId{5}), std::uint64_t{9});
  CHECK_EQ(token.group_counters().size(), std::size_t{2});
}

TEST(assign_drains_and_empty_assign_is_noop) {
  core::WorkingQueue wq;
  proto::OrderingToken token(GroupId{1}, 1);
  CHECK(wq.assign(token, kBr, sim::SimTime::zero()).empty());
  CHECK_EQ(token.next_gseq(), GlobalSeq{0});
  wq.add(mk(1, 0));
  CHECK_EQ(wq.assign(token, kBr, sim::SimTime::zero()).size(),
           std::size_t{1});
  // Assigned messages are not assigned again on the next pass.
  CHECK(wq.assign(token, kBr, sim::SimTime::zero()).empty());
  CHECK_EQ(token.next_gseq(), GlobalSeq{1});
  wq.add(mk(1, 1));
  wq.clear();
  CHECK(wq.empty());
}

TEST(high_water_seeds_a_regenerated_token) {
  core::WorkingQueue wq;
  proto::OrderingToken token(GroupId{1}, 1);
  for (LocalSeq l = 0; l < 5; ++l) wq.add(mk(1, l, {3}));
  wq.add(mk(2, 0, {1, 3}));
  const auto out = wq.assign(token, kBr, sim::SimTime::zero());

  // One node stored only the first three; another stored the rest.
  core::SeqHighWater a;
  core::SeqHighWater b;
  CHECK_EQ(a.next_gseq(), GlobalSeq{0});
  for (std::size_t i = 0; i < out.size(); ++i) (i < 3 ? a : b).note(out[i]);
  CHECK_EQ(a.next_gseq(), GlobalSeq{3});

  proto::OrderingToken from_a(GroupId{1}, 2);
  a.seed(from_a);
  CHECK_EQ(from_a.next_gseq(), GlobalSeq{3});
  CHECK_EQ(from_a.group_seq(GroupId{3}), std::uint64_t{3});
  // Groups nobody stored stay off the token.
  CHECK_EQ(from_a.group_counters().size(), std::size_t{1});

  // Merged, the seed equals the live token's counters; the order of notes
  // and merges does not matter.
  b.note(out[0]);
  a.merge(b);
  proto::OrderingToken regen(GroupId{1}, 2);
  a.seed(regen);
  CHECK_EQ(regen.next_gseq(), token.next_gseq());
  CHECK(regen.group_counters() == token.group_counters());
}

TEST_MAIN()
