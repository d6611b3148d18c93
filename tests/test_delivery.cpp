// The delivery core (core/delivery.hpp) driven directly, with no engine
// around it: the serving BR's per-member chain (ChainSender) and the
// single-group member's gap skip (OrderedReceiver::skip_to). The member
// receivers are also covered end to end through MhRuntime in
// test_runtime_loop.

#include <vector>

#include "core/delivery.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;
using core::ChainSender;

namespace {

using Step = ChainSender::Step;

std::vector<GlobalSeq> gseqs(const ChainSender& c) {
  std::vector<GlobalSeq> out;
  for (const auto& link : c.links()) out.push_back(link.gseq);
  return out;
}

std::vector<GlobalSeq> prevs(const ChainSender& c) {
  std::vector<GlobalSeq> out;
  for (const auto& link : c.links()) out.push_back(link.prev);
  return out;
}

/// A sender that has chained gseqs 2, 5, 9 and 12 (coordinates 3, 6, 10,
/// 13) to one member.
ChainSender four_links() {
  ChainSender c;
  for (GlobalSeq g : {2, 5, 9, 12}) c.link(g, 100);
  return c;
}

/// Splice exactly the link for `dead`, keep walking past every other one.
void splice(ChainSender& c, GlobalSeq dead) {
  c.walk([dead](const ChainSender::Link& link) {
    return link.gseq == dead ? Step::Splice : Step::Next;
  });
}

proto::DataMsg ordered(GlobalSeq g) {
  proto::DataMsg m;
  m.source = NodeId{1};
  m.lseq = g;
  m.gseq = g;
  return m;
}

}  // namespace

TEST(link_returns_the_previous_coordinate) {
  ChainSender c;
  CHECK_EQ(c.tail(), GlobalSeq{0});
  CHECK_EQ(c.link(4, 100), GlobalSeq{0});  // chain head
  CHECK_EQ(c.link(7, 100), GlobalSeq{5});
  CHECK_EQ(c.link(8, 100), GlobalSeq{8});
  CHECK_EQ(c.tail(), GlobalSeq{9});
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{4, 7, 8}));
  CHECK(prevs(c) == (std::vector<GlobalSeq>{0, 5, 8}));
}

TEST(log_bound_drops_the_oldest_link) {
  ChainSender c;
  for (GlobalSeq g = 0; g < 10; ++g) c.link(g, 4);
  CHECK_EQ(c.links().size(), std::size_t{4});
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{6, 7, 8, 9}));
  // Links keep chaining to the true predecessor; only the log forgets.
  CHECK_EQ(c.tail(), GlobalSeq{10});
  CHECK_EQ(c.links().front().prev, GlobalSeq{6});
}

TEST(ack_prunes_delivered_links_and_relinks_only_a_lost_head) {
  ChainSender c = four_links();
  // The member delivered through gseq 5: links 2 and 5 are pruned, and the
  // head (9) still links to 5's coordinate, which the member has settled.
  CHECK(!c.ack(6));
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{9, 12}));
  CHECK(prevs(c) == (std::vector<GlobalSeq>{6, 10}));

  // Past the log bound the oldest unacked link is dropped; the member still
  // waits on it, so the next ack relinks the new head at its watermark.
  ChainSender b;
  for (GlobalSeq g : {2, 5, 9, 12}) b.link(g, 2);
  CHECK(gseqs(b) == (std::vector<GlobalSeq>{9, 12}));
  CHECK(b.ack(3));
  CHECK(prevs(b) == (std::vector<GlobalSeq>{3, 10}));
  // Relinked once; the same ack again changes nothing.
  CHECK(!b.ack(3));
  CHECK(prevs(b) == (std::vector<GlobalSeq>{3, 10}));
}

TEST(older_ack_after_newer_one_changes_nothing) {
  ChainSender c = four_links();
  CHECK(!c.ack(6));
  // Overtaken on the way: the stale tail neither prunes nor relinks.
  CHECK(!c.ack(3));
  CHECK(!c.ack(0));
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{9, 12}));
  CHECK(prevs(c) == (std::vector<GlobalSeq>{6, 10}));
}

TEST(splicing_a_middle_link_passes_its_link_on) {
  ChainSender c = four_links();
  splice(c, 5);
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{2, 9, 12}));
  // 9 inherits 5's link (coordinate 3, gseq 2).
  CHECK(prevs(c) == (std::vector<GlobalSeq>{0, 3, 10}));
  CHECK_EQ(c.tail(), GlobalSeq{13});
  // Splicing the head hands the chain start to its successor.
  splice(c, 2);
  CHECK(prevs(c) == (std::vector<GlobalSeq>{0, 10}));
}

TEST(splicing_the_newest_link_rolls_the_tail_back) {
  ChainSender c = four_links();
  splice(c, 12);
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{2, 5, 9}));
  CHECK_EQ(c.tail(), GlobalSeq{10});
  // The next frame links behind 9, not behind the spliced 12.
  CHECK_EQ(c.link(20, 100), GlobalSeq{10});
}

TEST(walk_stops_where_the_visitor_says) {
  ChainSender c = four_links();
  std::vector<GlobalSeq> seen;
  c.walk([&](const ChainSender::Link& link) {
    if (seen.size() == 2) return Step::Stop;
    seen.push_back(link.gseq);
    return Step::Next;
  });
  CHECK(seen == (std::vector<GlobalSeq>{2, 5}));
  CHECK_EQ(c.links().size(), std::size_t{4});
}

TEST(restart_relinks_at_the_member_tail) {
  ChainSender c = four_links();
  c.restart(6);
  CHECK(c.links().empty());
  CHECK_EQ(c.tail(), GlobalSeq{6});
  CHECK_EQ(c.link(9, 100), GlobalSeq{6});
  // The restart tail counts as acked: an ack from before the restart
  // neither prunes nor relinks.
  CHECK(!c.ack(3));
  CHECK(gseqs(c) == (std::vector<GlobalSeq>{9}));
  CHECK(prevs(c) == (std::vector<GlobalSeq>{6}));
}

TEST(ordered_skip_delivers_buffered_messages_inside_the_range) {
  core::OrderedReceiver r;
  std::vector<GlobalSeq> got;
  const auto deliver = [&](const proto::DataMsg& m) { got.push_back(m.gseq); };
  CHECK_EQ(r.receive(ordered(0), deliver), std::size_t{0});
  // 1-2 and 4-5 never arrive; 3 sits inside the range the floor skips and
  // 7 waits beyond it for 6.
  CHECK_EQ(r.receive(ordered(3), deliver), std::size_t{0});
  CHECK_EQ(r.receive(ordered(7), deliver), std::size_t{0});
  CHECK_EQ(r.receive(ordered(3), deliver), std::size_t{1});  // duplicate
  CHECK(got == (std::vector<GlobalSeq>{0}));

  const auto skip = r.skip_to(6, deliver);
  CHECK_EQ(skip.lost, std::uint64_t{4});
  CHECK_EQ(skip.gaps, std::uint64_t{2});  // 3 splits the holes in two
  CHECK(got == (std::vector<GlobalSeq>{0, 3}));
  CHECK_EQ(r.next_expected(), GlobalSeq{6});

  // A floor at or below the cursor changes nothing.
  const auto again = r.skip_to(4, deliver);
  CHECK_EQ(again.lost, std::uint64_t{0});
  CHECK_EQ(again.gaps, std::uint64_t{0});
  CHECK_EQ(r.receive(ordered(6), deliver), std::size_t{0});
  CHECK(got == (std::vector<GlobalSeq>{0, 3, 6, 7}));
  CHECK_EQ(r.receive(ordered(5), deliver), std::size_t{1});  // below cursor
}

TEST_MAIN()
