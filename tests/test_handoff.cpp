// Mobility: handoffs under the smooth-handoff reservation scheme keep
// service continuous (hot attaches dominate in sparse membership), the
// batched membership views reconverge, total order is mobility-proof, and
// a member that stops acking holds its BR's subtree-acked floor only until
// it hands off.

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

baseline::RunSpec mobile_spec(bool smooth) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 2;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 6;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 1;
  spec.config.source.rate_hz = 100.0;
  spec.config.options.smooth_handoff = smooth;
  spec.config.mobility.handoff_rate_hz = 2.0;
  spec.config.mobility.detach_gap = sim::msecs(20);
  spec.warmup = sim::secs(0.25);
  spec.run = sim::secs(2.0);
  spec.drain = sim::secs(1.0);
  spec.seed = 5;
  return spec;
}

}  // namespace

TEST(order_holds_under_mobility) {
  const auto r = baseline::run_experiment(mobile_spec(true));
  CHECK(r.metrics.counter(obs::names::kHandoffCount) > 20);
  CHECK_EQ(r.metrics.counter(obs::names::kHandoffCount),
           r.metrics.counter(obs::names::kHandoffHot) +
               r.metrics.counter(obs::names::kHandoffCold));
  CHECK(!r.order_violation.has_value());
  // Default retention covers the detach gaps: no data loss.
  CHECK(r.min_delivery_ratio > 0.99);
}

TEST(reservations_raise_hot_attach_share) {
  const auto on = baseline::run_experiment(mobile_spec(true));
  const auto off = baseline::run_experiment(mobile_spec(false));
  const auto hot_share = [](const baseline::RunResult& r) {
    return static_cast<double>(r.metrics.counter(obs::names::kHandoffHot)) /
           static_cast<double>(r.metrics.counter(obs::names::kHandoffCount));
  };
  const double hot_on = hot_share(on);
  const double hot_off = hot_share(off);
  CHECK(hot_on > hot_off);
  CHECK(hot_on > 0.8);  // sparse membership, neighbors reserved
}

TEST(zero_retention_causes_gap_skips) {
  auto spec = mobile_spec(true);
  spec.config.options.mq_retention = 0;
  spec.config.source.rate_hz = 200.0;
  spec.config.mobility.detach_gap = sim::msecs(50);
  const auto r = baseline::run_experiment(spec);
  // With nothing retained past the subtree ack, a handed-off MH's resume
  // point is gone: it must skip, and the skipped range counts as lost.
  CHECK(r.metrics.counter(obs::names::kGapsSkipped) > 0);
  CHECK(r.metrics.counter(obs::names::kGapSkippedMsgs) > 0);
  CHECK(r.min_delivery_ratio < 1.0);
  CHECK(!r.order_violation.has_value());  // gaps, never reordering
}

TEST(laggard_pins_the_subtree_floor_until_it_hands_off) {
  // BR0 serves MH0 (the source) and MH1; BR1 serves MH2 and MH3. While
  // MH1's cell is dark its acks stop, so BR0's subtree-acked floor, and
  // with it the MQ's ack cursor, stays at MH1's watermark. Once MH1 hands
  // off into BR1's subtree, BR0's floor is MH0's alone and moves on.
  sim::Simulation sim(3);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 2;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 2;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  cfg.hierarchy.wireless.burst_loss = false;
  cfg.num_sources = 1;
  cfg.source.rate_hz = 200.0;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();

  const auto& topo = proto.topology();
  const NodeId br0 = topo.top_ring[0];
  const NodeId laggard = topo.mhs[1];
  const NodeId dark_cell = topo.parent(laggard);
  const NodeId br1_cell = topo.parent(topo.mhs[2]);
  CHECK_EQ(topo.br_of(dark_cell), br0);
  CHECK(topo.br_of(br1_cell) != br0);
  core::MessageQueue& mq = proto.node(br0).mq();

  sim.run_for(sim::secs(0.25));
  proto.set_cell_blackout(dark_cell, true);
  sim.run_for(sim::secs(0.25));  // acks already in flight land
  const GlobalSeq pinned = mq.next_expected();
  const GlobalSeq newest = mq.high_water().next_gseq();
  sim.run_for(sim::secs(1.0));
  CHECK_EQ(mq.next_expected(), pinned);
  CHECK(mq.high_water().next_gseq() > newest + 100);

  proto.force_handoff(laggard, br1_cell);
  sim.run_for(sim::secs(0.5));
  CHECK(mq.next_expected() > newest + 100);
}

TEST(membership_views_reconverge) {
  auto spec = mobile_spec(true);
  sim::Simulation sim(spec.seed);
  core::RingNetProtocol proto(sim, baseline::effective_config(spec));
  proto.start();
  sim.run_for(sim::secs(2.0));
  proto.stop_sources();
  proto.mobility().stop();
  sim.run_for(sim::secs(1.5));  // drain reattachments + batched relays
  CHECK(sim.metrics().counter(obs::names::kMembershipApplied) > 0);
  CHECK(sim.metrics().counter(obs::names::kMembershipRelayed) > 0);
  for (NodeId br : proto.topology().top_ring) {
    CHECK_EQ(proto.node(br).group_view().member_count(),
             proto.topology().mhs.size());
  }
}

TEST_MAIN()
