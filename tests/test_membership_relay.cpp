// Membership views. A BR's GroupView starts converged on the home map
// without storing it, and applies relayed events idempotently by seq.
//
// Regression: the batched membership relay used to freeze the hop budget
// (alive_ring_.size() - 1) at flush time, so a BR that rejoined the ring
// mid-relay never saw the batch and kept a stale view forever. The batch
// now carries its visited set and keeps walking the *current* ring until
// it closes on itself.

#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "sim/simulation.hpp"
#include "topo/hierarchy.hpp"

using namespace ringnet;

TEST(group_view_reads_home_aps_and_counts_detaches) {
  topo::HierarchyConfig cfg;
  cfg.num_brs = 2;
  cfg.aps_per_ag = 2;
  cfg.mhs_per_ap = 3;
  const topo::Topology topo = topo::build_hierarchy(cfg);
  core::GroupView view(topo);

  // An MH no event has touched is at its home AP.
  for (NodeId mh : topo.mhs) {
    const auto ap = view.ap_of(mh);
    CHECK(ap.has_value());
    if (ap) CHECK_EQ(*ap, topo.parent(mh));
  }
  CHECK_EQ(view.member_count(), topo.mhs.size());

  // A detach lowers the count, and a reattach elsewhere restores it.
  const NodeId mh = topo.mhs[4];
  view.apply(mh, NodeId::invalid(), 1);
  CHECK(!view.ap_of(mh).has_value());
  CHECK_EQ(view.member_count(), topo.mhs.size() - 1);
  view.apply(mh, NodeId::invalid(), 2);  // a second detach counts once
  CHECK_EQ(view.member_count(), topo.mhs.size() - 1);
  view.apply(mh, topo.aps[3], 3);
  CHECK_EQ(view.member_count(), topo.mhs.size());
  CHECK(view.ap_of(mh) == topo.aps[3]);

  // An event older than the one applied changes nothing: neither the AP
  // nor the count.
  view.apply(mh, NodeId::invalid(), 2);
  view.apply(mh, topo.aps[0], 1);
  CHECK(view.ap_of(mh) == topo.aps[3]);
  CHECK_EQ(view.member_count(), topo.mhs.size());
  // Other members are untouched throughout.
  CHECK(view.ap_of(topo.mhs[5]) == topo.parent(topo.mhs[5]));
}

TEST(relay_reaches_br_that_rejoins_mid_relay) {
  sim::Simulation sim(13);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 4;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 2;  // two cells under BR0 for the handoff
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.num_sources = 0;  // membership machinery only
  core::RingNetProtocol proto(sim, cfg);
  proto.start();

  const auto& topo = proto.topology();
  const NodeId mh = topo.mhs[0];
  const NodeId old_ap = topo.parent(mh);
  // The sibling cell under the same AG (both route membership via BR0).
  const NodeId new_ap = topo.aps[old_ap.index() + 1];
  CHECK(new_ap != old_ap);
  CHECK_EQ(topo.parent(new_ap), topo.parent(old_ap));
  const NodeId ejected = topo.top_ring[3];

  // t=10ms: handoff queues detach+attach events at BR0, pending for the
  // t=50ms membership flush. t=40ms: BR3 is falsely ejected; its t=50ms
  // heartbeat merges it back — after the flush captured the shrunken ring
  // but before the relay finishes walking it.
  sim.after(sim::msecs(10), [&] { proto.force_handoff(mh, new_ap); });
  sim.after(sim::msecs(40), [&] { proto.eject_br(ejected); });
  sim.run_for(sim::msecs(300));

  CHECK_EQ(sim.metrics().counter(obs::names::kRingRepairs), std::uint64_t{1});
  CHECK_EQ(sim.metrics().counter(obs::names::kRingRejoins), std::uint64_t{1});
  // Every BR — including the one that rejoined mid-relay — converged on
  // the MH's new cell.
  for (NodeId br : topo.top_ring) {
    const auto ap = proto.node(br).group_view().ap_of(mh);
    CHECK(ap.has_value());
    if (ap) CHECK_EQ(*ap, new_ap);
  }
}

TEST_MAIN()
