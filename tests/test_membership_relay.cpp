// Satellite regression: the batched membership relay used to freeze the
// hop budget (alive_ring_.size() - 1) at flush time, so a BR that rejoined
// the ring mid-relay never saw the batch and kept a stale view forever.
// The batch now carries its visited set and keeps walking the *current*
// ring until it closes on itself.

#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "sim/simulation.hpp"

using namespace ringnet;

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

  const NodeId mh = proto.topology().mhs[0];
  const NodeId old_ap = proto.topology().desc(mh).parent;
  // The sibling cell under the same AG (both route membership via BR0).
  const NodeId ag = proto.topology().desc(old_ap).parent;
  const NodeId new_ap = proto.topology().desc(ag).children[1];
  CHECK(new_ap != old_ap);
  const NodeId ejected = proto.topology().top_ring[3];

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
  for (NodeId br : proto.topology().top_ring) {
    const auto ap = proto.node(br).group_view().ap_of(mh);
    CHECK(ap.has_value());
    if (ap) CHECK_EQ(*ap, new_ap);
  }
}

TEST_MAIN()
