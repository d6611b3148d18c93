// Satellite regression: when a BR's last member handed off, mark_acked()
// used to declare everything up to max_seen() delivered. That poisoned the
// MQ against in-flight stragglers (store() rejects gseqs at or below the
// delivered watermark), so a member re-attaching moments later either
// stalled forever behind an unfillable hole or could only gap-skip. The
// empty-BR path now acks only what falls out of the retention window.

#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "sim/simulation.hpp"

using namespace ringnet;

TEST(reattach_after_empty_br_resyncs_without_skips) {
  sim::Simulation sim(21);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 2;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;  // MH0 @ BR0 (the source), MH1 @ BR1
  // A bursty-free but lossy WAN: ARQ stragglers arrive at BR1 well after
  // newer gseqs, exactly while BR1 sits empty.
  cfg.hierarchy.wan = net::ChannelModel::wired_wan(0.15);
  auto wireless = net::ChannelModel::wireless(0.0);
  wireless.burst_loss = false;
  cfg.hierarchy.wireless = wireless;
  cfg.num_sources = 1;
  cfg.source.rate_hz = 500.0;
  cfg.options.mq_retention = 64;  // covers the 100 ms detach windows
  cfg.mobility.detach_gap = sim::msecs(100);
  core::RingNetProtocol proto(sim, cfg);
  proto.start();

  // MH1 repeatedly drops radio and re-attaches into its own cell: BR1 is
  // memberless for each 100 ms window while traffic keeps flowing.
  const NodeId roamer = proto.topology().mhs[1];
  const NodeId cell = proto.topology().parent(roamer);
  for (int i = 1; i <= 4; ++i) {
    sim.after(sim::msecs(500 * i), [&proto, roamer, cell] {
      proto.force_handoff(roamer, cell);
    });
  }
  sim.run_for(sim::secs(3.0));
  proto.stop_sources();
  sim.run_for(sim::secs(2.0));

  CHECK_EQ(sim.metrics().counter(obs::names::kHandoffCount), std::uint64_t{4});
  // The returnee resynchronizes from BR1's retained MQ window: no skips,
  // no losses, order intact.
  CHECK_EQ(sim.metrics().counter(obs::names::kGapsSkipped), std::uint64_t{0});
  CHECK(!proto.deliveries().check_total_order().has_value());
  for (const auto& mh : proto.mhs()) {
    CHECK_EQ(mh.delivered_count(), proto.total_sent());
  }
}

TEST_MAIN()
