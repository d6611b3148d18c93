// Failure handling: token-holder crash -> heartbeat detection -> ring
// repair -> Token-Regeneration with a fresh epoch; duplicate tokens are
// eliminated; total order survives both.

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

core::ProtocolConfig small_cfg(std::size_t brs) {
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = brs;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.num_sources = 2;
  cfg.source.rate_hz = 100.0;
  return cfg;
}

}  // namespace

TEST(crash_triggers_regeneration_with_fresh_epoch) {
  sim::Simulation sim(99);
  sim.enable_trace();
  core::RingNetProtocol proto(sim, small_cfg(4));
  proto.start();
  const NodeId victim = proto.topology().top_ring[1];
  sim.after(sim::secs(0.5), [&proto, victim] { proto.crash_node(victim); });
  sim.run_for(sim::secs(2.0));
  proto.stop_sources();
  sim.run_for(sim::secs(1.0));

  CHECK_EQ(sim.metrics().counter(obs::names::kTokenRegenerated),
           std::uint64_t{1});
  CHECK_EQ(sim.metrics().counter(obs::names::kRingRepairs), std::uint64_t{1});
  // The post-crash token carries epoch 2 and never visits the dead node.
  const sim::SimTime crash_at = sim::secs(0.5);
  std::uint64_t max_epoch = 0;
  bool visited_victim_late = false;
  for (const obs::FrRecord& ev : sim.recorder().snapshot()) {
    if (ev.kind != obs::FrEvent::TokenRx) continue;
    if (sim::SimTime{ev.t_us} > crash_at + sim::secs(0.5)) {
      max_epoch = std::max(max_epoch, ev.a);
      visited_victim_late = visited_victim_late || ev.node == victim.v;
    }
  }
  CHECK_EQ(max_epoch, std::uint64_t{2});
  CHECK(!visited_victim_late);
  // Order holds and survivors keep delivering after the crash.
  CHECK(!proto.deliveries().check_total_order().has_value());
  CHECK(proto.mhs().back().last_delivery_at() > crash_at);
}

TEST(duplicate_token_is_destroyed) {
  baseline::RunSpec spec;
  spec.config = small_cfg(3);
  spec.warmup = sim::secs(0.25);
  spec.run = sim::secs(1.0);
  spec.drain = sim::secs(0.5);
  const auto r = baseline::run_experiment(
      spec, [](core::RingNetProtocol& proto, sim::Simulation& sim) {
        sim.after(sim::secs(0.6), [&proto] {
          proto.inject_duplicate_token(proto.topology().top_ring[1], 1);
        });
      });
  CHECK_EQ(r.metrics.counter(obs::names::kTokenDupDestroyed), std::uint64_t{1});
  CHECK(!r.order_violation.has_value());
  CHECK(r.min_delivery_ratio > 0.999);
}

TEST(false_ejection_heals_via_rejoin) {
  // Heartbeats ride the lossy WAN without ARQ; with heavy loss and a
  // one-miss budget, healthy BRs get ejected spuriously. They must merge
  // back into the ring and their members must recover every message
  // (hole repair from a peer's MQ), preserving total order.
  baseline::RunSpec spec;
  spec.config = small_cfg(4);
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.25);
  spec.config.options.heartbeat_miss_limit = 1;
  spec.warmup = sim::secs(0.25);
  spec.run = sim::secs(2.0);
  spec.drain = sim::secs(2.0);
  spec.seed = 3;

  sim::Simulation sim(spec.seed);
  core::RingNetProtocol proto(sim, baseline::effective_config(spec));
  proto.start();
  sim.run_for(spec.warmup + spec.run);
  proto.stop_sources();
  sim.run_for(spec.drain);

  // False positives fired, and healed.
  CHECK(sim.metrics().counter(obs::names::kRingRepairs) > 0);
  CHECK(sim.metrics().counter(obs::names::kRingRejoins) > 0);
  CHECK(!proto.deliveries().check_total_order().has_value());
  for (const auto& mh : proto.mhs()) {
    CHECK(static_cast<double>(mh.delivered_count()) >=
          0.99 * static_cast<double>(proto.total_sent()));
  }
}

TEST(no_spurious_failure_handling_in_healthy_runs) {
  baseline::RunSpec spec;
  spec.config = small_cfg(6);
  spec.warmup = sim::secs(0.25);
  spec.run = sim::secs(1.5);
  spec.drain = sim::secs(0.5);
  const auto r = baseline::run_experiment(spec);
  CHECK_EQ(r.metrics.counter(obs::names::kTokenRegenerated), std::uint64_t{0});
  CHECK_EQ(r.metrics.counter(obs::names::kTokenDupDestroyed), std::uint64_t{0});
  CHECK(!r.order_violation.has_value());
}

TEST_MAIN()
