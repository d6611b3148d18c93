// Scenario engine: the spec parser round-trips, the canned catalogue runs
// deterministically with zero order violations, and each workload class
// demonstrably exercises its machinery — mobility-driven handoffs, churn
// past MQ retention (gap-skipped and counted lost, never a wedge), MMPP
// bursts, cell blackouts with post-window resync, and a scripted BR crash
// with Token-Regeneration.

#include <string>

#include "baseline/harness.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "scenario/catalogue.hpp"
#include "scenario/engine.hpp"

using namespace ringnet;

namespace {

baseline::RunSpec scenario_spec(const std::string& name) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 3;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 4;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 2;
  spec.seed = 7;
  const auto parsed = scenario::find_scenario(name);
  CHECK(parsed.has_value());
  if (parsed) spec.scenario = *parsed;
  return spec;
}

std::string result_fingerprint(const baseline::RunResult& r) {
  const auto count = [&r](obs::names::Metric m) {
    return std::to_string(r.metrics.counter(m));
  };
  return std::to_string(r.lat_hist.p99()) + ":" +
         count(obs::names::kHandoffCount) + ":" +
         count(obs::names::kChurnLeaves) + ":" +
         count(obs::names::kGapSkippedMsgs) + ":" +
         count(obs::names::kRetransmits) + ":" +
         std::to_string(static_cast<std::uint64_t>(
             r.min_delivery_ratio * 1e6));
}

}  // namespace

TEST(parser_round_trips_every_canned_scenario) {
  for (const auto& c : scenario::catalogue()) {
    std::string error;
    const auto spec = scenario::parse_scenario(c.text, &error);
    CHECK(spec.has_value());
    if (!spec) {
      std::printf("  '%s': %s\n", c.name.c_str(), error.c_str());
      continue;
    }
    CHECK_EQ(spec->name, c.name);
    // Canonical describe -> parse is the identity on the described form.
    const std::string canon = scenario::describe_scenario(*spec);
    const auto reparsed = scenario::parse_scenario(canon, &error);
    CHECK(reparsed.has_value());
    if (reparsed) CHECK_EQ(scenario::describe_scenario(*reparsed), canon);
  }
}

TEST(parser_rejects_malformed_text) {
  std::string error;
  CHECK(!scenario::parse_scenario("mobility=warp,rate=2", &error));
  CHECK(!error.empty());
  CHECK(!scenario::parse_scenario("churn=poisson,leave=fast", &error));
  CHECK(!scenario::parse_scenario("fault=crash,br=one", &error));
  CHECK(!scenario::parse_scenario("bogus=1", &error));
  CHECK(!scenario::find_scenario("no-such-scenario").has_value());
}

TEST(catalogue_covers_whole_workload_space) {
  CHECK(scenario::catalogue().size() >= 8);
  bool mobility = false, churn = false, mmpp = false, crash = false,
       blackout = false, tokenloss = false;
  for (const auto& c : scenario::catalogue()) {
    const auto s = scenario::find_scenario(c.name);
    CHECK(s.has_value());
    if (!s) continue;
    mobility |= s->mobility.model != scenario::MobilityModel::None;
    churn |= s->churn.leave_rate_hz > 0.0 ||
             s->churn.mass_leave_at > sim::SimTime::zero();
    mmpp |= s->has_traffic &&
            s->traffic.pattern == core::TrafficPattern::Mmpp;
    for (const auto& f : s->faults) {
      crash |= f.kind == scenario::FaultEvent::Kind::BrCrash;
      blackout |= f.kind == scenario::FaultEvent::Kind::CellBlackout;
      tokenloss |= f.kind == scenario::FaultEvent::Kind::TokenLoss;
    }
  }
  CHECK(mobility);
  CHECK(churn);
  CHECK(mmpp);
  CHECK(crash);
  CHECK(blackout);
  CHECK(tokenloss);
}

TEST(catalogue_smoke_no_order_violations) {
  // Every canned scenario, both variants: the engine may delay and drop
  // but must never reorder. The measured window must still cover the
  // latest canned fault time (token-storm's 1.5s) with live traffic, or
  // the gate would be vacuous for the fault scenarios.
  for (const auto& c : scenario::catalogue()) {
    for (const auto variant :
         {baseline::Variant::RingNet, baseline::Variant::RingNetUnordered}) {
      auto spec = scenario_spec(c.name);
      spec.variant = variant;
      spec.warmup = sim::secs(0.2);
      spec.run = sim::secs(1.6);
      spec.drain = sim::secs(0.75);
      const auto r = baseline::run_experiment(spec);
      if (r.order_violation) {
        std::printf("  '%s': %s\n", c.name.c_str(),
                    r.order_violation->c_str());
      }
      CHECK(!r.order_violation.has_value());
    }
  }
}

TEST(same_seed_replays_identical_scenario_runs) {
  for (const std::string name : {"waypoint-roam", "flash-crowd",
                                 "long-absence", "token-storm"}) {
    const auto a = baseline::run_experiment(scenario_spec(name));
    const auto b = baseline::run_experiment(scenario_spec(name));
    CHECK_EQ(result_fingerprint(a), result_fingerprint(b));
    auto reseeded = scenario_spec(name);
    reseeded.seed = 8;
    const auto c = baseline::run_experiment(reseeded);
    CHECK(result_fingerprint(a) != result_fingerprint(c));
  }
}

TEST(mobility_models_drive_handoffs) {
  for (const std::string name :
       {"waypoint-roam", "commuter-rush", "flash-crowd"}) {
    const auto r = baseline::run_experiment(scenario_spec(name));
    CHECK(r.metrics.counter(obs::names::kHandoffCount) > 10);
    CHECK_EQ(r.metrics.counter(obs::names::kHandoffCount),
             r.metrics.counter(obs::names::kHandoffHot) +
                 r.metrics.counter(obs::names::kHandoffCold));
    CHECK(!r.order_violation.has_value());
    CHECK(r.min_delivery_ratio > 0.95);  // MQ retention covers the moves
  }
}

TEST(churn_past_retention_skips_and_counts_lost) {
  const auto r = baseline::run_experiment(scenario_spec("long-absence"));
  CHECK(r.metrics.counter(obs::names::kChurnLeaves) > 0);
  CHECK(r.metrics.counter(obs::names::kChurnRejoins) > 0);
  // Absences outlast the (overridden, tiny) MQ retention: rejoiners must
  // gap-skip and the missed range counts as really lost — not a wedge.
  CHECK(r.metrics.counter(obs::names::kGapsSkipped) > 0);
  CHECK(r.metrics.counter(obs::names::kGapSkippedMsgs) > 0);
  CHECK(r.min_delivery_ratio < 1.0);
  CHECK(!r.order_violation.has_value());
  // Members that never churned keep delivering: the run is not wedged.
  CHECK(r.throughput_per_mh_hz > 0.0);
}

TEST(short_absence_churn_recovers_fully) {
  const auto r = baseline::run_experiment(scenario_spec("churn-mill"));
  CHECK(r.metrics.counter(obs::names::kChurnLeaves) > 0);
  CHECK(r.metrics.counter(obs::names::kChurnRejoins) > 0);
  // Retention covers absences.
  CHECK_EQ(r.metrics.counter(obs::names::kGapSkippedMsgs), std::uint64_t{0});
  CHECK(r.min_delivery_ratio > 0.99);
  CHECK(!r.order_violation.has_value());
}

TEST(br_crash_regenerates_token_and_survivors_continue) {
  auto spec = scenario_spec("br-failover");
  sim::Simulation sim(spec.seed);
  core::RingNetProtocol proto(sim, baseline::effective_config(spec));
  proto.start();
  scenario::Engine engine(*spec.scenario, proto, sim);
  engine.arm();
  sim.run_for(spec.warmup + spec.run);
  proto.stop_sources();
  engine.stop();
  sim.run_for(spec.drain);

  CHECK_EQ(sim.metrics().counter(obs::names::kTokenRegenerated),
           std::uint64_t{1});
  CHECK(sim.metrics().counter(obs::names::kRingRepairs) > 0);
  CHECK(!proto.deliveries().check_total_order().has_value());
  // Members outside the dead domain keep delivering after the crash.
  const sim::SimTime crash_at = sim::secs(1.0);
  bool survivor_delivered_late = false;
  for (const auto& mh : proto.mhs()) {
    survivor_delivered_late |= mh.last_delivery_at() > crash_at;
  }
  CHECK(survivor_delivered_late);
}

TEST(token_loss_in_transit_recovers_via_regeneration) {
  const auto r = baseline::run_experiment(scenario_spec("token-storm"));
  CHECK_EQ(r.metrics.counter(obs::names::kTokenRegenerated), std::uint64_t{2});
  // The lost frames really vanished.
  CHECK(r.metrics.counter(obs::names::kTokenDropped) > 0);
  CHECK(r.min_delivery_ratio > 0.99);  // archive repair refills the gap
  CHECK(!r.order_violation.has_value());
}

TEST(blackout_window_drops_then_resyncs) {
  const auto r = baseline::run_experiment(scenario_spec("dark-cells"));
  CHECK(r.metrics.counter(obs::names::kBlackoutDropped) > 0);
  CHECK(!r.order_violation.has_value());
  CHECK(r.metrics.counter(obs::names::kRetransmits) > 0);
  // Downlink drops are repaired by within-retention resync once the
  // window lifts; only uplink submissions from a dark cell are gone for
  // good (no end-to-end source ARQ), so they bound the delivery deficit.
  CHECK(r.metrics.counter(obs::names::kBlackoutUplinkLost) > 0);
  CHECK(r.min_delivery_ratio > 0.75);
  // No gap ever wedges or skips.
  CHECK_EQ(r.metrics.counter(obs::names::kGapSkippedMsgs), std::uint64_t{0});
}

TEST(permanent_churn_bounds_parked_submissions) {
  // Members that leave and never rejoin must not grow O(total): sources on
  // departed MHs keep submitting, so the parked outbox is capped (oldest
  // dropped) — the bounded-memory invariant holds under every churn law
  // the engine can express.
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 2;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 3;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 2;
  spec.config.options.source_park_cap = 32;
  spec.run = sim::secs(3.0);
  spec.seed = 7;
  const auto parsed = scenario::parse_scenario(
      "name=ghost-town;churn=poisson,leave=3,rejoin=0;"
      "traffic=poisson,rate=400");
  CHECK(parsed.has_value());
  spec.scenario = *parsed;
  const auto r = baseline::run_experiment(spec);
  CHECK(r.metrics.counter(obs::names::kChurnLeaves) > 0);
  CHECK_EQ(r.metrics.counter(obs::names::kChurnRejoins), std::uint64_t{0});
  // ~1200 submissions per source against a 32-entry park cap: the cap is
  // what bounds a departed source, so it must have dropped the overflow.
  CHECK(r.metrics.counter(obs::names::kParkDropped) > 0);
  CHECK(!r.order_violation.has_value());
}

TEST(mass_exodus_rejoins_and_recovers) {
  const auto r = baseline::run_experiment(scenario_spec("mass-exodus"));
  CHECK(r.metrics.counter(obs::names::kChurnLeaves) >= 5);
  CHECK_EQ(r.metrics.counter(obs::names::kChurnLeaves),
           r.metrics.counter(obs::names::kChurnRejoins));
  CHECK(r.min_delivery_ratio > 0.99);
  CHECK(!r.order_violation.has_value());
}

TEST_MAIN()
