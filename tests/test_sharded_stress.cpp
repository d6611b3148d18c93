// Data-race stress for the domain-sharded engine, meant to run under TSan
// (the CI tsan job builds every test with -fsanitize=thread). A wider ring
// than the equivalence test keeps several shard queues busy per window
// while churn migrates MHs between domains and faults exercise the
// token-regeneration and blackout paths — the cross-domain inbox, the
// acked-floor fold at token hops, shared metrics registry and barrier-phase
// re-homing all see real concurrency here.

#include <cstdint>
#include <optional>
#include <string>

#include "baseline/harness.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "scenario/spec.hpp"

using namespace ringnet;

namespace {

baseline::RunSpec stress_spec() {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 6;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 3;
  spec.config.hierarchy.mhs_per_ap = 2;
  spec.config.num_sources = 6;
  spec.seed = 11;
  spec.warmup = sim::secs(0.2);
  spec.run = sim::secs(1.8);
  spec.drain = sim::secs(0.75);
  spec.shard = true;
  spec.shard_threads = 4;
  std::string error;
  const auto parsed = scenario::parse_scenario(
      "name=shard-stress;mobility=waypoint,rate=4;"
      "churn=poisson,leave=0.5,absence=0.3;"
      "traffic=poisson,rate=300;"
      "fault=tokenloss,at=0.9;fault=blackout,ap=2,at=1.2,dur=0.3",
      &error);
  CHECK(parsed.has_value());
  if (!parsed) std::printf("  parse error: %s\n", error.c_str());
  if (parsed) spec.scenario = *parsed;
  return spec;
}

}  // namespace

TEST(sharded_engine_survives_churn_and_faults) {
  const auto r = baseline::run_experiment(stress_spec());
  // The run must make real progress through the fault schedule...
  CHECK(r.throughput_per_mh_hz > 0.0);
  CHECK(r.metrics.counter(obs::names::kHandoffCount) > 0);
  CHECK_EQ(r.metrics.counter(obs::names::kTokenRegenerated), std::uint64_t{1});
  CHECK(r.metrics.counter(obs::names::kBlackoutDropped) > 0);
  // ...and stay totally ordered while doing it.
  CHECK(!r.order_violation.has_value());
}

TEST(back_to_back_sharded_runs_are_deterministic) {
  // Thread scheduling must never leak into results: two runs of the same
  // stressed spec are bitwise-identical in everything we report.
  const auto a = baseline::run_experiment(stress_spec());
  const auto b = baseline::run_experiment(stress_spec());
  CHECK_EQ(a.lat_hist.p99(), b.lat_hist.p99());
  CHECK_EQ(a.lat_hist.max(), b.lat_hist.max());
  for (const auto m : {obs::names::kRetransmits, obs::names::kHandoffCount,
                       obs::names::kChurnLeaves, obs::names::kGapSkippedMsgs}) {
    CHECK_EQ(a.metrics.counter(m), b.metrics.counter(m));
  }
  CHECK_NEAR(a.min_delivery_ratio, b.min_delivery_ratio, 1e-12);
}

TEST_MAIN()
