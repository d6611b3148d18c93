// Baseline variants: the unordered hierarchy (Remark 3) trades the token
// wait for latency, the single ring pays rotation latency linear in its
// size, the sequencer stays flat — all at identical throughput.

#include <set>

#include "baseline/harness.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

baseline::RunSpec small_spec() {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 4;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 1;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 2;
  spec.config.source.rate_hz = 100.0;
  spec.config.record_deliveries = false;
  spec.warmup = sim::secs(0.25);
  spec.run = sim::secs(1.0);
  spec.drain = sim::secs(0.75);
  spec.seed = 11;
  return spec;
}

}  // namespace

TEST(unordered_is_faster_same_throughput) {
  auto ordered = small_spec();
  auto unordered = small_spec();
  unordered.variant = baseline::Variant::RingNetUnordered;
  const auto ro = baseline::run_experiment(ordered);
  const auto ru = baseline::run_experiment(unordered);
  CHECK_NEAR(ro.throughput_per_mh_hz, ru.throughput_per_mh_hz, 10.0);
  CHECK(ru.lat_hist.p99() < ro.lat_hist.p99());
  CHECK(ru.lat_hist.mean() < ro.lat_hist.mean());
  // No ordering pass: nothing is ever assigned a gseq.
  CHECK_EQ(ru.assign_hist.max(), std::uint64_t{0});
  CHECK_EQ(ru.metrics.counter(obs::names::kTokenHeld), std::uint64_t{0});
}

TEST(single_ring_latency_grows_with_size) {
  auto small = small_spec();
  small.variant = baseline::Variant::SingleRing;
  small.flat_aps = 4;
  auto large = small;
  large.flat_aps = 32;
  const auto rs = baseline::run_experiment(small);
  const auto rl = baseline::run_experiment(large);
  CHECK(rl.lat_hist.p50() > rs.lat_hist.p50());
  CHECK_NEAR(rs.throughput_per_mh_hz, 200.0, 10.0);
  CHECK_NEAR(rl.throughput_per_mh_hz, 200.0, 10.0);
}

TEST(sequencer_orders_with_one_node) {
  auto spec = small_spec();
  spec.variant = baseline::Variant::Sequencer;
  spec.flat_aps = 8;
  spec.config.record_deliveries = true;
  const auto r = baseline::run_experiment(spec);
  CHECK(!r.order_violation.has_value());
  CHECK_NEAR(r.throughput_per_mh_hz, 200.0, 10.0);
  CHECK(r.min_delivery_ratio > 0.999);
}

TEST(effective_config_resolves_variants) {
  auto spec = small_spec();
  spec.variant = baseline::Variant::SingleRing;
  spec.flat_aps = 16;
  spec.flat_mhs_per_ap = 2;
  const auto cfg = baseline::effective_config(spec);
  CHECK_EQ(cfg.hierarchy.num_brs, std::size_t{16});
  CHECK_EQ(cfg.hierarchy.aps_per_ag, std::size_t{1});
  CHECK_EQ(cfg.hierarchy.mhs_per_ap, std::size_t{2});
  CHECK(cfg.options.ordered);
  spec.variant = baseline::Variant::RingNetUnordered;
  CHECK(!baseline::effective_config(spec).options.ordered);
}

TEST_MAIN()
