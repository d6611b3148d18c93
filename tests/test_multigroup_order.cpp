// The multi-group ordering contract, end to end:
//   1. Single-group configs are BIT-IDENTICAL to the pre-group protocol —
//      golden delivery-trace fingerprints captured before the refactor must
//      reproduce exactly, with groups left at the default and with
//      groups.count=1 spelled out.
//   2. Multi-group runs are pairwise-consistent: any two members that both
//      deliver the same two messages deliver them in the same relative
//      order (core::check_pairwise_order), across the serial engine, the
//      domain-sharded engine (identical traces), and the in-process
//      runtime twin.
//   3. The satellite regression: the sharded lookahead floor derives from
//      the per-pair latency matrix and equals the configured WAN latency on
//      uniform deployments.
//   4. Lossless multi-group sim runs deliver every member exactly its
//      destined messages (BRs chain-forward in gseq order).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baseline/harness.hpp"
#include "core/analysis.hpp"
#include "core/groups.hpp"
#include "net/channel.hpp"
#include "ringnet_test.hpp"
#include "runtime/orchestrator.hpp"
#include "scenario/catalogue.hpp"

using namespace ringnet;

namespace {

// FNV-1a over the distilled run: totals, latency percentiles, recovery
// counters, then every per-MH delivery record. Any behavioral drift in the
// single-group path — an extra RNG draw, a reordered event, one changed
// timestamp — lands in at least one of these.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fingerprint(const baseline::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, r.total_sent);
  h = fnv1a(h, r.lat_p50_us);
  h = fnv1a(h, r.lat_p99_us);
  h = fnv1a(h, r.lat_max_us);
  h = fnv1a(h, r.retransmits);
  h = fnv1a(h, r.tokens_held);
  h = fnv1a(h, r.handoffs);
  for (const auto off : r.deliveries_offsets) h = fnv1a(h, off);
  for (const auto& rec : r.deliveries_flat) {
    h = fnv1a(h, rec.gseq);
    h = fnv1a(h, rec.source.v);
    h = fnv1a(h, rec.lseq);
  }
  return h;
}

// Captured from the tree immediately before the multi-group refactor
// (same spec, same seed): the single-group protocol's exact behavior.
constexpr std::uint64_t kGoldenPlain = 0x59d7ba4e21237c25ull;
constexpr std::uint64_t kGoldenWaypoint = 0x6315be55d5b0c04bull;

baseline::RunSpec base_spec() {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 3;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 4;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 2;
  spec.config.source.rate_hz = 120.0;
  spec.config.record_deliveries = true;
  spec.warmup = sim::secs(0.2);
  spec.run = sim::secs(1.6);
  spec.drain = sim::secs(0.75);
  spec.seed = 7;
  spec.export_deliveries = true;
  return spec;
}

baseline::RunSpec waypoint_spec() {
  auto spec = base_spec();
  scenario::ScenarioSpec sc;
  sc.name = "golden-waypoint";
  sc.mobility.model = scenario::MobilityModel::RandomWaypoint;
  sc.mobility.rate_hz = 2.0;
  spec.scenario = sc;
  return spec;
}

baseline::RunSpec group_scenario_spec(const std::string& name) {
  auto spec = base_spec();
  const auto parsed = scenario::find_scenario(name);
  CHECK(parsed.has_value());
  if (parsed) spec.scenario = *parsed;
  return spec;
}

}  // namespace

TEST(single_group_reproduces_golden_traces) {
  // Default config (groups untouched) replays the pre-refactor protocol
  // bit for bit.
  const auto plain = baseline::run_experiment(base_spec());
  CHECK(!plain.order_violation.has_value());
  CHECK_EQ(fingerprint(plain), kGoldenPlain);

  const auto waypoint = baseline::run_experiment(waypoint_spec());
  CHECK(!waypoint.order_violation.has_value());
  CHECK_EQ(fingerprint(waypoint), kGoldenWaypoint);

  // groups.count = 1 spelled out is the same degenerate deployment, not a
  // third mode: same fingerprints, byte for byte.
  auto explicit1 = base_spec();
  explicit1.config.groups.count = 1;
  explicit1.config.groups.groups_per_mh = 1;
  explicit1.config.groups.dest_groups = 1;
  CHECK_EQ(fingerprint(baseline::run_experiment(explicit1)), kGoldenPlain);
  auto explicit1_wp = waypoint_spec();
  explicit1_wp.config.groups.count = 1;
  CHECK_EQ(fingerprint(baseline::run_experiment(explicit1_wp)),
           kGoldenWaypoint);
}

TEST(group_catalogue_is_pairwise_consistent) {
  // The three canned multi-group workloads (static mesh, membership churn,
  // per-group flash crowds): zero pairwise-order violations, and genuinely
  // multicast — total deliveries stay well below ordered-volume x
  // population because non-destination members never see the message.
  for (const std::string name : {"group-mesh", "group-churn", "group-flash"}) {
    const auto r = baseline::run_experiment(group_scenario_spec(name));
    if (r.order_violation) {
      std::printf("  '%s': %s\n", name.c_str(), r.order_violation->c_str());
    }
    CHECK(!r.order_violation.has_value());
    CHECK(r.total_sent > 0);
    CHECK(r.delivered_total > 0);
    const std::uint64_t broadcast_volume = r.total_sent * 12;  // 12 MHs
    CHECK(r.delivered_total < broadcast_volume / 2);
  }
}

TEST(sharded_engine_replays_the_serial_oracle_with_groups) {
  // Domain-sharded execution must not perturb multi-group runs: the
  // single-heap oracle over the sharded domain plan and the 4-thread
  // parallel engine produce identical per-MH delivery traces.
  for (const std::string name : {"group-mesh", "group-churn"}) {
    auto spec = group_scenario_spec(name);
    spec.shard = true;
    spec.shard_threads = 0;
    const auto oracle = baseline::run_experiment(spec);
    spec.shard_threads = 4;
    const auto sharded = baseline::run_experiment(spec);
    CHECK_EQ(oracle.total_sent, sharded.total_sent);
    CHECK(oracle.deliveries_offsets == sharded.deliveries_offsets);
    CHECK_EQ(oracle.deliveries_flat.size(), sharded.deliveries_flat.size());
    bool same = oracle.deliveries_flat.size() == sharded.deliveries_flat.size();
    for (std::size_t i = 0; same && i < oracle.deliveries_flat.size(); ++i) {
      const auto& a = oracle.deliveries_flat[i];
      const auto& b = sharded.deliveries_flat[i];
      same = a.gseq == b.gseq && a.source.v == b.source.v && a.lseq == b.lseq;
    }
    CHECK(same);
    CHECK(!oracle.order_violation.has_value());
    CHECK(!sharded.order_violation.has_value());
  }
}

TEST(pairwise_checker_accepts_holes_rejects_inversions) {
  std::vector<NodeId> mhs = {NodeId::make(Tier::MH, 0),
                             NodeId::make(Tier::MH, 1),
                             NodeId::make(Tier::MH, 2)};
  core::DeliveryLog log;
  log.reset(mhs);
  const NodeId src{9};
  // Genuine multicast leaves per-member holes; holes are fine as long as
  // the common subsequences agree.
  log.record(mhs[0], 1, src, 1);
  log.record(mhs[0], 3, src, 3);
  log.record(mhs[0], 7, src, 7);
  log.record(mhs[1], 3, src, 3);
  log.record(mhs[1], 5, src, 5);
  log.record(mhs[1], 7, src, 7);
  log.record(mhs[2], 1, src, 1);
  log.record(mhs[2], 5, src, 5);
  CHECK(!core::check_pairwise_order(log).has_value());

  // An inversion on a shared pair is a violation.
  core::DeliveryLog bad;
  bad.reset(mhs);
  bad.record(mhs[0], 1, src, 1);
  bad.record(mhs[0], 3, src, 3);
  bad.record(mhs[1], 3, src, 3);
  bad.record(mhs[1], 1, src, 1);
  CHECK(core::check_pairwise_order(bad).has_value());
}

TEST(lookahead_floor_tracks_the_latency_matrix) {
  // Satellite regression: on today's uniform deployments the per-pair
  // latency-matrix minimum reduces to the configured WAN one-way latency,
  // and the shard plan adopts it as its conservative window.
  auto spec = base_spec();
  const auto cfg = baseline::effective_config(spec);
  CHECK(baseline::min_interdomain_latency(cfg) == cfg.hierarchy.wan.latency);
  spec.shard = true;
  spec.shard_threads = 2;
  const auto plan = baseline::shard_plan(spec, cfg);
  CHECK(plan.lookahead == baseline::min_interdomain_latency(cfg));
  // A one-BR deployment has no inter-domain links; the floor stays at the
  // configured WAN latency (any positive window is safe).
  auto single = cfg;
  single.hierarchy.num_brs = 1;
  CHECK(baseline::min_interdomain_latency(single) ==
        single.hierarchy.wan.latency);
}

TEST(sim_lossless_chains_deliver_every_destined_message) {
  // Regression: a BR used to chain frames in arrival order. A peer's
  // distribution landing after the BR had chained its own later gseqs got
  // backward links, and the member dropped each such frame as a duplicate
  // while no loss counter moved. Lossless sim on the shape of the
  // full-length multi-group loopback soak (2 BRs x 2 APs x 8 MHs, 8
  // groups, 2 per MH, 2 per message, 40 messages per source at 50 Hz):
  // every member must deliver exactly its destined set.
  const std::size_t n_mh = 32;
  const std::uint32_t msgs = 40;
  const double rate_hz = 50.0;
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 2;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 2;
  spec.config.hierarchy.mhs_per_ap = 8;
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = n_mh;
  spec.config.groups.count = 8;
  spec.config.groups.groups_per_mh = 2;
  spec.config.groups.dest_groups = 2;
  spec.config.source.rate_hz = rate_hz;
  spec.config.source.payload_size = 64;
  spec.config.source.max_messages = msgs;
  spec.warmup = sim::secs(0.0);
  spec.run = sim::secs(msgs / rate_hz + 1.0);
  spec.drain = sim::secs(2.0);
  spec.seed = 1;
  spec.export_deliveries = true;
  const auto r = baseline::run_experiment(spec);
  CHECK(!r.order_violation.has_value());
  CHECK_EQ(r.total_sent, std::uint64_t{n_mh * msgs});

  std::size_t mismatched = 0;
  for (std::size_t m = 0; m < n_mh; ++m) {
    const proto::GroupSet mine = core::member_groups(m, spec.config.groups);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> want;
    for (std::uint32_t s = 0; s < n_mh; ++s) {
      for (std::uint32_t l = 0; l < msgs; ++l) {
        if (core::dest_groups(NodeId{s}, l, spec.config.groups)
                .intersects(mine)) {
          want.emplace_back(s, l);
        }
      }
    }
    const auto [recs, n] = r.deliveries_of(m);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> got;
    got.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      got.emplace_back(recs[i].source.v, recs[i].lseq);
    }
    std::sort(got.begin(), got.end());
    if (got != want) {
      std::printf("  mh %zu: delivered %zu of %zu destined\n", m, got.size(),
                  want.size());
      ++mismatched;
    }
  }
  CHECK_EQ(mismatched, std::size_t{0});
}

TEST(inprocess_runtime_delivers_multi_group_chains) {
  // The runtime twin over the deterministic in-process transport: per-MH
  // delivered counts match the derived expectation exactly and the pooled
  // log is pairwise-consistent — the chain links (prev_chain) let every
  // member separate intentional holes from losses.
  runtime::LoopbackSpec spec;
  spec.num_brs = 2;
  spec.aps_per_br = 2;
  spec.mhs_per_ap = 2;  // 8 MHs
  spec.rate_hz = 100.0;
  spec.msgs_per_source = 8;
  spec.groups.count = 4;
  spec.groups.groups_per_mh = 2;
  spec.groups.dest_groups = 2;
  spec.use_udp = false;
  const auto res = runtime::run_loopback(spec);
  CHECK(res.completed);
  if (res.order_violation) {
    std::printf("  %s\n", res.order_violation->c_str());
  }
  CHECK(!res.order_violation.has_value());
  std::uint64_t delivered = 0;
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    CHECK_EQ(res.delivered_counts[m], spec.expected_at(m));
    delivered += res.delivered_counts[m];
  }
  CHECK_EQ(delivered, spec.expected_total());
  CHECK(delivered > 0);
  // Genuine: nobody got the full broadcast volume (64 messages total).
  const std::uint64_t broadcast = static_cast<std::uint64_t>(res.n_mh) *
                                  spec.n_mhs() * spec.msgs_per_source;
  CHECK(delivered < broadcast);
}

TEST_MAIN()
