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
//   5. Multi-group sim traces are pinned too: golden fingerprints of the
//      three group scenarios, on the base shape and on a lossy one.
//   6. Chain gap skips are real: a lossy run that loses nothing reports no
//      gap skip either.
//   7. Members that roam or churn still deliver exactly their destined
//      sets (chain restart on reattach), and a regenerated token continues
//      every group's seqs with no repeat and no gap.
//   8. The runtime twin delivers every destined message, in pairwise order,
//      with and without lost chain frames.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/harness.hpp"
#include "core/analysis.hpp"
#include "core/groups.hpp"
#include "core/protocol.hpp"
#include "net/channel.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "runtime/orchestrator.hpp"
#include "scenario/catalogue.hpp"
#include "util/rng.hpp"

using namespace ringnet;
namespace names = obs::names;

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
  h = fnv1a(h, r.lat_hist.p50());
  h = fnv1a(h, r.lat_hist.p99());
  h = fnv1a(h, r.lat_hist.max());
  h = fnv1a(h, r.metrics.counter(names::kRetransmits));
  h = fnv1a(h, r.metrics.counter(names::kTokenHeld));
  h = fnv1a(h, r.metrics.counter(names::kHandoffCount));
  // Each member's [begin, end) offset into the MH-major concatenation of
  // the log, then every record in that order.
  std::uint64_t offset = 0;
  h = fnv1a(h, offset);
  for (std::size_t m = 0; m < r.log.members(); ++m) {
    offset += r.log.records(m).size();
    h = fnv1a(h, offset);
  }
  for (std::size_t m = 0; m < r.log.members(); ++m) {
    for (const auto& rec : r.log.records(m)) {
      h = fnv1a(h, rec.gseq);
      h = fnv1a(h, rec.source.v);
      h = fnv1a(h, rec.lseq);
    }
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

// The lossy shape: 4 BRs x 4 APs x 3 MHs, 2 sources, 5% wireless and 1%
// WAN loss, at the harness's default run length. Lossy links exercise the
// chain's ack-driven resends, which the lossless base shape barely touches.
baseline::RunSpec lossy_group_spec(const std::string& name) {
  baseline::RunSpec spec;  // default warmup, run and drain
  spec.config.hierarchy.num_brs = 4;
  spec.config.hierarchy.aps_per_ag = 4;
  spec.config.hierarchy.mhs_per_ap = 3;
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.05);
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.01);
  spec.config.num_sources = 2;
  spec.config.record_deliveries = true;
  spec.seed = 7;
  spec.export_deliveries = true;
  const auto parsed = scenario::find_scenario(name);
  CHECK(parsed.has_value());
  if (parsed) spec.scenario = *parsed;
  return spec;
}

// Multi-group delivery traces, captured before the delivery rules of both
// engines moved into core/delivery.hpp (same specs, same seed).
struct GroupPin {
  const char* scenario;
  std::uint64_t base;
  std::uint64_t lossy;
};
constexpr GroupPin kGroupPins[] = {
    {"group-mesh", 0x20ce4037235b09eaull, 0xa76e005ee073939dull},
    {"group-churn", 0x4203f83cff3e8e5cull, 0x45feef5dc768dd47ull},
    {"group-flash", 0x0b4da08b86eb8d7aull, 0x5c62d799856cdb95ull},
};

// The base shape as a multi-group deployment (8 groups, 2 per MH, 2 per
// message) with count-bounded constant sources, lossless but for
// `wan_loss`, plus the membership dynamics of `scenario_text`.
baseline::RunSpec group_motion_spec(const std::string& scenario_text,
                                    double wan_loss) {
  auto spec = base_spec();
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(wan_loss);
  spec.config.num_sources = 4;
  spec.config.groups.count = 8;
  spec.config.groups.groups_per_mh = 2;
  spec.config.groups.dest_groups = 2;
  spec.config.source.rate_hz = 100.0;
  spec.config.source.max_messages = 100;
  spec.drain = sim::secs(2.0);
  const auto parsed = scenario::parse_scenario(scenario_text);
  CHECK(parsed.has_value());
  if (parsed) spec.scenario = *parsed;
  return spec;
}

// Members whose delivered (source, lseq) set differs from their destined
// one: every message of every count-bounded source whose destination
// groups meet the member's (static) groups.
std::size_t destined_mismatches(const baseline::RunSpec& spec,
                                const baseline::RunResult& r) {
  const auto& groups = spec.config.groups;
  const std::uint32_t sources =
      static_cast<std::uint32_t>(spec.config.num_sources);
  const std::uint32_t msgs = spec.config.source.max_messages;
  std::size_t mismatched = 0;
  for (std::size_t m = 0; m < r.log.members(); ++m) {
    const proto::GroupSet mine = core::member_groups(m, groups);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> want;
    for (std::uint32_t s = 0; s < sources; ++s) {
      for (std::uint32_t l = 0; l < msgs; ++l) {
        if (core::dest_groups(NodeId{s}, l, groups).intersects(mine)) {
          want.emplace_back(s, l);
        }
      }
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> got;
    for (const auto& rec : r.log.records(m)) {
      got.emplace_back(rec.source.v, rec.lseq);
    }
    std::sort(got.begin(), got.end());
    if (got != want) {
      std::printf("  mh %zu: delivered %zu of %zu destined\n", m, got.size(),
                  want.size());
      ++mismatched;
    }
  }
  return mismatched;
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

TEST(multi_group_traces_reproduce_golden) {
  for (const GroupPin& pin : kGroupPins) {
    const auto base =
        baseline::run_experiment(group_scenario_spec(pin.scenario));
    CHECK(!base.order_violation.has_value());
    CHECK_EQ(fingerprint(base), pin.base);
    const auto lossy = baseline::run_experiment(lossy_group_spec(pin.scenario));
    CHECK(!lossy.order_violation.has_value());
    CHECK_EQ(fingerprint(lossy), pin.lossy);
  }
}

TEST(chain_acks_skip_no_gap_without_loss) {
  // Regression: the sim used to prune and relink a member's chain on the
  // raw ack tail, so an ack overtaken by a newer one relinked the head and
  // counted a gap skip that never happened (43-103 per scenario here, with
  // nothing lost). The chain watermark is monotone now.
  for (const GroupPin& pin : kGroupPins) {
    const auto r = baseline::run_experiment(lossy_group_spec(pin.scenario));
    // The lossy links did exercise the resends.
    CHECK(r.metrics.counter(names::kRetransmits) > 0);
    CHECK_EQ(r.metrics.counter(names::kGapSkippedMsgs), std::uint64_t{0});
    CHECK_EQ(r.metrics.counter(names::kGapsSkipped), std::uint64_t{0});
  }
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
    CHECK(r.metrics.counter(names::kMhDelivered) > 0);
    const std::uint64_t broadcast_volume = r.total_sent * 12;  // 12 MHs
    CHECK(r.metrics.counter(names::kMhDelivered) < broadcast_volume / 2);
  }
}

TEST(sharded_engine_replays_the_serial_oracle_with_groups) {
  // Domain-sharded execution must not perturb multi-group runs: the
  // single-heap oracle over the sharded domain plan and the 4-thread
  // parallel engine produce identical per-MH delivery traces, also while
  // members roam between BR domains.
  for (auto spec :
       {group_scenario_spec("group-mesh"), group_scenario_spec("group-churn"),
        group_motion_spec("name=group-roam;mobility=waypoint,rate=2", 0.0)}) {
    spec.shard = true;
    spec.shard_threads = 0;
    const auto oracle = baseline::run_experiment(spec);
    spec.shard_threads = 4;
    const auto sharded = baseline::run_experiment(spec);
    CHECK_EQ(oracle.total_sent, sharded.total_sent);
    CHECK_EQ(oracle.log.members(), sharded.log.members());
    bool same = oracle.log.members() == sharded.log.members();
    for (std::size_t m = 0; same && m < oracle.log.members(); ++m) {
      same = std::equal(
          oracle.log.records(m).begin(), oracle.log.records(m).end(),
          sharded.log.records(m).begin(), sharded.log.records(m).end(),
          [](const auto& a, const auto& b) {
            return a.gseq == b.gseq && a.source.v == b.source.v &&
                   a.lseq == b.lseq;
          });
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

  // The same across blocks: logs several blocks long, recorded from two
  // contexts in turn, with holes, pass; an inversion whose two records
  // sit in different blocks does not.
  core::DeliveryLog long_log;
  long_log.reset(mhs, 2);
  for (GlobalSeq g = 1; g <= 5 * core::DeliveryLog::kBlockRecs; ++g) {
    const std::size_t ctx = (g / 4) % 2;
    for (std::size_t m = 0; m < mhs.size(); ++m) {
      if ((g + m) % 3 != 0) long_log.record(mhs[m], g, src, g, ctx);
    }
  }
  CHECK(!core::check_pairwise_order(long_log).has_value());
  core::DeliveryLog inverted;
  inverted.reset(mhs, 2);
  for (GlobalSeq g = 1; g <= core::DeliveryLog::kBlockRecs; ++g) {
    inverted.record(mhs[0], g, src, g, g % 2);
  }
  inverted.record(mhs[0], 3, src, 3, 0);
  CHECK(core::check_pairwise_order(inverted).has_value());
}

namespace {

// The multi-group check as it stood before it became check_total_order():
// after the total-order check, for every member pair, the positions of
// their shared gseqs must rise together. Kept as the reference the one
// order verdict is compared against.
std::optional<std::string> pairwise_reference(const core::DeliveryLog& log) {
  if (auto err = log.check_total_order()) return err;
  std::unordered_map<GlobalSeq, std::size_t> pos;
  for (std::size_t i = 0; i < log.members(); ++i) {
    pos.clear();
    std::size_t p = 0;
    for (const auto& r : log.records(i)) pos.emplace(r.gseq, p++);
    for (std::size_t j = i + 1; j < log.members(); ++j) {
      std::size_t last = 0;
      bool any = false;
      for (const auto& r : log.records(j)) {
        const auto it = pos.find(r.gseq);
        if (it == pos.end()) continue;
        if (any && it->second <= last) return "pairwise order violation";
        any = true;
        last = it->second;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

TEST(pairwise_checker_agrees_with_the_member_pair_walk) {
  // Seeded random logs of 2-4 members over up to 20 gseqs: each member
  // takes a random subset (holes), and some logs get a record repeated,
  // two neighbours swapped or a gseq rebound to another lseq. Both
  // verdicts must agree on every log, and the set must hold both kinds.
  const NodeId src{9};
  std::size_t failing = 0;
  constexpr std::uint64_t kLogs = 4000;
  for (std::uint64_t seed = 1; seed <= kLogs; ++seed) {
    util::Rng rng(seed);
    const std::size_t n_mh = 2 + rng.bounded(3);
    const GlobalSeq n_gseq = 4 + rng.bounded(17);
    std::vector<NodeId> mhs;
    for (std::size_t m = 0; m < n_mh; ++m) {
      mhs.push_back(NodeId::make(Tier::MH, static_cast<std::uint32_t>(m)));
    }
    core::DeliveryLog log;
    log.reset(mhs, 2);
    for (std::size_t m = 0; m < n_mh; ++m) {
      std::vector<std::pair<GlobalSeq, LocalSeq>> recs;
      for (GlobalSeq g = 0; g < n_gseq; ++g) {
        if (rng.chance(0.6)) recs.emplace_back(g, g);
      }
      if (recs.size() >= 2 && rng.chance(0.1)) {
        const std::size_t k = rng.bounded(recs.size() - 1);
        std::swap(recs[k], recs[k + 1]);  // a planted inversion
      }
      if (!recs.empty() && rng.chance(0.05)) {
        const std::size_t k = rng.bounded(recs.size());
        recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(k), recs[k]);
      }
      if (!recs.empty() && rng.chance(0.05)) {
        recs[rng.bounded(recs.size())].second += 1000;  // a second binding
      }
      for (const auto& [g, l] : recs) {
        log.record(mhs[m], g, src, l, rng.bounded(2));
      }
    }
    const bool reference_fails = pairwise_reference(log).has_value();
    const bool fails = core::check_pairwise_order(log).has_value();
    CHECK_EQ(fails, reference_fails);
    if (fails) ++failing;
  }
  CHECK(failing > 0);
  CHECK(failing < kLogs);
}

TEST(shard_plan_lookahead_is_the_wan_latency) {
  // Every cross-domain event rides a BR<->BR WAN hop, so the shard plan's
  // conservative window is the WAN one-way latency, on one BR too (any
  // positive window is safe there).
  auto spec = base_spec();
  spec.shard = true;
  spec.shard_threads = 2;
  const auto cfg = baseline::effective_config(spec);
  CHECK(baseline::shard_plan(spec, cfg).lookahead == cfg.hierarchy.wan.latency);
  auto single = cfg;
  single.hierarchy.num_brs = 1;
  CHECK(baseline::shard_plan(spec, single).lookahead ==
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
  CHECK_EQ(destined_mismatches(spec, r), std::size_t{0});
}

TEST(roaming_and_churning_members_deliver_their_destined_sets) {
  // A member that reattaches — after a handoff or a short absence well
  // inside retention — restarts its delivery chain at its new BR, which
  // replays every destined message from the member's tail. Nothing may be
  // lost, skipped or delivered out of pairwise order, lossless or over a
  // 1% lossy WAN.
  for (const char* text :
       {"name=group-roam;mobility=waypoint,rate=2",
        "name=group-churn-leave;churn=poisson,leave=0.5,absence=0.3"}) {
    for (const double wan_loss : {0.0, 0.01}) {
      const auto spec = group_motion_spec(text, wan_loss);
      const auto r = baseline::run_experiment(spec);
      if (r.order_violation) {
        std::printf("  '%s': %s\n", text, r.order_violation->c_str());
      }
      CHECK(!r.order_violation.has_value());
      CHECK(r.metrics.counter(names::kHandoffCount) +
                r.metrics.counter(names::kChurnLeaves) >
            0);
      // Reattach replays ran.
      CHECK(r.metrics.counter(names::kRetransmits) > 0);
      CHECK_EQ(r.total_sent, std::uint64_t{4 * 100});
      CHECK_EQ(r.metrics.counter(names::kGapSkippedMsgs), std::uint64_t{0});
      CHECK_EQ(r.metrics.counter(names::kGapsSkipped), std::uint64_t{0});
      CHECK_EQ(destined_mismatches(spec, r), std::size_t{0});
    }
  }
}

TEST(regenerated_tokens_continue_every_group_seq) {
  // Token-Regeneration seeds the new token's per-group counters from what
  // the BRs have stored. Two token losses on the base group shape: across
  // BR0's MQ, which retains the whole run here, every group's seqs run on
  // through both regenerations with no repeat and no gap.
  const std::string text =
      "name=group-tokenloss;groups=8,per_mh=2,dest=2;"
      "traffic=poisson,rate=150;fault=tokenloss,at=0.7;"
      "fault=tokenloss,at=1.5";
  for (const double wan_loss : {0.0, 0.01}) {
    for (const std::uint64_t seed : {7u, 1u, 3u}) {
      auto spec = group_scenario_spec(text);
      spec.seed = seed;
      spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
      spec.config.hierarchy.wan = net::ChannelModel::wired_wan(wan_loss);
      std::size_t stored = 0, holes = 0, repeats = 0, gaps = 0;
      GlobalSeq front = 1;
      std::uint64_t last_epoch = 0;
      const sim::SimTime end = spec.warmup + spec.run + spec.drain;
      const auto r = baseline::run_experiment(
          spec, [&](core::RingNetProtocol& net, sim::Simulation& sim) {
            sim.after(end - sim::usecs(1), [&] {
              core::MessageQueue& mq = net.node(NodeId::make(Tier::BR, 0)).mq();
              front = mq.valid_front();
              std::vector<std::optional<std::uint64_t>> last(9);  // by gid
              for (GlobalSeq g = front; g < mq.high_water().next_gseq();
                   ++g) {
                const proto::DataMsg* m = mq.find(g);
                if (m == nullptr) {
                  ++holes;
                  continue;
                }
                ++stored;
                last_epoch = m->epoch;
                for (std::size_t i = 0; i < m->groups.size(); ++i) {
                  auto& prev = last[m->groups[i].v];
                  const std::uint64_t seq = m->group_seqs[i];
                  const std::uint64_t want = prev ? *prev + 1 : 0;
                  if (seq < want) ++repeats;
                  if (seq > want) ++gaps;
                  prev = seq;
                }
              }
            });
          });
      CHECK_EQ(r.metrics.counter(names::kTokenRegenerated), std::uint64_t{2});
      CHECK_EQ(front, GlobalSeq{0});
      CHECK(stored > 100);
      CHECK_EQ(last_epoch, std::uint64_t{3});  // assigned after both regens
      CHECK_EQ(holes, std::size_t{0});
      CHECK_EQ(repeats, std::size_t{0});
      CHECK_EQ(gaps, std::size_t{0});
    }
  }
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
    CHECK_EQ(res.log.records(m).size(), spec.expected_at(m));
    delivered += res.log.records(m).size();
  }
  CHECK_EQ(delivered, spec.expected_total());
  CHECK(delivered > 0);
  // Genuine: nobody got the full broadcast volume (64 messages total).
  const std::uint64_t broadcast = static_cast<std::uint64_t>(res.n_mh) *
                                  spec.n_mhs() * spec.msgs_per_source;
  CHECK(delivered < broadcast);
}

TEST(inprocess_runtime_recovers_lost_chain_frames) {
  // The same runtime shape with chain frames lost on both downlink hops:
  // every 5th BR->AP datagram carrying a cell frame and every 7th AP->MH
  // datagram carrying a data batch, up to 12 each. The chain ARQ must
  // resend what was lost, so every member still gets exactly its destined
  // messages, in pairwise order, and nothing is given up as lost.
  runtime::LoopbackSpec spec;
  spec.num_brs = 2;
  spec.aps_per_br = 2;
  spec.mhs_per_ap = 2;
  spec.rate_hz = 100.0;
  spec.msgs_per_source = 8;
  spec.groups.count = 4;
  spec.groups.groups_per_mh = 2;
  spec.groups.dest_groups = 2;
  spec.use_udp = false;
  struct Seen {
    std::atomic<int> cells{0}, batches{0};
  };
  auto seen = std::make_shared<Seen>();
  constexpr int kMaxDrops = 12;
  spec.drop_hook = [seen](NodeId from, NodeId to,
                          const runtime::Datagram& d) {
    if (d.kind != runtime::FrameKind::Proto || d.payload.empty()) return false;
    // A chain frame may share its datagram with acks in a Bundle.
    const auto carries = [&d](proto::MsgType type) {
      const auto parts =
          proto::bundle_parts(d.payload.data(), d.payload.size());
      if (!parts) return static_cast<proto::MsgType>(d.payload[0]) == type;
      return std::any_of(parts->begin(), parts->end(), [type](const auto& p) {
        return static_cast<proto::MsgType>(p.data[0]) == type;
      });
    };
    // Drop the k-th datagram (from 1) when k is a multiple of `nth`, for
    // the first kMaxDrops multiples.
    const auto drop_nth = [](std::atomic<int>& count, int nth) {
      const int k = count.fetch_add(1) + 1;
      return k % nth == 0 && k / nth <= kMaxDrops;
    };
    if (from.tier() == Tier::BR && to.tier() == Tier::AP &&
        carries(proto::MsgType::CellFrame)) {
      return drop_nth(seen->cells, 5);
    }
    if (from.tier() == Tier::AP && to.tier() == Tier::MH &&
        carries(proto::MsgType::DataBatch)) {
      return drop_nth(seen->batches, 7);
    }
    return false;
  };
  const auto res = runtime::run_loopback(spec);
  CHECK(res.completed);
  if (res.order_violation) {
    std::printf("  %s\n", res.order_violation->c_str());
  }
  CHECK(!res.order_violation.has_value());
  // Every scripted drop happened.
  CHECK(seen->cells.load() >= 5 * kMaxDrops);
  CHECK(seen->batches.load() >= 7 * kMaxDrops);
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    CHECK_EQ(res.log.records(m).size(), spec.expected_at(m));
  }
  CHECK(res.metrics.counter(names::kRetransmits) > 0);
  CHECK_EQ(res.metrics.counter(names::kGapSkippedMsgs), 0u);
}

TEST_MAIN()
