// Sharded-engine equivalence: for every canned scenario, the domain-sharded
// parallel engine must produce exactly the run the single-heap oracle
// produces over the same domain plan — identical per-MH delivery traces
// (gseq and timestamp), identical protocol counters, identical acked floor.
// Both modes share event keys (at, source domain, source seq) and
// per-context RNG streams; the conservative-lookahead windows only change
// *which thread* executes an event, never its order within a context.
// Seeded random event programs check the engine alone, event by event, and
// the window contract's check.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "scenario/catalogue.hpp"
#include "scenario/engine.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

using namespace ringnet;

namespace {

struct DeliverRec {
  std::uint32_t node = 0;
  std::uint64_t gseq = 0;
  std::int64_t at_us = 0;

  bool operator==(const DeliverRec&) const = default;
  bool operator<(const DeliverRec& o) const {
    if (node != o.node) return node < o.node;
    if (gseq != o.gseq) return gseq < o.gseq;
    return at_us < o.at_us;
  }
};

struct ModeResult {
  std::vector<DeliverRec> deliveries;
  std::string counters;
  GlobalSeq acked_floor = 0;
  std::uint64_t total_sent = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t delivered = 0;         // the mh.delivered counter
  std::uint64_t member_delivered = 0;  // sum of MhNode::delivered_count()
  std::uint64_t retransmits = 0;
  std::uint64_t gaps_skipped = 0;
  // Members whose delivery log does not hold exactly delivered_count()
  // records, walked one by one.
  std::uint64_t log_mismatches = 0;
  std::uint64_t handoffs = 0;
};

ModeResult run_mode(baseline::RunSpec spec, std::size_t threads) {
  spec.shard = true;
  spec.shard_threads = threads;
  const core::ProtocolConfig cfg = baseline::effective_config(spec);
  sim::Simulation sim(spec.seed, baseline::shard_plan(spec, cfg));
  sim.enable_trace();
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  std::optional<scenario::Engine> engine;
  if (spec.scenario) {
    engine.emplace(*spec.scenario, proto, sim);
    engine->arm();
  }
  sim.run_for(spec.warmup + spec.run);
  proto.stop_sources();
  proto.mobility().stop();
  if (engine) engine->stop();
  sim.run_for(spec.drain);

  ModeResult out;
  // An MH's deliveries land in whichever context owned it at the time, so
  // gather from every per-context recorder and canonicalize the order.
  for (sim::Domain ctx = 0; ctx <= sim.global_domain(); ++ctx) {
    for (const obs::FrRecord& ev : sim.recorder(ctx).snapshot()) {
      if (ev.kind != obs::FrEvent::Deliver) continue;
      out.deliveries.push_back(DeliverRec{ev.node, ev.a, ev.t_us});
    }
  }
  std::sort(out.deliveries.begin(), out.deliveries.end());
  const auto& mx = sim.metrics();
  namespace names = obs::names;
  for (const names::Metric m :
       {names::kMhDelivered, names::kTokenHeld, names::kAcksSent,
        names::kRetransmits, names::kHandoffCount, names::kHandoffHot,
        names::kChurnLeaves, names::kChurnRejoins, names::kGapsSkipped,
        names::kGapSkippedMsgs, names::kBlackoutDropped,
        names::kBlackoutUplinkLost, names::kTokenRegenerated,
        names::kTokenDropped, names::kMembershipApplied,
        names::kRingRepairs}) {
    out.counters += std::string(names::metric_name(m)) + "=" +
                    std::to_string(mx.counter(m)) + ";";
  }
  out.acked_floor = proto.global_acked_floor();
  out.total_sent = proto.total_sent();
  out.executed_events = sim.executed_events();
  out.delivered = mx.counter(names::kMhDelivered);
  for (const auto& mh : proto.mhs()) {
    out.member_delivered += mh.delivered_count();
  }
  out.retransmits = mx.counter(names::kRetransmits);
  out.gaps_skipped = mx.counter(names::kGapsSkipped);
  out.handoffs = mx.counter(names::kHandoffCount);
  const core::DeliveryLog& log = proto.deliveries();
  for (std::size_t i = 0; i < proto.mhs().size(); ++i) {
    const auto recs = log.records(i);
    const auto walked =
        static_cast<std::uint64_t>(std::distance(recs.begin(), recs.end()));
    if (walked != recs.size() || walked != proto.mhs()[i].delivered_count()) {
      ++out.log_mismatches;
    }
  }
  return out;
}

baseline::RunSpec scenario_spec(const std::string& name) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 3;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 4;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 2;
  spec.seed = 7;
  spec.warmup = sim::secs(0.2);
  spec.run = sim::secs(1.6);
  spec.drain = sim::secs(0.75);
  const auto parsed = scenario::find_scenario(name);
  CHECK(parsed.has_value());
  if (parsed) spec.scenario = *parsed;
  return spec;
}

// A seeded random event program over 4 domains plus the global context.
// Timestamps sit on a coarse grid, so global and shard events share
// instants with shard keys on both sides of the global key. Each event logs
// its id into its context's sequence and schedules up to three children by
// the engine's rules: into its own context at any delay >= 0, from the
// global context into a shard at any delay >= 0, and from a shard into
// another context at any delay >= the lookahead (exactly it included).
constexpr sim::Domain kProgDomains = 4;
constexpr sim::Domain kProgGlobal = kProgDomains;
constexpr std::int64_t kGridUs = 10;
constexpr sim::SimTime kProgLookahead = sim::usecs(3 * kGridUs);
constexpr int kProgDepth = 6;
// Past every event: roots by 90 us, then at most 60 us per generation.
constexpr sim::SimTime kProgHorizon = sim::usecs(600);

struct ProgramRun {
  std::vector<std::vector<std::uint64_t>> seq;  // event ids, per context
  std::uint64_t executed = 0;
  // Shard-context events that ran on the thread calling run_for.
  std::uint64_t shard_events_on_caller = 0;
  // Global events with a shard event at their instant on each side of
  // their key; counted on the serial oracle only, which runs in key order.
  std::uint64_t sandwiched_globals = 0;
};

class RandomProgram {
 public:
  RandomProgram(std::uint64_t seed, std::size_t threads)
      : seed_(seed),
        oracle_(threads == 0),
        sim_(seed, sim::ShardPlan{kProgDomains, kProgLookahead, threads}) {
    out_.seq.resize(kProgDomains + 1);
  }

  ProgramRun run() {
    caller_ = std::this_thread::get_id();
    util::Rng rng(seed_);
    const std::uint64_t roots = 4 + rng.bounded(8);
    for (std::uint64_t i = 0; i < roots; ++i) {
      const auto target =
          static_cast<sim::Domain>(rng.bounded(kProgDomains + 1));
      const auto at = static_cast<std::int64_t>(rng.bounded(10)) * kGridUs;
      spawn(target, sim::usecs(at), mix(seed_, i), 0);
    }
    // Slices end on the grid too, so `until` lands on events' instants.
    const sim::SimTime slice =
        sim::usecs(kGridUs * static_cast<std::int64_t>(1 + rng.bounded(8)));
    for (sim::SimTime until = slice; until <= kProgHorizon; until += slice) {
      sim_.run_for(until - sim_.now());
    }
    out_.executed = sim_.executed_events();
    count_sandwiched_globals();
    return std::move(out_);
  }

 private:
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    return util::Rng(a ^ (b * 0x9E3779B97F4A7C15ull)).next();
  }

  void spawn(sim::Domain target, sim::SimTime at, std::uint64_t id,
             int depth) {
    sim_.at(target, at,
            [this, target, id, depth] { step(target, id, depth); });
  }

  void step(sim::Domain ctx, std::uint64_t id, int depth) {
    out_.seq[ctx].push_back(id);
    if (oracle_) timeline_.emplace_back(ctx, sim_.now());
    if (ctx != kProgGlobal && std::this_thread::get_id() == caller_) {
      ++out_.shard_events_on_caller;
    }
    if (depth == kProgDepth) return;
    util::Rng rng(id);
    const std::uint64_t children = rng.bounded(4);
    for (std::uint64_t k = 0; k < children; ++k) {
      const auto target =
          static_cast<sim::Domain>(rng.bounded(kProgDomains + 1));
      std::int64_t delay = static_cast<std::int64_t>(rng.bounded(4)) * kGridUs;
      if (ctx != kProgGlobal && target != ctx) delay += kProgLookahead.us;
      spawn(target, sim_.now() + sim::usecs(delay), mix(id, k + 1),
            depth + 1);
    }
  }

  void count_sandwiched_globals() {
    for (std::size_t i = 0; i < timeline_.size(); ++i) {
      const auto [ctx, at] = timeline_[i];
      if (ctx != kProgGlobal) continue;
      bool before = false;
      bool after = false;
      for (std::size_t j = i; j-- > 0 && timeline_[j].second == at;) {
        before = before || timeline_[j].first != kProgGlobal;
      }
      for (std::size_t j = i + 1;
           j < timeline_.size() && timeline_[j].second == at; ++j) {
        after = after || timeline_[j].first != kProgGlobal;
      }
      if (before && after) ++out_.sandwiched_globals;
    }
  }

  std::uint64_t seed_;
  bool oracle_;
  sim::Simulation sim_;
  std::thread::id caller_;
  ProgramRun out_;
  std::vector<std::pair<sim::Domain, sim::SimTime>> timeline_;
};

}  // namespace

TEST(every_canned_scenario_matches_the_oracle) {
  for (const auto& c : scenario::catalogue()) {
    const auto spec = scenario_spec(c.name);
    const ModeResult oracle = run_mode(spec, 0);
    const ModeResult sharded = run_mode(spec, 4);
    if (oracle.deliveries != sharded.deliveries) {
      std::printf("  '%s': delivery traces diverge (%zu vs %zu records)\n",
                  c.name.c_str(), oracle.deliveries.size(),
                  sharded.deliveries.size());
      const std::size_t n =
          std::min(oracle.deliveries.size(), sharded.deliveries.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (oracle.deliveries[i] == sharded.deliveries[i]) continue;
        std::printf(
            "    first divergence at %zu: oracle(node=%u gseq=%llu "
            "at=%lldus) sharded(node=%u gseq=%llu at=%lldus)\n",
            i, oracle.deliveries[i].node,
            static_cast<unsigned long long>(oracle.deliveries[i].gseq),
            static_cast<long long>(oracle.deliveries[i].at_us),
            sharded.deliveries[i].node,
            static_cast<unsigned long long>(sharded.deliveries[i].gseq),
            static_cast<long long>(sharded.deliveries[i].at_us));
        break;
      }
    }
    CHECK(oracle.deliveries == sharded.deliveries);
    CHECK(!oracle.deliveries.empty());
    if (oracle.counters != sharded.counters) {
      std::printf("  '%s':\n    oracle  %s\n    sharded %s\n", c.name.c_str(),
                  oracle.counters.c_str(), sharded.counters.c_str());
    }
    CHECK_EQ(oracle.counters, sharded.counters);
    CHECK_EQ(oracle.acked_floor, sharded.acked_floor);
    CHECK_EQ(oracle.total_sent, sharded.total_sent);
  }
}

TEST(thread_count_does_not_change_the_run) {
  // The window schedule depends only on the event population, never on how
  // many workers drain a window: 1, 2 and 8 threads all replay the oracle.
  const auto spec = scenario_spec("waypoint-roam");
  const ModeResult oracle = run_mode(spec, 0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const ModeResult sharded = run_mode(spec, threads);
    CHECK(oracle.deliveries == sharded.deliveries);
    CHECK_EQ(oracle.counters, sharded.counters);
  }
}

TEST(downlink_fan_out_is_one_event_per_arrival) {
  // An AP hands an ordered frame to its whole cell in one transmission.
  // Over lossless links every member of a BR subtree is due at the same
  // instant, so a frame costs one event per BR, not one per member.
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 4;
  spec.config.hierarchy.aps_per_ag = 4;
  spec.config.hierarchy.mhs_per_ap = 16;
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = 4;
  spec.config.source.rate_hz = 200.0;
  spec.config.options.ack_period = sim::secs(1.0);
  spec.seed = 7;
  spec.warmup = sim::SimTime::zero();
  spec.run = sim::secs(0.5);
  spec.drain = sim::secs(0.25);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    const ModeResult r = run_mode(spec, threads);
    CHECK(r.total_sent > 0);
    CHECK_EQ(r.delivered, r.total_sent * 256);  // 4 x 4 x 16 members
    const double events_per_delivery =
        static_cast<double>(r.executed_events) /
        static_cast<double>(std::max<std::uint64_t>(r.delivered, 1));
    if (events_per_delivery > 0.25) {
      std::printf("  threads=%zu: %llu events for %llu deliveries (%.3f)\n",
                  threads,
                  static_cast<unsigned long long>(r.executed_events),
                  static_cast<unsigned long long>(r.delivered),
                  events_per_delivery);
    }
    CHECK(events_per_delivery <= 0.25);
  }
}

TEST(delivered_counter_counts_every_delivery) {
  // mh.delivered is charged once per event for all the members it
  // delivered to. The gap skip (OrderedReceiver::skip_to) and single-member
  // resends deliver outside the fan-out's events, and must be counted too:
  // over lossy links, churn and blackouts the counter equals the members'
  // own counts, serial and sharded. The last, ad-hoc scenario churns fast
  // past a short MQ, so rejoiners skip with frames buffered behind a hole
  // and the skip itself delivers (over a hundred messages at this seed).
  // With record_deliveries on (the default), every member's delivery log
  // holds exactly its delivered_count() records: the order checks pass an
  // empty log, so only this catches a log that drops records. Roaming
  // members change domains, so their logs come from two arenas.
  std::uint64_t retransmits = 0;
  std::uint64_t gaps_skipped = 0;
  std::uint64_t handoffs = 0;
  for (const std::string name :
       {"steady", "churn-mill", "long-absence", "mass-exodus", "dark-cells",
        "group-churn", "waypoint-roam",
        "name=churn-skip;churn=poisson,leave=2,absence=0.3;"
        "traffic=poisson,rate=300;mq_retention=8"}) {
    auto spec = scenario_spec(name);
    spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.05);
    spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.01);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
      const ModeResult r = run_mode(spec, threads);
      if (r.delivered != r.member_delivered) {
        std::printf("  '%s' threads=%zu: mh.delivered %llu, members %llu\n",
                    name.c_str(), threads,
                    static_cast<unsigned long long>(r.delivered),
                    static_cast<unsigned long long>(r.member_delivered));
      }
      CHECK(r.delivered > 0);
      CHECK_EQ(r.delivered, r.member_delivered);
      CHECK_EQ(r.log_mismatches, std::uint64_t{0});
      retransmits += r.retransmits;
      gaps_skipped += r.gaps_skipped;
      handoffs += r.handoffs;
    }
  }
  // The runs did take the paths that deliver outside a fan-out.
  CHECK(retransmits > 0);
  CHECK(gaps_skipped > 0);
  CHECK(handoffs > 0);
}

TEST(harness_shard_spec_reports_same_results) {
  // The RunSpec plumbing end-to-end: run_experiment under the sharded plan
  // must report the same distilled results as the oracle plan.
  for (const std::string name : {"waypoint-roam", "token-storm"}) {
    auto spec = scenario_spec(name);
    spec.shard = true;
    spec.shard_threads = 0;
    const auto oracle = baseline::run_experiment(spec);
    spec.shard_threads = 4;
    const auto sharded = baseline::run_experiment(spec);
    CHECK_EQ(oracle.lat_hist.p99(), sharded.lat_hist.p99());
    CHECK_EQ(oracle.lat_hist.max(), sharded.lat_hist.max());
    for (const auto m : {obs::names::kRetransmits, obs::names::kHandoffCount}) {
      CHECK_EQ(oracle.metrics.counter(m), sharded.metrics.counter(m));
    }
    CHECK_NEAR(oracle.min_delivery_ratio, sharded.min_delivery_ratio, 1e-12);
    CHECK(!oracle.order_violation.has_value());
    CHECK(!sharded.order_violation.has_value());
  }
}

TEST(sources_without_mhs_leave_the_run_idle) {
  // No MH can host a source, so none is placed: the run is idle on the
  // serial engine and on the sharded one alike.
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 3;
  spec.config.hierarchy.mhs_per_ap = 0;
  spec.config.num_sources = 2;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    spec.shard = threads > 0;
    spec.shard_threads = threads;
    const auto r = baseline::run_experiment(spec);
    CHECK_EQ(r.total_sent, std::uint64_t{0});
    CHECK(!r.order_violation.has_value());
  }
}

TEST(random_programs_match_the_oracle) {
  // Every context runs the oracle's event sequence at 1, 2 and 4 workers,
  // and every shard event runs on a pool worker: a serial step runs only
  // global events, even when shard events share their instant.
  std::uint64_t events = 0;
  std::uint64_t sandwiched = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t on_caller = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const ProgramRun oracle = RandomProgram(seed, 0).run();
    events += oracle.executed;
    sandwiched += oracle.sandwiched_globals;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const ProgramRun r = RandomProgram(seed, threads).run();
      if (r.seq != oracle.seq || r.executed != oracle.executed) {
        if (mismatches == 0) {
          std::printf("  seed %llu, %zu workers: sequences diverge\n",
                      static_cast<unsigned long long>(seed), threads);
        }
        ++mismatches;
      }
      on_caller += r.shard_events_on_caller;
    }
  }
  CHECK_EQ(mismatches, std::uint64_t{0});
  CHECK_EQ(on_caller, std::uint64_t{0});
  // The programs did collide: many global events share their instant with
  // shard events that sort before and after them.
  CHECK(sandwiched > 1000);
  CHECK(events > 100000);
  std::printf("  %llu events, %llu sandwiched global events\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(sandwiched));
}

TEST(cross_shard_schedule_inside_the_window_throws) {
  // A shard event that schedules into another shard 1 ms ahead, under a
  // 5 ms lookahead, would land inside the open window. The engine refuses
  // it in every build, naming both contexts.
  sim::Simulation sim(1, sim::ShardPlan{2, sim::msecs(5), 2});
  sim.at(0, sim::msecs(1), [&sim] { sim.after(1, sim::msecs(1), [] {}); });
  std::string what;
  try {
    sim.run_for(sim::msecs(10));
  } catch (const std::logic_error& e) {
    what = e.what();
  }
  CHECK(what.find("context 0 scheduled into context 1") != std::string::npos);
  if (what.empty()) std::printf("  the run did not throw\n");
}

TEST_MAIN()
