// Observability layer: the unified metrics registry (the pinned metric
// vocabulary, enum-only keys, concurrent increments), the span breakdown
// and the simulator's per-stage spans, and the flight recorder (ring wrap,
// auto-dump arming, and one JSON dump shape for a bare ring, a runtime BR
// and a simulator context). The concurrent cases are the TSan regression
// net for the registry's lock-free slots.

#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "net/channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "ringnet_test.hpp"
#include "runtime/inproc_transport.hpp"
#include "runtime/node.hpp"
#include "sim/simulation.hpp"

using namespace ringnet;

namespace {

bool has(const std::string& json, const std::string& part) {
  return json.find(part) != std::string::npos;
}

/// The dump shape both engines share: one line opening with the header
/// fields, one five-field object per retained event, balanced braces and
/// brackets, and `]}}` last.
void check_dump_shape(const std::string& json, const std::string& node,
                      const std::string& reason,
                      const obs::FlightRecorder& fr) {
  const std::string head = "{\"flight_recorder\":{\"node\":\"" + node + "\",";
  CHECK(json.rfind(head, 0) == 0);
  CHECK(has(json, "\"reason\":\"" + reason + "\","));
  CHECK(has(json, "\"recorded\":" + std::to_string(fr.total_recorded()) +
                      ","));
  CHECK(has(json, "\"retained\":" + std::to_string(fr.size()) + ","));
  std::size_t events = 0;
  for (std::size_t at = json.find("{\"ev\":\""); at != std::string::npos;
       at = json.find("{\"ev\":\"", at + 1)) {
    ++events;
  }
  CHECK_EQ(events, fr.size());
  if (fr.size() > 0) {
    CHECK(has(json, "\",\"node\":") && has(json, ",\"t_us\":") &&
          has(json, ",\"a\":") && has(json, ",\"b\":"));
  }
  CHECK(!has(json, "\n"));  // single line for the daemon
  // Balanced braces/brackets: a cheap well-formedness proxy the CI soak
  // backs with a real json.loads parse.
  int depth = 0;
  bool ok = true;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) ok = false;
  }
  CHECK(ok);
  CHECK_EQ(depth, 0);
  CHECK(json.size() >= 3 && json.compare(json.size() - 3, 3, "]}}") == 0);
}

}  // namespace

// The registry takes only a names::Metric: a string key or a bare integer
// does not compile, so no name outside the vocabulary reaches a registry.
template <typename Key>
constexpr bool kIncrAccepts = requires(obs::Metrics& m, Key k) { m.incr(k); };
template <typename Key>
constexpr bool kCounterAccepts =
    requires(const obs::Metrics& m, Key k) { m.counter(k); };
static_assert(kIncrAccepts<obs::names::Metric>);
static_assert(!kIncrAccepts<const char*>);
static_assert(!kIncrAccepts<std::string>);
static_assert(!kIncrAccepts<int>);
static_assert(kCounterAccepts<obs::names::Metric>);
static_assert(!kCounterAccepts<const char*>);
static_assert(!kCounterAccepts<std::string>);
static_assert(!kCounterAccepts<int>);

TEST(metrics_gauge_keeps_maximum) {
  obs::Metrics m;
  m.gauge_max(obs::names::kBufArchivePeak, 4.0);
  m.gauge_max(obs::names::kBufArchivePeak, 9.0);
  m.gauge_max(obs::names::kBufArchivePeak, 2.0);
  CHECK_NEAR(m.gauge(obs::names::kBufArchivePeak), 9.0, 1e-12);
  CHECK_NEAR(m.gauge(obs::names::kBufMqPeak), 0.0, 1e-12);
}

TEST(metrics_copy_is_a_snapshot) {
  obs::Metrics live;
  live.incr(obs::names::kRetransmits, 3);
  live.gauge_max(obs::names::kBufMqPeak, 5.0);
  obs::Metrics snap = live;
  obs::Metrics assigned;
  assigned.incr(obs::names::kTokenHeld);
  assigned = live;
  live.incr(obs::names::kRetransmits);
  live.gauge_max(obs::names::kBufMqPeak, 8.0);
  for (const obs::Metrics* m : {&snap, &assigned}) {
    CHECK_EQ(m->counter(obs::names::kRetransmits), std::uint64_t{3});
    CHECK_NEAR(m->gauge(obs::names::kBufMqPeak), 5.0, 1e-12);
  }
  CHECK_EQ(assigned.counter(obs::names::kTokenHeld), std::uint64_t{0});
  CHECK_EQ(live.counter(obs::names::kRetransmits), std::uint64_t{4});
}

TEST(metrics_merge_adds_counters_and_keeps_gauge_maxima) {
  obs::Metrics a;
  a.incr(obs::names::kRetransmits, 3);
  a.gauge_max(obs::names::kBufMqPeak, 9.0);
  a.gauge_max(obs::names::kBufWqPeak, 1.0);
  obs::Metrics b;
  b.incr(obs::names::kRetransmits, 4);
  b.incr(obs::names::kTokenHeld, 2);
  b.gauge_max(obs::names::kBufMqPeak, 6.0);
  b.gauge_max(obs::names::kBufWqPeak, 7.0);
  a.merge_from(b);
  CHECK_EQ(a.counter(obs::names::kRetransmits), std::uint64_t{7});
  CHECK_EQ(a.counter(obs::names::kTokenHeld), std::uint64_t{2});
  CHECK_NEAR(a.gauge(obs::names::kBufMqPeak), 9.0, 1e-12);
  CHECK_NEAR(a.gauge(obs::names::kBufWqPeak), 7.0, 1e-12);
  // The source is read, not drained.
  CHECK_EQ(b.counter(obs::names::kRetransmits), std::uint64_t{4});
}

TEST(metrics_concurrent_incr_is_exact) {
  // The TSan net: writer threads hammer one slot; the count check catches
  // lost updates.
  obs::Metrics m;
  constexpr int kWriters = 4;
  constexpr int kIncrsPerWriter = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kIncrsPerWriter; ++i) {
        m.incr(obs::names::kRetransmits);
      }
    });
  }
  for (auto& th : threads) th.join();
  CHECK_EQ(m.counter(obs::names::kRetransmits),
           std::uint64_t{kWriters} * std::uint64_t{kIncrsPerWriter});
}

TEST(for_each_counter_visits_every_metric_in_enum_order) {
  obs::Metrics m;
  m.incr(obs::names::kTokenHeld, 7);
  m.gauge_max(obs::names::kBufWqPeak, 3.0);
  std::size_t next = 0;
  std::set<std::string> spellings;
  m.for_each_counter([&](obs::names::Metric id, std::uint64_t c, double g) {
    CHECK_EQ(static_cast<std::size_t>(id), next);
    ++next;
    spellings.insert(obs::names::metric_name(id));
    CHECK_EQ(c, id == obs::names::kTokenHeld ? std::uint64_t{7}
                                             : std::uint64_t{0});
    CHECK_NEAR(g, id == obs::names::kBufWqPeak ? 3.0 : 0.0, 1e-12);
  });
  CHECK_EQ(next, obs::names::kMetricCount);
  CHECK_EQ(spellings.size(), obs::names::kMetricCount);
  CHECK(spellings.count("?") == 0);
}

TEST(span_breakdown_records_and_renders) {
  obs::SpanBreakdown b;
  CHECK(b.empty());
  for (std::uint64_t i = 1; i <= 10; ++i) {
    b.record(obs::SpanStage::Submit, i);
    b.record(obs::SpanStage::Assign, 10 * i);
    b.record(obs::SpanStage::Relay, 100 * i);
    b.record(obs::SpanStage::Deliver, i);
    b.record_total(111 * i + i);
  }
  CHECK(!b.empty());
  CHECK_EQ(b.stage(obs::SpanStage::Assign).count(), std::uint64_t{10});
  CHECK_EQ(b.total().count(), std::uint64_t{10});

  obs::SpanBreakdown other;
  other.record(obs::SpanStage::Submit, 7);
  other.record_total(7);
  b.merge_from(other);
  CHECK_EQ(b.stage(obs::SpanStage::Submit).count(), std::uint64_t{11});
  CHECK_EQ(b.total().count(), std::uint64_t{11});

  const std::string t = b.table("unit");
  CHECK(t.find("unit") != std::string::npos);
  for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
    CHECK(t.find(obs::stage_name(static_cast<obs::SpanStage>(i))) !=
          std::string::npos);
  }
  CHECK(t.find("total") != std::string::npos);
}

TEST(sim_spans_capture_all_stages) {
  // The simulator twin of the runtime's loopback_spans_capture_all_stages:
  // every delivery, resends included, reaches every stage histogram. A
  // lossy shape makes members recover through MQ resends, in the
  // single-group and the multi-group (chain) mode alike.
  for (const std::size_t groups : {std::size_t{1}, std::size_t{8}}) {
    baseline::RunSpec spec;
    spec.config.hierarchy.num_brs = 4;
    spec.config.hierarchy.aps_per_ag = 2;
    spec.config.hierarchy.mhs_per_ap = 3;
    spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.05);
    spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.01);
    spec.config.num_sources = 4;
    spec.config.source.rate_hz = 100.0;
    spec.config.record_spans = true;
    if (groups > 1) {
      spec.config.groups.count = groups;
      spec.config.groups.groups_per_mh = 2;
      spec.config.groups.dest_groups = 2;
    }
    spec.seed = 7;
    const auto r = baseline::run_experiment(spec);
    CHECK(!r.order_violation.has_value());
    CHECK(r.metrics.counter(obs::names::kRetransmits) > 0);
    const std::uint64_t delivered =
        r.metrics.counter(obs::names::kMhDelivered);
    CHECK(delivered > 0);
    CHECK_EQ(r.spans.total().count(), delivered);
    for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
      CHECK_EQ(r.spans.stage(static_cast<obs::SpanStage>(i)).count(),
               delivered);
    }
  }
}

TEST(flight_recorder_ring_wraps) {
  obs::FlightRecorder fr(8);
  CHECK_EQ(fr.capacity(), std::size_t{8});
  for (std::uint64_t i = 0; i < 20; ++i) {
    fr.record(obs::FrEvent::Deliver, static_cast<std::int64_t>(i), 3, i);
  }
  CHECK_EQ(fr.size(), std::size_t{8});
  CHECK_EQ(fr.total_recorded(), std::uint64_t{20});
  const auto snap = fr.snapshot();
  CHECK_EQ(snap.size(), std::size_t{8});
  // Oldest-to-newest: the retained window is exactly the last 8 records.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    CHECK_EQ(snap[i].a, std::uint64_t{12 + i});
    CHECK_EQ(snap[i].node, std::uint32_t{3});
    CHECK(snap[i].kind == obs::FrEvent::Deliver);
  }
}

TEST(flight_recorder_auto_dump_arming) {
  obs::FlightRecorder fr;
  CHECK(!fr.take_dump_request());
  fr.record(obs::FrEvent::TokenRx, 1, 0, 5);
  fr.record(obs::FrEvent::Deliver, 2, 0, 9);
  fr.record(obs::FrEvent::NodeCrash, 3, 0);
  fr.record(obs::FrEvent::RingRepair, 3, 0, 2);
  CHECK(!fr.take_dump_request());  // routine events never arm a dump
  fr.record(obs::FrEvent::TokenRegen, 3, 0, 2);
  CHECK(fr.take_dump_request());
  CHECK(!fr.take_dump_request());  // take clears it
  fr.record(obs::FrEvent::OrderViolation, 4, 0, 11, 10);
  fr.record(obs::FrEvent::TokenDropped, 5, 0, 7);
  CHECK(fr.take_dump_request());
  CHECK(!fr.take_dump_request());
}

TEST(flight_recorder_dump_json_shape) {
  obs::FlightRecorder fr(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    fr.record(obs::FrEvent::TokenTx, static_cast<std::int64_t>(100 + i), 7,
              i, i + 1);
  }
  const std::string json = fr.dump_json("br[0]", "sigusr1");
  check_dump_shape(json, "br[0]", "sigusr1", fr);
  CHECK(has(json, "\"recorded\":6"));
  CHECK(has(json, "\"retained\":4"));
  CHECK(has(json, "{\"ev\":\"token_tx\",\"node\":7,\"t_us\":105,\"a\":5,"
                  "\"b\":6}"));
  // An empty recorder still dumps well-formed JSON (quiet AP nodes).
  const obs::FlightRecorder empty;
  const std::string ej = empty.dump_json("ap[1]", "auto");
  check_dump_shape(ej, "ap[1]", "auto", empty);
  CHECK(has(ej, "\"events\":[]"));
}

TEST(flight_recorder_dump_keeps_long_labels_whole) {
  // Labels longer than any fixed formatting buffer must neither be cut nor
  // read past.
  obs::FlightRecorder fr;
  fr.record(obs::FrEvent::Deliver, 1, 2, 3);
  const std::string node(300, 'n');
  const std::string reason(300, 'r');
  const std::string json = fr.dump_json(node, reason);
  CHECK(has(json, "\"node\":\"" + node + "\""));
  CHECK(has(json, "\"reason\":\"" + reason + "\""));
  check_dump_shape(json, node, reason, fr);
}

TEST(runtime_br_dump_has_the_shared_shape) {
  // A leader BR whose only peer never answers: the forward ARQ gives up
  // and the watchdog regenerates the token.
  runtime::InProcNet net;
  const auto br0 = NodeId::make(Tier::BR, 0);
  const auto br1 = NodeId::make(Tier::BR, 1);
  const auto ss = NodeId{0x00FFFFFEu};
  auto tr = net.attach(br0);
  (void)net.attach(br1);
  (void)net.attach(ss);
  runtime::BrConfig cfg;
  cfg.self = br0;
  cfg.ss = ss;
  cfg.ring = {br0, br1};
  cfg.opts.retx_timeout_us = 1'000;
  cfg.opts.max_retx = 2;
  cfg.opts.heartbeat_period_us = 2'000;
  runtime::BrRuntime br(cfg, *tr);
  br.on_start(0);
  for (std::int64_t t = 100; t <= cfg.opts.token_regen_timeout_us() + 5'000;
       t += 100) {
    br.on_tick(t);
  }
  const obs::FlightRecorder& fr = br.flight_recorder();
  const std::string json = fr.dump_json("br[0]", "auto");
  check_dump_shape(json, "br[0]", "auto", fr);
  CHECK(has(json, "\"ev\":\"token_dropped\""));
  CHECK(has(json, "\"ev\":\"token_regen\""));
  // Every event is stamped with the BR that recorded it.
  for (const obs::FrRecord& ev : fr.snapshot()) CHECK_EQ(ev.node, br0.v);
}

TEST(sim_crash_dump_has_the_shared_shape) {
  // The simulator records into the same recorder type: a crashed token
  // holder shows up in the global context as a crash, a ring repair and a
  // regeneration.
  sim::Simulation sim(99);
  sim.enable_trace();
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 4;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.num_sources = 2;
  cfg.source.rate_hz = 100.0;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  const NodeId victim = proto.topology().top_ring[1];
  sim.after(sim::secs(0.5), [&proto, victim] { proto.crash_node(victim); });
  sim.run_for(sim::secs(2.0));
  const obs::FlightRecorder& fr = sim.recorder();
  const std::string json = fr.dump_json("sim", "crash_node");
  check_dump_shape(json, "sim", "crash_node", fr);
  CHECK(has(json, "{\"ev\":\"node_crash\",\"node\":" +
                      std::to_string(victim.v) + ",\"t_us\":500000,"));
  CHECK(has(json, "{\"ev\":\"ring_repair\",\"node\":" +
                      std::to_string(victim.v) + ","));
  CHECK(has(json, "\"ev\":\"token_regen\""));
}

TEST(metric_names_pin_the_vocabulary) {
  // Every spelling both engines report, in enum order: a rename here
  // changes what the daemon's stats frames and bench tables print.
  namespace names = obs::names;
  const std::vector<std::pair<names::Metric, std::string>> pinned{
      {names::kMhDelivered, "mh.delivered"},
      {names::kAcksSent, "arq.acks_sent"},
      {names::kRetransmits, "arq.retransmits"},
      {names::kTokenHeld, "token.held"},
      {names::kTokenDupDestroyed, "token.duplicates_destroyed"},
      {names::kTokenRegenerated, "token.regenerated"},
      {names::kTokenDropped, "token.dropped"},
      {names::kGapsSkipped, "mh.gaps_skipped"},
      {names::kGapSkippedMsgs, "mh.gap_skipped_msgs"},
      {names::kMembershipApplied, "membership.applied"},
      {names::kMembershipRelayed, "membership.relayed"},
      {names::kRingRepairs, "ring.repairs"},
      {names::kRingRejoins, "ring.rejoins"},
      {names::kHandoffCount, "handoff.count"},
      {names::kHandoffHot, "handoff.hot"},
      {names::kHandoffCold, "handoff.cold"},
      {names::kArchivePruned, "archive.pruned"},
      {names::kChurnLeaves, "churn.leaves"},
      {names::kChurnRejoins, "churn.rejoins"},
      {names::kBlackoutDropped, "blackout.dropped"},
      {names::kBlackoutUplinkLost, "blackout.uplink_lost"},
      {names::kParkDropped, "source.park_dropped"},
      {names::kBufWqPeak, "buf.wq.peak"},
      {names::kBufMqPeak, "buf.mq.peak"},
      {names::kBufArchivePeak, "buf.archive.peak"},
      {names::kTokenRetx, "token.retx"},
      {names::kFloorAdvances, "arq.floor_advances"},
      {names::kDuplicates, "mh.duplicates"},
      {names::kUplinkRetx, "arq.uplink_retx"},
      {names::kUplinkDropped, "arq.uplink_dropped"},
      {names::kMalformed, "transport.malformed"},
      {names::kSsHeartbeats, "ss.heartbeats"},
      {names::kSchedSerialSteps, "sched.serial_steps"},
      {names::kSchedWindows, "sched.windows"},
      {names::kSchedInboxDeferred, "sched.inbox_deferred"},
  };
  CHECK_EQ(pinned.size(), names::kMetricCount);
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    CHECK_EQ(static_cast<std::size_t>(pinned[i].first), i);
    CHECK_EQ(std::string{names::metric_name(pinned[i].first)},
             pinned[i].second);
  }
  CHECK_EQ(std::string{obs::stage_name(obs::SpanStage::Submit)},
           std::string{"submit"});
  CHECK_EQ(std::string{obs::stage_name(obs::SpanStage::Deliver)},
           std::string{"deliver"});
}

TEST_MAIN()
