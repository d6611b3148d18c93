// Observability layer: the unified metrics registry (concurrent intern vs
// hot-path mutation, chunked slot growth), the span breakdown and the
// simulator's per-stage spans, and the flight recorder (ring wrap,
// auto-dump arming, and one JSON dump shape for a bare ring, a runtime BR
// and a simulator context). The concurrent cases are the TSan regression
// net for the registry's lock-free read path.

#include <string>
#include <thread>
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

TEST(metrics_intern_is_idempotent) {
  obs::Metrics m;
  const auto a = m.intern("x.alpha");
  const auto b = m.intern("x.beta");
  CHECK(a != b);
  CHECK_EQ(m.intern("x.alpha"), a);
  m.incr(a, 3);
  m.incr("x.alpha");
  CHECK_EQ(m.counter(a), std::uint64_t{4});
  CHECK_EQ(m.counter("x.alpha"), std::uint64_t{4});
  CHECK_EQ(m.counter("x.never-interned"), std::uint64_t{0});
}

TEST(metrics_gauge_keeps_maximum) {
  obs::Metrics m;
  const auto g = m.intern("x.peak");
  m.gauge_max(g, 4.0);
  m.gauge_max(g, 9.0);
  m.gauge_max(g, 2.0);
  CHECK_NEAR(m.gauge(g), 9.0, 1e-12);
}

TEST(metrics_slots_survive_chunk_growth) {
  // Handles must stay valid while intern crosses chunk boundaries (64
  // slots per chunk): write through early handles after 300 later interns.
  obs::Metrics m;
  const auto first = m.intern("grow.first");
  m.incr(first);
  std::vector<obs::Metrics::MetricId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(m.intern("grow." + std::to_string(i)));
  }
  for (const auto id : ids) m.incr(id);
  m.incr(first);
  CHECK_EQ(m.counter(first), std::uint64_t{2});
  for (const auto id : ids) CHECK_EQ(m.counter(id), std::uint64_t{1});
  std::size_t seen = 0;
  std::uint64_t sum = 0;
  m.for_each_counter([&](const std::string&, std::uint64_t c, double) {
    ++seen;
    sum += c;
  });
  CHECK_EQ(seen, std::size_t{301});
  CHECK_EQ(sum, std::uint64_t{302});
}

TEST(metrics_concurrent_intern_vs_incr) {
  // The TSan net: writer threads hammer held handles while intern threads
  // force chunk publications. Any growth on the read path is a data race
  // the sanitizer leg catches; the count check catches lost updates.
  obs::Metrics m;
  const auto hot = m.intern("race.hot");
  constexpr int kWriters = 4;
  constexpr int kIncrsPerWriter = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&m, hot] {
      for (int i = 0; i < kIncrsPerWriter; ++i) m.incr(hot);
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 0; i < 200; ++i) {
        const auto id =
            m.intern("race.t" + std::to_string(t) + "." + std::to_string(i));
        m.incr(id);
        // Same-name interning from both threads must converge on one slot.
        m.incr(m.intern("race.shared." + std::to_string(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  CHECK_EQ(m.counter(hot),
           std::uint64_t{kWriters} * std::uint64_t{kIncrsPerWriter});
  CHECK_EQ(m.counter("race.shared.0"), std::uint64_t{2});
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
    CHECK(r.retransmits > 0);
    CHECK(r.delivered_total > 0);
    CHECK_EQ(r.spans.total().count(), r.delivered_total);
    for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
      CHECK_EQ(r.spans.stage(static_cast<obs::SpanStage>(i)).count(),
               r.delivered_total);
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

TEST(names_constants_are_namespaced) {
  // The RN008 lint forces core/runtime call sites through these constants;
  // sanity-pin a few so a rename cannot silently decouple sim and runtime.
  const std::string held = obs::names::kTokenHeld;
  const std::string delivered = obs::names::kMhDelivered;
  CHECK_EQ(held, std::string{"token.held"});
  CHECK_EQ(delivered, std::string{"mh.delivered"});
  CHECK_EQ(std::string{obs::stage_name(obs::SpanStage::Submit)},
           std::string{obs::names::kStageSubmit});
}

TEST_MAIN()
