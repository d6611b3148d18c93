// Simulation container: per-context event recording, metrics counters /
// high-watermark gauges, and whole-run determinism — the same (seed,
// config) must replay an identical protocol trace, which is what makes
// every bench reproducible.

#include <string>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"
#include "sim/simulation.hpp"

using namespace ringnet;

TEST(metrics_counters_and_gauges) {
  namespace names = obs::names;
  sim::Simulation sim(1);
  sim.metrics().incr(names::kAcksSent);
  sim.metrics().incr(names::kAcksSent, 4);
  CHECK_EQ(sim.metrics().counter(names::kAcksSent), std::uint64_t{5});
  CHECK_EQ(sim.metrics().counter(names::kRetransmits), std::uint64_t{0});
  sim.metrics().gauge_max(names::kBufMqPeak, 3.0);
  sim.metrics().gauge_max(names::kBufMqPeak, 7.0);
  sim.metrics().gauge_max(names::kBufMqPeak, 5.0);
  CHECK_NEAR(sim.metrics().gauge(names::kBufMqPeak), 7.0, 1e-9);
}

TEST(record_stamps_time_and_node) {
  sim::Simulation sim(1);
  sim.enable_trace();
  sim.at(sim::SimTime{1}, [&sim] {
    sim.record(obs::FrEvent::TokenRx, NodeId{1}, 9, 4);
  });
  sim.at(sim::SimTime{2}, [&sim] {
    sim.record(obs::FrEvent::Handoff, NodeId{2}, 1);
  });
  sim.at(sim::SimTime{3}, [&sim] {
    sim.record(obs::FrEvent::TokenRx, NodeId{3}, 9, 5);
  });
  sim.run_to_completion();
  const auto events = sim.recorder().snapshot();
  CHECK_EQ(events.size(), std::size_t{3});
  CHECK(events[2].kind == obs::FrEvent::TokenRx);
  CHECK_EQ(events[2].t_us, std::int64_t{3});
  CHECK_EQ(events[2].node, std::uint32_t{3});
  CHECK_EQ(events[2].a, std::uint64_t{9});
  CHECK_EQ(events[2].b, std::uint64_t{5});
  CHECK(events[1].kind == obs::FrEvent::Handoff);
}

TEST(trace_capacity_keeps_latest_per_context) {
  // Two domains plus the global context, each with its own capped ring.
  sim::Simulation sim(1, sim::ShardPlan{2, sim::msecs(5), 0});
  sim.enable_trace(3);
  for (std::int64_t i = 0; i < 5; ++i) {
    sim.at(sim::Domain{1}, sim::SimTime{i}, [&sim, i] {
      sim.record(obs::FrEvent::Deliver, NodeId{1},
                 static_cast<std::uint64_t>(i));
    });
  }
  sim.run_to_completion();
  const obs::FlightRecorder& ring = sim.recorder(sim::Domain{1});
  CHECK_EQ(ring.capacity(), std::size_t{3});
  CHECK_EQ(ring.total_recorded(), std::uint64_t{5});
  const auto kept = ring.snapshot();
  CHECK_EQ(kept.size(), std::size_t{3});
  CHECK_EQ(kept.front().a, std::uint64_t{2});  // oldest kept
  CHECK_EQ(kept.back().a, std::uint64_t{4});
  CHECK_EQ(sim.recorder(sim::Domain{0}).size(), std::size_t{0});
  CHECK_EQ(sim.recorder().size(), std::size_t{0});
  // Capacity 0 keeps every event.
  sim::Simulation all(1);
  all.enable_trace();
  for (std::int64_t i = 0; i < 1000; ++i) {
    all.record(obs::FrEvent::Deliver, NodeId{1});
  }
  CHECK_EQ(all.recorder().size(), std::size_t{1000});
}

namespace {

std::string trace_fingerprint(std::uint64_t seed) {
  sim::Simulation sim(seed);
  sim.enable_trace();
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 3;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 2;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.05);
  cfg.num_sources = 2;
  cfg.source.rate_hz = 200.0;
  cfg.mobility.handoff_rate_hz = 2.0;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  sim.run_for(sim::secs(1.0));
  std::string fp;
  for (const obs::FrRecord& ev : sim.recorder().snapshot()) {
    fp += std::to_string(static_cast<int>(ev.kind)) + ":" +
          std::to_string(ev.t_us) + ":" + std::to_string(ev.node) + ":" +
          std::to_string(ev.a) + ";";
  }
  const obs::Metrics& mx = sim.metrics();
  fp += "|delivered=" + std::to_string(mx.counter(obs::names::kMhDelivered));
  fp += "|retx=" + std::to_string(mx.counter(obs::names::kRetransmits));
  return fp;
}

}  // namespace

TEST(same_seed_same_trace) {
  const auto a = trace_fingerprint(42);
  const auto b = trace_fingerprint(42);
  CHECK(!a.empty());
  CHECK(a == b);
}

TEST(different_seed_different_trace) {
  // Loss sampling and mobility depend on the seed, so two seeds should
  // diverge somewhere in a 1-second lossy, mobile run.
  CHECK(trace_fingerprint(1) != trace_fingerprint(2));
}

TEST_MAIN()
