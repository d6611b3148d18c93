// bench_obs: instrumentation-overhead micros. Each pair runs the same
// protocol hot path with observability off (baseline) and on (spans +
// per-delivery spans recording), so the bench-diff gate catches a metrics
// or span change that taxes the data path. Target: < 3% overhead on the
// token-forward and distribute micros (the 10% bench_diff gate is the
// hard wall).

#include <benchmark/benchmark.h>

#include "baseline/harness.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace ringnet;

core::ProtocolConfig ring_config(std::size_t brs, double rate_hz) {
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = brs;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.num_sources = 1;
  cfg.source.rate_hz = rate_hz;
  cfg.record_deliveries = false;
  return cfg;
}

core::ProtocolConfig distribute_config() {
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 4;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 8;
  cfg.hierarchy.mhs_per_ap = 8;
  cfg.num_sources = 8;
  cfg.source.rate_hz = 400.0;
  cfg.record_deliveries = false;
  return cfg;
}

// Token ring rotation with no traffic: the pure ordering-pass hot path.
void BM_TokenForwardRing_NoSpans(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(7);
    core::RingNetProtocol proto(sim, ring_config(8, 0.0));
    proto.start();
    sim.run_for(sim::msecs(50));
    benchmark::DoNotOptimize(
        sim.metrics().counter(obs::names::kTokenHeld));
  }
}
BENCHMARK(BM_TokenForwardRing_NoSpans)->Unit(benchmark::kMillisecond);

void BM_TokenForwardRing_Spans(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(7);
    core::ProtocolConfig cfg = ring_config(8, 0.0);
    cfg.record_spans = true;
    core::RingNetProtocol proto(sim, cfg);
    proto.start();
    sim.run_for(sim::msecs(50));
    benchmark::DoNotOptimize(
        sim.metrics().counter(obs::names::kTokenHeld));
  }
}
BENCHMARK(BM_TokenForwardRing_Spans)->Unit(benchmark::kMillisecond);

// Batched distribute/deliver under live sources: the delivery hot path.
void BM_DistributeBatchDeliver_NoSpans(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(11);
    core::RingNetProtocol proto(sim, distribute_config());
    proto.start();
    sim.run_for(sim::msecs(10));
    benchmark::DoNotOptimize(
        sim.metrics().counter(obs::names::kMhDelivered));
  }
}
BENCHMARK(BM_DistributeBatchDeliver_NoSpans)->Unit(benchmark::kMillisecond);

void BM_DistributeBatchDeliver_Spans(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(11);
    core::ProtocolConfig cfg = distribute_config();
    cfg.record_spans = true;
    core::RingNetProtocol proto(sim, cfg);
    proto.start();
    sim.run_for(sim::msecs(10));
    benchmark::DoNotOptimize(
        sim.metrics().counter(obs::names::kMhDelivered));
  }
}
BENCHMARK(BM_DistributeBatchDeliver_Spans)->Unit(benchmark::kMillisecond);

// Registry micro: the hot-path incr, one relaxed atomic add into the
// metric's fixed slot. Guards the registry against an accidental lock or
// lookup on the incr path.
void BM_MetricsIncr(benchmark::State& state) {
  obs::Metrics m;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) m.incr(obs::names::kMhDelivered);
    benchmark::DoNotOptimize(m.counter(obs::names::kMhDelivered));
  }
}
BENCHMARK(BM_MetricsIncr);

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder fr;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      fr.record(obs::FrEvent::Deliver, ++t, 1, static_cast<std::uint64_t>(i));
    }
    benchmark::DoNotOptimize(fr.total_recorded());
  }
}
BENCHMARK(BM_FlightRecorderRecord);

}  // namespace

BENCHMARK_MAIN();
