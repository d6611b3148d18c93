#pragma once
// Experiment harness: one RunSpec describes a deterministic simulation of a
// protocol variant over a deployment; run_experiment() executes it
// (warmup -> measured run -> source stop -> drain) and hands the run's
// registry, latency histograms and delivery log to a RunResult the benches
// tabulate.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scenario/spec.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace ringnet::baseline {

enum class Variant : std::uint8_t {
  RingNet,           // the paper's protocol: hierarchy + token ordering
  RingNetUnordered,  // Remark 3: same hierarchy, no ordering pass
  SingleRing,        // related work [16]: one logical ring over every AP
  Sequencer,         // fixed central sequencer (star)
};

struct RunSpec {
  core::ProtocolConfig config;
  Variant variant = Variant::RingNet;
  // Flat-deployment shape used by the SingleRing / Sequencer baselines.
  std::size_t flat_aps = 8;
  std::size_t flat_mhs_per_ap = 1;
  sim::SimTime warmup = sim::secs(0.5);
  sim::SimTime run = sim::secs(2.0);
  sim::SimTime drain = sim::secs(1.0);
  std::uint64_t seed = 1;
  // Declarative workload: when set, a scenario::Engine drives mobility,
  // churn and faults over the run, and the scenario's traffic section (if
  // any) overrides config.source (see effective_config).
  std::optional<scenario::ScenarioSpec> scenario;
  // Parallel execution. shard == true plans one domain per BR subtree with
  // conservative lookahead equal to the WAN one-way latency floor; then
  // shard_threads == 0 runs the single-heap deterministic oracle over the
  // same domain keys, while shard_threads > 0 runs the domain-sharded
  // parallel engine on that many pool workers. shard == false is the
  // classic single-context simulation.
  bool shard = false;
  std::size_t shard_threads = 0;
  // Hand the per-MH delivery log to RunResult::log (memory ~ deliveries;
  // meant for short scripted runs used as cross-execution oracles, e.g. the
  // loopback-runtime comparison). Off, the log dies with the run, so a
  // sweep does not keep every point's log alive.
  bool export_deliveries = false;
};

struct RunResult {
  // Delivery volume
  double throughput_per_mh_hz = 0.0;
  double min_delivery_ratio = 1.0;
  // Every counter and peak gauge of the run (obs/names.hpp), read after the
  // drain: retransmits, mh.gap_skipped_msgs (really lost), handoffs, the
  // buffer peaks and the rest.
  obs::Metrics metrics;
  // End-to-end latency (submit -> MH delivery) and ordering latency
  // (submit -> gseq assignment), microseconds.
  stats::Histogram lat_hist;
  stats::Histogram assign_hist;
  // Correctness: the total-order verdict over the delivery log, which is
  // the pairwise verdict of a multi-group run too (core::check_pairwise_order).
  std::optional<std::string> order_violation;
  // Filled when spec.config.record_spans: per-stage lifecycle latency
  // breakdown (submit/assign/relay/deliver histograms) merged over every
  // execution context.
  obs::SpanBreakdown spans;
  // Total submissions.
  std::uint64_t total_sent = 0;
  // Filled when spec.export_deliveries: each MH's delivery sequence in
  // delivery order, moved out of the protocol (empty otherwise).
  core::DeliveryLog log;
};

using RunHook =
    std::function<void(core::RingNetProtocol&, sim::Simulation&)>;

/// Resolve the variant into a concrete ProtocolConfig (flat baselines are
/// expressed as degenerate hierarchies; unordered switches the ordering
/// pass off).
core::ProtocolConfig effective_config(const RunSpec& spec);

/// Execution plan for the spec over its resolved config: one domain per BR
/// with the WAN one-way latency as lookahead when sharding is requested,
/// the classic single-context plan otherwise.
sim::ShardPlan shard_plan(const RunSpec& spec, const core::ProtocolConfig& cfg);

RunResult run_experiment(const RunSpec& spec);
RunResult run_experiment(const RunSpec& spec, const RunHook& hook);

}  // namespace ringnet::baseline
