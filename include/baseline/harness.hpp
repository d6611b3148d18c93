#pragma once
// Experiment harness: one RunSpec describes a deterministic simulation of a
// protocol variant over a deployment; run_experiment() executes it
// (warmup -> measured run -> source stop -> drain) and distills the
// trace/metrics into a flat RunResult the benches tabulate.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "obs/span.hpp"
#include "scenario/spec.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

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
  // Copy the per-MH delivery sequences into RunResult::deliveries (memory ~
  // deliveries; meant for short scripted runs used as cross-execution
  // oracles, e.g. the loopback-runtime comparison).
  bool export_deliveries = false;
};

struct RunResult {
  // Delivery volume
  double throughput_per_mh_hz = 0.0;
  double min_delivery_ratio = 1.0;
  // End-to-end latency (submit -> MH delivery), microseconds
  double lat_mean_us = 0.0;
  std::uint64_t lat_p50_us = 0;
  std::uint64_t lat_p90_us = 0;
  std::uint64_t lat_p99_us = 0;
  std::uint64_t lat_max_us = 0;
  // Ordering latency (submit -> gseq assignment), microseconds
  std::uint64_t assign_p99_us = 0;
  std::uint64_t assign_max_us = 0;
  // Buffers
  double wq_peak = 0.0;
  double mq_peak = 0.0;
  double archive_peak = 0.0;  // peer-repair archive high-watermark
  // Reliability work
  std::uint64_t retransmits = 0;
  std::uint64_t really_lost = 0;
  std::uint64_t mh_gaps_skipped = 0;
  // Token machinery
  std::uint64_t tokens_held = 0;
  std::uint64_t token_regenerations = 0;
  std::uint64_t duplicate_tokens_destroyed = 0;
  // Mobility
  std::uint64_t handoffs = 0;
  std::uint64_t hot_attaches = 0;
  std::uint64_t cold_attaches = 0;
  // Scenario dynamics
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_rejoins = 0;
  std::uint64_t blackout_drops = 0;   // recoverable (downlink / in-flight)
  std::uint64_t uplink_lost = 0;      // unrecoverable: dropped pre-ordering
  std::uint64_t park_dropped = 0;     // over a detached source's park cap
  std::uint64_t tokens_dropped = 0;
  // Correctness. In multi-group runs order_violation holds the pairwise
  // consistency verdict (core::check_pairwise_order); in single-group runs
  // the classic total-order check.
  std::optional<std::string> order_violation;
  // Total deliveries over all MHs (with genuine multicast each message is
  // delivered destination-membership times, not population times, so this
  // is the quantity bench_groups plots against group fan-out).
  std::uint64_t delivered_total = 0;
  // Filled when spec.config.record_spans: per-stage lifecycle latency
  // breakdown (submit/assign/relay/deliver histograms) merged over every
  // execution context.
  obs::SpanBreakdown spans;
  // Filled when spec.export_deliveries: total submissions and each MH's
  // delivery sequence in delivery order (MH-index major).
  std::uint64_t total_sent = 0;
  std::vector<core::DeliveryLog::Rec> deliveries_flat;
  std::vector<std::size_t> deliveries_offsets;  // per-MH [begin, end) bounds

  /// Per-MH slice of deliveries_flat (valid while this result is alive).
  std::pair<const core::DeliveryLog::Rec*, std::size_t> deliveries_of(
      std::size_t mh_index) const {
    const std::size_t b = deliveries_offsets[mh_index];
    const std::size_t e = deliveries_offsets[mh_index + 1];
    return {deliveries_flat.data() + b, e - b};
  }
};

using RunHook =
    std::function<void(core::RingNetProtocol&, sim::Simulation&)>;

/// Resolve the variant into a concrete ProtocolConfig (flat baselines are
/// expressed as degenerate hierarchies; unordered switches the ordering
/// pass off).
core::ProtocolConfig effective_config(const RunSpec& spec);

/// The lookahead floor for domain-sharded execution: the minimum of the
/// per-pair latency matrix over the resolved topology's inter-domain (WAN
/// ring) links. Equals the configured WAN one-way latency on today's
/// uniform deployments; exposed so tests can pin that equivalence.
sim::SimTime min_interdomain_latency(const core::ProtocolConfig& cfg);

/// Execution plan for the spec over its resolved config: one domain per BR
/// with min_interdomain_latency as lookahead when sharding is requested,
/// the classic single-context plan otherwise.
sim::ShardPlan shard_plan(const RunSpec& spec, const core::ProtocolConfig& cfg);

RunResult run_experiment(const RunSpec& spec);
RunResult run_experiment(const RunSpec& spec, const RunHook& hook);

}  // namespace ringnet::baseline
