#include "baseline/harness.hpp"

#include <algorithm>
#include <optional>

#include "obs/names.hpp"
#include "scenario/engine.hpp"

namespace ringnet::baseline {

namespace names = obs::names;

core::ProtocolConfig effective_config(const RunSpec& spec) {
  core::ProtocolConfig cfg = spec.config;
  if (spec.scenario) {
    if (spec.scenario->has_traffic) {
      const scenario::TrafficSpec& t = spec.scenario->traffic;
      cfg.source.pattern = t.pattern;
      cfg.source.rate_hz = t.rate_hz;
      cfg.source.burst_rate_hz = t.burst_rate_hz;
      cfg.source.on_mean = t.on_mean;
      cfg.source.off_mean = t.off_mean;
      cfg.source.diurnal_period = t.diurnal_period;
      cfg.source.sender_skew = t.sender_skew;
    }
    if (spec.scenario->mq_retention) {
      cfg.options.mq_retention = *spec.scenario->mq_retention;
    }
    if (spec.scenario->groups) {
      const scenario::GroupSpec& g = *spec.scenario->groups;
      cfg.groups.count = g.count;
      cfg.groups.groups_per_mh = g.groups_per_mh;
      cfg.groups.dest_groups = g.dest_groups;
    }
  }
  switch (spec.variant) {
    case Variant::RingNet:
      cfg.options.ordered = true;
      break;
    case Variant::RingNetUnordered:
      cfg.options.ordered = false;
      break;
    case Variant::SingleRing:
      // One logical ring spanning every AP: each ring node serves one cell
      // directly, and all control information rotates past all of them.
      cfg.hierarchy.num_brs = std::max<std::size_t>(2, spec.flat_aps);
      cfg.hierarchy.ags_per_br = 1;
      cfg.hierarchy.aps_per_ag = 1;
      cfg.hierarchy.mhs_per_ap = std::max<std::size_t>(1, spec.flat_mhs_per_ap);
      cfg.options.ordered = true;
      break;
    case Variant::Sequencer:
      // Star around one fixed sequencer node.
      cfg.hierarchy.num_brs = 1;
      cfg.hierarchy.ags_per_br = 1;
      cfg.hierarchy.aps_per_ag = std::max<std::size_t>(1, spec.flat_aps);
      cfg.hierarchy.mhs_per_ap = std::max<std::size_t>(1, spec.flat_mhs_per_ap);
      cfg.options.ordered = true;
      break;
  }
  return cfg;
}

sim::ShardPlan shard_plan(const RunSpec& spec,
                          const core::ProtocolConfig& cfg) {
  sim::ShardPlan plan;
  if (!spec.shard) return plan;
  plan.domains = static_cast<sim::Domain>(cfg.hierarchy.num_brs);
  // Conservative lookahead: the parallel window must stay below the
  // earliest possible cross-domain interaction. Every cross-domain event
  // rides a BR<->BR WAN hop, so the WAN one-way latency is that floor
  // (serialization only lengthens a hop). A one-BR ring has no such hop,
  // and any positive window is safe.
  plan.lookahead = std::max(cfg.hierarchy.wan.latency, sim::usecs(1));
  plan.threads = spec.shard_threads;
  return plan;
}

RunResult run_experiment(const RunSpec& spec) {
  return run_experiment(spec, RunHook{});
}

RunResult run_experiment(const RunSpec& spec, const RunHook& hook) {
  const core::ProtocolConfig cfg = effective_config(spec);
  sim::Simulation sim(spec.seed, shard_plan(spec, cfg));
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  std::optional<scenario::Engine> engine;
  if (spec.scenario) {
    engine.emplace(*spec.scenario, proto, sim);
    engine->arm();
  }
  if (hook) hook(proto, sim);

  sim.run_for(spec.warmup + spec.run);
  proto.stop_sources();
  proto.mobility().stop();
  if (engine) engine->stop();
  sim.run_for(spec.drain);

  RunResult out;
  out.metrics = sim.metrics();
  const double active = (spec.warmup + spec.run).seconds();
  const std::size_t n_mh = proto.topology().mhs.size();
  if (active > 0.0 && n_mh > 0) {
    out.throughput_per_mh_hz =
        static_cast<double>(out.metrics.counter(names::kMhDelivered)) /
        static_cast<double>(n_mh) / active;
  }

  if (cfg.record_spans) out.spans = proto.span_breakdown();
  out.lat_hist = proto.lat_hist();
  out.assign_hist = proto.assign_hist();

  if (proto.total_sent() > 0) {
    double min_ratio = 1.0;
    for (const auto& mh : proto.mhs()) {
      const double ratio = static_cast<double>(mh.delivered_count()) /
                           static_cast<double>(proto.total_sent());
      min_ratio = std::min(min_ratio, ratio);
    }
    out.min_delivery_ratio = min_ratio;
  }

  if (proto.config().options.ordered && proto.config().record_deliveries) {
    out.order_violation = proto.deliveries().check_total_order();
  }
  out.total_sent = proto.total_sent();
  if (spec.export_deliveries) out.log = proto.take_deliveries();
  return out;
}

}  // namespace ringnet::baseline
