// E9 (§4.2.1 Token-Loss / Multiple-Token): after the token holder crashes,
// topology maintenance repairs the ring and signals Token-Loss; the
// Token-Regeneration algorithm restarts Message-Ordering from the best
// surviving NewOrderingToken. This bench measures the ordering stall
// (last token hold before the crash -> first hold after) as a function of
// ring size, and verifies Multiple-Token elimination.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/protocol.hpp"

using namespace ringnet;

namespace {

struct RecoveryResult {
  std::size_t ring_size;
  double stall_ms = 0;
  std::uint64_t regenerations = 0;
  std::uint64_t epochs_after = 0;
  bool order_ok = false;
  double post_crash_throughput = 0;
};

RecoveryResult measure_recovery(std::size_t num_brs) {
  sim::Simulation sim(1234 + num_brs);
  sim.enable_trace();

  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = num_brs;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.num_sources = 2;
  cfg.source.rate_hz = 100.0;

  core::RingNetProtocol proto(sim, cfg);
  proto.start();

  const auto crash_at = sim::secs(1.0);
  const NodeId victim = proto.topology().top_ring[1];
  sim.after(crash_at, [&proto, victim] { proto.crash_node(victim); });

  sim.run_for(sim::secs(4.0));
  proto.stop_sources();
  sim.run_for(sim::secs(1.0));

  RecoveryResult out;
  out.ring_size = num_brs;

  // Ordering stall: gap in token receipts around the crash instant.
  std::vector<obs::FrRecord> passes = sim.recorder().snapshot();
  std::erase_if(passes, [](const obs::FrRecord& ev) {
    return ev.kind != obs::FrEvent::TokenRx;
  });
  sim::SimTime last_before = sim::SimTime::zero();
  sim::SimTime first_after = sim::SimTime::max();
  const sim::SimTime crash_time = sim::SimTime::zero() + crash_at;
  for (const auto& ev : passes) {
    const sim::SimTime at{ev.t_us};
    if (at <= crash_time && at > last_before) last_before = at;
    if (at > crash_time && at < first_after) first_after = at;
  }
  if (first_after != sim::SimTime::max()) {
    out.stall_ms = (first_after - last_before).seconds() * 1e3;
  }
  out.regenerations = sim.metrics().counter("token.regenerated");
  // Highest epoch observed in token receipts after the crash.
  for (const auto& ev : passes) {
    if (sim::SimTime{ev.t_us} > crash_time) {
      out.epochs_after = std::max(out.epochs_after, ev.a);
    }
  }
  out.order_ok = !proto.deliveries().check_total_order().has_value();

  // Post-crash throughput at a surviving MH (first MH not under the
  // victim's subtree: MH index num_brs-1 is under the last BR).
  const auto& mh = proto.mhs().back();
  out.post_crash_throughput =
      mh.last_delivery_at() > crash_time ? 1.0 : 0.0;
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "E9 / Token-Loss recovery and Multiple-Token elimination",
      "ordering resumes after the holder crashes (regenerated token, fresh "
      "epoch); ring merges leave exactly one token alive");

  {
    stats::Table table("token-loss recovery vs top-ring size",
                       {"r", "stall ms", "regens", "epoch after", "order ok",
                        "survivors deliver"});
    for (const std::size_t r : {3u, 4u, 6u, 8u, 12u}) {
      const auto res = measure_recovery(r);
      table.row()
          .cell(static_cast<std::uint64_t>(res.ring_size))
          .cell(res.stall_ms, 1)
          .cell(res.regenerations)
          .cell(res.epochs_after)
          .cell(res.order_ok ? "yes" : "NO")
          .cell(res.post_crash_throughput > 0 ? "yes" : "NO");
    }
    table.print(std::cout);
  }

  {
    stats::Table table("Multiple-Token elimination (duplicate injected at t=1s)",
                       {"r", "duplicates destroyed", "order ok",
                        "delivery ratio"});
    for (const std::size_t r : {3u, 6u}) {
      baseline::RunSpec spec;
      spec.config.hierarchy.num_brs = r;
      spec.config.hierarchy.mhs_per_ap = 1;
      spec.config.num_sources = 2;
      spec.config.source.rate_hz = 100.0;
      spec.run = sim::secs(2.0);
      const auto res = baseline::run_experiment(
          spec, [](core::RingNetProtocol& proto, sim::Simulation& sim) {
            sim.after(sim::secs(1.0), [&proto] {
              proto.inject_duplicate_token(proto.topology().top_ring[1], 1);
            });
          });
      table.row()
          .cell(static_cast<std::uint64_t>(r))
          .cell(res.duplicate_tokens_destroyed)
          .cell(res.order_violation.has_value() ? "NO" : "yes")
          .cell(res.min_delivery_ratio, 3);
    }
    table.print(std::cout);
  }

  std::printf(
      "\nExpected shape: the stall is dominated by failure detection\n"
      "(heartbeat budget) plus one repair round plus one regeneration round,\n"
      "so it grows mildly with r; exactly one token survives a duplicate\n"
      "injection and ordering continues violation-free.\n");
  return 0;
}
