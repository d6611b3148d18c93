// Loopback soak: boot the Figure-1 hierarchy as real threaded nodes over
// UDP sockets on 127.0.0.1, run a count-bounded scripted workload through
// the supervisor handshake, and gate the outcome against the deterministic
// simulator as oracle. The exact gseq->message binding is timing-dependent
// (each execution is its own serialization), so the cross-execution gate
// compares what must be invariant: each MH's delivered multiset of
// (source, lseq), per-MH delivered counts, zero total-order violations
// within each run, and really-lost (mh.gap_skipped_msgs) parity. Non-zero
// exit on any mismatch.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baseline/harness.hpp"
#include "net/channel.hpp"
#include "obs/names.hpp"
#include "runtime/orchestrator.hpp"
#include "stats/histogram.hpp"

namespace {

using ringnet::baseline::RunResult;
using ringnet::baseline::RunSpec;
using ringnet::runtime::LoopbackResult;
using ringnet::runtime::LoopbackSpec;
namespace names = ringnet::obs::names;

[[noreturn]] void usage_and_exit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--spans] [--brs N] [--aps-per-br N] "
               "[--mhs-per-ap N] [--msgs N] [--rate HZ] [--seed N] "
               "[--time-scale F] [--groups N] [--per-mh N] [--dest N]\n",
               prog);
  std::exit(2);
}

/// The invariant delivery content of one MH: its (source, lseq) multiset.
std::vector<std::pair<std::uint32_t, std::uint64_t>> sorted_pairs(
    const ringnet::core::DeliveryLog& log, std::size_t mh) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  out.reserve(log.records(mh).size());
  for (const auto& r : log.records(mh)) out.emplace_back(r.source.v, r.lseq);
  std::sort(out.begin(), out.end());
  return out;
}

/// One latency line: a histogram's quantiles in microseconds.
void print_latency(const char* label, const ringnet::stats::Histogram& h) {
  std::printf("  %s p50=%llu p90=%llu p99=%llu max=%llu (n=%llu)\n", label,
              static_cast<unsigned long long>(h.p50()),
              static_cast<unsigned long long>(h.p90()),
              static_cast<unsigned long long>(h.p99()),
              static_cast<unsigned long long>(h.max()),
              static_cast<unsigned long long>(h.count()));
}

}  // namespace

int main(int argc, char** argv) {
  LoopbackSpec spec;
  spec.num_brs = 2;
  spec.aps_per_br = 2;
  spec.mhs_per_ap = 8;
  spec.rate_hz = 50.0;
  spec.msgs_per_source = 40;
  std::uint64_t seed = 1;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    const auto num = [&](const std::string& v) -> std::uint64_t {
      char* end = nullptr;
      const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0') {
        usage_and_exit(argv[0]);
      }
      return n;
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--spans") {
      spec.opts.record_spans = true;
    } else if (arg == "--brs") {
      spec.num_brs = num(value());
    } else if (arg == "--aps-per-br") {
      spec.aps_per_br = num(value());
    } else if (arg == "--mhs-per-ap") {
      spec.mhs_per_ap = num(value());
    } else if (arg == "--msgs") {
      spec.msgs_per_source = static_cast<std::uint32_t>(num(value()));
    } else if (arg == "--rate") {
      spec.rate_hz = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--seed") {
      seed = num(value());
    } else if (arg == "--time-scale") {
      spec.time_scale = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--groups") {
      spec.groups.count = num(value());
    } else if (arg == "--per-mh") {
      spec.groups.groups_per_mh = num(value());
    } else if (arg == "--dest") {
      spec.groups.dest_groups = num(value());
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (smoke) {
    // Still the acceptance floor (2 BRs / 4 APs / 32 MHs), just a shorter
    // script so sanitizer legs finish quickly.
    spec.msgs_per_source = 12;
    spec.rate_hz = 40.0;
  }
  if (spec.num_brs < 1 || spec.aps_per_br < 1 || spec.mhs_per_ap < 1 ||
      spec.rate_hz <= 0.0 || spec.msgs_per_source == 0) {
    usage_and_exit(argv[0]);
  }

  const LoopbackSpec eff = ringnet::runtime::scaled(spec);
  const std::size_t n_mh = eff.n_mhs();
  const double script_secs =
      static_cast<double>(eff.msgs_per_source) / eff.rate_hz;

  std::printf("loopback soak: %zu BRs x %zu APs x %zu MHs = %zu nodes, "
              "%u msgs/source @ %.1f Hz (%s)\n",
              eff.num_brs, eff.n_aps(), n_mh,
              eff.num_brs + eff.n_aps() + n_mh + 1, eff.msgs_per_source,
              eff.rate_hz, eff.use_udp ? "udp loopback" : "in-process");
  if (eff.groups.multi()) {
    std::printf("  multi-group: %zu groups, %zu per MH, %zu dest/msg "
                "(genuine chain delivery)\n",
                eff.groups.count, eff.groups.groups_per_mh,
                eff.groups.dest_groups);
  }

  LoopbackResult rt = ringnet::runtime::run_loopback(eff);

  // Same deployment and workload in the simulator (lossless channels; the
  // wired loopback loses nothing the ARQ doesn't recover).
  RunSpec oracle;
  oracle.config.hierarchy.num_brs = eff.num_brs;
  oracle.config.hierarchy.ags_per_br = 1;
  oracle.config.hierarchy.aps_per_ag = eff.aps_per_br;
  oracle.config.hierarchy.mhs_per_ap = eff.mhs_per_ap;
  oracle.config.hierarchy.wan = ringnet::net::ChannelModel::wired_wan(0.0);
  oracle.config.hierarchy.lan = ringnet::net::ChannelModel::wired_lan(0.0);
  oracle.config.hierarchy.wireless = ringnet::net::ChannelModel::wireless(0.0);
  oracle.config.num_sources = n_mh;
  oracle.config.groups = eff.groups;
  oracle.config.source.rate_hz = eff.rate_hz;
  oracle.config.source.payload_size = eff.payload_size;
  oracle.config.source.max_messages = eff.msgs_per_source;
  oracle.warmup = ringnet::sim::secs(0.0);
  oracle.run = ringnet::sim::secs(script_secs + 1.0);
  oracle.drain = ringnet::sim::secs(2.0);
  oracle.seed = seed;
  oracle.export_deliveries = true;
  // Same --spans switch on the oracle, so both runs decompose delivery
  // latency into the identical submit/assign/relay/deliver stages.
  oracle.config.record_spans = eff.opts.record_spans;
  RunResult sim = ringnet::baseline::run_experiment(oracle);

  int failures = 0;
  const auto gate = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  const auto count = [](const ringnet::obs::Metrics& m, names::Metric k) {
    return static_cast<unsigned long long>(m.counter(k));
  };
  gate(rt.completed, "runtime: every MH reported Done before the deadline");
  gate(!rt.order_violation,
       "runtime: zero total-order violations across MHs");
  if (rt.order_violation) {
    std::printf("         %s\n", rt.order_violation->c_str());
  }
  gate(!sim.order_violation, "oracle: zero total-order violations");
  gate(sim.total_sent ==
           static_cast<std::uint64_t>(n_mh) * eff.msgs_per_source,
       "oracle: sources submitted the full script");

  std::size_t mismatched = 0;
  std::size_t count_mismatched = 0;
  for (std::size_t m = 0; m < n_mh; ++m) {
    if (rt.delivered_counts[m] != sim.log.records(m).size()) {
      ++count_mismatched;
    }
    if (sorted_pairs(rt.log, m) != sorted_pairs(sim.log, m)) ++mismatched;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "delivered (source,lseq) multisets match the oracle on all "
                "%zu MHs (%zu mismatched)",
                n_mh, mismatched);
  gate(mismatched == 0, buf);
  std::snprintf(buf, sizeof(buf),
                "per-MH delivered counts match the oracle (%zu mismatched)",
                count_mismatched);
  gate(count_mismatched == 0, buf);
  const auto rt_lost = count(rt.metrics, names::kGapSkippedMsgs);
  const auto sim_lost = count(sim.metrics, names::kGapSkippedMsgs);
  std::snprintf(buf, sizeof(buf),
                "really-lost parity (mh.gap_skipped_msgs): runtime %llu vs "
                "oracle %llu",
                rt_lost, sim_lost);
  gate(rt_lost == sim_lost, buf);

  std::printf("\n");
  print_latency("runtime latency us (submit->delivery, wall):", rt.lat_hist);
  print_latency("oracle  latency us (sim time):              ", sim.lat_hist);
  std::printf("  frames: sent=%llu received=%llu malformed=%llu "
              "send_failures=%llu\n",
              static_cast<unsigned long long>(rt.frames_sent),
              static_cast<unsigned long long>(rt.frames_received),
              static_cast<unsigned long long>(rt.frames_malformed),
              static_cast<unsigned long long>(rt.send_failures));
  std::printf("  token: held=%llu retx=%llu regen=%llu dup_destroyed=%llu "
              "dropped=%llu\n",
              count(rt.metrics, names::kTokenHeld),
              count(rt.metrics, names::kTokenRetx),
              count(rt.metrics, names::kTokenRegenerated),
              count(rt.metrics, names::kTokenDupDestroyed),
              count(rt.metrics, names::kTokenDropped));
  std::printf("  arq: downlink_retx=%llu uplink_retx=%llu duplicates=%llu "
              "acks=%llu floor_advances=%llu\n",
              count(rt.metrics, names::kRetransmits),
              count(rt.metrics, names::kUplinkRetx),
              count(rt.metrics, names::kDuplicates),
              count(rt.metrics, names::kAcksSent),
              count(rt.metrics, names::kFloorAdvances));

  if (eff.opts.record_spans) {
    // Side-by-side per-stage lifecycle breakdown: real UDP wall time vs.
    // the simulator's modelled time for the same scenario. Stages must
    // match (same names, same count rows); absolute magnitudes differ
    // because loopback wall time includes scheduling noise.
    std::printf("\n%s", rt.spans.table("runtime spans (udp loopback, wall us)")
                            .c_str());
    std::printf("\n%s",
                sim.spans.table("oracle spans (simulated us)").c_str());
    gate(!rt.spans.empty(), "runtime: span breakdown captured deliveries");
    gate(!sim.spans.empty(), "oracle: span breakdown captured deliveries");
  }

  std::printf("\nloopback soak: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
