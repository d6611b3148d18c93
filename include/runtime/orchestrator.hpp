#pragma once
// Loopback orchestrator: boots a full Figure-1 deployment (SS + BR ring +
// APs + MH cells) as real processes-in-miniature — one NodeLoop thread per
// node over UDP sockets on 127.0.0.1 (or the in-process transport twin
// for deterministic tests) — runs a count-bounded scripted workload through
// the supervisor handshake, and collects the per-MH delivery log plus the
// merged registry for comparison against the simulator oracle.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/inproc_transport.hpp"
#include "runtime/node.hpp"
#include "stats/histogram.hpp"

namespace ringnet::runtime {

struct LoopbackSpec {
  // Hierarchy shape (no AG tier in the runtime: BRs serve their APs
  // directly, the degenerate ags_per_br == 1 configuration of the sim).
  std::size_t num_brs = 2;
  std::size_t aps_per_br = 2;
  std::size_t mhs_per_ap = 8;
  // Workload: every MH hosts one count-bounded source.
  double rate_hz = 50.0;
  std::uint32_t msgs_per_source = 20;
  std::uint32_t payload_size = 64;
  // Multi-group mode (groups.multi()): memberships and destination sets are
  // derived via core::member_groups / core::dest_groups, so the same spec
  // replayed through the sim oracle produces the identical workload.
  core::GroupConfig groups;
  RuntimeOptions opts;
  // Stretches every watchdog and slows the workload uniformly; >1 keeps
  // sanitizer legs (5-15x slower than real time) inside the same timing
  // envelope. Fold in with scaled() before reading any field.
  double time_scale = 1.0;
  std::int64_t tick_us = 1000;
  std::int64_t boot_timeout_us = 10'000'000;
  std::int64_t run_timeout_us = 120'000'000;
  bool use_udp = true;
  // Honored only when use_udp is false: scripted losses for watchdog tests.
  InProcNet::DropHook drop_hook;

  std::size_t n_aps() const { return num_brs * aps_per_br; }
  std::size_t n_mhs() const { return n_aps() * mhs_per_ap; }
  /// Expected deliveries at MH #m: every message in legacy mode, only the
  /// destined subsequence (membership intersects destination set) in
  /// multi-group mode.
  std::uint64_t expected_at(std::size_t m) const;
  /// Expected deliveries over every MH: the sum of expected_at(m).
  std::uint64_t expected_total() const {
    std::uint64_t total = 0;
    for (std::size_t m = 0; m < n_mhs(); ++m) total += expected_at(m);
    return total;
  }
};

/// The spec with time_scale folded into every duration (and the source rate
/// slowed to match); idempotent once time_scale is 1.
LoopbackSpec scaled(LoopbackSpec spec);

/// Every node's config in a spec's Figure-1 deployment: BR i serves APs
/// [i*aps_per_br, (i+1)*aps_per_br), AP a serves MHs [a*mhs_per_ap,
/// (a+1)*mhs_per_ap), and MH m hosts source NodeId{m}. Shared by
/// run_loopback and the ringnet_node daemon, which takes its own node's
/// config from it.
struct Deployment {
  std::vector<BrConfig> brs;
  std::vector<ApConfig> aps;
  std::vector<MhConfig> mhs;
  SsConfig ss;  // ss.all_nodes: every other node, BRs, then APs, then MHs
};

/// The deployment for scaled(spec).
Deployment make_deployment(const LoopbackSpec& spec);

struct LoopbackResult {
  bool completed = false;  // every MH reported Done before the deadline
  std::size_t n_mh = 0;
  std::uint64_t expected_total = 0;
  // Each MH's deliveries in delivery order (MH global index order).
  core::DeliveryLog log;
  std::optional<std::string> order_violation;
  // Every node's registry, merged: BRs, APs, MHs and the SS.
  obs::Metrics metrics;
  // The MHs' live latency histograms, merged: each source MH's
  // submit->delivery of its own messages, wall microseconds.
  stats::Histogram lat_hist;
  // Per-stage lifecycle breakdown (spec.opts.record_spans): MH submit and
  // delivery stamps joined with the assigning BR's uplink-rx/assignment
  // records and the delivering BR's relay-arrival map. All node loops share
  // one WallClock, so cross-node differences are well-defined.
  obs::SpanBreakdown spans;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_malformed = 0;
  std::uint64_t send_failures = 0;
};

LoopbackResult run_loopback(const LoopbackSpec& spec);

}  // namespace ringnet::runtime
