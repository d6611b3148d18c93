#pragma once
// ProtocolConfig: every tunable of a RingNet deployment/simulation in one
// aggregate — the hierarchy shape and channel models, source workload,
// mobility process, and the protocol option block (token cadence, ack
// cadence, membership batching, retention, failure detection, handoff
// reservations). core::analyze() consumes the same structure, so analytic
// sizing and simulation always describe the same deployment.

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"
#include "topo/hierarchy.hpp"

namespace ringnet::core {

/// Inter-submit time law for the traffic generator driving each source.
enum class TrafficPattern : std::uint8_t {
  Constant,  // fixed period 1/rate (the paper's s*lambda workload)
  Poisson,   // exponential inter-submit times at rate
  Mmpp,      // Markov-modulated on/off Poisson: burst_rate in ON, rate in OFF
  Diurnal,   // Poisson with a sinusoidal rate ramp over diurnal_period
};

struct SourceConfig {
  double rate_hz = 100.0;            // per-source submit rate (base/OFF rate)
  std::uint32_t payload_size = 256;  // bytes per multicast payload
  TrafficPattern pattern = TrafficPattern::Constant;
  double burst_rate_hz = 0.0;  // MMPP ON-state rate; 0 = 10x rate_hz
  sim::SimTime on_mean = sim::msecs(100);   // MMPP mean ON dwell
  sim::SimTime off_mean = sim::msecs(400);  // MMPP mean OFF dwell
  sim::SimTime diurnal_period = sim::secs(2.0);  // one full rate cycle
  // Per-sender rate skew: source i carries weight (i+1)^-skew, normalized
  // to mean 1 so the aggregate rate stays s*lambda. 0 = uniform senders.
  double sender_skew = 0.0;
  // Count-bounded workload: each source stops after this many submissions
  // (0 = unbounded). Scripted finite runs — e.g. the loopback-runtime
  // oracle comparison — need every execution to carry the same message set.
  std::uint64_t max_messages = 0;
};

struct MobilityConfig {
  double handoff_rate_hz = 0.0;            // per-MH handoff rate (Poisson)
  sim::SimTime detach_gap = sim::msecs(20);  // radio silence per handoff
};

/// Multi-group multicast shape. count == 1 is the degenerate single-group
/// deployment — the paper's protocol, bit-identical to the pre-group code
/// path. count > 1 turns on genuine multi-group mode: MHs join
/// `groups_per_mh` of `count` overlapping groups, each message targets
/// `dest_groups` groups, and only actual destination members pay delivery
/// cost (BRs skip downlink work for groups with no subtree members).
struct GroupConfig {
  std::size_t count = 1;          // total groups sharing the ring
  std::size_t groups_per_mh = 1;  // overlap degree: memberships per MH
  std::size_t dest_groups = 1;    // destination groups per message (<= 4)
  bool multi() const { return count > 1; }
};

struct ProtocolOptions {
  // Message-Ordering cadence: sources' messages are staged at their BR and
  // folded into the WQ every tau (the paper's batching interval).
  sim::SimTime tau = sim::msecs(5);
  // Token holding time at each ordering node per visit.
  sim::SimTime token_hold = sim::usecs(100);
  // DeliveryAck cadence from each MH (WT freshness).
  sim::SimTime ack_period = sim::msecs(10);
  // Membership update batching window (§3 batched update scheme).
  sim::SimTime membership_batch = sim::msecs(50);
  // Failure detection: ring heartbeats and the miss budget.
  sim::SimTime heartbeat_period = sim::msecs(25);
  int heartbeat_miss_limit = 4;
  // MQ ValidFront lag: delivered entries retained for handoff resync.
  std::size_t mq_retention = 1024;
  // Assigned-message archive (peer-repair store) entries retained below the
  // global acked floor. Together with mq_retention this bounds steady-state
  // ordering-node memory at O(window) instead of O(total messages sent)
  // (Theorem 5.1's bounded-buffer claim, enforced by test_soak_memory).
  std::size_t archive_retention = 1024;
  // Submissions parked while the host MH is detached are bounded: beyond
  // this many, the oldest parked message is dropped, so a
  // permanently-departed member (churn with no rejoin) cannot grow
  // O(total submissions) state.
  std::size_t source_park_cap = 1024;
  // §3 smooth handoff: keep reserved distribution paths on neighbor APs.
  bool smooth_handoff = true;
  // Cold-attach penalty: time to graft a new distribution path.
  sim::SimTime path_build = sim::msecs(100);
  // Link-layer ARQ: retransmit timeout and attempt budget per hop.
  sim::SimTime retx_timeout = sim::msecs(30);
  int max_retx = 10;
  // Total-order Message-Ordering on the top ring. Off = the Remark 3
  // unordered variant (same hierarchy, no token wait).
  bool ordered = true;
};

struct ProtocolConfig {
  topo::HierarchyConfig hierarchy;
  std::size_t num_sources = 1;
  SourceConfig source;
  MobilityConfig mobility;
  ProtocolOptions options;
  GroupConfig groups;
  // Keep a per-delivery log for total-order checking (memory ~ deliveries).
  bool record_deliveries = true;
  // Decompose each delivery into per-stage span latencies (submit/assign/
  // relay/deliver histograms, fixed memory). Off by default: the stamps
  // always ride the message, but the per-delivery histogram records are
  // only paid when a run asks for the breakdown.
  bool record_spans = false;
};

}  // namespace ringnet::core
