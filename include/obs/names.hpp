#pragma once
// The metric vocabulary: every counter and max-gauge the sim oracle and the
// UDP runtime report, as one enum. obs::Metrics is a fixed array indexed by
// it, so both engines share one vocabulary by construction — a metric that
// is not listed here does not compile — and metric_name() is the one place
// the spellings live.

#include <cstddef>
#include <cstdint>

namespace ringnet::obs::names {

enum Metric : std::uint8_t {
  // --- protocol counters (shared by the sim oracle and the UDP runtime) ---
  kMhDelivered,
  kAcksSent,
  kRetransmits,
  kTokenHeld,
  kTokenDupDestroyed,
  kTokenRegenerated,
  kTokenDropped,
  kGapsSkipped,
  kGapSkippedMsgs,
  kMembershipApplied,
  kMembershipRelayed,
  kRingRepairs,
  kRingRejoins,
  kHandoffCount,
  kHandoffHot,
  kHandoffCold,
  kArchivePruned,
  kChurnLeaves,
  kChurnRejoins,
  kBlackoutDropped,
  kBlackoutUplinkLost,
  kParkDropped,
  kBufWqPeak,
  kBufMqPeak,
  kBufArchivePeak,

  // --- runtime-only counters ---
  kTokenRetx,
  kFloorAdvances,
  kDuplicates,
  kUplinkRetx,
  kUplinkDropped,
  kMalformed,
  kSsHeartbeats,

  // --- scheduler engine counters ---
  kSchedSerialSteps,
  kSchedWindows,
  kSchedInboxDeferred,
};

inline constexpr std::size_t kMetricCount = kSchedInboxDeferred + 1;

/// The reported spelling of a metric. No default case: a metric added
/// without a spelling fails the build under -Wall -Werror (-Wswitch).
constexpr const char* metric_name(Metric m) {
  switch (m) {
    case kMhDelivered:
      return "mh.delivered";
    case kAcksSent:
      return "arq.acks_sent";
    case kRetransmits:
      return "arq.retransmits";
    case kTokenHeld:
      return "token.held";
    case kTokenDupDestroyed:
      return "token.duplicates_destroyed";
    case kTokenRegenerated:
      return "token.regenerated";
    case kTokenDropped:
      return "token.dropped";
    case kGapsSkipped:
      return "mh.gaps_skipped";
    case kGapSkippedMsgs:
      return "mh.gap_skipped_msgs";
    case kMembershipApplied:
      return "membership.applied";
    case kMembershipRelayed:
      return "membership.relayed";
    case kRingRepairs:
      return "ring.repairs";
    case kRingRejoins:
      return "ring.rejoins";
    case kHandoffCount:
      return "handoff.count";
    case kHandoffHot:
      return "handoff.hot";
    case kHandoffCold:
      return "handoff.cold";
    case kArchivePruned:
      return "archive.pruned";
    case kChurnLeaves:
      return "churn.leaves";
    case kChurnRejoins:
      return "churn.rejoins";
    case kBlackoutDropped:
      return "blackout.dropped";
    case kBlackoutUplinkLost:
      return "blackout.uplink_lost";
    case kParkDropped:
      return "source.park_dropped";
    case kBufWqPeak:
      return "buf.wq.peak";
    case kBufMqPeak:
      return "buf.mq.peak";
    case kBufArchivePeak:
      return "buf.archive.peak";
    case kTokenRetx:
      return "token.retx";
    case kFloorAdvances:
      return "arq.floor_advances";
    case kDuplicates:
      return "mh.duplicates";
    case kUplinkRetx:
      return "arq.uplink_retx";
    case kUplinkDropped:
      return "arq.uplink_dropped";
    case kMalformed:
      return "transport.malformed";
    case kSsHeartbeats:
      return "ss.heartbeats";
    case kSchedSerialSteps:
      return "sched.serial_steps";
    case kSchedWindows:
      return "sched.windows";
    case kSchedInboxDeferred:
      return "sched.inbox_deferred";
  }
  return "?";
}

// kMetricCount sizes obs::Metrics' slot array: a metric appended after
// kSchedInboxDeferred without moving it would get a spelling here.
static_assert(metric_name(static_cast<Metric>(kMetricCount))[0] == '?');

}  // namespace ringnet::obs::names
