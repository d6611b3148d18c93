#pragma once
// The one table of metric and span-stage names. Sim and runtime intern
// from these constants so both report the same metric vocabulary, and the
// RN008 lint rule rejects ad-hoc name literals on core/runtime paths —
// a metric that exists under two spellings is worse than no metric.

namespace ringnet::obs::names {

// --- protocol counters (shared by the sim oracle and the UDP runtime) ---
inline constexpr const char* kMhDelivered = "mh.delivered";
inline constexpr const char* kAcksSent = "arq.acks_sent";
inline constexpr const char* kRetransmits = "arq.retransmits";
inline constexpr const char* kTokenHeld = "token.held";
inline constexpr const char* kTokenDupDestroyed = "token.duplicates_destroyed";
inline constexpr const char* kTokenRegenerated = "token.regenerated";
inline constexpr const char* kTokenDropped = "token.dropped";
inline constexpr const char* kGapsSkipped = "mh.gaps_skipped";
inline constexpr const char* kGapSkippedMsgs = "mh.gap_skipped_msgs";
inline constexpr const char* kMembershipApplied = "membership.applied";
inline constexpr const char* kMembershipRelayed = "membership.relayed";
inline constexpr const char* kRingRepairs = "ring.repairs";
inline constexpr const char* kRingRejoins = "ring.rejoins";
inline constexpr const char* kHandoffCount = "handoff.count";
inline constexpr const char* kHandoffHot = "handoff.hot";
inline constexpr const char* kHandoffCold = "handoff.cold";
inline constexpr const char* kArchivePruned = "archive.pruned";
inline constexpr const char* kChurnLeaves = "churn.leaves";
inline constexpr const char* kChurnRejoins = "churn.rejoins";
inline constexpr const char* kBlackoutDropped = "blackout.dropped";
inline constexpr const char* kBlackoutUplinkLost = "blackout.uplink_lost";
inline constexpr const char* kParkDropped = "source.park_dropped";
inline constexpr const char* kBufWqPeak = "buf.wq.peak";
inline constexpr const char* kBufMqPeak = "buf.mq.peak";
inline constexpr const char* kBufArchivePeak = "buf.archive.peak";

// --- runtime-only counters (RuntimeCounters fields, same vocabulary) ---
inline constexpr const char* kTokenRetx = "token.retx";
inline constexpr const char* kFloorAdvances = "arq.floor_advances";
inline constexpr const char* kDuplicates = "mh.duplicates";
inline constexpr const char* kUplinkRetx = "arq.uplink_retx";
inline constexpr const char* kUplinkDropped = "arq.uplink_dropped";
inline constexpr const char* kReallyLost = "mh.really_lost";
inline constexpr const char* kMalformed = "transport.malformed";
inline constexpr const char* kSsHeartbeats = "ss.heartbeats";

// --- scheduler engine counters ---
inline constexpr const char* kSchedSerialSteps = "sched.serial_steps";
inline constexpr const char* kSchedWindows = "sched.windows";
inline constexpr const char* kSchedInboxDeferred = "sched.inbox_deferred";

// --- message-lifecycle span stages (submit -> ... -> delivery) ---
// Stage k measures the hop *into* that stage: kStageSubmit is
// submit -> uplink-rx at the ordering BR, kStageAssign is uplink-rx ->
// gseq assignment at a token pass, kStageRelay is assignment -> ordered
// arrival at the delivering member's BR, kStageDeliver is BR arrival ->
// delivery at the MH (AP downlink included).
inline constexpr const char* kStageSubmit = "submit";
inline constexpr const char* kStageAssign = "assign";
inline constexpr const char* kStageRelay = "relay";
inline constexpr const char* kStageDeliver = "deliver";
inline constexpr const char* kStageTotal = "total";

}  // namespace ringnet::obs::names
