#pragma once
// Runtime role state machines: the protocol's node roles (border router /
// ordering node, access proxy, mobile host, supervisor) implemented over
// the Transport seam with wall-clock watchdog timers, mirroring the
// simulator's timeout logic — token-forward ARQ per ring hop, leader
// token-regeneration on custody loss, ack-driven downlink retransmission
// with MQ-floor gap skips, and uplink resubmission until assignment.
//
// Every method runs on the owning NodeLoop's protocol thread; reading a
// node's state from outside is safe only after the loop has been stopped
// (NodeLoop::stop joins). All time comes from the injected util::Clock via
// the loop — no direct wall-clock reads (RN006 boundary).

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/types.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/transport.hpp"
#include "stats/histogram.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ringnet::runtime {

// RN007-ok: control-plane tag for acks/membership/token lineage frames, not
// an ordering-state index; data-plane groups come from core::GroupConfig.
constexpr GroupId kRuntimeGroup{1};
constexpr std::int64_t kNeverUs = -(std::int64_t{1} << 62);

/// Wall-clock timer settings, the runtime counterparts of the sim's
/// ProtocolOptions durations. scale_timers() stretches every duration
/// uniformly (TSan legs run 5-15x slower than real time).
struct RuntimeOptions {
  std::int64_t token_hold_us = 200;
  std::int64_t ack_period_us = 10'000;
  std::int64_t heartbeat_period_us = 25'000;
  int heartbeat_miss_limit = 4;
  std::int64_t retx_timeout_us = 30'000;
  int max_retx = 10;
  std::size_t mq_retention = 8192;
  std::int64_t handshake_resend_us = 50'000;
  // Record message-lifecycle span timestamps (uplink-rx / assignment /
  // relay arrival at the BR, submit / delivery at the MH) so the
  // orchestrator can join them into a per-stage latency breakdown after
  // the loops stop. Off by default: span logs grow with message count.
  bool record_spans = false;

  /// Custody-loss budget before the leader regenerates the token. Must
  /// exceed the forward-ARQ give-up budget ((max_retx+1) * retx_timeout):
  /// regenerating while some ring node is still retransmitting the old
  /// token puts two live tokens on the ring, and their assignments can
  /// bind one gseq to two different messages.
  std::int64_t token_regen_timeout_us() const {
    return heartbeat_miss_limit * heartbeat_period_us +
           (max_retx + 2) * retx_timeout_us;
  }

  void scale_timers(double f);
};

/// Per-node counters, aggregated by the orchestrator after the loops stop.
struct RuntimeCounters {
  std::uint64_t tokens_held = 0;
  std::uint64_t token_regenerated = 0;
  std::uint64_t token_dup_destroyed = 0;
  std::uint64_t token_retx = 0;
  std::uint64_t token_dropped = 0;
  std::uint64_t retransmits = 0;       // downlink resends from the MQ
  std::uint64_t floor_advances = 0;    // member pushed past a pruned MQ
  std::uint64_t duplicates = 0;        // dropped duplicate frames
  std::uint64_t acks_sent = 0;
  std::uint64_t uplink_retx = 0;       // resubmissions awaiting assignment
  std::uint64_t uplink_dropped = 0;    // resubmission budget exhausted
  std::uint64_t really_lost = 0;       // gap-skipped deliveries (per MH)
  std::uint64_t gaps_skipped = 0;
  std::uint64_t malformed = 0;         // undecodable proto payloads

  void merge(const RuntimeCounters& o);
};

/// Interned handles into a role's obs::Metrics registry — one per
/// RuntimeCounters field, under the same names the sim oracle reports
/// (obs/names.hpp), so counters line up across the two engines. Roles
/// increment through these on the protocol thread; the daemon reads the
/// atomic registry live from its main thread.
struct RuntimeMetricIds {
  obs::Metrics::MetricId tokens_held = 0;
  obs::Metrics::MetricId token_regenerated = 0;
  obs::Metrics::MetricId token_dup_destroyed = 0;
  obs::Metrics::MetricId token_retx = 0;
  obs::Metrics::MetricId token_dropped = 0;
  obs::Metrics::MetricId retransmits = 0;
  obs::Metrics::MetricId floor_advances = 0;
  obs::Metrics::MetricId duplicates = 0;
  obs::Metrics::MetricId acks_sent = 0;
  obs::Metrics::MetricId uplink_retx = 0;
  obs::Metrics::MetricId uplink_dropped = 0;
  obs::Metrics::MetricId really_lost = 0;
  obs::Metrics::MetricId gaps_skipped = 0;
  obs::Metrics::MetricId malformed = 0;

  void intern_all(obs::Metrics& m);
};

/// One gseq assignment witnessed by the ordering BR (record_spans mode):
/// when the uplink first arrived and when the token pass bound its gseq.
/// Joined post-run with the MH submit/deliver times and the delivering
/// BR's relay-arrival map into an obs::SpanBreakdown.
struct SpanAssignRec {
  NodeId source;
  LocalSeq lseq = 0;
  GlobalSeq gseq = 0;
  std::int64_t uplink_rx_us = 0;
  std::int64_t assigned_us = 0;
};

/// One delivery record, the runtime twin of core::DeliveryLog's entries.
struct DeliveredRec {
  GlobalSeq gseq = 0;
  NodeId source;
  LocalSeq lseq = 0;
};

/// Base-offset buffer of ordered messages keyed by contiguous GlobalSeq:
/// the BR's MQ retention window and the MH's reorder buffer. Slots below
/// base() have been pruned (BR) or delivered (MH).
class GseqBuffer {
 public:
  GlobalSeq base() const { return base_; }
  GlobalSeq end() const { return base_ + slots_.size(); }

  bool contains(GlobalSeq g) const {
    return g >= base_ && g < end() && slots_[idx(g)].has_value();
  }

  const proto::DataMsg* find(GlobalSeq g) const {
    if (!contains(g)) return nullptr;
    return &*slots_[idx(g)];
  }

  /// false when g is below base (stale) or already present (duplicate).
  bool insert(GlobalSeq g, const proto::DataMsg& msg) {
    if (g < base_) return false;
    if (g >= end()) slots_.resize(static_cast<std::size_t>(g - base_) + 1);
    if (slots_[idx(g)].has_value()) return false;
    slots_[idx(g)] = msg;
    return true;
  }

  /// Drop slots (filled or holes) from the front until at most `retention`
  /// remain. Returns how many were dropped.
  std::size_t prune_to(std::size_t retention) {
    std::size_t dropped = 0;
    while (slots_.size() > retention) {
      slots_.pop_front();
      ++base_;
      ++dropped;
    }
    return dropped;
  }

  /// Advance base to `g`, discarding everything below (MH delivery prune).
  void drop_below(GlobalSeq g) {
    while (base_ < g && !slots_.empty()) {
      slots_.pop_front();
      ++base_;
    }
    if (base_ < g) base_ = g;
  }

 private:
  std::size_t idx(GlobalSeq g) const {
    return static_cast<std::size_t>(g - base_);
  }

  std::deque<std::optional<proto::DataMsg>> slots_;
  GlobalSeq base_ = 0;
};

// ---------------------------------------------------------------------------
// Border router / ordering node

struct BrConfig {
  NodeId self;
  NodeId ss;
  std::vector<NodeId> ring;       // full top ring in index order
  std::vector<NodeId> own_aps;    // APs in this BR's subtree
  std::vector<NodeId> members;    // boot membership: MHs in this subtree
  std::vector<NodeId> member_ap;  // parallel to members: serving AP
  // Multi-group mode (groups.multi()): member group tables are derived from
  // core::member_groups so the sim oracle and the runtime agree byte-for-
  // byte on who receives what.
  core::GroupConfig groups;
  RuntimeOptions opts;
};

/// The ordering node. Ordered data leaves it only as DataBatch datagrams:
/// whatever one handler call (on_start, on_datagram, on_tick) sends to one
/// destination travels in one datagram, split only when it reaches the
/// most worst-case entries that fit in kMaxDatagramBytes. Destinations are
/// its own APs (cell broadcast), each chain member via its AP (relay
/// target) and the peer BRs. A hold's assignments are flushed before the
/// token is released.
class BrRuntime final : public RuntimeNode {
 public:
  BrRuntime(BrConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  // Post-stop inspection. counters() assembles the struct from the atomic
  // registry, so it is also safe to sample live (values may be mid-burst).
  RuntimeCounters counters() const;
  std::uint64_t assigned() const { return assigned_; }
  GlobalSeq mq_floor() const { return mq_.base(); }
  std::uint64_t epoch() const { return epoch_; }

  /// Unified metric registry (atomic — safe to read while the loop runs).
  const obs::Metrics& metrics() const { return metrics_; }
  /// Flight recorder (internally synchronized — safe to poll/dump live).
  obs::FlightRecorder& flight_recorder() { return fr_; }
  const obs::FlightRecorder& flight_recorder() const { return fr_; }

  // record_spans bookkeeping, valid after stop.
  const std::vector<SpanAssignRec>& span_assigned() const {
    return span_assigned_;
  }
  const std::unordered_map<std::uint64_t, std::int64_t>& span_relay_rx_us()
      const {
    return span_relay_rx_us_;
  }

  /// Safe to poll while the loop runs (daemon exit condition).
  bool stop_seen() const { return stop_seen_.load(std::memory_order_acquire); }

 private:
  struct SourceIn {
    LocalSeq next_expected = 0;
    std::unordered_map<LocalSeq, proto::DataMsg> pending;
  };
  // One link of a member's delivery chain: the forwarded message's gseq and
  // the chain coordinate (gseq + 1) of its predecessor on this member's
  // chain. Entries are appended in forwarding order, so coordinates rise
  // strictly along the log.
  struct FwdEntry {
    GlobalSeq gseq = 0;
    GlobalSeq prev = 0;
  };
  struct Member {
    NodeId ap = NodeId::invalid();
    // Acked watermark. Legacy mode: next expected gseq. Multi-group mode:
    // the member's chain tail — both live in the same gseq+1 coordinate
    // space, so the stall/resync machinery is shared.
    GlobalSeq next_expected = 0;
    GlobalSeq prev_ack_wm = 0;  // watermark of the previous ack (stall check)
    std::uint32_t stalled_acks = 0;  // consecutive acks with no progress
    std::int64_t last_resend_us = kNeverUs;
    // Multi-group chain state: memberships, the coordinate of the newest
    // chain-forwarded message, and the unacked chain links.
    proto::GroupSet groups;
    GlobalSeq fwd_tail = 0;
    std::deque<FwdEntry> fwd_log;
  };
  struct TokenKey {
    std::uint64_t epoch = 0, serial = 0, rotation = 0;
    bool valid = false;
  };
  struct AwaitedAck {
    bool active = false;
    std::uint64_t serial = 0, rotation = 0;
    std::vector<std::uint8_t> frame_bytes;
    int attempts = 0;
    std::int64_t next_resend_us = 0;
  };

  // Ordered data bound for one (destination, relay target) pair. Entries
  // accumulate during one handler call and leave as DataBatch datagrams at
  // flush_batches().
  struct Outbox {
    NodeId to;
    NodeId relay;
    std::vector<proto::DataMsg> entries;
  };

  bool leader() const { return cfg_.ring.front() == cfg_.self; }
  bool multi() const { return cfg_.groups.multi(); }
  NodeId next_br() const;
  void emit(NodeId to, const proto::DataMsg& msg,
            NodeId relay = NodeId::invalid());
  void flush_batches();
  void handle_proto(const Datagram& d, std::int64_t now_us);
  void handle_uplink(const proto::DataMsg& msg, std::int64_t now_us);
  void ack_uplink(NodeId source, const SourceIn& si);
  void store_and_forward_ordered(const proto::DataMsg& msg,
                                 std::int64_t now_us);
  void forward_chain(const proto::DataMsg& msg);
  void handle_token(proto::OrderingToken token, NodeId from,
                    std::int64_t now_us);
  void accept_token(proto::OrderingToken token, std::int64_t now_us);
  void assign_staged(std::int64_t now_us);
  void release_token(std::int64_t now_us);
  void regenerate_token(std::int64_t now_us);
  void handle_member_ack(const proto::DeliveryAckMsg& ack,
                         std::int64_t now_us);
  void handle_chain_ack(Member& m, NodeId member, GlobalSeq tail,
                        std::int64_t now_us);
  void request_pull(GlobalSeq g, std::int64_t now_us);

  BrConfig cfg_;
  Transport& tr_;
  obs::Metrics metrics_;
  RuntimeMetricIds mid_;
  obs::FlightRecorder fr_;
  // record_spans mode: assignment records and first ordered arrival of
  // each gseq in this BR's MQ (relay endpoint for its subtree's members).
  std::vector<SpanAssignRec> span_assigned_;
  std::unordered_map<std::uint64_t, std::int64_t> span_relay_rx_us_;

  // This call's batches in first-use order, indexed by (to, relay).
  std::vector<Outbox> outboxes_;
  std::unordered_map<std::uint64_t, std::size_t> outbox_of_;

  std::uint64_t epoch_ = 1;
  std::uint64_t next_serial_ = 2;  // regeneration lineage (initial token: 1)
  std::deque<proto::DataMsg> staging_;
  std::unordered_map<std::uint32_t, SourceIn> uplink_;
  GseqBuffer mq_;
  GlobalSeq max_seen_gseq_ = 0;
  bool any_seen_ = false;
  std::uint64_t assigned_ = 0;
  std::unordered_map<std::uint32_t, Member> members_;
  std::int64_t last_pull_us_ = kNeverUs;  // peer-pull request rate limit
  // Multi-group mode: next gseq to chain-forward. Chain links must rise
  // monotonically per member, so forwarding walks the MQ contiguously and
  // out-of-order peer distributions wait for their hole to fill.
  GlobalSeq chain_next_ = 0;
  // Next per-group sequence to seed into a regenerated token.
  std::unordered_map<std::uint32_t, std::uint64_t> group_seq_high_;

  bool has_token_ = false;
  proto::OrderingToken token_;
  std::int64_t release_deadline_us_ = 0;
  std::int64_t last_token_seen_us_ = 0;
  TokenKey last_rx_key_;
  AwaitedAck await_;

  std::uint64_t hb_beat_ = 0;
  std::int64_t next_hb_us_ = 0;
  bool start_seen_ = false;
  std::atomic<bool> stop_seen_{false};  // polled by the daemon's main thread
  std::int64_t next_ready_us_ = 0;
};

// ---------------------------------------------------------------------------
// Access proxy

struct ApConfig {
  NodeId self;
  NodeId br;
  NodeId ss;
  std::vector<NodeId> attached;  // boot membership of this cell
  RuntimeOptions opts;
};

class ApRuntime final : public RuntimeNode {
 public:
  ApRuntime(ApConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  RuntimeCounters counters() const;
  const obs::Metrics& metrics() const { return metrics_; }
  obs::FlightRecorder& flight_recorder() { return fr_; }
  const obs::FlightRecorder& flight_recorder() const { return fr_; }

  /// Safe to poll while the loop runs (daemon exit condition).
  bool stop_seen() const { return stop_seen_.load(std::memory_order_acquire); }

 private:
  ApConfig cfg_;
  Transport& tr_;
  obs::Metrics metrics_;
  RuntimeMetricIds mid_;
  obs::FlightRecorder fr_;
  std::vector<NodeId> attached_;
  std::unordered_set<std::uint32_t> attached_set_;
  bool start_seen_ = false;
  std::atomic<bool> stop_seen_{false};  // polled by the daemon's main thread
  std::int64_t next_ready_us_ = 0;
};

// ---------------------------------------------------------------------------
// Mobile host

struct MhConfig {
  NodeId self;
  NodeId source_id;  // plain id carried in DataMsg.source (matches the sim)
  NodeId ap;
  NodeId ss;
  double rate_hz = 50.0;
  std::uint32_t msgs_to_send = 0;   // count-bounded source; 0 = no source
  std::uint64_t expected_total = 0;  // deliveries before reporting Done
  std::uint32_t payload_size = 64;
  std::int64_t submit_phase_us = 0;  // desynchronizes source onsets
  // Multi-group mode: destination sets come from core::dest_groups so the
  // runtime submits exactly the workload the sim oracle replays.
  core::GroupConfig groups;
  RuntimeOptions opts;
};

class MhRuntime final : public RuntimeNode {
 public:
  MhRuntime(MhConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  // Post-stop inspection. counters() assembles the struct from the atomic
  // registry, so it is also safe to sample live (values may be mid-burst).
  RuntimeCounters counters() const;
  const std::vector<DeliveredRec>& deliveries() const { return log_; }
  std::uint64_t delivered_count() const { return delivered_; }
  std::uint64_t submitted_count() const { return next_lseq_; }
  const std::vector<std::int64_t>& latencies_us() const { return lat_us_; }

  /// Unified metric registry (atomic — safe to read while the loop runs).
  const obs::Metrics& metrics() const { return metrics_; }
  /// Flight recorder (internally synchronized — safe to poll/dump live).
  obs::FlightRecorder& flight_recorder() { return fr_; }
  const obs::FlightRecorder& flight_recorder() const { return fr_; }
  /// Mutex-guarded live latency snapshot; safe to poll while the loop runs
  /// (the daemon's periodic stats frame quotes its quantiles).
  stats::Histogram latency_hist() const;

  // record_spans bookkeeping, valid after stop: (lseq, submit time) pairs
  // and per-delivery times parallel to deliveries().
  const std::vector<std::pair<std::uint64_t, std::int64_t>>& span_submits()
      const {
    return span_submits_;
  }
  const std::vector<std::int64_t>& deliver_times_us() const {
    return deliver_times_us_;
  }

  /// Safe to poll while the loop runs (daemon exit condition).
  bool stop_seen() const { return stop_seen_.load(std::memory_order_acquire); }

 private:
  struct PendingSubmit {
    proto::DataMsg msg;
    std::int64_t submitted_us = 0;
    std::int64_t last_send_us = 0;
    int attempts = 0;
  };

  void submit_one(std::int64_t now_us);
  void receive_ordered(const proto::DataMsg& msg, std::int64_t now_us);
  void receive_chain(const proto::DataMsg& msg, std::int64_t now_us);
  void deliver(const proto::DataMsg& msg, std::int64_t now_us);
  void record_latency(std::int64_t lat_us);
  void gap_skip_to(GlobalSeq floor, std::int64_t now_us);
  void send_ack();

  MhConfig cfg_;
  Transport& tr_;
  obs::Metrics metrics_;
  RuntimeMetricIds mid_;
  obs::FlightRecorder fr_;
  mutable util::Mutex lat_mu_;
  stats::Histogram live_lat_ RN_GUARDED_BY(lat_mu_);
  // record_spans mode: submit stamps and delivery stamps (parallel to log_).
  std::vector<std::pair<std::uint64_t, std::int64_t>> span_submits_;
  std::vector<std::int64_t> deliver_times_us_;

  bool start_seen_ = false;
  std::atomic<bool> stop_seen_{false};  // polled by the daemon's main thread
  std::int64_t next_ready_us_ = 0;
  std::int64_t period_us_ = 0;
  std::int64_t next_submit_us_ = kNeverUs;
  LocalSeq next_lseq_ = 0;
  std::deque<PendingSubmit> pending_;
  // Multi-group latency bookkeeping: the submit-ack prunes pending_ as soon
  // as the BR accepts the uplink (the source need not be a destination of
  // its own messages), so submit->delivery timing keeps its own lseq map.
  // Bounded by the scripted msgs_to_send.
  std::unordered_map<std::uint64_t, std::int64_t> submit_times_us_;

  GseqBuffer buf_;
  GlobalSeq next_expected_ = 0;
  // Multi-group chain state: tail coordinate (gseq + 1 of the last chain
  // delivery) and out-of-chain arrivals held keyed by their own coordinate.
  GlobalSeq multi_tail_ = 0;
  std::map<GlobalSeq, proto::DataMsg> held_;
  std::vector<DeliveredRec> log_;
  std::uint64_t delivered_ = 0;
  std::vector<std::int64_t> lat_us_;
  std::int64_t next_ack_us_ = 0;
  bool done_ = false;
  std::int64_t next_done_us_ = 0;
};

// ---------------------------------------------------------------------------
// Supervisor (SS): boot barrier, liveness sink, teardown fan-out. Its
// atomics are the one intentional exception to the "inspect after stop"
// rule — the orchestrator polls them while the deployment runs.

struct SsConfig {
  NodeId self;
  std::vector<NodeId> all_nodes;  // broadcast targets (everything but SS)
  std::size_t expected_ready = 0;
  std::size_t expected_done = 0;
  RuntimeOptions opts;
};

class SsRuntime final : public RuntimeNode {
 public:
  SsRuntime(SsConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  bool started() const { return started_.load(std::memory_order_acquire); }
  std::size_t done_count() const {
    return done_count_.load(std::memory_order_acquire);
  }
  bool all_done() const {
    return done_count() >= cfg_.expected_done;
  }
  void request_stop() {
    stop_requested_.store(true, std::memory_order_release);
  }

  /// Unified metric registry (atomic — safe to read while the loop runs).
  const obs::Metrics& metrics() const { return metrics_; }
  /// Flight recorder (internally synchronized — safe to poll/dump live).
  obs::FlightRecorder& flight_recorder() { return fr_; }
  const obs::FlightRecorder& flight_recorder() const { return fr_; }

 private:
  void broadcast(ControlMsg msg);

  SsConfig cfg_;
  Transport& tr_;
  obs::Metrics metrics_;
  obs::Metrics::MetricId mid_heartbeats_ = 0;
  obs::FlightRecorder fr_;
  std::unordered_set<std::uint32_t> ready_;
  std::unordered_set<std::uint32_t> done_;
  std::unordered_map<std::uint32_t, std::uint64_t> last_beat_;
  std::atomic<bool> started_{false};
  std::atomic<std::size_t> done_count_{0};
  std::atomic<bool> stop_requested_{false};
  std::int64_t next_bcast_us_ = 0;
};

}  // namespace ringnet::runtime
