#pragma once
// Runtime role state machines: the protocol's node roles (border router /
// ordering node, access proxy, mobile host, supervisor) implemented over
// the Transport seam with wall-clock watchdog timers, mirroring the
// simulator's timeout logic — token-forward ARQ per ring hop, leader
// token-regeneration on custody loss, ack-driven downlink retransmission
// with MQ-floor gap skips, and uplink resubmission until assignment.
//
// Every method runs on the owning NodeLoop's thread; reading a node's state
// from outside is safe only after the loop has been stopped (NodeLoop::stop
// joins). All time comes from the injected util::Clock via the loop — no
// direct wall-clock reads (RN006 boundary).

#include <atomic>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/delivery.hpp"
#include "core/message_queue.hpp"
#include "core/types.hpp"
#include "core/working_queue.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
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
  ///
  /// A second inequality: acks wait up to ack_period_us for a data frame
  /// to ride (a BR's submit-ack, a source MH's member ack), so
  /// ack_period_us plus one hop must stay below retx_timeout_us. Otherwise
  /// a source retransmits before its deferred submit-ack arrives.
  std::int64_t token_regen_timeout_us() const {
    return heartbeat_miss_limit * heartbeat_period_us +
           (max_retx + 2) * retx_timeout_us;
  }

  void scale_timers(double f);
};

/// A node's registry counters as a struct, read only by perfbench's runtime
/// benchmark. Everything else reads the registry (RoleNode::metrics()).
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
  std::uint64_t gaps_skipped = 0;
  std::uint64_t malformed = 0;         // undecodable proto payloads
};

/// What every role shares: its metric registry, its flight recorder and
/// the stop flag the daemon polls, all safe to read while the loop runs.
class RoleNode : public RuntimeNode {
 public:
  /// Unified metric registry (atomic — safe to read while the loop runs).
  const obs::Metrics& metrics() const { return metrics_; }
  /// Flight recorder (internally synchronized — safe to poll/dump live).
  obs::FlightRecorder& flight_recorder() { return fr_; }
  const obs::FlightRecorder& flight_recorder() const { return fr_; }
  /// The role is finished: it saw Stop (the SS: it sent Stop). Safe to
  /// poll while the loop runs (the daemon's exit condition).
  bool stop_seen() const { return stop_seen_.load(std::memory_order_acquire); }

 protected:
  RoleNode(NodeId self, Transport& tr) : tr_(tr), self_(self) {}

  /// Record an event at this node.
  void record(obs::FrEvent kind, std::int64_t now_us, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    fr_.record(kind, now_us, self_.v, a, b);
  }
  void mark_stopped() { stop_seen_.store(true, std::memory_order_release); }

  Transport& tr_;
  obs::Metrics metrics_;

 private:
  NodeId self_;
  obs::FlightRecorder fr_;
  std::atomic<bool> stop_seen_{false};  // polled by the daemon's main thread
};

/// A role the supervisor boots and stops (BR, AP, MH). It runs the boot
/// handshake: Ready, resent until Start arrives, then Stop.
class SupervisedNode : public RoleNode {
 public:
  // counters() assembles the struct from the atomic registry, so it is
  // safe to sample live (values may be mid-burst) as well as after stop.
  RuntimeCounters counters() const;

 protected:
  SupervisedNode(NodeId self, NodeId ss, std::int64_t handshake_resend_us,
                 Transport& tr);

  /// Send Ready to the supervisor (on_start).
  void send_ready(std::int64_t now_us);
  /// Resend Ready while Start is outstanding (on_tick).
  void resend_ready(std::int64_t now_us);
  /// A supervisor control frame: Start and Stop set their flags, an
  /// undecodable one counts as malformed. True on the first Start.
  bool on_control(const Datagram& d);
  bool start_seen() const { return start_seen_; }

 private:
  NodeId ss_;
  std::int64_t handshake_resend_us_;
  bool start_seen_ = false;
  std::int64_t next_ready_us_ = 0;
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

/// The ordering node. Whatever one handler call (on_start, on_datagram,
/// on_tick) sends to one next hop travels in one datagram, a Bundle when it
/// is several messages, split only when the next part would not fit in
/// kMaxDatagramBytes. Peer BRs get DataBatch frames. So do its own APs in
/// single-group mode: a cell broadcast, or one member's resends (the relay
/// target). In multi-group mode each AP gets CellFrames, which carry each
/// body once and every destined member's chain links. The token rides
/// behind the hold's last batch to the next BR, and a source's submit-ack
/// rides the first cell frame whose links name the source.
class BrRuntime final : public SupervisedNode {
 public:
  BrRuntime(BrConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  // Post-stop inspection.
  std::uint64_t assigned() const { return assigned_; }
  std::uint64_t epoch() const { return epoch_; }

  // record_spans bookkeeping, valid after stop.
  const std::vector<SpanAssignRec>& span_assigned() const {
    return span_assigned_;
  }
  const std::unordered_map<std::uint64_t, std::int64_t>& span_relay_rx_us()
      const {
    return span_relay_rx_us_;
  }

 private:
  struct SourceIn {
    LocalSeq next_expected = 0;
    bool ack_due = false;  // a submit-ack waits in due_acks_
    std::unordered_map<LocalSeq, proto::DataMsg> pending;
  };
  // A multi-group submit-ack waiting for a cell frame to ride.
  struct DueAck {
    std::uint32_t source = 0;  // the uplink_ key
    NodeId mh;
    NodeId ap;
    std::int64_t since_us = 0;
  };
  struct Member {
    NodeId ap = NodeId::invalid();
    // Single-group acked watermark (the member's next expected gseq).
    GlobalSeq next_expected = 0;
    GlobalSeq prev_ack_wm = 0;  // watermark of the previous ack (stall check)
    std::uint32_t stalled_acks = 0;  // consecutive acks with no progress
    std::int64_t last_resend_us = kNeverUs;
    // Multi-group mode: memberships and this member's delivery chain.
    proto::GroupSet groups;
    core::ChainSender chain;
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

  // Everything one handler call sends to one (destination, relay target)
  // pair. It leaves at flush(), packed into as few datagrams as fit: the
  // posted messages, then the ordered entries (DataBatches, or CellFrames
  // whose bodies are the entries when the outbox holds links), then the
  // token, so a peer applies a hold's assignments before the token.
  struct Outbox {
    NodeId to;
    NodeId relay;
    std::vector<std::vector<std::uint8_t>> posted;  // encoded messages
    std::vector<proto::DataMsg> entries;
    std::vector<proto::CellLink> links;  // grouped by body, in body order
    std::vector<std::uint8_t> token;     // encoded; empty when none
  };

  bool leader() const { return cfg_.ring.front() == cfg_.self; }
  bool multi() const { return cfg_.groups.multi(); }
  NodeId next_br() const;
  Outbox& outbox(NodeId to, NodeId relay = NodeId::invalid());
  void post(NodeId to, const proto::Message& msg,
            NodeId relay = NodeId::invalid());
  void emit(NodeId to, const proto::DataMsg& msg,
            NodeId relay = NodeId::invalid());
  void emit_chain(NodeId ap, const proto::DataMsg& msg, NodeId mh,
                  GlobalSeq prev_chain, bool share_body);
  void flush();
  void handle_proto(const Datagram& d, std::int64_t now_us);
  void handle_msg(const proto::Message& msg, NodeId from,
                  std::int64_t now_us);
  void handle_uplink(const proto::DataMsg& msg, std::int64_t now_us);
  void defer_submit_ack(NodeId source, SourceIn& si, std::int64_t now_us);
  /// Post every due submit-ack for which `ready(due)` holds.
  template <class Pred>
  void post_due_acks(Pred ready);
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
  bool resync_due(Member& m, GlobalSeq wm, bool behind, std::int64_t now_us);
  void request_pull(GlobalSeq g, std::int64_t now_us);

  BrConfig cfg_;
  // record_spans mode: assignment records and first ordered arrival of
  // each gseq in this BR's MQ (relay endpoint for its subtree's members).
  std::vector<SpanAssignRec> span_assigned_;
  std::unordered_map<std::uint64_t, std::int64_t> span_relay_rx_us_;

  // This call's outboxes in first-use order, indexed by (to, relay).
  std::vector<Outbox> outboxes_;
  std::unordered_map<std::uint64_t, std::size_t> outbox_of_;
  // Submit-acks waiting to ride, oldest first, one per source.
  std::vector<DueAck> due_acks_;

  std::uint64_t epoch_ = 1;
  std::uint64_t next_serial_ = 2;  // regeneration lineage (initial token: 1)
  core::WorkingQueue wq_;
  std::unordered_map<std::uint32_t, SourceIn> uplink_;
  core::MessageQueue mq_;  // released by keep_newest: a fixed window
  std::uint64_t assigned_ = 0;
  std::unordered_map<std::uint32_t, Member> members_;
  std::int64_t last_pull_us_ = kNeverUs;  // peer-pull request rate limit

  bool has_token_ = false;
  proto::OrderingToken token_;
  std::int64_t release_deadline_us_ = 0;
  std::int64_t last_token_seen_us_ = 0;
  TokenKey last_rx_key_;
  AwaitedAck await_;

  std::uint64_t hb_beat_ = 0;
  std::int64_t next_hb_us_ = 0;
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

/// The access proxy relays uplink datagrams, relayed downlink ones and
/// single-group data byte for byte. A downlink CellFrame it splits
/// (proto::split_cell): each member the frame names gets one DataBatch of
/// its own entries. A downlink ack goes to the member it names. A downlink
/// Bundle it splits part by part, and the parts bound for one member leave
/// in one datagram.
class ApRuntime final : public SupervisedNode {
 public:
  ApRuntime(ApConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

 private:
  bool track_membership(const std::uint8_t* data, std::size_t size);
  bool hand_out(const std::vector<std::uint8_t>& payload);

  ApConfig cfg_;
  std::vector<NodeId> attached_;
  std::unordered_set<std::uint32_t> attached_set_;
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

/// The mobile host: a count-bounded source and a group member. Whatever
/// one handler call sends its AP leaves in one datagram, and a source holds
/// a due ack for its next submission when that is due within one ack
/// period.
class MhRuntime final : public SupervisedNode {
 public:
  MhRuntime(MhConfig cfg, Transport& tr);

  void on_start(std::int64_t now_us) override;
  void on_datagram(const Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  // Post-stop inspection.
  const std::vector<DeliveredRec>& deliveries() const { return log_; }
  std::uint64_t delivered_count() const {
    return metrics_.counter(obs::names::kMhDelivered);
  }
  std::uint64_t submitted_count() const { return next_lseq_; }

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

 private:
  struct PendingSubmit {
    proto::DataMsg msg;
    std::int64_t submitted_us = 0;
    std::int64_t last_send_us = 0;
    int attempts = 0;
  };

  void submit_one(std::int64_t now_us);
  void handle_msg(const proto::Message& msg, std::int64_t now_us);
  void deliver(const proto::DataMsg& msg, std::int64_t now_us);
  void record_latency(std::int64_t lat_us);
  bool submitting() const;
  void post(const proto::Message& msg);
  void flush();

  MhConfig cfg_;
  mutable util::Mutex lat_mu_;
  stats::Histogram live_lat_ RN_GUARDED_BY(lat_mu_);
  // record_spans mode: submit stamps and delivery stamps (parallel to log_).
  std::vector<std::pair<std::uint64_t, std::int64_t>> span_submits_;
  std::vector<std::int64_t> deliver_times_us_;

  std::int64_t period_us_ = 0;
  std::int64_t next_submit_us_ = kNeverUs;
  LocalSeq next_lseq_ = 0;
  std::deque<PendingSubmit> pending_;
  // Multi-group latency bookkeeping: the submit-ack prunes pending_ as soon
  // as the BR accepts the uplink (the source need not be a destination of
  // its own messages), so submit->delivery timing keeps its own lseq map.
  // Bounded by the scripted msgs_to_send.
  std::unordered_map<std::uint64_t, std::int64_t> submit_times_us_;

  core::OrderedReceiver ordered_;  // single-group delivery
  core::ChainReceiver chain_;      // multi-group delivery
  std::vector<DeliveredRec> log_;
  std::int64_t next_ack_us_ = 0;
  // What this handler call sends the AP, encoded; it leaves at flush().
  std::vector<std::vector<std::uint8_t>> outbox_;
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

class SsRuntime final : public RoleNode {
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
  /// Broadcast Stop every handshake period from now on; stop_seen() turns
  /// true once four rounds have gone out, enough to cover a lost one.
  void request_stop() {
    stop_requested_.store(true, std::memory_order_release);
  }

 private:
  void broadcast(ControlMsg msg);

  SsConfig cfg_;
  std::unordered_set<std::uint32_t> ready_;
  std::unordered_set<std::uint32_t> done_;
  std::atomic<bool> started_{false};
  std::atomic<std::size_t> done_count_{0};
  std::atomic<bool> stop_requested_{false};
  int stop_rounds_ = 0;
  std::int64_t next_bcast_us_ = 0;
};

}  // namespace ringnet::runtime
