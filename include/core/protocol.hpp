#pragma once
// RingNetProtocol: the paper's token-ring total-order multicast engine run
// inside a deterministic Simulation. One instance owns the whole deployment:
// the Figure 1 hierarchy, per-BR ordering state (staging + WQ + MQ + group
// view), per-MH delivery state, the rotating OrderingToken with its WTSNP
// table, link-layer ARQ over the channel models, DeliveryAck watermarks,
// batched membership, heartbeat failure detection with ring repair and
// Token-Regeneration, smooth-handoff mobility, and the metrics/trace hooks
// the experiment benches read.
//
// Hot-path state is dense-indexed: NodeId indices are contiguous per tier,
// so per-BR / per-MH / per-AP lookups are vector indexes, not hash probes.
// The only dynamic-keyed hot map left (per-link loss processes) is an
// open-addressing FlatHash per execution context.
//
// When the owning Simulation is planned with domains (one per BR subtree),
// every scheduled event names its target context explicitly: subtree-local
// work (uplink staging, downlink delivery, acks, resync) runs in the
// serving BR's domain, while ring-wide work (token hops, membership relay,
// heartbeats/repair, mobility, faults, archive) runs in the serialized
// global context. The same code runs identically on the single-heap oracle
// and the sharded engine — that is the equivalence the tests assert.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/message_queue.hpp"
#include "core/types.hpp"
#include "core/working_queue.hpp"
#include "net/channel.hpp"
#include "obs/span.hpp"
#include "proto/messages.hpp"
#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "topo/hierarchy.hpp"
#include "util/flat_hash.hpp"

namespace ringnet::core {

/// A border router's eventually-consistent view of group membership
/// (mh -> serving AP), maintained through the batched update scheme.
/// Per-MH event sequence numbers make relayed applications idempotent and
/// reordering-safe. Dense-indexed by MH index.
class GroupView {
 public:
  void reset(std::size_t n_mhs) { state_.assign(n_mhs, Slot{}); }

  void apply(NodeId mh, NodeId ap, std::uint64_t seq) {
    if (mh.index() >= state_.size()) state_.resize(mh.index() + 1);
    Slot& slot = state_[mh.index()];
    if (seq < slot.seq) return;
    slot.seq = seq;
    slot.ap = ap;
  }

  std::size_t member_count() const {
    std::size_t n = 0;
    for (const Slot& slot : state_) {
      if (slot.ap.valid()) ++n;
    }
    return n;
  }

  std::optional<NodeId> ap_of(NodeId mh) const {
    if (mh.index() >= state_.size() || !state_[mh.index()].ap.valid()) {
      return std::nullopt;
    }
    return state_[mh.index()].ap;
  }

 private:
  struct Slot {
    NodeId ap = NodeId::invalid();
    std::uint64_t seq = 0;
  };
  std::vector<Slot> state_;
};

/// Per-delivery record used to verify the protocol's core guarantee: every
/// member observes the same total order. Dense-indexed by MH index.
class DeliveryLog {
 public:
  struct Rec {
    GlobalSeq gseq;
    NodeId source;
    LocalSeq lseq;
    GroupId gid{0};  // destination group credited with the delivery
  };

  void reset(const std::vector<NodeId>& mhs) {
    ids_ = mhs;
    per_mh_.assign(mhs.size(), {});
  }

  void record(NodeId mh, GlobalSeq gseq, NodeId source, LocalSeq lseq,
              GroupId gid = GroupId{0}) {
    per_mh_[mh.index()].push_back(Rec{gseq, source, lseq, gid});
  }

  bool empty() const {
    for (const auto& recs : per_mh_) {
      if (!recs.empty()) return false;
    }
    return true;
  }

  /// nullopt when the log is violation-free: per-member gseq sequences are
  /// strictly increasing and every member agrees on which (source, lseq)
  /// each gseq names. Multi-group logs pass too: genuine multicast leaves
  /// per-member holes (non-destination gseqs), and this check never
  /// required contiguity — only monotonicity and binding agreement.
  std::optional<std::string> check_total_order() const;

  /// Raw per-member sequences, MH-index order (oracle-comparison export).
  const std::vector<std::vector<Rec>>& per_mh() const { return per_mh_; }

 private:
  std::vector<NodeId> ids_;  // index -> NodeId, for diagnostics
  std::vector<std::vector<Rec>> per_mh_;
};

class RingNetProtocol;

/// Per-source submit-time log indexed by lseq. A base-offset deque with a
/// pruned-prefix counter: entries are appended at submit, looked up by lseq
/// for latency accounting, and released once the message's archive entry
/// falls below the global acked floor. Release order can differ slightly
/// from lseq order (uplink ARQ can reorder assignment), so releases mark a
/// flag and the contiguous released prefix is popped — retained size stays
/// O(unacked window) while lseq indexing keeps working.
class SubmitLog {
 public:
  void push(sim::SimTime at) { entries_.push_back(Entry{at, false}); }

  std::optional<sim::SimTime> get(LocalSeq lseq) const {
    if (lseq < base_ || lseq - base_ >= entries_.size()) return std::nullopt;
    return entries_[static_cast<std::size_t>(lseq - base_)].at;
  }

  void release(LocalSeq lseq) {
    if (lseq < base_ || lseq - base_ >= entries_.size()) return;
    entries_[static_cast<std::size_t>(lseq - base_)].released = true;
    while (!entries_.empty() && entries_.front().released) {
      entries_.pop_front();
      ++base_;
    }
  }

  LocalSeq base() const { return base_; }
  std::size_t retained() const { return entries_.size(); }

 private:
  struct Entry {
    sim::SimTime at;
    bool released;
  };
  std::deque<Entry> entries_;
  LocalSeq base_ = 0;  // lseqs below are pruned
};

/// Mobile host: reorder buffer + delivery bookkeeping.
class MhNode {
 public:
  MhNode(NodeId id, NodeId ap) : id_(id), ap_(ap) {}

  NodeId id() const { return id_; }
  NodeId ap() const { return ap_; }
  bool attached() const { return attached_; }
  sim::SimTime last_delivery_at() const { return last_delivery_; }
  std::uint64_t delivered_count() const { return delivered_; }

 private:
  friend class RingNetProtocol;

  NodeId id_;
  NodeId ap_;
  bool attached_ = true;
  bool attach_pending_ = false;  // a complete_attach event is in flight
  MessageQueue mq_{4};  // reorder buffer; tiny retention for dedupe
  std::unordered_set<std::uint64_t> seen_unordered_;
  std::uint64_t delivered_ = 0;
  std::uint64_t ack_gen_ = 0;  // live ack-tick chain (bumps kill old chains)
  sim::SimTime last_delivery_ = sim::SimTime::zero();
  // Multi-group delivery chain (gseq contiguity no longer identifies
  // losses: a hole may just be a message for another group). The serving
  // BR stamps each downlink frame with prev_chain = the chain coordinate
  // (gseq + 1) of the previous frame forwarded to this member, and the MH
  // delivers in chain order: multi_tail_ is the coordinate of the last
  // delivered frame, and out-of-chain arrivals wait in multi_held_ (keyed
  // by their own coordinate) until their predecessor lands.
  GlobalSeq multi_tail_ = 0;
  // lint: map-ok — drained smallest-coordinate-first (begin() is the only
  // candidate whose prev_chain can extend the tail), so the hold buffer
  // needs an ordered walk; residency is bounded by the in-flight window.
  std::map<GlobalSeq, proto::DataMsg> multi_held_;
};

/// Border router / ordering node state.
class BrNode {
 public:
  BrNode(NodeId id, std::size_t mq_retention) : id_(id), mq_(mq_retention) {}

  NodeId id() const { return id_; }
  bool alive() const { return alive_; }
  const GroupView& group_view() const { return view_; }
  MessageQueue& mq() { return mq_; }
  WorkingQueue& wq() { return wq_; }

 private:
  friend class RingNetProtocol;

  struct MemberEvent {
    NodeId mh;
    NodeId ap;  // invalid() == detach
    std::uint64_t seq;
  };

  NodeId id_;
  bool alive_ = true;
  std::deque<proto::DataMsg> staging_;  // waiting for the next tau tick
  WorkingQueue wq_;
  MessageQueue mq_;
  GroupView view_;
  GlobalSeq acked_floor_ = 0;  // gseqs below are subtree-acked in mq_
  GlobalSeq chain_next_ = 0;   // multi-group: next gseq to chain-forward
  std::vector<MemberEvent> pending_membership_;
  sim::SimTime last_hb_from_prev_ = sim::SimTime::zero();
};

/// Poisson handoff process over the MH population.
class MobilityModel {
 public:
  void stop() { running_ = false; }
  bool running() const { return running_; }

 private:
  friend class RingNetProtocol;
  bool running_ = false;
};

class RingNetProtocol {
 public:
  RingNetProtocol(sim::Simulation& sim, ProtocolConfig config);

  /// Arm every periodic process (sources, token, acks, heartbeats,
  /// membership flushes, mobility) starting at the current sim time.
  void start();
  void stop_sources();

  /// Fail a node abruptly (used on BRs: the token-loss scenario).
  void crash_node(NodeId id);

  /// Inject a stale duplicate token at `at` (Multiple-Token scenario).
  void inject_duplicate_token(NodeId at, std::uint64_t epoch);

  /// Scenario hook: hand `mh` off to `target_ap` now (deterministic
  /// mobility for tests/benches). `target_ap == current AP` models a radio
  /// drop and re-attach into the same cell.
  void force_handoff(NodeId mh, NodeId target_ap);

  /// Scenario hook: eject a live BR from the ring as a false-positive
  /// failure detection would (the node itself stays up and merges back on
  /// its next heartbeat).
  void eject_br(NodeId br);

  /// Scenario hook: `mh` leaves its cell (member churn / power-off). The
  /// membership machinery detaches it; sources on the MH park submissions
  /// until a reattach.
  void detach_mh(NodeId mh);

  /// Scenario hook: reattach a churned-out `mh` at `ap` after the usual
  /// hot/cold attach cost. No-op while attached or mid-attach. An absence
  /// longer than the MQ retention window resumes via a gap skip (the
  /// missed range counts as really lost), never a wedge.
  void reattach_mh(NodeId mh, NodeId ap);

  /// Scenario hook: the active token frame vanishes in transit (WAN loss).
  /// The ring detects custody loss after the heartbeat miss budget and the
  /// leader runs Token-Regeneration with a fresh epoch (§4 Token-Loss).
  void lose_token();

  /// Scenario hook (multi-group mode): `mh` joins / leaves group `g` at
  /// runtime. Join takes effect for messages ordered after the call; leave
  /// stops future forwarding while already-chained frames still deliver.
  /// No-ops in the single-group degenerate deployment. Like the other
  /// membership mutators these must run in the serialized global context
  /// under sharding (the scenario engine schedules them there).
  void join_group(NodeId mh, GroupId g);
  void leave_group(NodeId mh, GroupId g);

  /// Scenario hook (multi-group mode): flash-crowd traffic shaping. While
  /// set, every source submits `boost`x faster whenever its next message
  /// targets `g` (destination groups are a pure function of (source, lseq),
  /// so the upcoming message's groups are known before it is drawn).
  /// boost = 1 or an invalid gid resets. Exact no-op while unset.
  void set_group_rate_boost(GroupId g, double boost);

  /// Scenario hook: blackout the wireless cell of `ap` (jamming, backhaul
  /// cut). While set, nothing crosses the AP<->MH radio in either
  /// direction: downlink frames, DeliveryAcks and uplink submissions are
  /// dropped. The gate sits where the wireless hop sits in each path —
  /// uplink at submit time, downlink at arrival — so a frame that cleared
  /// the radio before the window began still travels the wired tree.
  /// Members recover through ack-driven resync once the window lifts.
  void set_cell_blackout(NodeId ap, bool on);
  bool cell_blacked_out(NodeId ap) const {
    return blackout_count_ != 0 && cell_blackout_[ap.index()] != 0;
  }

  const topo::Topology& topology() const { return topo_; }
  const ProtocolConfig& config() const { return config_; }
  BrNode& node(NodeId id) { return brs_[id.index()]; }
  const std::vector<MhNode>& mhs() const { return mhs_; }
  /// Multi-group mode flag and the current membership of one MH (empty in
  /// the degenerate single-group deployment).
  bool multi_group() const { return multi_; }
  const proto::GroupSet& groups_of(NodeId mh) const {
    return mh_groups_[mh.index()];
  }
  MobilityModel& mobility() { return mobility_; }
  const DeliveryLog& deliveries() const { return deliveries_; }

  std::uint64_t total_sent() const {
    return total_sent_.load(std::memory_order_relaxed);
  }
  /// End-to-end latency histogram, merged over execution contexts.
  stats::Histogram lat_hist() const;
  const stats::Histogram& assign_hist() const { return assign_hist_; }
  /// Per-stage message-lifecycle breakdown, merged over execution
  /// contexts; empty unless config.record_spans was set.
  obs::SpanBreakdown span_breakdown() const;

  /// Bounded-memory observability (Theorem 5.1 soak assertions).
  GlobalSeq global_acked_floor() const { return global_acked_floor_; }
  std::size_t archive_retained() const { return assigned_archive_.size(); }
  std::size_t archive_peak() const { return archive_peak_; }
  std::size_t submit_log_retained() const {
    std::size_t n = 0;
    for (const auto& s : sources_) n += s.submit_log.retained();
    return n;
  }
  std::size_t submit_log_peak() const {
    return submit_log_peak_.load(std::memory_order_relaxed);
  }

 private:
  struct SourceState {
    std::uint32_t index;
    NodeId source_id;  // tier-less id carried in DataMsg.source
    NodeId mh;
    LocalSeq next_lseq = 0;
    std::uint64_t gen = 0;  // live tick chain (bumps kill old chains)
    std::deque<proto::DataMsg> parked;  // submitted while detached
    SubmitLog submit_log;  // lseq -> submit time, watermark-pruned
    double weight = 1.0;  // sender_skew rate multiplier (mean 1)
    // MMPP modulating-chain state. Pre-toggled ON with an expired dwell:
    // the first chain advance flips each source into OFF with its own
    // exponential dwell, so runs open idle and burst onsets desynchronize
    // instead of every sender bursting simultaneously at t=0.
    bool mmpp_on = true;
    sim::SimTime mmpp_until = sim::SimTime::zero();  // state dwell deadline
  };

  // --- context routing ----------------------------------------------------
  sim::Domain gdom() const { return sim_.global_domain(); }
  sim::Domain br_domain(NodeId br) const {
    return migrate_ ? static_cast<sim::Domain>(br.index()) : gdom();
  }
  BrNode& br_at(NodeId id) { return brs_[id.index()]; }
  MhNode& mh_at(NodeId id) { return mhs_[id.index()]; }

  // --- wiring -------------------------------------------------------------
  void start_sources();
  void spawn_source_chain(std::size_t idx, sim::SimTime delay);
  void source_tick(std::size_t idx, std::uint64_t gen);
  sim::SimTime next_submit_interval(SourceState& src);
  void submit(SourceState& src, proto::DataMsg msg);
  void uplink_to_br(const proto::DataMsg& msg, NodeId mh);

  // --- ordering -----------------------------------------------------------
  void tau_tick(NodeId br);
  void token_arrive(NodeId br, proto::OrderingToken token);
  void distribute(NodeId origin, const std::vector<proto::DataMsg>& batch);
  void br_receive_ordered(NodeId br, const proto::DataMsg& msg);
  void forward_in_gseq_order(BrNode& b);
  void forward_down(NodeId br, const proto::DataMsg& msg);
  void forward_down_multi(NodeId br, const proto::DataMsg& msg);
  void mh_receive(NodeId mh, const proto::DataMsg& msg, bool retransmission);
  void mh_receive_multi(MhNode& m, const proto::DataMsg& msg);
  void deliver_at_mh(MhNode& node, const proto::DataMsg& msg);
  void record_span(const proto::DataMsg& msg);

  // --- acks / repair ------------------------------------------------------
  void spawn_ack_chain(NodeId mh, sim::SimTime delay);
  void ack_tick(NodeId mh, std::uint64_t gen);
  void br_receive_ack(NodeId br, NodeId mh, GlobalSeq next_expected);
  void br_receive_ack_multi(NodeId br, NodeId mh, GlobalSeq tail);
  /// Chain restart on (re)attach: rebuild the member's delivery chain at
  /// the new BR from the archive, forwarding every retained message whose
  /// destination groups intersect the member's from its watermark up.
  void resync_member_multi(NodeId br, NodeId mh);

  // --- membership ---------------------------------------------------------
  void queue_membership_event(NodeId mh, NodeId ap);
  void membership_flush_tick(NodeId br);
  void membership_relay(NodeId br, std::vector<NodeId> visited,
                        std::vector<BrNode::MemberEvent> events);

  // --- failure handling ---------------------------------------------------
  void heartbeat_tick(NodeId br);
  void handle_br_failure(NodeId dead);
  void rejoin_ring(NodeId br);
  void regenerate_token();

  // --- mobility -----------------------------------------------------------
  void schedule_next_handoff(NodeId mh);
  void perform_handoff(NodeId mh);
  sim::SimTime begin_handoff(NodeId mh, NodeId target_ap);
  sim::SimTime schedule_attach(MhNode& m, NodeId ap, bool hot);
  void detach_from_cell(MhNode& m);
  void complete_attach(NodeId mh, NodeId ap);
  bool ap_is_hot(NodeId ap, NodeId exclude_mh) const;

  // --- helpers ------------------------------------------------------------
  NodeId next_alive_br(NodeId from) const;
  NodeId leader_br() const;
  void rebuild_ring_index();
  sim::SimTime hop_delay(const net::ChannelModel& model, net::LinkKey link,
                         std::uint32_t bytes);
  net::LossProcess& loss_process(net::LinkKey link,
                                 const net::ChannelModel& model);
  sim::SimTime uplink_delay(NodeId mh, std::uint32_t bytes);
  sim::SimTime downlink_delay(NodeId mh, std::uint32_t bytes);
  void note_wq_depth(const BrNode& br);
  void note_submit_log_depth(std::size_t retained);
  void mark_acked(BrNode& br);
  void advance_global_floor();
  void prune_archive();
  void release_submit(const proto::DataMsg& msg);
  const proto::DataMsg* archive_lookup(GlobalSeq gseq) const;
  sim::SimTime archive_stored_at(GlobalSeq gseq) const;
  std::uint32_t data_bytes() const {
    // Envelope tag + DataMsg descriptor (proto::wire_size) + payload.
    return 41 + config_.source.payload_size;
  }
  std::uint32_t data_bytes(const proto::DataMsg& m) const {
    // The multi-group trailing section (count + gid/seq rows + chain link)
    // rides the frame; legacy messages carry no section, so this reduces
    // to data_bytes() byte-for-byte in the single-group deployment.
    if (m.groups.empty()) return data_bytes();
    // Clamped like the codec's encode_body, so the modeled frame size
    // matches what would actually go on the wire.
    return data_bytes() +
           static_cast<std::uint32_t>(
               1 + 12 * std::min(m.groups.size(), proto::kMaxDataGroups) + 8);
  }

  sim::Simulation& sim_;
  ProtocolConfig config_;
  topo::Topology topo_;
  bool migrate_;  // domain-planned simulation: per-subtree contexts exist

  // Pre-interned handles for every metric touched on a per-message or
  // per-tick path: incr/gauge_max through these is a vector index, not a
  // string lookup (see BM_MetricsIncr* in bench_micro for the delta).
  struct MetricIds {
    sim::Metrics::MetricId mh_delivered, acks_sent, retransmits, token_held,
        token_dup_destroyed, token_regenerated, token_dropped, wq_dropped,
        gaps_skipped, gap_skipped_msgs, membership_applied, membership_relayed,
        ring_repairs, ring_rejoins, handoff_count, handoff_hot, handoff_cold,
        archive_pruned, churn_leaves, churn_rejoins, blackout_dropped,
        blackout_uplink_lost, park_dropped, buf_wq_peak, buf_mq_peak,
        buf_archive_peak, buf_submitlog_peak;
  };
  MetricIds mid_;

  static constexpr std::size_t kNoRingPos = static_cast<std::size_t>(-1);

  // Dense per-tier state, indexed by NodeId::index() within each tier.
  std::vector<BrNode> brs_;                      // by BR index
  std::vector<MhNode> mhs_;                      // by MH index
  std::vector<std::vector<NodeId>> br_members_;  // by BR index: attached MHs
  std::vector<GlobalSeq> member_wm_;   // by MH index: next-expected watermark
  std::vector<NodeId> member_br_;      // by MH index: serving BR (invalid =
                                       // not currently a member anywhere)

  // --- multi-group (genuine multicast) state. Only populated when
  // config_.groups.count > 1; the legacy path never touches any of it, so
  // single-group runs stay bit-identical to the pre-group protocol.
  bool multi_ = false;
  std::vector<proto::GroupSet> mh_groups_;  // by MH index: joined groups
  // Per-BR, per-group member slabs (dense gid-1 index). forward_down only
  // walks the slabs of a message's destination groups, so a BR whose
  // subtree has no members of those groups does zero downlink work — the
  // genuineness property bench_groups measures.
  std::vector<std::vector<std::vector<NodeId>>> group_members_;
  // Per-member delivery-chain bookkeeping at the serving BR (all dense by
  // MH index, touched only from the member's owning domain):
  struct FwdEntry {
    GlobalSeq gseq;  // assigned global sequence of the forwarded frame
    GlobalSeq prev;  // chain link it was stamped with (predecessor's gseq+1)
  };
  std::vector<GlobalSeq> member_fwd_tail_;        // last forwarded coord
  std::vector<std::deque<FwdEntry>> member_fwd_log_;  // unacked forwards
  std::vector<GlobalSeq> member_seen_stamp_;  // forward dedupe (gseq+1 tag)
  // Per-group assigned-seq high water (next seq to hand out), maintained at
  // token assignment time in the serialized global context; Token
  // Regeneration restores the counters from it so per-group seqs survive a
  // lost token without a gap or a repeat.
  std::vector<std::uint64_t> group_seq_high_;
  GroupId boost_group_{0};     // flash-crowd target (0 = off)
  double group_boost_ = 1.0;   // submit-rate multiplier for boost_group_

  std::vector<sim::Domain> mh_domain_;  // by MH index: owning exec context
  std::vector<SourceState> sources_;
  std::vector<std::vector<std::uint32_t>> sources_on_mh_;  // by MH index

  std::vector<NodeId> alive_ring_;  // current top ring (repairs shrink it)
  std::vector<std::size_t> ring_pos_;  // by BR index; kNoRingPos = ejected
  std::vector<std::uint32_t> ap_occupancy_;  // by AP index: attached MHs
  std::vector<std::uint8_t> cell_blackout_;  // by AP index
  std::size_t blackout_count_ = 0;
  // Tree-path caches so the per-message delay math never descends the
  // topology's NodeDesc hash map.
  std::vector<NodeId> ap_ag_;  // by AP index: parent AG
  std::vector<NodeId> ap_br_;  // by AP index: subtree BR
  std::vector<NodeId> ag_br_;  // by AG index: parent BR
  MobilityModel mobility_;
  DeliveryLog deliveries_;
  std::vector<stats::Histogram> lat_hists_;  // per ctx; end-to-end, usec
  stats::Histogram assign_hist_;  // submit -> gseq assignment, microseconds
  // Per-ctx lifecycle span histograms (merge-on-read, like lat_hists_);
  // only written when config.record_spans is set.
  std::vector<obs::SpanBreakdown> span_breakdowns_;

  // Per-context loss processes: link keys are dynamic (they include MH
  // ids), so this stays a hash map — but flat and context-local, which
  // keeps the probe in-cache and the draw thread-safe under sharding.
  std::vector<util::FlatHash<net::LinkKey, net::LossProcess>> loss_;
  std::vector<std::uint64_t> membership_seq_;  // by MH index
  std::unordered_set<std::uint64_t> lost_serials_;  // token frames lost in
                                                    // transit (lose_token)
  // Every assigned message not yet pruned (+ assignment time) — the
  // stand-in for fetching a missing copy from a peer ordering node's MQ
  // when a BR has a hole (e.g. it was wrongly ejected from the ring).
  // Gseqs are assigned contiguously, so the archive is a base-offset deque:
  // entry for gseq g lives at index (g - archive_base_). Entries below
  // (global acked floor - archive_retention) are pruned from the front.
  struct ArchiveEntry {
    proto::DataMsg msg;
    sim::SimTime assigned_at;
  };
  std::deque<ArchiveEntry> assigned_archive_;
  GlobalSeq archive_base_ = 0;  // gseq of assigned_archive_.front()
  GlobalSeq global_acked_floor_ = 0;  // min acked_floor_ over alive BRs
  std::size_t archive_peak_ = 0;
  std::atomic<std::size_t> submit_log_peak_{0};

  std::atomic<std::uint64_t> total_sent_{0};
  bool sources_running_ = false;
  bool started_ = false;

  // Token custody (simulator-level ground truth used for loss detection).
  std::uint64_t active_token_serial_ = 1;
  std::uint64_t next_token_serial_ = 2;
  std::uint64_t current_epoch_ = 1;
  NodeId token_custodian_ = NodeId::invalid();
  bool token_lost_ = false;
  bool regen_pending_ = false;
  GlobalSeq max_assigned_gseq_ = 0;
  bool any_assigned_ = false;
};

}  // namespace ringnet::core
