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
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/delivery.hpp"
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
/// reordering-safe. Only applied events are stored: an MH that no event
/// has touched is at its home AP, topology.parent(mh), at seq 0.
class GroupView {
 public:
  /// `topo` must outlive the view (the protocol owns both).
  explicit GroupView(const topo::Topology& topo) : topo_(&topo) {}

  void apply(NodeId mh, NodeId ap, std::uint64_t seq) {
    const Slot was = slot(mh);
    if (seq < was.seq) return;
    applied_.find_or_emplace(mh.index()) = Slot{ap, seq};
    if (was.ap.valid() && !ap.valid()) ++detached_;
    if (!was.ap.valid() && ap.valid()) --detached_;
  }

  std::size_t member_count() const { return topo_->mhs.size() - detached_; }

  std::optional<NodeId> ap_of(NodeId mh) const {
    const NodeId ap = slot(mh).ap;
    if (!ap.valid()) return std::nullopt;
    return ap;
  }

 private:
  struct Slot {
    NodeId ap = NodeId::invalid();
    std::uint64_t seq = 0;
  };

  Slot slot(NodeId mh) const {
    const Slot* s = applied_.find(mh.index());
    return s != nullptr ? *s : Slot{topo_->parent(mh), 0};
  }

  const topo::Topology* topo_;
  util::FlatHash<std::uint32_t, Slot> applied_;  // by MH index
  std::size_t detached_ = 0;
};

/// Per-delivery record used to verify the protocol's core guarantee: every
/// member observes the same total order. Dense-indexed by MH index.
///
/// Each member's records sit in a chain of fixed blocks, carved from a bump
/// arena per execution context: recording never regrows a vector, and the
/// arena needs no lock, because a member is delivered only in the context
/// that owns it and each context runs on one thread at a time. A member
/// that moves to another context keeps its chain; its later blocks come
/// from the new context's arena.
class DeliveryLog {
 public:
  struct Rec {
    GlobalSeq gseq;
    LocalSeq lseq;
    NodeId source;
  };

  static constexpr std::size_t kBlockRecs = 8;

 private:
  struct Block {
    Rec recs[kBlockRecs];
    Block* next = nullptr;
  };

 public:
  /// One member's records in record order: a forward range over its chain.
  class Records {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Rec;
      using difference_type = std::ptrdiff_t;
      using pointer = const Rec*;
      using reference = const Rec&;

      iterator() = default;
      reference operator*() const { return block_->recs[k_]; }
      iterator& operator++() {
        --left_;
        if (++k_ == kBlockRecs) {
          block_ = block_->next;
          k_ = 0;
        }
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      // Iterators of one range compare by the records left to visit.
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.left_ == b.left_;
      }

     private:
      friend class Records;
      iterator(const Block* block, std::size_t left)
          : block_(block), left_(left) {}

      const Block* block_ = nullptr;
      std::size_t left_ = 0;
      std::size_t k_ = 0;
    };

    iterator begin() const { return iterator(head_, size_); }
    iterator end() const { return iterator(); }
    std::size_t size() const { return size_; }

   private:
    friend class DeliveryLog;
    Records(const Block* head, std::size_t size) : head_(head), size_(size) {}

    const Block* head_;
    std::size_t size_;
  };

  DeliveryLog() = default;
  // Move-only: the chains point into the arenas' pages, which a move keeps.
  DeliveryLog(DeliveryLog&&) noexcept = default;
  DeliveryLog& operator=(DeliveryLog&&) noexcept = default;

  /// Starts an empty log for `mhs`, recording from `contexts` execution
  /// contexts (context indices 0..contexts-1).
  void reset(const std::vector<NodeId>& mhs, std::size_t contexts = 1) {
    ids_ = mhs;
    chains_.assign(mhs.size(), Chain{});
    arenas_.clear();
    arenas_.resize(contexts);
  }

  /// Appends one delivery to `mh`'s log; `ctx` is the recording context.
  void record(NodeId mh, GlobalSeq gseq, NodeId source, LocalSeq lseq,
              std::size_t ctx = 0) {
    Chain& c = chains_[mh.index()];
    const std::size_t k = c.size % kBlockRecs;
    if (k == 0) {
      Block* b = arenas_[ctx].take();
      if (c.tail == nullptr) {
        c.head = b;
      } else {
        c.tail->next = b;
      }
      c.tail = b;
    }
    c.tail->recs[k] = Rec{gseq, lseq, source};
    ++c.size;
  }

  /// The number of members the log was reset for.
  std::size_t members() const { return chains_.size(); }

  /// Member `i`'s records (MH-index order), in the order they were recorded.
  Records records(std::size_t i) const {
    return Records(chains_[i].head, chains_[i].size);
  }

  bool empty() const {
    for (const Chain& c : chains_) {
      if (c.size != 0) return false;
    }
    return true;
  }

  /// nullopt when the log is violation-free: per-member gseq sequences are
  /// strictly increasing and every member agrees on which (source, lseq)
  /// each gseq names. Multi-group logs pass too: genuine multicast leaves
  /// per-member holes (non-destination gseqs), and this check never
  /// required contiguity — only monotonicity and binding agreement.
  std::optional<std::string> check_total_order() const;

 private:
  struct Chain {
    Block* head = nullptr;
    Block* tail = nullptr;
    std::size_t size = 0;
  };

  /// Bump allocator of blocks. Pages are raw storage and a block is
  /// constructed when taken, so the log never writes the part of a page it
  /// has not reached, and the kernel never faults it in. Blocks are
  /// trivially destructible and die with their page.
  class Arena {
   public:
    Block* take() {
      if (used_ == kPageBlocks) {
        pages_.push_back(std::make_unique_for_overwrite<std::byte[]>(
            kPageBlocks * sizeof(Block)));
        used_ = 0;
      }
      void* at = pages_.back().get() + used_++ * sizeof(Block);
      return ::new (at) Block;
    }

   private:
    static constexpr std::size_t kPageBlocks = 256;
    std::vector<std::unique_ptr<std::byte[]>> pages_;
    std::size_t used_ = kPageBlocks;  // blocks taken from the last page
  };
  static_assert(std::is_trivially_destructible_v<Block>);

  std::vector<NodeId> ids_;  // index -> NodeId, for diagnostics
  std::vector<Chain> chains_;
  std::vector<Arena> arenas_;  // one per recording context
};

class RingNetProtocol;

/// Mobile host: the delivery core's receiver + delivery bookkeeping.
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
  OrderedReceiver ordered_;      // single-group: reorder, dedupe, gap skip
  ChainReceiver chain_;          // multi-group: delivery in chain order
  std::unordered_set<std::uint64_t> seen_unordered_;
  std::uint64_t delivered_ = 0;
  std::uint64_t ack_gen_ = 0;  // live ack-tick chain (bumps kill old chains)
  sim::SimTime last_delivery_ = sim::SimTime::zero();
};

/// Border router / ordering node state.
class BrNode {
 public:
  BrNode(NodeId id, std::size_t mq_retention, const topo::Topology& topo)
      : id_(id), mq_(mq_retention), view_(topo) {}

  NodeId id() const { return id_; }
  bool alive() const { return alive_; }
  const GroupView& group_view() const { return view_; }
  MessageQueue& mq() { return mq_; }

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
  MessageQueue mq_;  // its ack cursor is the subtree-acked floor
  AckFloor ack_floor_;  // attached members' watermarks; feeds mq_.ack_to
  GroupView view_;
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

  /// Fail a border router abruptly (the token-loss scenario).
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
  /// Moves the delivery log out, leaving this protocol's empty: call once
  /// the run is over.
  DeliveryLog take_deliveries() { return std::move(deliveries_); }

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

 private:
  struct SourceState {
    std::uint32_t index;
    NodeId source_id;  // tier-less id carried in DataMsg.source
    NodeId mh;
    LocalSeq next_lseq = 0;
    std::uint64_t gen = 0;  // live tick chain (bumps kill old chains)
    std::deque<proto::DataMsg> parked;  // submitted while detached
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
  /// Kill the MH's source chains and restart them in its current domain.
  void respawn_sources(NodeId mh);
  void source_tick(std::size_t idx, std::uint64_t gen);
  sim::SimTime next_submit_interval(SourceState& src);
  void submit(SourceState& src, proto::DataMsg msg);
  void uplink_to_br(const proto::DataMsg& msg, NodeId mh);

  // --- ordering -----------------------------------------------------------
  void tau_tick(NodeId br);
  void token_arrive(NodeId br, proto::OrderingToken token);
  void distribute(NodeId origin, const std::vector<proto::DataMsg>& batch);
  void br_receive_ordered(NodeId br, const proto::DataMsg& msg);
  void forward_down(NodeId br, const proto::DataMsg& msg);
  void forward_down_multi(NodeId br, const proto::DataMsg& msg);
  /// The members one downlink frame reaches after one arrival delay, in
  /// the order the BR walked them; on the chain path `links` holds the
  /// chain link stamped for each of them.
  struct Arrival {
    sim::SimTime delay;
    std::vector<NodeId> to;
    std::vector<GlobalSeq> links;
  };
  /// One step of a downlink walk: files `mh` under its arrival delay (with
  /// `link` on the chain path) unless it is detached or its cell is dark.
  void add_recipient(std::vector<Arrival>& arrivals, NodeId mh,
                     std::uint32_t bytes, std::optional<GlobalSeq> link);
  /// Schedules one event per arrival, each carrying the one shared frame.
  void send_arrivals(NodeId br, const proto::DataMsg& msg,
                     std::vector<Arrival> arrivals);
  /// A frame reaching one member in an event of its own (resends,
  /// replays): accepts it and charges what it delivered to mh.delivered.
  void mh_receive(NodeId mh, const proto::DataMsg& msg);
  /// Accepts one frame at `mh` and returns how many messages it delivered;
  /// the calling event charges mh.delivered once for all its members.
  std::uint64_t mh_accept(NodeId mh, const proto::DataMsg& msg);
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
  /// The same link-layer ARQ for a frame whose one-way delay is known.
  sim::SimTime hop_delay(const net::ChannelModel& model, net::LinkKey link,
                         sim::SimTime one_way);
  /// The wireless and LAN one-way delays of a `bytes`-sized frame, from the
  /// executing context's memo.
  struct TreeHops {
    std::uint32_t bytes;
    sim::SimTime wireless;
    sim::SimTime lan;
  };
  const TreeHops& tree_hops(std::uint32_t bytes);
  net::LossProcess& loss_process(net::LinkKey link,
                                 const net::ChannelModel& model);
  sim::SimTime uplink_delay(NodeId mh, std::uint32_t bytes);
  sim::SimTime downlink_delay(NodeId mh, std::uint32_t bytes);
  void note_wq_depth(const BrNode& br);
  void mark_acked(BrNode& br);
  void advance_global_floor();
  void prune_archive();
  const proto::DataMsg* archive_lookup(GlobalSeq gseq) const;
  std::uint32_t data_bytes(const proto::DataMsg& m) const {
    // Envelope tag + DataMsg descriptor (proto::wire_size) + payload.
    const std::uint32_t plain = 41 + config_.source.payload_size;
    // The multi-group trailing section (count + gid/seq rows + chain link)
    // rides the frame; legacy messages carry no section.
    if (m.groups.empty()) return plain;
    // Clamped like the codec's encode_body, so the modeled frame size
    // matches what would actually go on the wire.
    return plain +
           static_cast<std::uint32_t>(
               1 + 12 * std::min(m.groups.size(), proto::kMaxDataGroups) + 8);
  }

  sim::Simulation& sim_;
  ProtocolConfig config_;
  topo::Topology topo_;
  bool migrate_;  // domain-planned simulation: per-subtree contexts exist

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
  // Per-member delivery-chain bookkeeping at the serving BR (dense by MH
  // index, touched only from the member's owning domain):
  std::vector<ChainSender> member_chain_;
  std::vector<GlobalSeq> member_seen_stamp_;  // forward dedupe (gseq+1 tag)
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
  // Tree-path caches: the per-message delay math loads its parents instead
  // of dividing by the fan-outs.
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
  // Per-context memo of the tree hops' one-way delays by frame size.
  // ChannelModel::one_way rounds a double, every member of a fan-out would
  // pay three of them, and frames come in a handful of sizes.
  std::vector<std::vector<TreeHops>> tree_hops_;
  std::vector<std::uint64_t> membership_seq_;  // by MH index
  std::unordered_set<std::uint64_t> lost_serials_;  // token frames lost in
                                                    // transit (lose_token)
  // Every assigned message not yet pruned — the stand-in for fetching a
  // missing copy from a peer ordering node's MQ when a BR has a hole (e.g.
  // it was wrongly ejected from the ring).
  // Gseqs are assigned contiguously, so the archive is a base-offset deque:
  // entry for gseq g lives at index (g - archive_base_). Entries below
  // (global acked floor - archive_retention) are pruned from the front.
  std::deque<proto::DataMsg> assigned_archive_;
  GlobalSeq archive_base_ = 0;  // gseq of assigned_archive_.front()
  GlobalSeq global_acked_floor_ = 0;  // min MQ ack cursor over alive BRs
  std::size_t archive_peak_ = 0;

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
