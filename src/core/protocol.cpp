#include "core/protocol.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/groups.hpp"
#include "obs/names.hpp"

namespace ringnet::core {

namespace {

// RN007-ok: the degenerate single-group deployment's one ring-wide group;
// multi-group state is always reached through a message's GroupSet instead.
constexpr GroupId kGroup{1};
constexpr std::uint32_t kAckBytes = 17;
constexpr std::uint32_t kHeartbeatBytes = 13;
// Resends per ack processed; bounds the catch-up burst after a handoff.
constexpr std::size_t kResendWindow = 128;

}  // namespace

// ---------------------------------------------------------------------------
// DeliveryLog

std::optional<std::string> DeliveryLog::check_total_order() const {
  std::unordered_map<GlobalSeq, std::pair<NodeId, LocalSeq>> binding;
  for (std::size_t i = 0; i < per_mh_.size(); ++i) {
    bool first = true;
    GlobalSeq prev = 0;
    for (const auto& r : per_mh_[i]) {
      if (!first && r.gseq <= prev) {
        return "non-increasing gseq " + std::to_string(r.gseq) + " after " +
               std::to_string(prev) + " at " + to_string(ids_[i]);
      }
      first = false;
      prev = r.gseq;
      const auto [it, inserted] =
          binding.emplace(r.gseq, std::make_pair(r.source, r.lseq));
      if (!inserted &&
          (it->second.first != r.source || it->second.second != r.lseq)) {
        return "gseq " + std::to_string(r.gseq) +
               " bound to two different messages (seen at " +
               to_string(ids_[i]) + ")";
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Construction

RingNetProtocol::RingNetProtocol(sim::Simulation& sim, ProtocolConfig config)
    : sim_(sim),
      config_(std::move(config)),
      topo_(topo::build_hierarchy(config_.hierarchy)),
      migrate_(sim.domain_count() > 0) {
  // build_hierarchy assigns tier indices in emission order, so top_ring,
  // aps and mhs are index-ordered and every per-tier table below can be a
  // plain vector addressed by NodeId::index().
  const std::size_t n_br = topo_.top_ring.size();
  const std::size_t n_ap = topo_.aps.size();
  const std::size_t n_mh = topo_.mhs.size();
  const std::size_t n_ctx =
      static_cast<std::size_t>(sim_.global_domain()) + 1;

  brs_.reserve(n_br);
  for (NodeId br : topo_.top_ring) {
    brs_.emplace_back(br, config_.options.mq_retention);
  }
  br_members_.assign(n_br, {});
  alive_ring_ = topo_.top_ring;
  rebuild_ring_index();

  ap_occupancy_.assign(n_ap, 0);
  cell_blackout_.assign(n_ap, 0);
  ap_ag_.assign(n_ap, NodeId::invalid());
  ap_br_.assign(n_ap, NodeId::invalid());
  for (NodeId ap : topo_.aps) {
    const NodeId ag = topo_.desc(ap).parent;
    ap_ag_[ap.index()] = ag;
    ap_br_[ap.index()] = topo_.br_of(ap);
    if (ag.index() >= ag_br_.size()) {
      ag_br_.resize(ag.index() + 1, NodeId::invalid());
    }
    ag_br_[ag.index()] = topo_.desc(ag).parent;
  }

  mhs_.reserve(n_mh);
  member_wm_.assign(n_mh, 0);
  member_br_.assign(n_mh, NodeId::invalid());
  multi_ = config_.groups.multi();
  mh_groups_.assign(n_mh, {});
  if (multi_) {
    group_members_.assign(
        n_br, std::vector<std::vector<NodeId>>(config_.groups.count));
    member_fwd_tail_.assign(n_mh, 0);
    member_fwd_log_.assign(n_mh, {});
    member_seen_stamp_.assign(n_mh, 0);
    group_seq_high_.assign(config_.groups.count, 0);
    for (std::size_t i = 0; i < n_mh; ++i) {
      mh_groups_[i] = member_groups(i, config_.groups);
    }
  }
  mh_domain_.assign(n_mh, gdom());
  sources_on_mh_.assign(n_mh, {});
  membership_seq_.assign(n_mh, 0);
  for (NodeId mh : topo_.mhs) {
    const NodeId ap = topo_.desc(mh).parent;
    mhs_.emplace_back(mh, ap);
    const NodeId br = topo_.br_of(ap);
    br_members_[br.index()].push_back(mh);
    member_br_[mh.index()] = br;
    mh_domain_[mh.index()] = br_domain(br);
    ++ap_occupancy_[ap.index()];
    if (multi_) {
      for (GroupId g : mh_groups_[mh.index()]) {
        group_members_[br.index()][group_index(g)].push_back(mh);
      }
    }
  }
  deliveries_.reset(topo_.mhs);
  lat_hists_.resize(n_ctx);
  span_breakdowns_.resize(n_ctx);
  loss_.resize(n_ctx);

  // Every BR starts with a converged view: all MHs at their home AP.
  for (auto& br : brs_) {
    br.view_.reset(n_mh);
    for (NodeId mh : topo_.mhs) {
      br.view_.apply(mh, topo_.desc(mh).parent, 0);
    }
  }

  // Sources live on MHs, spread evenly across the population.
  sources_.reserve(config_.num_sources);
  for (std::size_t i = 0; i < config_.num_sources; ++i) {
    SourceState s;
    s.index = static_cast<std::uint32_t>(i);
    s.source_id = NodeId{static_cast<std::uint32_t>(i)};
    s.mh = topo_.mhs[(i * n_mh) / std::max<std::size_t>(config_.num_sources,
                                                        1)];
    sources_on_mh_[s.mh.index()].push_back(static_cast<std::uint32_t>(i));
    sources_.push_back(std::move(s));
  }

  // Sender skew: source i carries weight (i+1)^-skew, normalized to mean 1
  // so the aggregate submit rate stays num_sources * rate_hz.
  if (config_.source.sender_skew > 0.0 && !sources_.empty()) {
    double sum = 0.0;
    for (auto& s : sources_) {
      s.weight = std::pow(static_cast<double>(s.index) + 1.0,
                          -config_.source.sender_skew);
      sum += s.weight;
    }
    const double norm = static_cast<double>(sources_.size()) / sum;
    for (auto& s : sources_) s.weight *= norm;
  }

  auto& mx = sim_.metrics();
  namespace names = obs::names;
  mid_.mh_delivered = mx.intern(names::kMhDelivered);
  mid_.acks_sent = mx.intern(names::kAcksSent);
  mid_.retransmits = mx.intern(names::kRetransmits);
  mid_.token_held = mx.intern(names::kTokenHeld);
  mid_.token_dup_destroyed = mx.intern(names::kTokenDupDestroyed);
  mid_.token_regenerated = mx.intern(names::kTokenRegenerated);
  mid_.token_dropped = mx.intern(names::kTokenDropped);
  mid_.wq_dropped = mx.intern(names::kWqDropped);
  mid_.gaps_skipped = mx.intern(names::kGapsSkipped);
  mid_.gap_skipped_msgs = mx.intern(names::kGapSkippedMsgs);
  mid_.membership_applied = mx.intern(names::kMembershipApplied);
  mid_.membership_relayed = mx.intern(names::kMembershipRelayed);
  mid_.ring_repairs = mx.intern(names::kRingRepairs);
  mid_.ring_rejoins = mx.intern(names::kRingRejoins);
  mid_.handoff_count = mx.intern(names::kHandoffCount);
  mid_.handoff_hot = mx.intern(names::kHandoffHot);
  mid_.handoff_cold = mx.intern(names::kHandoffCold);
  mid_.archive_pruned = mx.intern(names::kArchivePruned);
  mid_.churn_leaves = mx.intern(names::kChurnLeaves);
  mid_.churn_rejoins = mx.intern(names::kChurnRejoins);
  mid_.blackout_dropped = mx.intern(names::kBlackoutDropped);
  mid_.blackout_uplink_lost = mx.intern(names::kBlackoutUplinkLost);
  mid_.park_dropped = mx.intern(names::kParkDropped);
  mid_.buf_wq_peak = mx.intern(names::kBufWqPeak);
  mid_.buf_mq_peak = mx.intern(names::kBufMqPeak);
  mid_.buf_archive_peak = mx.intern(names::kBufArchivePeak);
  mid_.buf_submitlog_peak = mx.intern(names::kBufSubmitlogPeak);
}

// ---------------------------------------------------------------------------
// Lifecycle

void RingNetProtocol::start() {
  assert(!started_);
  started_ = true;
  const auto& opt = config_.options;

  for (NodeId br : topo_.top_ring) {
    brs_[br.index()].last_hb_from_prev_ = sim_.now();
    if (opt.tau > sim::SimTime::zero()) {
      sim_.after(br_domain(br), opt.tau, [this, br] { tau_tick(br); });
    }
    sim_.after(gdom(), opt.membership_batch,
               [this, br] { membership_flush_tick(br); });
    sim_.after(gdom(), opt.heartbeat_period,
               [this, br] { heartbeat_tick(br); });
  }

  if (opt.ordered) {
    std::uint32_t stagger = 0;
    for (NodeId mh : topo_.mhs) {
      const sim::SimTime phase{(opt.ack_period.us * (stagger % 8)) / 8};
      ++stagger;
      spawn_ack_chain(mh, opt.ack_period + phase);
    }
    proto::OrderingToken token(kGroup, current_epoch_);
    token.set_serial(active_token_serial_);
    token_custodian_ = topo_.top_ring.front();
    sim_.after(gdom(), sim::usecs(1),
               [this, token = std::move(token)]() mutable {
                 token_arrive(token_custodian_, std::move(token));
               });
  }

  start_sources();

  if (config_.mobility.handoff_rate_hz > 0.0 && topo_.aps.size() > 1) {
    mobility_.running_ = true;
    for (NodeId mh : topo_.mhs) schedule_next_handoff(mh);
  }
}

void RingNetProtocol::start_sources() {
  sources_running_ = true;
  const double rate = config_.source.rate_hz;
  if (rate <= 0.0 || sources_.empty()) return;
  const sim::SimTime period = sim::secs(1.0 / rate);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const sim::SimTime phase{
        (period.us * static_cast<std::int64_t>(i + 1)) /
        static_cast<std::int64_t>(sources_.size() + 1)};
    spawn_source_chain(i, phase);
  }
}

void RingNetProtocol::stop_sources() { sources_running_ = false; }

void RingNetProtocol::spawn_source_chain(std::size_t idx, sim::SimTime delay) {
  // The chain is pinned to the domain owning the source's MH at spawn time;
  // a migration bumps the generation, killing the old chain at its next
  // tick, and respawns into the new owner.
  SourceState& src = sources_[idx];
  const std::uint64_t gen = src.gen;
  sim_.after(mh_domain_[src.mh.index()], delay,
             [this, idx, gen] { source_tick(idx, gen); });
}

void RingNetProtocol::source_tick(std::size_t idx, std::uint64_t gen) {
  SourceState& src = sources_[idx];
  if (gen != src.gen) return;  // superseded by a migration respawn
  if (!sources_running_) return;
  if (config_.source.max_messages > 0 &&
      src.next_lseq >= config_.source.max_messages) {
    return;  // count-bounded source exhausted (no reschedule)
  }
  proto::DataMsg msg;
  msg.gid = kGroup;
  msg.source = src.source_id;
  msg.lseq = src.next_lseq++;
  msg.payload_size = config_.source.payload_size;
  if (multi_) {
    msg.groups = dest_groups(src.source_id, msg.lseq, config_.groups);
    msg.gid = msg.groups[0];
  }
  submit(src, msg);
  sim::SimTime dt = next_submit_interval(src);
  if (multi_ && group_boost_ != 1.0 && boost_group_.v != 0 &&
      dest_groups(src.source_id, src.next_lseq, config_.groups)
          .contains(boost_group_)) {
    // Flash crowd: the upcoming message targets the hot group, so this
    // source submits it boost-x sooner. Pure function of (source, lseq) —
    // no extra RNG draws, so the schedule stays replayable.
    dt = sim::secs(dt.seconds() / group_boost_);
  }
  // Floor at one tick: a zero interval (microsecond rounding at extreme
  // rates) would reschedule at the same timestamp forever.
  if (dt <= sim::SimTime::zero()) dt = sim::usecs(1);
  sim_.after(dt, [this, idx, gen] { source_tick(idx, gen); });
}

sim::SimTime RingNetProtocol::next_submit_interval(SourceState& src) {
  const SourceConfig& sc = config_.source;
  const double base = sc.rate_hz * src.weight;
  switch (sc.pattern) {
    case TrafficPattern::Constant:
      return sim::secs(1.0 / base);
    case TrafficPattern::Poisson:
      return sim::secs(sim_.rng().exponential(base));
    case TrafficPattern::Mmpp: {
      // Competing exponentials: draw the gap at the current state's rate,
      // but a gap crossing the next state transition is truncated there
      // and re-drawn at the new state's rate — otherwise an OFF-scale
      // residual would front-clip every burst onset.
      const double burst =
          sc.burst_rate_hz > 0.0 ? sc.burst_rate_hz * src.weight : 10.0 * base;
      sim::SimTime t = sim_.now();
      while (true) {
        while (src.mmpp_until <= t) {
          src.mmpp_on = !src.mmpp_on;
          const double mean_s = std::max(
              (src.mmpp_on ? sc.on_mean : sc.off_mean).seconds(), 1e-6);
          src.mmpp_until += sim::secs(sim_.rng().exponential(1.0 / mean_s));
        }
        const sim::SimTime gap =
            sim::secs(sim_.rng().exponential(src.mmpp_on ? burst : base));
        if (t + gap <= src.mmpp_until) return t + gap - sim_.now();
        t = src.mmpp_until;
      }
    }
    case TrafficPattern::Diurnal: {
      // Nonhomogeneous Poisson: the instantaneous rate rides a sinusoid
      // between 0.1x and 1.9x the base over one diurnal_period.
      constexpr double kTwoPi = 6.283185307179586;
      const double period_s = std::max(sc.diurnal_period.seconds(), 1e-6);
      const double rate =
          base * (1.0 + 0.9 * std::sin(kTwoPi * sim_.now().seconds() /
                                       period_s));
      return sim::secs(sim_.rng().exponential(rate));
    }
  }
  return sim::secs(1.0 / base);
}

void RingNetProtocol::submit(SourceState& src, proto::DataMsg msg) {
  msg.submit_at = sim_.now();
  src.submit_log.push(sim_.now());
  note_submit_log_depth(src.submit_log.retained());
  total_sent_.fetch_add(1, std::memory_order_relaxed);
  MhNode& m = mhs_[src.mh.index()];
  if (!m.attached_) {
    src.parked.push_back(msg);
    if (src.parked.size() > config_.options.source_park_cap) {
      release_submit(src.parked.front());
      src.parked.pop_front();
      sim_.metrics().incr(mid_.park_dropped);
    }
    return;
  }
  uplink_to_br(msg, src.mh);
}

void RingNetProtocol::uplink_to_br(const proto::DataMsg& msg, NodeId mh) {
  MhNode& m = mhs_[mh.index()];
  if (cell_blacked_out(m.ap_)) {
    // The radio cannot reach the AP and there is no end-to-end source ARQ:
    // the submission is lost outright — unlike downlink drops, nothing
    // ever repairs it, so it is counted separately from blackout.dropped.
    sim_.metrics().incr(mid_.blackout_uplink_lost);
    release_submit(msg);
    return;
  }
  const NodeId br = ap_br_[m.ap_.index()];
  if (!br.valid()) {
    release_submit(msg);  // dropped before assignment: never archived
    return;
  }
  const sim::SimTime delay = uplink_delay(mh, data_bytes(msg));
  if (config_.options.ordered) {
    sim_.after(br_domain(br), delay, [this, br, msg = msg]() mutable {
      BrNode& b = brs_[br.index()];
      if (!b.alive_) {
        release_submit(msg);  // lost at a dead BR: never archived
        return;
      }
      msg.uplink_rx_at = sim_.now();
      if (config_.options.tau > sim::SimTime::zero()) {
        b.staging_.push_back(msg);
      } else {
        b.wq_.add(msg);
      }
      note_wq_depth(b);
    });
  } else {
    // Remark 3 variant: no ordering pass — fan straight out of the BR tier.
    sim_.after(br_domain(br), delay, [this, br, msg = msg]() mutable {
      if (!brs_[br.index()].alive_) return;
      msg.uplink_rx_at = sim_.now();
      std::vector<proto::DataMsg> batch{msg};
      distribute(br, batch);
    });
  }
}

// ---------------------------------------------------------------------------
// Ordering

void RingNetProtocol::tau_tick(NodeId br) {
  BrNode& b = brs_[br.index()];
  if (b.alive_) {
    while (!b.staging_.empty()) {
      b.wq_.add(b.staging_.front());
      b.staging_.pop_front();
    }
    note_wq_depth(b);
  }
  sim_.after(config_.options.tau, [this, br] { tau_tick(br); });
}

void RingNetProtocol::token_arrive(NodeId br, proto::OrderingToken token) {
  if (!lost_serials_.empty() && lost_serials_.count(token.serial()) != 0) {
    // The frame carrying this token was declared lost in transit
    // (lose_token): it never arrives anywhere.
    sim_.metrics().incr(mid_.token_dropped);
    return;
  }
  BrNode& b = brs_[br.index()];
  if (!b.alive_) {
    // The token reached a crashed node and is gone; topology maintenance
    // will notice via heartbeats and signal Token-Loss.
    if (token.serial() == active_token_serial_) token_lost_ = true;
    return;
  }
  if (token.serial() != active_token_serial_) {
    // Multiple-Token elimination: only the live lineage survives.
    sim_.metrics().incr(mid_.token_dup_destroyed);
    sim_.trace().record(sim::TraceKind::TokenDestroy, sim_.now(), br,
                        token.epoch());
    return;
  }

  token_custodian_ = br;
  if (br == alive_ring_.front()) token.bump_rotation();
  sim_.trace().record(sim::TraceKind::TokenPass, sim_.now(), br, token.epoch(),
                      token.rotation());
  sim_.metrics().incr(mid_.token_held);

  // WTSNP recycling: our previous entries have completed a full rotation.
  token.prune_entries_of(br);

  std::size_t dropped = 0;
  auto batch = b.wq_.assign(
      [&](proto::DataMsg& m) {
        m.gseq = token.append_range(br, m.source, m.lseq, m.lseq);
        m.ordering_node = br;
        m.epoch = token.epoch();
        m.assigned_at = sim_.now();
        if (multi_ && !m.groups.empty()) {
          // Per-destination-group dense sequence, drawn from the token's
          // group counters so it is totally ordered ring-wide. With the
          // one shared ring the cross-group timestamp merge collapses to
          // gseq itself; the per-group seqs feed traces and accounting.
          for (std::size_t i = 0; i < m.groups.size(); ++i) {
            m.group_seqs[i] = token.bump_group_seq(m.groups[i]);
            group_seq_high_[group_index(m.groups[i])] = m.group_seqs[i] + 1;
          }
        }
        return true;
      },
      dropped);
  if (dropped > 0) sim_.metrics().incr(mid_.wq_dropped, dropped);

  for (const auto& m : batch) {
    if (m.source.index() < sources_.size()) {
      // Token hops are barrier points: every earlier submit has run, so
      // the (domain-owned) submit log is safe to read here in both modes.
      const auto at = sources_[m.source.index()].submit_log.get(m.lseq);
      if (at) {
        assign_hist_.record(static_cast<std::uint64_t>((sim_.now() - *at).us));
      }
    }
    if (!any_assigned_) archive_base_ = m.gseq;
    max_assigned_gseq_ = m.gseq;
    any_assigned_ = true;
    assert(m.gseq == archive_base_ + assigned_archive_.size());
    assigned_archive_.push_back(ArchiveEntry{m, sim_.now()});
  }
  if (!batch.empty()) {
    archive_peak_ = std::max(archive_peak_, assigned_archive_.size());
    sim_.metrics().gauge_max(mid_.buf_archive_peak,
                             static_cast<double>(assigned_archive_.size()));
    sim_.metrics().gauge_max(
        mid_.buf_submitlog_peak,
        static_cast<double>(
            submit_log_peak_.load(std::memory_order_relaxed)));
    distribute(br, batch);
  }

  // Under domain sharding the subtree-acked floors advance inside their
  // domains; fold them into the global watermark at this serialization
  // point instead of on every ack.
  if (migrate_) advance_global_floor();

  const NodeId next = next_alive_br(br);
  if (!next.valid()) return;  // ring fully gone
  const std::uint32_t token_bytes = static_cast<std::uint32_t>(
      41 + 32 * token.entries().size() +
      12 * token.group_counters().size());
  sim::SimTime delay = config_.options.token_hold;
  if (next == br) {
    delay += sim::msecs(1);  // 1-ring (sequencer): pace the self-visit
  } else {
    delay += hop_delay(config_.hierarchy.wan, net::link_key(br, next),
                       token_bytes);
  }
  token_custodian_ = next;
  // Move the token into the hop event: its WTSNP entry vector would
  // otherwise be copied on every pass of the ring's hottest path.
  sim_.after(delay, [this, next, token = std::move(token)]() mutable {
    token_arrive(next, std::move(token));
  });
}

void RingNetProtocol::distribute(NodeId origin,
                                 const std::vector<proto::DataMsg>& batch) {
  // Self-delivery is unconditional: the origin has the batch in hand even
  // if a false-positive ejection removed it from alive_ring_.
  for (const auto& m : batch) br_receive_ordered(origin, m);
  if (alive_ring_.empty() ||
      (alive_ring_.size() == 1 && ring_pos_[origin.index()] != kNoRingPos)) {
    return;
  }
  // One frame (and one scheduled event) per destination carries the whole
  // batch; each (origin, destination) link runs its own loss/ARQ process.
  const auto frame =
      std::make_shared<const std::vector<proto::DataMsg>>(batch);
  std::uint32_t frame_bytes = 0;
  for (const auto& m : batch) frame_bytes += data_bytes(m);
  for (NodeId br : alive_ring_) {
    if (br == origin) continue;
    const sim::SimTime delay = hop_delay(
        config_.hierarchy.wan, net::link_key(origin, br), frame_bytes);
    sim_.after(br_domain(br), delay, [this, br, frame] {
      for (const auto& m : *frame) br_receive_ordered(br, m);
    });
  }
}

void RingNetProtocol::br_receive_ordered(NodeId br, const proto::DataMsg& msg) {
  BrNode& b = brs_[br.index()];
  if (!b.alive_) return;
  if (config_.options.ordered) {
    if (!b.mq_.store(msg, sim_.now())) return;  // duplicate
    sim_.metrics().gauge_max(mid_.buf_mq_peak,
                             static_cast<double>(b.mq_.size()));
    // With no members there are no acks to drive pruning: advance the
    // retention window once enough arrivals pile up (amortized, so the
    // per-message path stays O(1)) to keep an empty BR's MQ bounded.
    if (br_members_[br.index()].empty() &&
        b.mq_.size() > 2 * config_.options.mq_retention + 64) {
      mark_acked(b);
    }
    if (multi_) {
      forward_in_gseq_order(b);
      return;
    }
  }
  forward_down(br, msg);
}

void RingNetProtocol::forward_in_gseq_order(BrNode& b) {
  // Chain links must rise per member, so multi-group forwarding walks the
  // MQ in gseq order, like the runtime's chain_next_ cursor. A peer's
  // distribution that lands after this BR stored its own later gseqs fills
  // the hole the cursor waits on; chaining in arrival order would link it
  // backwards and the member would drop it as a duplicate. Everything
  // below the MQ's delivered cursor is subtree-acked or skipped: jump it.
  if (b.chain_next_ < b.mq_.next_expected()) {
    b.chain_next_ = b.mq_.next_expected();
  }
  while (const proto::DataMsg* m = b.mq_.find(b.chain_next_)) {
    forward_down(b.id_, *m);
    ++b.chain_next_;
  }
}

void RingNetProtocol::forward_down(NodeId br, const proto::DataMsg& msg) {
  if (multi_ && !msg.groups.empty()) {
    forward_down_multi(br, msg);
    return;
  }
  const sim::Domain dom = br_domain(br);
  const auto& members = br_members_[br.index()];
  if (members.empty()) return;
  // One refcounted copy carries the frame to every member; the per-member
  // fan-out is the hottest loop in the deployment and must not copy the
  // full DataMsg per destination (same idiom as distribute()'s ring frame).
  auto stamped = std::make_shared<proto::DataMsg>(msg);
  stamped->relay_rx_at = sim_.now();
  const std::shared_ptr<const proto::DataMsg> frame = std::move(stamped);
  for (NodeId mh : members) {
    MhNode& m = mhs_[mh.index()];
    if (!m.attached_) continue;
    if (cell_blacked_out(m.ap_)) {
      // The AP's radio is dark: the frame is dropped at the cell edge and
      // the member catches up via ack-driven resync after the window.
      sim_.metrics().incr(mid_.blackout_dropped);
      continue;
    }
    const sim::SimTime delay = downlink_delay(mh, data_bytes());
    sim_.after(dom, delay,
               [this, mh, frame] { mh_receive(mh, *frame, false); });
  }
}

void RingNetProtocol::forward_down_multi(NodeId br, const proto::DataMsg& msg) {
  // Genuine relay: walk only the destination groups' member slabs. A BR
  // whose subtree holds no member of any destination group does zero work
  // here — per-message downlink cost scales with the destination
  // membership, not the deployment's group count or MH population.
  const sim::Domain dom = br_domain(br);
  auto& slabs = group_members_[br.index()];
  const GlobalSeq stamp = msg.gseq + 1;  // chain coordinate of this frame
  for (GroupId g : msg.groups) {
    for (NodeId mh : slabs[group_index(g)]) {
      const std::size_t i = mh.index();
      if (member_seen_stamp_[i] == stamp) continue;  // overlapping groups
      member_seen_stamp_[i] = stamp;
      MhNode& m = mhs_[i];
      proto::DataMsg copy = msg;
      copy.relay_rx_at = sim_.now();
      if (config_.options.ordered) {
        // Chain the frame to the previous one forwarded to this member,
        // and log it for ack-driven resends, even when the radio is dark:
        // the chain must name every destined message or the member could
        // not tell a loss from a non-destination gseq hole.
        copy.prev_chain = member_fwd_tail_[i];
        member_fwd_tail_[i] = stamp;
        auto& log = member_fwd_log_[i];
        log.push_back(FwdEntry{msg.gseq, copy.prev_chain});
        if (log.size() > config_.options.mq_retention + kResendWindow) {
          // A member that never acks (crashed radio, endless blackout)
          // must not grow O(total sent) state: drop the oldest unacked
          // forward — the ack-driven resync splices the chain over it.
          log.pop_front();
        }
      }
      if (!m.attached_) continue;  // repaired via the forward-log resend
      if (cell_blacked_out(m.ap_)) {
        sim_.metrics().incr(mid_.blackout_dropped);
        continue;
      }
      const sim::SimTime delay = downlink_delay(mh, data_bytes(copy));
      sim_.after(dom, delay,
                 [this, mh, copy] { mh_receive(mh, copy, false); });
    }
  }
}

void RingNetProtocol::mh_receive(NodeId mh, const proto::DataMsg& msg,
                                 bool retransmission) {
  (void)retransmission;
  MhNode& m = mhs_[mh.index()];
  // Ownership guard: a frame scheduled before the MH migrated to another
  // subtree arrives in the old domain; it missed (resync repairs it).
  // Trivially true without sharding (both sides are context 0).
  if (sim_.current_ctx() != mh_domain_[mh.index()]) return;
  if (!m.attached_) return;  // missed; recovered via ack-driven resend
  if (cell_blacked_out(m.ap_)) {
    // Covers frames (and ARQ resends) already in flight when the window
    // started, so blackout.dropped counts every frame the cell ate.
    sim_.metrics().incr(mid_.blackout_dropped);
    return;
  }
  if (!config_.options.ordered) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(msg.source.v) << 40) ^ msg.lseq;
    if (!m.seen_unordered_.insert(key).second) return;
    deliver_at_mh(m, msg);
    return;
  }
  if (multi_ && !msg.groups.empty()) {
    mh_receive_multi(m, msg);
    return;
  }
  if (!m.mq_.store(msg, sim_.now())) return;
  for (const auto& d : m.mq_.deliverable()) {
    m.mq_.mark_delivered(d.gseq);
    deliver_at_mh(m, d);
  }
}

void RingNetProtocol::mh_receive_multi(MhNode& m, const proto::DataMsg& msg) {
  // Chain-order delivery: a frame is deliverable once its predecessor in
  // the member's chain (prev_chain) has been delivered or settled
  // (coordinate <= multi_tail_). Held frames wait keyed by their own
  // coordinate; coordinates rise along the chain, so draining the smallest
  // held frame while its link is satisfied replays the chain in order.
  const GlobalSeq coord = msg.gseq + 1;
  if (coord <= m.multi_tail_) return;  // duplicate (already delivered)
  const auto [held, inserted] = m.multi_held_.emplace(coord, msg);
  if (!inserted) {
    // Same coordinate already held. A resend after the BR spliced an
    // unrecoverable predecessor out of the chain carries a repaired
    // (lower) link; keeping the stale held link would wait forever on a
    // frame that can no longer arrive. Merge the lower link and re-drain;
    // a byte-identical duplicate merges to a no-op and drains nothing.
    if (msg.prev_chain >= held->second.prev_chain) return;  // duplicate
    held->second.prev_chain = msg.prev_chain;
  }
  while (!m.multi_held_.empty()) {
    auto it = m.multi_held_.begin();
    if (it->second.prev_chain > m.multi_tail_) break;  // link missing
    m.multi_tail_ = it->first;
    deliver_at_mh(m, it->second);
    m.multi_held_.erase(it);
  }
}

void RingNetProtocol::deliver_at_mh(MhNode& node, const proto::DataMsg& msg) {
  ++node.delivered_;
  node.last_delivery_ = sim_.now();
  sim_.metrics().incr(mid_.mh_delivered);
  sim_.trace().record(sim::TraceKind::Deliver, sim_.now(), node.id_, msg.gseq);
  if (migrate_) {
    // The submit stamp rides the message, so cross-domain deliveries never
    // read another domain's (live) submit log.
    lat_hists_[sim_.current_ctx()].record(
        static_cast<std::uint64_t>((sim_.now() - msg.submit_at).us));
  } else if (msg.source.index() < sources_.size()) {
    const auto at = sources_[msg.source.index()].submit_log.get(msg.lseq);
    if (at) {
      lat_hists_[0].record(
          static_cast<std::uint64_t>((sim_.now() - *at).us));
    }
  }
  if (config_.record_spans) record_span(msg);
  if (config_.record_deliveries && config_.options.ordered) {
    GroupId gid = msg.gid;
    if (multi_ && !msg.groups.empty()) {
      // Credit the delivery to the smallest destination group this member
      // belongs to — deterministic, so serial and sharded runs agree.
      const proto::GroupSet& mine = mh_groups_[node.id_.index()];
      for (GroupId g : msg.groups) {
        if (mine.contains(g)) {
          gid = g;
          break;
        }
      }
    }
    deliveries_.record(node.id_, msg.gseq, msg.source, msg.lseq, gid);
  }
}

stats::Histogram RingNetProtocol::lat_hist() const {
  stats::Histogram merged;
  for (const auto& h : lat_hists_) merged.merge_from(h);
  return merged;
}

obs::SpanBreakdown RingNetProtocol::span_breakdown() const {
  obs::SpanBreakdown merged;
  for (const auto& s : span_breakdowns_) merged.merge_from(s);
  return merged;
}

void RingNetProtocol::record_span(const proto::DataMsg& msg) {
  // Every stage stamp must be monotone from the previous one; a stage the
  // message never passed (e.g. no assignment in the unordered variant)
  // leaves its stamp at zero and disqualifies the whole span rather than
  // crediting a nonsense duration.
  const sim::SimTime now = sim_.now();
  if (msg.uplink_rx_at < msg.submit_at || msg.assigned_at < msg.uplink_rx_at ||
      msg.relay_rx_at < msg.assigned_at || now < msg.relay_rx_at) {
    return;
  }
  obs::SpanBreakdown& sb = span_breakdowns_[sim_.current_ctx()];
  sb.record(obs::SpanStage::Submit,
            static_cast<std::uint64_t>((msg.uplink_rx_at - msg.submit_at).us));
  sb.record(obs::SpanStage::Assign,
            static_cast<std::uint64_t>((msg.assigned_at - msg.uplink_rx_at).us));
  sb.record(obs::SpanStage::Relay,
            static_cast<std::uint64_t>((msg.relay_rx_at - msg.assigned_at).us));
  sb.record(obs::SpanStage::Deliver,
            static_cast<std::uint64_t>((now - msg.relay_rx_at).us));
  sb.record_total(static_cast<std::uint64_t>((now - msg.submit_at).us));
}

// ---------------------------------------------------------------------------
// Acks, pruning, resynchronization

void RingNetProtocol::spawn_ack_chain(NodeId mh, sim::SimTime delay) {
  MhNode& m = mhs_[mh.index()];
  const std::uint64_t gen = m.ack_gen_;
  sim_.after(mh_domain_[mh.index()], delay,
             [this, mh, gen] { ack_tick(mh, gen); });
}

void RingNetProtocol::ack_tick(NodeId mh, std::uint64_t gen) {
  MhNode& m = mhs_[mh.index()];
  if (gen != m.ack_gen_) return;  // superseded by a migration respawn
  sim_.after(config_.options.ack_period,
             [this, mh, gen] { ack_tick(mh, gen); });
  if (!m.attached_) return;
  if (cell_blacked_out(m.ap_)) return;  // the ack cannot leave the cell
  const NodeId br = ap_br_[m.ap_.index()];
  if (!br.valid() || !brs_[br.index()].alive_) return;
  sim_.metrics().incr(mid_.acks_sent);
  // Multi-group members ack their chain tail instead of the MQ cursor —
  // same coordinate space (a gseq+1 frontier), so the BR-side watermark,
  // floor and pruning math is shared between the modes.
  const GlobalSeq wm = multi_ ? m.multi_tail_ : m.mq_.next_expected();
  const sim::SimTime delay = uplink_delay(mh, kAckBytes);
  sim_.after(delay, [this, br, mh, wm] { br_receive_ack(br, mh, wm); });
}

void RingNetProtocol::br_receive_ack(NodeId br, NodeId mh,
                                     GlobalSeq next_expected) {
  BrNode& b = brs_[br.index()];
  if (!b.alive_) return;
  if (member_br_[mh.index()] != br) return;  // moved away meanwhile
  if (next_expected > member_wm_[mh.index()]) {
    member_wm_[mh.index()] = next_expected;
  }
  mark_acked(b);
  if (multi_) {
    br_receive_ack_multi(br, mh, next_expected);
    return;
  }

  // Resynchronize the member from the MQ. Anything older than the MQ's
  // ValidFront is unrecoverable from here: tell the member to skip the gap.
  const GlobalSeq vf = b.mq_.valid_front();
  GlobalSeq cursor = next_expected;
  if (cursor < vf) {
    const GlobalSeq skipped = vf - cursor;
    const sim::SimTime delay = downlink_delay(mh, kAckBytes);
    sim_.after(delay, [this, mh, vf, skipped] {
      MhNode& m = mhs_[mh.index()];
      if (sim_.current_ctx() != mh_domain_[mh.index()]) return;
      if (!m.attached_ || m.mq_.next_expected() >= vf) return;
      m.mq_.skip_to(vf);
      sim_.metrics().incr(mid_.gaps_skipped);
      sim_.metrics().incr(mid_.gap_skipped_msgs, skipped);
      sim_.trace().record(sim::TraceKind::GapSkip, sim_.now(), mh, skipped);
      for (const auto& d : m.mq_.deliverable()) {
        m.mq_.mark_delivered(d.gseq);
        deliver_at_mh(m, d);
      }
    });
    cursor = vf;
  }
  // Resend stale entries the member still lacks. The grace window keeps
  // normally-in-flight messages from being duplicated.
  const sim::SimTime grace =
      config_.options.ack_period + config_.options.retx_timeout;
  const GlobalSeq horizon =
      any_assigned_ ? std::min(max_assigned_gseq_, cursor + kResendWindow)
                    : cursor;
  std::size_t resent = 0;
  for (GlobalSeq g = cursor; g <= horizon && any_assigned_; ++g) {
    const auto stored = b.mq_.stored_at(g);
    if (!stored) {
      // Hole in this BR's own MQ (it missed the multicast, e.g. while
      // wrongly ejected from the ring): once the copy is overdue, fetch
      // it from a peer ordering node, which stores it here and
      // re-forwards down-tree.
      const proto::DataMsg* arch = archive_lookup(g);
      if (!arch) continue;
      if (archive_stored_at(g) + grace > sim_.now()) continue;  // in flight
      sim_.metrics().incr(mid_.retransmits);
      const sim::SimTime delay =
          hop_delay(config_.hierarchy.wan,
                    net::link_key(arch->ordering_node, br), data_bytes());
      sim_.after(delay, [this, br, mh, m = *arch] {
        BrNode& bb = brs_[br.index()];
        if (!bb.alive_) return;
        br_receive_ordered(br, m);
        if (!bb.mq_.contains(m.gseq)) {
          // Below this MQ's delivered watermark (the hole was skipped
          // while the BR sat memberless): serve the requesting member
          // directly so it is not wedged behind an unfillable gap.
          const sim::SimTime down = downlink_delay(mh, data_bytes());
          sim_.after(down, [this, mh, m] { mh_receive(mh, m, true); });
        }
      });
      if (++resent >= kResendWindow) break;
      continue;
    }
    if (*stored + grace > sim_.now()) continue;
    const auto msg = b.mq_.fetch(g);
    if (!msg) continue;
    const sim::SimTime delay = downlink_delay(mh, data_bytes());
    sim_.metrics().incr(mid_.retransmits);
    sim_.after(delay, [this, mh, m = *msg] { mh_receive(mh, m, true); });
    if (++resent >= kResendWindow) break;
  }
}

void RingNetProtocol::br_receive_ack_multi(NodeId br, NodeId mh,
                                           GlobalSeq tail) {
  // Resynchronize a multi-group member from its forward log: every unacked
  // frame the BR chained to this member, with its original chain link, so
  // a resend slots into the exact hole the member is waiting on. Entries
  // whose payload has left both the MQ and the archive are spliced out of
  // the chain (the successor inherits their link) and counted as really
  // lost — the multi-mode analogue of the legacy gap skip.
  BrNode& b = brs_[br.index()];
  const sim::SimTime grace =
      config_.options.ack_period + config_.options.retx_timeout;
  // Peer repair for holes in this BR's own MQ (it missed a multicast,
  // e.g. while wrongly ejected from the ring): fetch overdue copies from
  // the archive. The gseq-order cursor has been waiting on the hole, so a
  // repaired frame is chained in order and unblocks everything after it.
  if (any_assigned_) {
    const GlobalSeq from = b.mq_.next_expected();
    const GlobalSeq stop =
        std::min(max_assigned_gseq_, from + kResendWindow);
    for (GlobalSeq g = from; g <= stop; ++g) {
      if (b.mq_.stored_at(g)) continue;
      const proto::DataMsg* arch = archive_lookup(g);
      if (!arch || archive_stored_at(g) + grace > sim_.now()) continue;
      sim_.metrics().incr(mid_.retransmits);
      const sim::SimTime d =
          hop_delay(config_.hierarchy.wan,
                    net::link_key(arch->ordering_node, br), data_bytes(*arch));
      sim_.after(d, [this, br, m = *arch] {
        BrNode& bb = brs_[br.index()];
        if (!bb.alive_) return;
        if (bb.mq_.store(m, sim_.now())) forward_in_gseq_order(bb);
      });
    }
  }
  auto& log = member_fwd_log_[mh.index()];
  while (!log.empty() && log.front().gseq + 1 <= tail) log.pop_front();
  if (log.empty()) return;
  // The front's predecessor is no longer in the log; if the member has not
  // settled it (link above the tail), it was dropped beyond recovery —
  // reconnect the chain at the member's tail so it can advance.
  if (log.front().prev > tail) {
    log.front().prev = tail;
    sim_.metrics().incr(mid_.gaps_skipped);
    sim_.trace().record(sim::TraceKind::GapSkip, sim_.now(), mh, 1);
  }
  std::size_t resent = 0;
  for (auto it = log.begin(); it != log.end() && resent < kResendWindow;) {
    const proto::DataMsg* stored = nullptr;
    auto from_mq = b.mq_.fetch(it->gseq);
    if (from_mq) {
      stored = &*from_mq;
    } else {
      stored = archive_lookup(it->gseq);
    }
    if (!stored) {
      // Payload unrecoverable: splice this frame out of the member's chain.
      // The successor inherits the link — or, when the spliced entry was
      // the newest forward, the chain head rolls back so the next forward
      // is not chained behind a coordinate the member will never settle.
      const FwdEntry dead = *it;
      it = log.erase(it);
      if (it != log.end()) {
        it->prev = dead.prev;
      } else if (member_fwd_tail_[mh.index()] == dead.gseq + 1) {
        member_fwd_tail_[mh.index()] = dead.prev;
      }
      sim_.metrics().incr(mid_.gap_skipped_msgs);
      continue;
    }
    const sim::SimTime at =
        from_mq ? b.mq_.stored_at(it->gseq).value_or(sim::SimTime::zero())
                : archive_stored_at(it->gseq);
    if (at + grace > sim_.now()) {
      ++it;
      continue;  // normally in flight; do not duplicate it
    }
    proto::DataMsg copy = *stored;
    copy.prev_chain = it->prev;
    sim_.metrics().incr(mid_.retransmits);
    const sim::SimTime delay = downlink_delay(mh, data_bytes(copy));
    sim_.after(delay, [this, mh, copy] { mh_receive(mh, copy, true); });
    ++resent;
    ++it;
  }
}

void RingNetProtocol::resync_member_multi(NodeId /*br*/, NodeId mh) {
  // Chain restart after a (re)attach: the new BR knows nothing about the
  // member's old chain, so it restarts one at the member's delivered tail
  // and replays every archived message destined to the member from there
  // up, in gseq order. Stragglers still in flight from the previous BR
  // arrive as duplicates (their coordinate is at or below the tail, or
  // collides with a replayed frame) and are dropped at the member.
  const std::size_t i = mh.index();
  MhNode& m = mhs_[i];
  const GlobalSeq tail = m.multi_tail_;
  member_fwd_tail_[i] = tail;
  member_fwd_log_[i].clear();
  m.multi_held_.clear();  // old-chain holds can never link up again
  if (!any_assigned_) return;
  if (tail < archive_base_) {
    // Messages between the tail and the archive's base fell out of
    // retention while the member was away: they are really lost. The
    // count is in gseqs, an overestimate of destined messages (holes for
    // other groups are counted too) — exact accounting would need the
    // pruned payloads back.
    sim_.metrics().incr(mid_.gaps_skipped);
    sim_.metrics().incr(mid_.gap_skipped_msgs, archive_base_ - tail);
    sim_.trace().record(sim::TraceKind::GapSkip, sim_.now(), mh,
                        archive_base_ - tail);
  }
  const proto::GroupSet& mine = mh_groups_[i];
  const GlobalSeq from = tail > archive_base_ ? tail : archive_base_;
  for (GlobalSeq g = from; g <= max_assigned_gseq_; ++g) {
    const proto::DataMsg* arch = archive_lookup(g);
    if (!arch || !arch->groups.intersects(mine)) continue;
    proto::DataMsg copy = *arch;
    copy.prev_chain = member_fwd_tail_[i];
    member_fwd_tail_[i] = g + 1;
    member_fwd_log_[i].push_back(FwdEntry{g, copy.prev_chain});
    if (!m.attached_ || cell_blacked_out(m.ap_)) continue;
    sim_.metrics().incr(mid_.retransmits);
    const sim::SimTime delay = downlink_delay(mh, data_bytes(copy));
    sim_.after(mh_domain_[i], delay,
               [this, mh, copy] { mh_receive(mh, copy, true); });
  }
}

void RingNetProtocol::mark_acked(BrNode& b) {
  const auto& members = br_members_[b.id_.index()];
  GlobalSeq floor;
  if (members.empty()) {
    if (!b.mq_.max_seen() && b.mq_.empty()) return;
    // Nobody to serve right now — but an MH may re-attach moments after
    // the last one left, and marking everything up to max_seen delivered
    // would poison the MQ against in-flight stragglers (store() rejects
    // gseqs at or below the delivered watermark) and leave the returnee
    // only a gap-skip. Ack only what falls out of the retention window.
    const GlobalSeq newest = b.mq_.max_seen() + 1;
    const GlobalSeq keep =
        static_cast<GlobalSeq>(config_.options.mq_retention);
    floor = newest > keep ? newest - keep : 0;
    // With no member acks there is no repair path for multicast holes
    // (e.g. from a false ejection): jump the cursor over anything that
    // falls out of the retention window, or this BR would wedge the
    // global acked floor — and archive/submit-log pruning — ring-wide.
    if (b.mq_.next_expected() < floor) b.mq_.skip_to(floor);
  } else {
    floor = member_wm_[members.front().index()];
    for (NodeId mh : members) {
      floor = std::min(floor, member_wm_[mh.index()]);
    }
  }
  b.acked_floor_ = std::max(b.acked_floor_, b.mq_.next_expected());
  while (b.acked_floor_ < floor && b.mq_.contains(b.acked_floor_)) {
    b.mq_.mark_delivered(b.acked_floor_);
    ++b.acked_floor_;
  }
  // Under sharding this runs inside a BR domain, where peer floors are not
  // readable; the global fold happens at the next token hop instead.
  if (!migrate_) advance_global_floor();
}

void RingNetProtocol::advance_global_floor() {
  // Theorem 5.1 watermark: everything below the minimum subtree-acked
  // floor over live ordering nodes has been delivered ring-wide, so the
  // archive (and each source's submit log) only retains a bounded window
  // behind it.
  GlobalSeq floor = 0;
  bool any = false;
  for (const auto& br : brs_) {
    if (!br.alive_) continue;
    floor = any ? std::min(floor, br.acked_floor_) : br.acked_floor_;
    any = true;
  }
  if (!any || floor <= global_acked_floor_) return;
  global_acked_floor_ = floor;
  prune_archive();
}

void RingNetProtocol::prune_archive() {
  const GlobalSeq keep =
      static_cast<GlobalSeq>(config_.options.archive_retention);
  const GlobalSeq cut =
      global_acked_floor_ > keep ? global_acked_floor_ - keep : 0;
  std::size_t pruned = 0;
  while (archive_base_ < cut && !assigned_archive_.empty()) {
    release_submit(assigned_archive_.front().msg);
    assigned_archive_.pop_front();
    ++archive_base_;
    ++pruned;
  }
  if (pruned > 0) sim_.metrics().incr(mid_.archive_pruned, pruned);
}

void RingNetProtocol::release_submit(const proto::DataMsg& msg) {
  if (msg.source.index() >= sources_.size()) return;
  SourceState& src = sources_[msg.source.index()];
  if (migrate_) {
    const sim::Domain ctx = sim_.current_ctx();
    if (ctx != gdom() && ctx != mh_domain_[src.mh.index()]) {
      // A foreign domain cannot touch this source's submit log while its
      // owner runs; hand the release to the serialized global context.
      sim_.after(gdom(), sim_.lookahead(),
                 [this, msg] { release_submit(msg); });
      return;
    }
  }
  src.submit_log.release(msg.lseq);
}

const proto::DataMsg* RingNetProtocol::archive_lookup(GlobalSeq gseq) const {
  if (gseq < archive_base_ || gseq - archive_base_ >= assigned_archive_.size())
    return nullptr;
  return &assigned_archive_[static_cast<std::size_t>(gseq - archive_base_)]
              .msg;
}

sim::SimTime RingNetProtocol::archive_stored_at(GlobalSeq gseq) const {
  if (gseq < archive_base_ || gseq - archive_base_ >= assigned_archive_.size())
    return sim::SimTime::zero();
  return assigned_archive_[static_cast<std::size_t>(gseq - archive_base_)]
      .assigned_at;
}

// ---------------------------------------------------------------------------
// Membership (batched update scheme)

void RingNetProtocol::queue_membership_event(NodeId mh, NodeId ap) {
  // Routed through the BR serving the MH's (new or old) cell.
  const NodeId route_ap = ap.valid() ? ap : mhs_[mh.index()].ap_;
  const NodeId br = ap_br_[route_ap.index()];
  if (!br.valid() || !brs_[br.index()].alive_) return;
  const std::uint64_t seq = ++membership_seq_[mh.index()];
  const sim::SimTime delay =
      hop_delay(config_.hierarchy.lan,
                net::link_key(route_ap, ap_ag_[route_ap.index()]), kAckBytes);
  sim_.after(delay, [this, br, mh, ap, seq] {
    BrNode& b = brs_[br.index()];
    if (!b.alive_) return;
    b.pending_membership_.push_back(BrNode::MemberEvent{mh, ap, seq});
  });
}

void RingNetProtocol::membership_flush_tick(NodeId br) {
  sim_.after(config_.options.membership_batch,
             [this, br] { membership_flush_tick(br); });
  BrNode& b = brs_[br.index()];
  if (!b.alive_ || b.pending_membership_.empty()) return;
  std::vector<BrNode::MemberEvent> events;
  events.swap(b.pending_membership_);
  for (const auto& ev : events) {
    b.view_.apply(ev.mh, ev.ap, ev.seq);
    sim_.metrics().incr(mid_.membership_applied);
  }
  if (alive_ring_.size() > 1) {
    const NodeId next = next_alive_br(br);
    sim_.metrics().incr(mid_.membership_relayed);
    const sim::SimTime delay =
        hop_delay(config_.hierarchy.wan, net::link_key(br, next),
                  static_cast<std::uint32_t>(13 + 8 * events.size()));
    // The batch carries the set of nodes it has visited instead of a hop
    // count frozen at flush time: a ring repair or rejoin mid-relay would
    // make a stale count under- or over-visit the ring.
    std::vector<NodeId> visited{br};
    sim_.after(delay, [this, next, events = std::move(events),
                       visited = std::move(visited)] {
      membership_relay(next, visited, events);
    });
  }
}

void RingNetProtocol::membership_relay(
    NodeId br, std::vector<NodeId> visited,
    std::vector<BrNode::MemberEvent> events) {
  BrNode& b = brs_[br.index()];
  if (!b.alive_) return;
  for (const auto& ev : events) {
    b.view_.apply(ev.mh, ev.ap, ev.seq);
    sim_.metrics().incr(mid_.membership_applied);
  }
  visited.push_back(br);
  const NodeId next = next_alive_br(br);
  if (!next.valid() || next == br) return;
  if (std::find(visited.begin(), visited.end(), next) != visited.end()) {
    return;  // the batch has visited the whole (current) ring
  }
  sim_.metrics().incr(mid_.membership_relayed);
  const sim::SimTime delay =
      hop_delay(config_.hierarchy.wan, net::link_key(br, next),
                static_cast<std::uint32_t>(13 + 8 * events.size()));
  sim_.after(delay, [this, next, events = std::move(events),
                     visited = std::move(visited)] {
    membership_relay(next, visited, events);
  });
}

// ---------------------------------------------------------------------------
// Failure detection and token regeneration

void RingNetProtocol::heartbeat_tick(NodeId br) {
  sim_.after(config_.options.heartbeat_period,
             [this, br] { heartbeat_tick(br); });
  BrNode& b = brs_[br.index()];
  if (!b.alive_) return;
  // A live node ejected by a false-positive timeout (heartbeats ride the
  // lossy WAN with no ARQ) notices on its next beat and merges back in.
  if (ring_pos_[br.index()] == kNoRingPos) rejoin_ring(br);
  if (alive_ring_.size() < 2) return;

  // Emit a heartbeat to the ring successor (no ARQ: misses are the signal).
  const NodeId next = next_alive_br(br);
  const bool beat_lost =
      config_.hierarchy.wan.loss_rate > 0.0 &&
      loss_process(net::link_key(br, next), config_.hierarchy.wan)
          .lost(sim_.rng());
  if (!beat_lost) {
    const sim::SimTime delay =
        config_.hierarchy.wan.one_way(kHeartbeatBytes);
    sim_.after(delay, [this, next] {
      BrNode& succ = brs_[next.index()];
      if (succ.alive_ && succ.last_hb_from_prev_ < sim_.now()) {
        succ.last_hb_from_prev_ = sim_.now();
      }
    });
  }

  // Check our own predecessor's liveness.
  const std::size_t pos = ring_pos_[br.index()];
  if (pos == kNoRingPos) return;
  const NodeId prev = alive_ring_[(pos + alive_ring_.size() - 1) %
                                  alive_ring_.size()];
  if (prev == br) return;
  const sim::SimTime budget{config_.options.heartbeat_period.us *
                            config_.options.heartbeat_miss_limit};
  if (sim_.now() - b.last_hb_from_prev_ > budget) {
    handle_br_failure(prev);
  }
}

void RingNetProtocol::handle_br_failure(NodeId dead) {
  const std::size_t pos = ring_pos_[dead.index()];
  if (pos == kNoRingPos) return;
  alive_ring_.erase(alive_ring_.begin() + static_cast<std::ptrdiff_t>(pos));
  rebuild_ring_index();
  sim_.metrics().incr(mid_.ring_repairs);
  sim_.trace().record(sim::TraceKind::RingRepair, sim_.now(), dead,
                      alive_ring_.size());
  for (NodeId br : alive_ring_) {
    brs_[br.index()].last_hb_from_prev_ = sim_.now();
  }
  if (alive_ring_.empty()) return;

  const bool custody_lost =
      token_lost_ || token_custodian_ == dead ||
      (token_custodian_.valid() && !brs_[token_custodian_.index()].alive_);
  if (custody_lost && !regen_pending_) {
    regen_pending_ = true;
    // One repair round-trip before the leader regenerates.
    sim_.after(config_.hierarchy.wan.latency + config_.hierarchy.wan.latency,
               [this] { regenerate_token(); });
  }
}

void RingNetProtocol::rejoin_ring(NodeId br) {
  // Rebuild the surviving ring in original top-ring order with `br` back
  // in its slot, and reset every failure detector so the merge does not
  // immediately re-trigger.
  std::vector<NodeId> merged;
  merged.reserve(alive_ring_.size() + 1);
  for (NodeId id : topo_.top_ring) {
    if (id == br || ring_pos_[id.index()] != kNoRingPos) {
      merged.push_back(id);
    }
  }
  alive_ring_ = std::move(merged);
  rebuild_ring_index();
  for (NodeId id : alive_ring_) {
    brs_[id.index()].last_hb_from_prev_ = sim_.now();
  }
  sim_.metrics().incr(mid_.ring_rejoins);
  sim_.trace().record(sim::TraceKind::RingRepair, sim_.now(), br,
                      alive_ring_.size());
  // Members under the rejoined BR catch up on anything multicast while it
  // was out through the ack-driven resynchronization path.
}

void RingNetProtocol::regenerate_token() {
  regen_pending_ = false;
  if (alive_ring_.empty()) return;
  if (!token_lost_ && token_custodian_.valid() &&
      brs_[token_custodian_.index()].alive_) {
    return;  // the token survived after all
  }
  ++current_epoch_;
  active_token_serial_ = next_token_serial_++;
  token_lost_ = false;

  proto::OrderingToken token(kGroup, current_epoch_);
  token.set_serial(active_token_serial_);
  token.set_next_gseq(any_assigned_ ? max_assigned_gseq_ + 1 : 0);
  if (multi_) {
    // Restore the per-group counters alongside the global one, or the
    // regenerated token would re-issue per-group seqs from zero.
    for (std::size_t gi = 0; gi < group_seq_high_.size(); ++gi) {
      if (group_seq_high_[gi] != 0) {
        token.set_group_seq(group_of_index(gi), group_seq_high_[gi]);
      }
    }
  }
  const NodeId leader = leader_br();
  token_custodian_ = leader;
  sim_.metrics().incr(mid_.token_regenerated);
  sim_.trace().record(sim::TraceKind::TokenRegen, sim_.now(), leader,
                      current_epoch_);
  sim_.after(sim::usecs(1),
             [this, leader, token = std::move(token)]() mutable {
               token_arrive(leader, std::move(token));
             });
}

void RingNetProtocol::crash_node(NodeId id) {
  sim_.trace().record(sim::TraceKind::NodeCrash, sim_.now(), id);
  if (id.tier() == Tier::BR && id.index() < brs_.size()) {
    BrNode& b = brs_[id.index()];
    b.alive_ = false;
    // Messages staged here died unassigned: release their submit-log
    // entries so the pruned-prefix frontier keeps advancing.
    for (const auto& m : b.staging_) release_submit(m);
    b.staging_.clear();
    for (const auto& m : b.wq_.pending()) release_submit(m);
    b.wq_.clear();
    advance_global_floor();  // a dead BR no longer holds the watermark
    return;
  }
  if (id.tier() == Tier::MH && id.index() < mhs_.size()) {
    MhNode& m = mhs_[id.index()];
    if (m.attached_) {
      m.attached_ = false;
      if (ap_occupancy_[m.ap_.index()] > 0) --ap_occupancy_[m.ap_.index()];
    }
  }
}

void RingNetProtocol::eject_br(NodeId br) {
  if (br.tier() != Tier::BR || br.index() >= brs_.size() ||
      !brs_[br.index()].alive_) {
    return;
  }
  handle_br_failure(br);
}

void RingNetProtocol::inject_duplicate_token(NodeId at, std::uint64_t epoch) {
  proto::OrderingToken dup(kGroup, epoch);
  dup.set_serial(next_token_serial_++);
  sim_.after(sim::usecs(1), [this, at, dup = std::move(dup)]() mutable {
    token_arrive(at, std::move(dup));
  });
}

// ---------------------------------------------------------------------------
// Mobility / smooth handoff

void RingNetProtocol::schedule_next_handoff(NodeId mh) {
  if (!mobility_.running_) return;
  const double dt =
      sim_.rng().exponential(config_.mobility.handoff_rate_hz);
  sim_.after(sim::secs(dt), [this, mh] { perform_handoff(mh); });
}

void RingNetProtocol::perform_handoff(NodeId mh) {
  if (!mobility_.running_) return;
  MhNode& m = mhs_[mh.index()];
  if (!m.attached_) {  // mid-handoff already; try again later
    schedule_next_handoff(mh);
    return;
  }
  // Pick the target cell.
  NodeId target = m.ap_;
  while (target == m.ap_) {
    target = topo_.aps[sim_.rng().bounded(topo_.aps.size())];
  }
  // The Poisson process continues once the attach completes.
  const sim::SimTime delay = begin_handoff(mh, target);
  sim_.after(delay, [this, mh] { schedule_next_handoff(mh); });
}

void RingNetProtocol::force_handoff(NodeId mh, NodeId target_ap) {
  MhNode& m = mhs_[mh.index()];
  if (!m.attached_) return;
  begin_handoff(mh, target_ap);
}

void RingNetProtocol::detach_from_cell(MhNode& m) {
  const NodeId old_ap = m.ap_;
  const NodeId old_br = ap_br_[old_ap.index()];
  queue_membership_event(m.id_, NodeId::invalid());
  m.attached_ = false;
  if (ap_occupancy_[old_ap.index()] > 0) --ap_occupancy_[old_ap.index()];
  if (old_br.valid()) {
    auto& members = br_members_[old_br.index()];
    members.erase(std::remove(members.begin(), members.end(), m.id_),
                  members.end());
    if (multi_) {
      auto& slabs = group_members_[old_br.index()];
      for (GroupId g : mh_groups_[m.id_.index()]) {
        auto& slab = slabs[group_index(g)];
        slab.erase(std::remove(slab.begin(), slab.end(), m.id_), slab.end());
      }
      member_fwd_log_[m.id_.index()].clear();  // chain restarts on attach
    }
    member_br_[m.id_.index()] = NodeId::invalid();
    BrNode& b = brs_[old_br.index()];
    if (b.alive_) mark_acked(b);
  }
  if (migrate_) {
    // Re-home the MH to the global context until an attach completes:
    // kill the domain-resident tick chains and respawn the source chains
    // there (submissions keep flowing into the park queue while detached).
    ++m.ack_gen_;
    mh_domain_[m.id_.index()] = gdom();
    for (const std::uint32_t idx : sources_on_mh_[m.id_.index()]) {
      SourceState& src = sources_[idx];
      ++src.gen;
      if (sources_running_ && config_.source.rate_hz > 0.0) {
        sim::SimTime dt = next_submit_interval(src);
        if (dt <= sim::SimTime::zero()) dt = sim::usecs(1);
        spawn_source_chain(idx, dt);
      }
    }
  }
}

sim::SimTime RingNetProtocol::schedule_attach(MhNode& m, NodeId ap,
                                              bool hot) {
  sim::SimTime delay = config_.mobility.detach_gap;
  if (!hot) delay += config_.options.path_build;
  m.attach_pending_ = true;
  const NodeId mh = m.id_;
  sim_.after(delay, [this, mh, ap] { complete_attach(mh, ap); });
  return delay;
}

sim::SimTime RingNetProtocol::begin_handoff(NodeId mh, NodeId target_ap) {
  MhNode& m = mhs_[mh.index()];
  detach_from_cell(m);

  const bool hot = ap_is_hot(target_ap, mh);
  sim_.metrics().incr(mid_.handoff_count);
  sim_.metrics().incr(hot ? mid_.handoff_hot : mid_.handoff_cold);
  sim_.trace().record(sim::TraceKind::Handoff, sim_.now(), mh, hot ? 1 : 0);
  return schedule_attach(m, target_ap, hot);
}

void RingNetProtocol::detach_mh(NodeId mh) {
  MhNode& m = mhs_[mh.index()];
  if (!m.attached_) return;
  detach_from_cell(m);
  sim_.metrics().incr(mid_.churn_leaves);
}

void RingNetProtocol::reattach_mh(NodeId mh, NodeId ap) {
  MhNode& m = mhs_[mh.index()];
  if (m.attached_ || m.attach_pending_) return;
  sim_.metrics().incr(mid_.churn_rejoins);
  schedule_attach(m, ap, ap_is_hot(ap, mh));
}

void RingNetProtocol::join_group(NodeId mh, GroupId g) {
  if (!multi_ || g.v == 0 || group_index(g) >= config_.groups.count) return;
  if (!mh_groups_[mh.index()].insert(g)) return;  // already a member
  const NodeId br = member_br_[mh.index()];
  if (br.valid()) {
    // Messages ordered after this point reach the member through its
    // existing delivery chain; nothing already chained is disturbed.
    group_members_[br.index()][group_index(g)].push_back(mh);
  }
}

void RingNetProtocol::leave_group(NodeId mh, GroupId g) {
  if (!multi_ || g.v == 0 || group_index(g) >= config_.groups.count) return;
  auto& mine = mh_groups_[mh.index()];
  if (!mine.contains(g)) return;
  // Never leave a member groupless: a chain that can no longer grow would
  // pin the member's ack watermark — and with it the ring-wide acked
  // floor — at its current tail forever.
  if (mine.size() <= 1) return;
  proto::GroupSet rest;
  for (GroupId other : mine) {
    if (!(other == g)) rest.insert(other);
  }
  mine = rest;
  const NodeId br = member_br_[mh.index()];
  if (br.valid()) {
    auto& slab = group_members_[br.index()][group_index(g)];
    slab.erase(std::remove(slab.begin(), slab.end(), mh), slab.end());
  }
}

void RingNetProtocol::set_group_rate_boost(GroupId g, double boost) {
  if (g.v == 0 || boost <= 0.0) {
    boost_group_ = GroupId{0};
    group_boost_ = 1.0;
    return;
  }
  boost_group_ = g;
  group_boost_ = boost;
}

void RingNetProtocol::lose_token() {
  if (!config_.options.ordered || token_lost_) return;
  lost_serials_.insert(active_token_serial_);
  token_lost_ = true;
  if (regen_pending_) return;
  regen_pending_ = true;
  // Detection: the ring notices ordering has stalled after the heartbeat
  // miss budget, then one repair round-trip before the leader regenerates.
  const sim::SimTime detect{config_.options.heartbeat_period.us *
                            config_.options.heartbeat_miss_limit};
  sim_.after(detect + config_.hierarchy.wan.latency +
                 config_.hierarchy.wan.latency,
             [this] { regenerate_token(); });
}

void RingNetProtocol::set_cell_blackout(NodeId ap, bool on) {
  std::uint8_t& flag = cell_blackout_[ap.index()];
  if (on && flag == 0) {
    flag = 1;
    ++blackout_count_;
  } else if (!on && flag != 0) {
    flag = 0;
    --blackout_count_;
  }
}

void RingNetProtocol::complete_attach(NodeId mh, NodeId ap) {
  MhNode& m = mhs_[mh.index()];
  m.attach_pending_ = false;
  m.ap_ = ap;
  m.attached_ = true;
  ++ap_occupancy_[ap.index()];
  const NodeId br = ap_br_[ap.index()];
  if (br.valid()) {
    br_members_[br.index()].push_back(mh);
    member_br_[mh.index()] = br;
    if (multi_) {
      auto& slabs = group_members_[br.index()];
      for (GroupId g : mh_groups_[mh.index()]) {
        slabs[group_index(g)].push_back(mh);
      }
      member_wm_[mh.index()] = m.multi_tail_;
      if (config_.options.ordered) resync_member_multi(br, mh);
    } else {
      member_wm_[mh.index()] = m.mq_.next_expected();
    }
    BrNode& b = brs_[br.index()];
    if (b.alive_) mark_acked(b);
  }
  if (migrate_) {
    // Hand the MH to its new subtree's domain and restart the tick chains
    // there (this runs in the serialized global context, so the old
    // domain is quiescent and the re-home is race-free).
    mh_domain_[mh.index()] = br.valid() ? br_domain(br) : gdom();
    ++m.ack_gen_;
    if (config_.options.ordered) {
      spawn_ack_chain(mh, config_.options.ack_period);
    }
    for (const std::uint32_t idx : sources_on_mh_[mh.index()]) {
      SourceState& src = sources_[idx];
      ++src.gen;
      if (sources_running_ && config_.source.rate_hz > 0.0) {
        sim::SimTime dt = next_submit_interval(src);
        if (dt <= sim::SimTime::zero()) dt = sim::usecs(1);
        spawn_source_chain(idx, dt);
      }
    }
  }
  queue_membership_event(mh, ap);

  // Sources parked on this MH flush through the new path.
  for (const std::uint32_t idx : sources_on_mh_[mh.index()]) {
    auto& parked = sources_[idx].parked;
    while (!parked.empty()) {
      uplink_to_br(parked.front(), mh);
      parked.pop_front();
    }
  }
}

bool RingNetProtocol::ap_is_hot(NodeId ap, NodeId exclude_mh) const {
  // Maintained per-cell occupancy counts make this O(1) per candidate cell
  // (it runs on every handoff) instead of a scan over the MH population.
  auto cell_has_member = [&](NodeId cell) {
    std::uint32_t n = ap_occupancy_[cell.index()];
    if (n > 0 && exclude_mh.valid() && exclude_mh.index() < mhs_.size()) {
      const MhNode& ex = mhs_[exclude_mh.index()];
      if (ex.attached_ && ex.ap_ == cell) --n;
    }
    return n > 0;
  };
  if (cell_has_member(ap)) return true;
  if (!config_.options.smooth_handoff) return false;
  // §3 reserved paths: neighbors of any occupied cell hold a reservation.
  // topo_.aps is index-ordered, so the AP's own index is its ring slot.
  const std::size_t pos = ap.index();
  const std::size_t n = topo_.aps.size();
  return cell_has_member(topo_.aps[(pos + 1) % n]) ||
         cell_has_member(topo_.aps[(pos + n - 1) % n]);
}

// ---------------------------------------------------------------------------
// Helpers

NodeId RingNetProtocol::next_alive_br(NodeId from) const {
  if (alive_ring_.empty()) return NodeId::invalid();
  const std::size_t pos = ring_pos_[from.index()];
  if (pos != kNoRingPos) {
    return alive_ring_[(pos + 1) % alive_ring_.size()];
  }
  // `from` was removed: walk the original ring order to the next survivor
  // (top_ring is index-ordered, so `from.index()` is its original slot).
  const std::size_t start = from.index();
  for (std::size_t k = 1; k <= topo_.top_ring.size(); ++k) {
    const NodeId cand = topo_.top_ring[(start + k) % topo_.top_ring.size()];
    if (ring_pos_[cand.index()] != kNoRingPos) return cand;
  }
  return alive_ring_.front();
}

NodeId RingNetProtocol::leader_br() const {
  return alive_ring_.empty() ? NodeId::invalid() : alive_ring_.front();
}

void RingNetProtocol::rebuild_ring_index() {
  ring_pos_.assign(brs_.size(), kNoRingPos);
  for (std::size_t i = 0; i < alive_ring_.size(); ++i) {
    ring_pos_[alive_ring_[i].index()] = i;
  }
}

net::LossProcess& RingNetProtocol::loss_process(
    net::LinkKey link, const net::ChannelModel& model) {
  return loss_[sim_.current_ctx()].find_or_emplace(link, model);
}

sim::SimTime RingNetProtocol::hop_delay(const net::ChannelModel& model,
                                        net::LinkKey link,
                                        std::uint32_t bytes) {
  // Lossless links skip the per-link process entirely. This is RNG-neutral
  // (LossProcess::lost never draws when loss_rate <= 0) — it just avoids
  // the map probe on every hop of a zero-loss configuration.
  if (model.loss_rate <= 0.0) return model.one_way(bytes);
  net::LossProcess& lp = loss_process(link, model);
  sim::SimTime d = model.one_way(bytes);
  const int budget = std::max(1, config_.options.max_retx);
  for (int attempt = 1; attempt < budget && lp.lost(sim_.rng()); ++attempt) {
    sim_.metrics().incr(mid_.retransmits);
    d += config_.options.retx_timeout + model.one_way(bytes);
  }
  return d;
}

sim::SimTime RingNetProtocol::uplink_delay(NodeId mh, std::uint32_t bytes) {
  const MhNode& m = mhs_[mh.index()];
  const NodeId ap = m.ap_;
  const NodeId ag = ap_ag_[ap.index()];
  return hop_delay(config_.hierarchy.wireless, net::link_key(mh, ap), bytes) +
         hop_delay(config_.hierarchy.lan, net::link_key(ap, ag), bytes) +
         hop_delay(config_.hierarchy.lan,
                   net::link_key(ag, ag_br_[ag.index()]), bytes);
}

sim::SimTime RingNetProtocol::downlink_delay(NodeId mh, std::uint32_t bytes) {
  return uplink_delay(mh, bytes);  // symmetric channel models
}

void RingNetProtocol::note_wq_depth(const BrNode& br) {
  sim_.metrics().gauge_max(
      mid_.buf_wq_peak,
      static_cast<double>(br.staging_.size() + br.wq_.size()));
}

void RingNetProtocol::note_submit_log_depth(std::size_t retained) {
  std::size_t cur = submit_log_peak_.load(std::memory_order_relaxed);
  while (retained > cur &&
         !submit_log_peak_.compare_exchange_weak(cur, retained,
                                                 std::memory_order_relaxed)) {
  }
}

}  // namespace ringnet::core
