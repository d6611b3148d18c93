#include "runtime/node.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/groups.hpp"
#include "obs/names.hpp"

namespace ringnet::runtime {

namespace names = obs::names;

namespace {
/// Rebuild the plain counter struct from a role's atomic registry. Safe
/// live (relaxed reads) as well as post-stop.
RuntimeCounters read_counters(const obs::Metrics& m,
                              const RuntimeMetricIds& id) {
  RuntimeCounters c;
  c.tokens_held = m.counter(id.tokens_held);
  c.token_regenerated = m.counter(id.token_regenerated);
  c.token_dup_destroyed = m.counter(id.token_dup_destroyed);
  c.token_retx = m.counter(id.token_retx);
  c.token_dropped = m.counter(id.token_dropped);
  c.retransmits = m.counter(id.retransmits);
  c.floor_advances = m.counter(id.floor_advances);
  c.duplicates = m.counter(id.duplicates);
  c.acks_sent = m.counter(id.acks_sent);
  c.uplink_retx = m.counter(id.uplink_retx);
  c.uplink_dropped = m.counter(id.uplink_dropped);
  c.really_lost = m.counter(id.really_lost);
  c.gaps_skipped = m.counter(id.gaps_skipped);
  c.malformed = m.counter(id.malformed);
  return c;
}
}  // namespace

void RuntimeMetricIds::intern_all(obs::Metrics& m) {
  tokens_held = m.intern(names::kTokenHeld);
  token_regenerated = m.intern(names::kTokenRegenerated);
  token_dup_destroyed = m.intern(names::kTokenDupDestroyed);
  token_retx = m.intern(names::kTokenRetx);
  token_dropped = m.intern(names::kTokenDropped);
  retransmits = m.intern(names::kRetransmits);
  floor_advances = m.intern(names::kFloorAdvances);
  duplicates = m.intern(names::kDuplicates);
  acks_sent = m.intern(names::kAcksSent);
  uplink_retx = m.intern(names::kUplinkRetx);
  uplink_dropped = m.intern(names::kUplinkDropped);
  really_lost = m.intern(names::kReallyLost);
  gaps_skipped = m.intern(names::kGapsSkipped);
  malformed = m.intern(names::kMalformed);
}

namespace {
/// Downlink/peer resend batch per ack: bounds the burst a single stuck
/// member can trigger while still closing multi-message gaps quickly.
constexpr GlobalSeq kResendWindow = 64;
constexpr std::size_t kUplinkPendingCap = 4096;
/// Chain-mode hold queue bound (frames waiting on a predecessor link).
/// Without it a member wedged behind a lost frame accretes every later
/// forward over real UDP; shed frames come back via ack-driven resends.
constexpr std::size_t kHeldChainCap = 4096;
// Consecutive no-progress acks before a member counts as stalled. One
// stalled ack is routinely just pipeline lag (deliveries in flight through
// the AP); resyncing on it floods the cell with duplicates, and the storm
// feeds back into deeper inboxes and more apparent stalls.
constexpr std::uint32_t kStallAckLimit = 4;
/// DataBatch entries per datagram: as many worst-case entries (length byte
/// plus the largest DataMsg body) as fit in one frame after the header,
/// the type tag and the count.
constexpr std::size_t kMaxBatchEntries =
    (kMaxDatagramBytes - kFrameHeaderBytes - 3) /
    (1 + proto::kMaxDataBodyBytes);
}  // namespace

void RuntimeOptions::scale_timers(double f) {
  const auto scale = [f](std::int64_t& us) {
    us = static_cast<std::int64_t>(static_cast<double>(us) * f);
  };
  scale(token_hold_us);
  scale(ack_period_us);
  scale(heartbeat_period_us);
  scale(retx_timeout_us);
  scale(handshake_resend_us);
}

void RuntimeCounters::merge(const RuntimeCounters& o) {
  tokens_held += o.tokens_held;
  token_regenerated += o.token_regenerated;
  token_dup_destroyed += o.token_dup_destroyed;
  token_retx += o.token_retx;
  token_dropped += o.token_dropped;
  retransmits += o.retransmits;
  floor_advances += o.floor_advances;
  duplicates += o.duplicates;
  acks_sent += o.acks_sent;
  uplink_retx += o.uplink_retx;
  uplink_dropped += o.uplink_dropped;
  really_lost += o.really_lost;
  gaps_skipped += o.gaps_skipped;
  malformed += o.malformed;
}

// ---------------------------------------------------------------------------
// BrRuntime

BrRuntime::BrRuntime(BrConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr) {
  mid_.intern_all(metrics_);
  for (std::size_t i = 0; i < cfg_.members.size(); ++i) {
    Member m;
    m.ap = cfg_.member_ap[i];
    if (multi()) {
      m.groups = core::member_groups(cfg_.members[i].index(), cfg_.groups);
    }
    members_[cfg_.members[i].v] = std::move(m);
  }
}

RuntimeCounters BrRuntime::counters() const {
  return read_counters(metrics_, mid_);
}

NodeId BrRuntime::next_br() const {
  for (std::size_t i = 0; i < cfg_.ring.size(); ++i) {
    if (cfg_.ring[i] == cfg_.self) {
      return cfg_.ring[(i + 1) % cfg_.ring.size()];
    }
  }
  return cfg_.self;
}

void BrRuntime::emit(NodeId to, const proto::DataMsg& msg, NodeId relay) {
  const std::uint64_t key = (std::uint64_t{to.v} << 32) | relay.v;
  const auto [it, fresh] = outbox_of_.try_emplace(key, outboxes_.size());
  if (fresh) outboxes_.push_back(Outbox{to, relay, {}});
  outboxes_[it->second].entries.push_back(msg);
}

void BrRuntime::flush_batches() {
  for (const Outbox& box : outboxes_) {
    for (std::size_t at = 0; at < box.entries.size(); at += kMaxBatchEntries) {
      const std::size_t n = std::min(kMaxBatchEntries, box.entries.size() - at);
      const auto payload = proto::encode_batch(box.entries.data() + at, n);
      tr_.send(box.to, frame(cfg_.self, FrameKind::Proto, payload, box.relay));
    }
  }
  outboxes_.clear();
  outbox_of_.clear();
}

void BrRuntime::on_start(std::int64_t now_us) {
  last_token_seen_us_ = now_us;
  next_hb_us_ = now_us + cfg_.opts.heartbeat_period_us;
  next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
  if (leader()) {
    // The leader seeds the first token; peer sockets are already bound (the
    // orchestrator binds every transport before starting any loop), so the
    // forward ARQ covers peers whose loops lag behind.
    proto::OrderingToken t(kRuntimeGroup, epoch_);
    t.set_serial(1);
    last_rx_key_ = TokenKey{t.epoch(), t.serial(), t.rotation(), true};
    accept_token(std::move(t), now_us);
  }
  flush_batches();
}

void BrRuntime::on_datagram(const Datagram& d, std::int64_t now_us) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) {
      metrics_.incr(mid_.malformed);
      return;
    }
    if (ctl->op == ControlOp::Start) start_seen_ = true;
    if (ctl->op == ControlOp::Stop) {
      stop_seen_.store(true, std::memory_order_release);
    }
    return;
  }
  handle_proto(d, now_us);
  flush_batches();
}

void BrRuntime::handle_proto(const Datagram& d, std::int64_t now_us) {
  auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) {
    metrics_.incr(mid_.malformed);
    return;
  }
  switch (msg->type()) {
    case proto::MsgType::Data:  // uplink submission
      handle_uplink(msg->data(), now_us);
      break;
    case proto::MsgType::DataBatch:  // a peer's assignments or pull reply
      for (const proto::DataMsg& dm : msg->batch().entries) {
        store_and_forward_ordered(dm, now_us);
      }
      break;
    case proto::MsgType::Token:
      handle_token(msg->token(), d.src, now_us);
      break;
    case proto::MsgType::TokenAck: {
      const proto::TokenAckMsg& ack = msg->token_ack();
      if (await_.active && ack.serial == await_.serial &&
          ack.rotation == await_.rotation) {
        await_.active = false;
      }
      break;
    }
    case proto::MsgType::DeliveryAck:
      handle_member_ack(msg->ack(), now_us);
      break;
    case proto::MsgType::Membership: {
      const proto::MembershipMsg& mm = msg->membership();
      for (const auto& ev : mm.events) {
        if (!ev.ap.valid()) {
          members_.erase(ev.mh.v);
          continue;
        }
        const bool ours = std::find(cfg_.own_aps.begin(), cfg_.own_aps.end(),
                                    ev.ap) != cfg_.own_aps.end();
        if (!ours) continue;
        Member fresh;
        fresh.ap = ev.ap;
        auto [it, inserted] =
            members_.try_emplace(ev.mh.v, std::move(fresh));
        if (!inserted) {
          it->second.ap = ev.ap;  // handoff: keep the watermark
        } else if (multi()) {
          it->second.groups =
              core::member_groups(ev.mh.index(), cfg_.groups);
        }
      }
      if (d.src.tier() == Tier::AP) {
        for (NodeId peer : cfg_.ring) {
          if (peer != cfg_.self) tr_.send_msg(peer, proto::Message(mm));
        }
      }
      break;
    }
    case proto::MsgType::Heartbeat:
      break;
  }
}

void BrRuntime::handle_uplink(const proto::DataMsg& msg, std::int64_t now_us) {
  SourceIn& si = uplink_[msg.source.v];
  if (msg.lseq < si.next_expected) {
    metrics_.incr(mid_.duplicates);
    ack_uplink(msg.source, si);
    return;
  }
  // Span stamp: first reception of each uplink. The stamp rides the sim-only
  // (non-serialized) DataMsg field through staging_/pending until assignment,
  // where it lands in span_assigned_.
  const bool spans = cfg_.opts.record_spans;
  if (msg.lseq == si.next_expected) {
    staging_.push_back(msg);
    if (spans) staging_.back().uplink_rx_at.us = now_us;
    ++si.next_expected;
    auto it = si.pending.find(si.next_expected);
    while (it != si.pending.end()) {
      staging_.push_back(std::move(it->second));
      si.pending.erase(it);
      ++si.next_expected;
      it = si.pending.find(si.next_expected);
    }
    ack_uplink(msg.source, si);
    return;
  }
  if (si.pending.size() >= kUplinkPendingCap) return;  // source ARQ re-offers
  const auto [it, inserted] = si.pending.emplace(msg.lseq, msg);
  if (!inserted) {
    metrics_.incr(mid_.duplicates);
  } else if (spans) {
    it->second.uplink_rx_at.us = now_us;
  }
}

void BrRuntime::ack_uplink(NodeId source, const SourceIn& si) {
  // Multi-group mode only: a source need not be a member of its messages'
  // destination groups, so seeing its own submission come back ordered (the
  // legacy uplink-ARQ exit) is no longer guaranteed. Ack the contiguously
  // accepted prefix instead; duplicates re-trigger it, covering a lost ack.
  if (!multi()) return;
  const auto it = members_.find(NodeId::make(Tier::MH, source.index()).v);
  if (it == members_.end()) return;
  tr_.send_msg(it->second.ap,
               proto::Message(proto::DeliveryAckMsg{
                   kRuntimeGroup, NodeId::make(Tier::MH, source.index()),
                   si.next_expected}),
               NodeId::make(Tier::MH, source.index()));
}

void BrRuntime::store_and_forward_ordered(const proto::DataMsg& msg,
                                          std::int64_t now_us) {
  // Fast epoch fencing: an ordered message from a newer epoch proves a
  // regeneration happened, so any older token still circulating must be
  // destroyed on sight even before the new token reaches us.
  epoch_ = std::max(epoch_, msg.epoch);
  // Liveness witness: a current-epoch assignment can only come from the
  // live token, so the regeneration watchdog must not fire merely because
  // the token itself is crawling behind storm-deep inboxes.
  if (msg.epoch == epoch_) last_token_seen_us_ = now_us;
  if (!mq_.insert(msg.gseq, msg)) {
    metrics_.incr(mid_.duplicates);
    return;
  }
  // Span stamp: first ordered arrival of this gseq at the relay endpoint
  // for this BR's subtree (emplace keeps the earliest arrival).
  if (cfg_.opts.record_spans) span_relay_rx_us_.emplace(msg.gseq, now_us);
  if (!any_seen_ || msg.gseq > max_seen_gseq_) {
    max_seen_gseq_ = msg.gseq;
    any_seen_ = true;
  }
  mq_.prune_to(cfg_.opts.mq_retention);
  if (multi()) {
    // Chain links must rise monotonically per member, so chain forwarding
    // walks the MQ in gseq order; an out-of-order peer distribution parks
    // in the MQ until the hole fills (peer pull closes persistent holes).
    if (chain_next_ < mq_.base()) chain_next_ = mq_.base();
    while (const proto::DataMsg* next = mq_.find(chain_next_)) {
      forward_chain(*next);
      ++chain_next_;
    }
    return;
  }
  for (NodeId ap : cfg_.own_aps) emit(ap, msg);
}

void BrRuntime::forward_chain(const proto::DataMsg& msg) {
  // Genuine relay: only members whose memberships intersect the message's
  // destination set get a copy, each stamped with its own chain link and
  // addressed through the serving AP (relay target) instead of the legacy
  // cell broadcast.
  for (auto& [id, m] : members_) {
    if (!m.groups.intersects(msg.groups)) continue;
    proto::DataMsg copy = msg;
    copy.prev_chain = m.fwd_tail;
    m.fwd_tail = msg.gseq + 1;
    m.fwd_log.push_back(FwdEntry{msg.gseq, copy.prev_chain});
    // Backstop for a member that never acks (crashed mid-run): bound the
    // log like the MQ so memory stays flat.
    if (m.fwd_log.size() > cfg_.opts.mq_retention + kResendWindow) {
      m.fwd_log.pop_front();
    }
    emit(m.ap, copy, NodeId{id});
  }
}

void BrRuntime::handle_token(proto::OrderingToken token, NodeId from,
                             std::int64_t now_us) {
  // Ack every token frame, even duplicates: the sender's ARQ keys on
  // (serial, rotation) and a lost ack must not keep it retransmitting.
  tr_.send_msg(from, proto::Message(proto::TokenAckMsg{
                         cfg_.self, token.serial(), token.rotation()}));
  if (token.epoch() < epoch_) {
    metrics_.incr(mid_.token_dup_destroyed);
    fr_.record(obs::FrEvent::TokenDupDestroyed, now_us, token.serial());
    return;
  }
  // Accept only a strictly newer visit of the same lineage: retransmits
  // (same rotation) and stale re-injections (lower rotation) are destroyed.
  if (last_rx_key_.valid && token.epoch() == last_rx_key_.epoch &&
      token.serial() == last_rx_key_.serial &&
      token.rotation() <= last_rx_key_.rotation) {
    metrics_.incr(mid_.token_dup_destroyed);
    fr_.record(obs::FrEvent::TokenDupDestroyed, now_us, token.serial());
    return;
  }
  epoch_ = std::max(epoch_, token.epoch());
  last_rx_key_ =
      TokenKey{token.epoch(), token.serial(), token.rotation(), true};
  accept_token(std::move(token), now_us);
}

void BrRuntime::accept_token(proto::OrderingToken token, std::int64_t now_us) {
  has_token_ = true;
  token_ = std::move(token);
  last_token_seen_us_ = now_us;
  await_.active = false;  // custody is back; any outstanding forward is moot
  metrics_.incr(mid_.tokens_held);
  fr_.record(obs::FrEvent::TokenRx, now_us, token_.serial(),
             token_.rotation());
  if (leader()) token_.bump_rotation();
  token_.prune_entries_of(cfg_.self);
  release_deadline_us_ = now_us + cfg_.opts.token_hold_us;
  assign_staged(now_us);
}

void BrRuntime::assign_staged(std::int64_t now_us) {
  while (!staging_.empty()) {
    proto::DataMsg m = std::move(staging_.front());
    staging_.pop_front();
    m.gseq = token_.append_range(cfg_.self, m.source, m.lseq, m.lseq);
    m.ordering_node = cfg_.self;
    m.epoch = token_.epoch();
    if (multi() && !m.groups.empty()) {
      for (std::size_t i = 0; i < m.groups.size(); ++i) {
        m.group_seqs[i] = token_.bump_group_seq(m.groups[i]);
        group_seq_high_[m.groups[i].v] = m.group_seqs[i] + 1;
      }
    }
    ++assigned_;
    if (cfg_.opts.record_spans) {
      span_assigned_.push_back(SpanAssignRec{m.source, m.lseq, m.gseq,
                                             m.uplink_rx_at.us, now_us});
    }
    store_and_forward_ordered(m, now_us);
    for (NodeId peer : cfg_.ring) {
      if (peer != cfg_.self) emit(peer, m);
    }
  }
  // Peers must receive these assignments before the token that follows
  // them, so they leave now rather than at the end of the handler call.
  flush_batches();
}

void BrRuntime::release_token(std::int64_t now_us) {
  if (!has_token_) return;
  auto bytes =
      frame(cfg_.self, FrameKind::Proto, proto::encode(proto::Message(token_)));
  await_ = AwaitedAck{true, token_.serial(), token_.rotation(),
                      std::move(bytes), 0,
                      now_us + cfg_.opts.retx_timeout_us};
  tr_.send(next_br(), await_.frame_bytes);
  fr_.record(obs::FrEvent::TokenTx, now_us, token_.serial(), next_br().v);
  has_token_ = false;
}

void BrRuntime::regenerate_token(std::int64_t now_us) {
  ++epoch_;
  proto::OrderingToken t(kRuntimeGroup, epoch_);
  t.set_serial(next_serial_++);
  t.set_next_gseq(any_seen_ ? max_seen_gseq_ + 1 : 0);
  // Per-group counters survive regeneration from the local high-watermarks
  // (only counters this BR has witnessed; a peer's newer assignment bumps
  // them again on the next pass, same as next_gseq).
  for (const auto& [gid, next] : group_seq_high_) {
    t.set_group_seq(GroupId{gid}, next);
  }
  metrics_.incr(mid_.token_regenerated);
  fr_.record(obs::FrEvent::TokenRegen, now_us, epoch_);  // arms an auto-dump
  last_rx_key_ = TokenKey{t.epoch(), t.serial(), t.rotation(), true};
  accept_token(std::move(t), now_us);
}

void BrRuntime::handle_member_ack(const proto::DeliveryAckMsg& ack,
                                  std::int64_t now_us) {
  if (ack.member.tier() == Tier::BR) {
    // Peer-BR gap repair: a peer lost an ordered frame we assigned and asks
    // for the window starting at its hole. Serve whatever the MQ retains.
    for (GlobalSeq g = ack.watermark;
         g <= max_seen_gseq_ && g < ack.watermark + kResendWindow; ++g) {
      if (!any_seen_) break;
      if (const proto::DataMsg* m = mq_.find(g)) {
        emit(ack.member, *m);
        metrics_.incr(mid_.retransmits);
      }
    }
    return;
  }
  const auto it = members_.find(ack.member.v);
  if (it == members_.end()) return;
  Member& m = it->second;
  if (multi()) {
    handle_chain_ack(m, ack.member, ack.watermark, now_us);
    return;
  }
  m.next_expected = std::max(m.next_expected, ack.watermark);
  // Only a *stalled* member needs resync: kStallAckLimit consecutive acks
  // with no watermark progress while assignments it lacks exist. A merely
  // lagging member (deliveries in flight through the AP) would turn every
  // resend into a duplicate at the MH.
  const bool behind = any_seen_ && m.next_expected <= max_seen_gseq_;
  if (!behind || ack.watermark > m.prev_ack_wm) {
    m.prev_ack_wm = std::max(m.prev_ack_wm, ack.watermark);
    m.stalled_acks = 0;
    return;
  }
  if (++m.stalled_acks < kStallAckLimit) return;
  if (now_us - m.last_resend_us < cfg_.opts.retx_timeout_us) return;
  m.stalled_acks = 0;
  m.last_resend_us = now_us;
  const GlobalSeq want = m.next_expected;
  fr_.record(obs::FrEvent::StallResync, now_us, ack.member.v, want);
  if (want < mq_.base()) {
    // The MQ no longer retains the member's gap: push its floor forward so
    // it gap-skips (those messages are "really lost" for this member).
    tr_.send_msg(m.ap,
                 proto::Message(proto::DeliveryAckMsg{kRuntimeGroup,
                                                      ack.member, mq_.base()}),
                 ack.member);
    metrics_.incr(mid_.floor_advances);
    return;
  }
  bool pull_requested = false;
  std::uint64_t resent = 0;
  for (GlobalSeq g = want; g <= max_seen_gseq_ && g < want + kResendWindow;
       ++g) {
    if (const proto::DataMsg* dm = mq_.find(g)) {
      emit(m.ap, *dm, ack.member);
      metrics_.incr(mid_.retransmits);
      ++resent;
    } else if (!pull_requested &&
               now_us - last_pull_us_ >= cfg_.opts.retx_timeout_us) {
      // Our own MQ has a hole (a lost peer-BR distribution): ask the ring
      // to refill it before the member can make progress. One pull per
      // retx window for the whole BR — many stalled members share a hole.
      pull_requested = true;
      request_pull(g, now_us);
    }
  }
  if (resent > 0) {
    fr_.record(obs::FrEvent::ArqResend, now_us, ack.member.v, resent);
  }
}

void BrRuntime::request_pull(GlobalSeq g, std::int64_t now_us) {
  if (now_us - last_pull_us_ < cfg_.opts.retx_timeout_us) return;
  last_pull_us_ = now_us;
  for (NodeId peer : cfg_.ring) {
    if (peer != cfg_.self) {
      tr_.send_msg(peer, proto::Message(proto::DeliveryAckMsg{
                             kRuntimeGroup, cfg_.self, g}));
    }
  }
}

void BrRuntime::handle_chain_ack(Member& m, NodeId member, GlobalSeq tail,
                                 std::int64_t now_us) {
  m.next_expected = std::max(m.next_expected, tail);
  // Everything at or below the acked chain tail is delivered: prune.
  while (!m.fwd_log.empty() &&
         m.fwd_log.front().gseq + 1 <= m.next_expected) {
    m.fwd_log.pop_front();
  }
  // The surviving head links to a predecessor the member can no longer
  // receive (lost below the floor): rewrite the link so the member
  // gap-skips straight to the survivor.
  if (!m.fwd_log.empty() && m.fwd_log.front().prev > m.next_expected) {
    m.fwd_log.front().prev = m.next_expected;
    metrics_.incr(mid_.gaps_skipped);
    fr_.record(obs::FrEvent::ChainSplice, now_us, member.v,
               m.fwd_log.front().gseq);
  }
  // Stall detection, same discipline as the legacy path: only a member (or
  // a BR-side chain cursor) making no progress across kStallAckLimit acks
  // triggers recovery work.
  const bool behind = !m.fwd_log.empty() ||
                      (any_seen_ && chain_next_ <= max_seen_gseq_);
  if (!behind || tail > m.prev_ack_wm) {
    m.prev_ack_wm = std::max(m.prev_ack_wm, tail);
    m.stalled_acks = 0;
    return;
  }
  if (++m.stalled_acks < kStallAckLimit) return;
  if (now_us - m.last_resend_us < cfg_.opts.retx_timeout_us) return;
  m.stalled_acks = 0;
  m.last_resend_us = now_us;
  if (m.fwd_log.empty()) {
    // The member is current; the BR itself is stuck on an MQ hole at the
    // chain cursor (a lost peer distribution). Pull it from the ring.
    request_pull(chain_next_, now_us);
    return;
  }
  GlobalSeq served = 0;
  for (auto it = m.fwd_log.begin();
       it != m.fwd_log.end() && served < kResendWindow;) {
    if (const proto::DataMsg* dm = mq_.find(it->gseq)) {
      proto::DataMsg copy = *dm;
      copy.prev_chain = it->prev;
      emit(m.ap, copy, member);
      metrics_.incr(mid_.retransmits);
      ++served;
      ++it;
    } else if (it->gseq >= mq_.base()) {
      // MQ hole inside the retained window: refill via peer pull and retry
      // next window — resending past the hole would still honor the chain,
      // but the member can't advance through it anyway.
      request_pull(it->gseq, now_us);
      break;
    } else {
      // Below the MQ floor: unrecoverable for this member. Splice the link
      // out — the successor inherits it, or the chain head rolls back when
      // the spliced entry was the newest one.
      const FwdEntry dead = *it;
      it = m.fwd_log.erase(it);
      if (it != m.fwd_log.end()) {
        it->prev = dead.prev;
      } else if (m.fwd_tail == dead.gseq + 1) {
        m.fwd_tail = dead.prev;
      }
      metrics_.incr(mid_.really_lost);
      fr_.record(obs::FrEvent::ChainSplice, now_us, member.v, dead.gseq);
    }
  }
}

void BrRuntime::on_tick(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
    next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
  if (has_token_) {
    assign_staged(now_us);  // uplink that arrived during the hold window
    if (now_us >= release_deadline_us_) release_token(now_us);
  }
  if (await_.active && now_us >= await_.next_resend_us) {
    if (await_.attempts >= cfg_.opts.max_retx) {
      await_.active = false;
      metrics_.incr(mid_.token_dropped);  // leader watchdog regenerates
      fr_.record(obs::FrEvent::TokenDropped, now_us, await_.serial);
    } else {
      ++await_.attempts;
      metrics_.incr(mid_.token_retx);
      fr_.record(obs::FrEvent::TokenRetx, now_us, await_.serial,
                 static_cast<std::uint64_t>(await_.attempts));
      tr_.send(next_br(), await_.frame_bytes);
      await_.next_resend_us = now_us + cfg_.opts.retx_timeout_us;
    }
  }
  if (now_us >= next_hb_us_) {
    tr_.send_msg(cfg_.ss,
                 proto::Message(proto::HeartbeatMsg{cfg_.self, ++hb_beat_}));
    next_hb_us_ = now_us + cfg_.opts.heartbeat_period_us;
  }
  if (leader() && !has_token_ &&
      now_us - last_token_seen_us_ >= cfg_.opts.token_regen_timeout_us()) {
    regenerate_token(now_us);
  }
  flush_batches();
}

// ---------------------------------------------------------------------------
// ApRuntime

ApRuntime::ApRuntime(ApConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr), attached_(cfg_.attached) {
  mid_.intern_all(metrics_);
  for (NodeId mh : attached_) attached_set_.insert(mh.v);
}

RuntimeCounters ApRuntime::counters() const {
  return read_counters(metrics_, mid_);
}

void ApRuntime::on_start(std::int64_t now_us) {
  next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
}

void ApRuntime::on_datagram(const Datagram& d, std::int64_t /*now_us*/) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) {
      metrics_.incr(mid_.malformed);
      return;
    }
    if (ctl->op == ControlOp::Start) start_seen_ = true;
    if (ctl->op == ControlOp::Stop) {
      stop_seen_.store(true, std::memory_order_release);
    }
    return;
  }
  if (d.payload.empty()) {
    metrics_.incr(mid_.malformed);
    return;
  }
  // The AP is a store-less relay: it peeks the envelope tag to pick a
  // direction and forwards the payload bytes untouched (no decode/re-encode
  // on the hot path). Only membership deltas are decoded, to track the cell.
  // The frame is built once: every copy of a cell broadcast is identical.
  std::vector<std::uint8_t> bytes;
  const auto forward = [&](NodeId to) {
    if (bytes.empty()) bytes = frame(cfg_.self, FrameKind::Proto, d.payload);
    tr_.send(to, bytes);
  };
  const auto type = static_cast<proto::MsgType>(d.payload[0]);
  const bool uplink = d.src.tier() == Tier::MH;
  switch (type) {
    case proto::MsgType::Data:
    case proto::MsgType::DataBatch:
    case proto::MsgType::DeliveryAck:
      if (uplink) {
        forward(cfg_.br);
      } else if (d.relay.valid()) {
        forward(d.relay);  // one member: chain delivery or a resend
      } else {
        for (NodeId mh : attached_) forward(mh);
      }
      break;
    case proto::MsgType::Membership: {
      if (!uplink) break;
      const auto msg = proto::decode(d.payload.data(), d.payload.size());
      if (!msg) {
        metrics_.incr(mid_.malformed);
        return;
      }
      for (const auto& ev : msg->membership().events) {
        if (ev.ap == cfg_.self) {
          if (attached_set_.insert(ev.mh.v).second) attached_.push_back(ev.mh);
        } else if (attached_set_.erase(ev.mh.v) != 0) {
          attached_.erase(
              std::remove(attached_.begin(), attached_.end(), ev.mh),
              attached_.end());
        }
      }
      forward(cfg_.br);
      break;
    }
    default:
      break;
  }
}

void ApRuntime::on_tick(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
    next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
}

// ---------------------------------------------------------------------------
// MhRuntime

MhRuntime::MhRuntime(MhConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr) {
  mid_.intern_all(metrics_);
  period_us_ = cfg_.rate_hz > 0
                   ? static_cast<std::int64_t>(1e6 / cfg_.rate_hz)
                   : 0;
}

RuntimeCounters MhRuntime::counters() const {
  return read_counters(metrics_, mid_);
}

stats::Histogram MhRuntime::latency_hist() const {
  util::MutexLock lock(lat_mu_);
  return live_lat_;
}

void MhRuntime::on_start(std::int64_t now_us) {
  next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  next_ack_us_ = now_us + cfg_.opts.ack_period_us;
  // Announce attachment up the tree (redundant with boot membership, but it
  // exercises the membership path end to end on every run).
  tr_.send_msg(cfg_.ap,
               proto::Message(proto::MembershipMsg{
                   kRuntimeGroup, cfg_.self, {{cfg_.self, cfg_.ap}}}));
  tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
}

void MhRuntime::on_datagram(const Datagram& d, std::int64_t now_us) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) {
      metrics_.incr(mid_.malformed);
      return;
    }
    switch (ctl->op) {
      case ControlOp::Start:
        if (!start_seen_) {
          start_seen_ = true;
          next_submit_us_ = now_us + cfg_.submit_phase_us;
        }
        break;
      case ControlOp::Stop:
        stop_seen_.store(true, std::memory_order_release);
        break;
      default:
        break;
    }
    return;
  }
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) {
    metrics_.incr(mid_.malformed);
    return;
  }
  switch (msg->type()) {
    case proto::MsgType::DataBatch:
      for (const proto::DataMsg& dm : msg->batch().entries) {
        if (cfg_.groups.multi()) {
          receive_chain(dm, now_us);
        } else {
          receive_ordered(dm, now_us);
        }
      }
      break;
    case proto::MsgType::DeliveryAck: {
      const auto& ack = msg->ack();
      if (cfg_.groups.multi()) {
        // Chain mode repurposes the downlink ack as the uplink submit-ack
        // (watermark = lseqs accepted by the BR); chain gaps are closed by
        // the BR rewriting the head link, never by floor pushes.
        if (ack.member == cfg_.self) {
          while (!pending_.empty() &&
                 pending_.front().msg.lseq < ack.watermark) {
            pending_.pop_front();
          }
        }
        break;
      }
      if (ack.member == cfg_.self && ack.watermark > next_expected_) {
        gap_skip_to(ack.watermark, now_us);
      }
      break;
    }
    default:
      break;
  }
}

void MhRuntime::receive_ordered(const proto::DataMsg& msg,
                                std::int64_t now_us) {
  if (msg.gseq < next_expected_ || !buf_.insert(msg.gseq, msg)) {
    metrics_.incr(mid_.duplicates);
    return;
  }
  while (const proto::DataMsg* m = buf_.find(next_expected_)) {
    deliver(*m, now_us);
    ++next_expected_;
  }
  buf_.drop_below(next_expected_);
}

void MhRuntime::receive_chain(const proto::DataMsg& msg, std::int64_t now_us) {
  // Chain delivery: each message names its predecessor's chain coordinate
  // (gseq + 1 of the previous message the BR forwarded to this member), so
  // the member delivers exactly the destined subsequence in gseq order with
  // no contiguity assumption over the global sequence.
  const GlobalSeq coord = msg.gseq + 1;
  if (coord <= multi_tail_) {
    metrics_.incr(mid_.duplicates);
    return;
  }
  const auto [held, inserted] = held_.emplace(coord, msg);
  if (!inserted) {
    // A resend after the BR spliced an unrecoverable predecessor out of
    // the chain (handle_chain_ack) carries a repaired (lower) link; keep
    // the stale held link and the member waits forever on a frame that
    // can no longer arrive. Merge the lower link and re-drain.
    if (msg.prev_chain >= held->second.prev_chain) {
      metrics_.incr(mid_.duplicates);
      return;
    }
    held->second.prev_chain = msg.prev_chain;
  }
  while (!held_.empty() && held_.begin()->second.prev_chain <= multi_tail_) {
    deliver(held_.begin()->second, now_us);
    multi_tail_ = held_.begin()->first;
    held_.erase(held_.begin());
  }
  while (held_.size() > kHeldChainCap) {
    // Bound hold-queue memory against a wedged chain over real UDP: shed
    // the farthest-future frame — the BR's ack-driven resend replays it
    // once the member's tail catches up.
    held_.erase(std::prev(held_.end()));
    metrics_.incr(mid_.duplicates);
  }
}

void MhRuntime::deliver(const proto::DataMsg& msg, std::int64_t now_us) {
  // Total-order sanity: delivered gseqs must rise strictly. A violation is
  // a protocol bug, so it also arms a flight-recorder dump.
  if (!log_.empty() && msg.gseq <= log_.back().gseq) {
    fr_.record(obs::FrEvent::OrderViolation, now_us, msg.gseq,
               log_.back().gseq);
  }
  log_.push_back(DeliveredRec{msg.gseq, msg.source, msg.lseq});
  if (cfg_.opts.record_spans) deliver_times_us_.push_back(now_us);
  fr_.record(obs::FrEvent::Deliver, now_us, msg.gseq);
  ++delivered_;
  if (msg.source == cfg_.source_id) {
    if (cfg_.groups.multi()) {
      const auto it = submit_times_us_.find(msg.lseq);
      if (it != submit_times_us_.end()) {
        record_latency(now_us - it->second);
        submit_times_us_.erase(it);
      }
      return;
    }
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->msg.lseq == msg.lseq) {
        record_latency(now_us - it->submitted_us);
        pending_.erase(it);
        break;
      }
    }
  }
}

void MhRuntime::record_latency(std::int64_t lat_us) {
  lat_us_.push_back(lat_us);
  util::MutexLock lock(lat_mu_);
  live_lat_.record(lat_us < 0 ? 0 : static_cast<std::uint64_t>(lat_us));
}

void MhRuntime::gap_skip_to(GlobalSeq floor, std::int64_t now_us) {
  bool in_gap = false;
  std::uint64_t skipped = 0;
  while (next_expected_ < floor) {
    if (const proto::DataMsg* m = buf_.find(next_expected_)) {
      deliver(*m, now_us);
      in_gap = false;
    } else {
      metrics_.incr(mid_.really_lost);
      ++skipped;
      if (!in_gap) {
        metrics_.incr(mid_.gaps_skipped);
        in_gap = true;
      }
    }
    ++next_expected_;
  }
  if (skipped > 0) fr_.record(obs::FrEvent::GapSkip, now_us, floor, skipped);
  buf_.drop_below(next_expected_);
  while (const proto::DataMsg* m = buf_.find(next_expected_)) {
    deliver(*m, now_us);
    ++next_expected_;
  }
  buf_.drop_below(next_expected_);
}

void MhRuntime::submit_one(std::int64_t now_us) {
  proto::DataMsg m;
  m.gid = kRuntimeGroup;
  m.source = cfg_.source_id;
  m.lseq = next_lseq_++;
  m.payload_size = cfg_.payload_size;
  if (cfg_.groups.multi()) {
    m.groups = core::dest_groups(cfg_.source_id, m.lseq, cfg_.groups);
    if (!m.groups.empty()) m.gid = m.groups[0];
    submit_times_us_.emplace(m.lseq, now_us);
  }
  if (cfg_.opts.record_spans) span_submits_.emplace_back(m.lseq, now_us);
  fr_.record(obs::FrEvent::Submit, now_us, m.lseq);
  pending_.push_back(PendingSubmit{m, now_us, now_us, 0});
  tr_.send_msg(cfg_.ap, proto::Message(m));
  next_submit_us_ += period_us_;
}

void MhRuntime::send_ack() {
  const GlobalSeq wm = cfg_.groups.multi() ? multi_tail_ : next_expected_;
  tr_.send_msg(cfg_.ap, proto::Message(proto::DeliveryAckMsg{
                            kRuntimeGroup, cfg_.self, wm}));
  metrics_.incr(mid_.acks_sent);
}

void MhRuntime::on_tick(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
    next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
  if (start_seen_ && !stop_seen()) {
    int burst = 0;
    while (next_lseq_ < cfg_.msgs_to_send && now_us >= next_submit_us_ &&
           burst < 8) {
      submit_one(now_us);
      ++burst;
    }
  }
  // Uplink ARQ: resubmit until the message comes back ordered. The budget
  // only expires at the queue head so later lseqs can't starve earlier ones.
  while (!pending_.empty() && pending_.front().attempts >= cfg_.opts.max_retx &&
         now_us - pending_.front().last_send_us >= cfg_.opts.retx_timeout_us) {
    pending_.pop_front();
    metrics_.incr(mid_.uplink_dropped);
  }
  std::size_t scanned = 0;
  for (auto& p : pending_) {
    if (scanned++ >= 32) break;
    // Exponential backoff: under load the submit->assign->deliver loop can
    // exceed one retx window for every message, and fixed-interval retries
    // then double the uplink traffic without helping anyone.
    const std::int64_t gap = cfg_.opts.retx_timeout_us
                             << std::min(p.attempts, 3);
    if (p.attempts < cfg_.opts.max_retx && now_us - p.last_send_us >= gap) {
      ++p.attempts;
      p.last_send_us = now_us;
      tr_.send_msg(cfg_.ap, proto::Message(p.msg));
      metrics_.incr(mid_.uplink_retx);
      fr_.record(obs::FrEvent::UplinkRetx, now_us, p.msg.lseq,
                 static_cast<std::uint64_t>(p.attempts));
    }
  }
  if (now_us >= next_ack_us_) {
    send_ack();
    next_ack_us_ = now_us + cfg_.opts.ack_period_us;
  }
  if (!done_ && cfg_.expected_total > 0 && delivered_ >= cfg_.expected_total) {
    done_ = true;
    next_done_us_ = now_us;
  }
  if (done_ && !stop_seen() && now_us >= next_done_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Done, delivered_});
    next_done_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
}

// ---------------------------------------------------------------------------
// SsRuntime

SsRuntime::SsRuntime(SsConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr) {
  mid_heartbeats_ = metrics_.intern(names::kSsHeartbeats);
}

void SsRuntime::on_start(std::int64_t now_us) {
  next_bcast_us_ = now_us + cfg_.opts.handshake_resend_us;
}

void SsRuntime::broadcast(ControlMsg msg) {
  for (NodeId id : cfg_.all_nodes) tr_.send_control(id, msg);
}

void SsRuntime::on_datagram(const Datagram& d, std::int64_t /*now_us*/) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) return;
    switch (ctl->op) {
      case ControlOp::Ready:
        ready_.insert(d.src.v);
        if (!started() && ready_.size() >= cfg_.expected_ready) {
          started_.store(true, std::memory_order_release);
          broadcast(ControlMsg{ControlOp::Start, 0});
        }
        break;
      case ControlOp::Done:
        done_.insert(d.src.v);
        done_count_.store(done_.size(), std::memory_order_release);
        break;
      default:
        break;
    }
    return;
  }
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (msg && msg->type() == proto::MsgType::Heartbeat) {
    last_beat_[d.src.v] = msg->heartbeat().beat;
    metrics_.incr(mid_heartbeats_);
  }
}

void SsRuntime::on_tick(std::int64_t now_us) {
  if (now_us < next_bcast_us_) return;
  next_bcast_us_ = now_us + cfg_.opts.handshake_resend_us;
  if (stop_requested_.load(std::memory_order_acquire)) {
    broadcast(ControlMsg{ControlOp::Stop, 0});
  } else if (started()) {
    broadcast(ControlMsg{ControlOp::Start, 0});  // covers a lost Start
  }
}

}  // namespace ringnet::runtime
