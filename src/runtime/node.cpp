#include "runtime/node.hpp"

#include <algorithm>
#include <utility>

#include "core/groups.hpp"
#include "obs/names.hpp"

namespace ringnet::runtime {

namespace names = obs::names;

namespace {
/// Downlink/peer resend batch per ack: bounds the burst a single stuck
/// member can trigger while still closing multi-message gaps quickly.
constexpr GlobalSeq kResendWindow = 64;
/// Newest gseqs a BR's MQ keeps (MessageQueue::keep_newest): the runtime
/// has no member-ack floor to release by.
constexpr std::size_t kMqWindow = 8192;
constexpr std::size_t kUplinkPendingCap = 4096;
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
/// Payload budget of one datagram after the frame header: a CellFrame's,
/// and a Bundle's.
constexpr std::size_t kMaxPayloadBytes = kMaxDatagramBytes - kFrameHeaderBytes;
/// Stop broadcasts before the supervisor counts itself stopped: enough
/// rounds to cover a lost one.
constexpr int kStopRounds = 4;
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

// ---------------------------------------------------------------------------
// SupervisedNode

SupervisedNode::SupervisedNode(NodeId self, NodeId ss,
                               std::int64_t handshake_resend_us, Transport& tr)
    : RoleNode(self, tr), ss_(ss), handshake_resend_us_(handshake_resend_us) {}

// RN012-ok: the struct perfbench's runtime benchmark reads; it goes when
// that benchmark reads the registry.
RuntimeCounters SupervisedNode::counters() const {
  RuntimeCounters c;
  c.tokens_held = metrics_.counter(names::kTokenHeld);
  c.token_regenerated = metrics_.counter(names::kTokenRegenerated);
  c.token_dup_destroyed = metrics_.counter(names::kTokenDupDestroyed);
  c.token_retx = metrics_.counter(names::kTokenRetx);
  c.token_dropped = metrics_.counter(names::kTokenDropped);
  c.retransmits = metrics_.counter(names::kRetransmits);
  c.floor_advances = metrics_.counter(names::kFloorAdvances);
  c.duplicates = metrics_.counter(names::kDuplicates);
  c.acks_sent = metrics_.counter(names::kAcksSent);
  c.uplink_retx = metrics_.counter(names::kUplinkRetx);
  c.uplink_dropped = metrics_.counter(names::kUplinkDropped);
  c.gaps_skipped = metrics_.counter(names::kGapsSkipped);
  c.malformed = metrics_.counter(names::kMalformed);
  return c;
}

void SupervisedNode::send_ready(std::int64_t now_us) {
  next_ready_us_ = now_us + handshake_resend_us_;
  tr_.send_control(ss_, ControlMsg{ControlOp::Ready, 0});
}

void SupervisedNode::resend_ready(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) send_ready(now_us);
}

bool SupervisedNode::on_control(const Datagram& d) {
  const auto ctl = decode_control(d.payload.data(), d.payload.size());
  if (!ctl) {
    metrics_.incr(names::kMalformed);
    return false;
  }
  if (ctl->op == ControlOp::Stop) mark_stopped();
  if (ctl->op != ControlOp::Start || start_seen_) return false;
  start_seen_ = true;
  return true;
}

// ---------------------------------------------------------------------------
// BrRuntime

BrRuntime::BrRuntime(BrConfig cfg, Transport& tr)
    : SupervisedNode(cfg.self, cfg.ss, cfg.opts.handshake_resend_us, tr),
      cfg_(std::move(cfg)) {
  for (std::size_t i = 0; i < cfg_.members.size(); ++i) {
    Member m;
    m.ap = cfg_.member_ap[i];
    if (multi()) {
      m.groups = core::member_groups(cfg_.members[i].index(), cfg_.groups);
    }
    members_[cfg_.members[i].v] = std::move(m);
  }
}

NodeId BrRuntime::next_br() const {
  for (std::size_t i = 0; i < cfg_.ring.size(); ++i) {
    if (cfg_.ring[i] == cfg_.self) {
      return cfg_.ring[(i + 1) % cfg_.ring.size()];
    }
  }
  return cfg_.self;
}

BrRuntime::Outbox& BrRuntime::outbox(NodeId to, NodeId relay) {
  const std::uint64_t key = (std::uint64_t{to.v} << 32) | relay.v;
  const auto [it, fresh] = outbox_of_.try_emplace(key, outboxes_.size());
  if (fresh) outboxes_.push_back(Outbox{to, relay, {}, {}, {}, {}});
  return outboxes_[it->second];
}

void BrRuntime::post(NodeId to, const proto::Message& msg, NodeId relay) {
  outbox(to, relay).posted.push_back(proto::encode(msg));
}

void BrRuntime::emit(NodeId to, const proto::DataMsg& msg, NodeId relay) {
  outbox(to, relay).entries.push_back(msg);
}

void BrRuntime::emit_chain(NodeId ap, const proto::DataMsg& msg, NodeId mh,
                           GlobalSeq prev_chain, bool share_body) {
  // `share_body`: every destined member of the cell links the one body of
  // this message (forward_chain); a resend queues a body of its own.
  Outbox& box = outbox(ap);
  if (!share_body || box.entries.empty() ||
      box.entries.back().gseq != msg.gseq) {
    box.entries.push_back(msg);
    box.entries.back().prev_chain = 0;  // the links carry the chain
  }
  box.links.push_back(proto::CellLink{box.entries.size() - 1, mh, prev_chain});
}

void BrRuntime::flush() {
  // A due submit-ack rides this call's frame to its source's AP when the
  // frame's links name the source: the source's AP hands it that member's
  // batch and the ack in one datagram.
  post_due_acks([&](const DueAck& due) {
    const auto it =
        outbox_of_.find((std::uint64_t{due.ap.v} << 32) | NodeId::invalid().v);
    if (it == outbox_of_.end()) return false;
    const auto& links = outboxes_[it->second].links;
    return std::any_of(links.begin(), links.end(),
                       [&](const auto& l) { return l.mh == due.mh; });
  });
  for (Outbox& box : outboxes_) {
    std::vector<std::vector<std::uint8_t>> parts = std::move(box.posted);
    if (!box.links.empty()) {
      for (auto& cell :
           proto::pack_cells(box.entries, box.links, kMaxPayloadBytes)) {
        parts.push_back(std::move(cell));
      }
    } else {
      for (std::size_t at = 0; at < box.entries.size();
           at += kMaxBatchEntries) {
        const std::size_t n =
            std::min(kMaxBatchEntries, box.entries.size() - at);
        parts.push_back(proto::encode_batch(box.entries.data() + at, n));
      }
    }
    const bool token = !box.token.empty();
    if (token) parts.push_back(std::move(box.token));
    auto payloads = proto::pack_bundles(std::move(parts), kMaxPayloadBytes);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      auto bytes = frame(cfg_.self, FrameKind::Proto, payloads[i], box.relay);
      tr_.send(box.to, bytes);
      // The token's datagram is what the forward ARQ resends: the token and
      // the assignments it rides behind.
      if (token && i + 1 == payloads.size()) {
        await_.frame_bytes = std::move(bytes);
      }
    }
  }
  outboxes_.clear();
  outbox_of_.clear();
}

void BrRuntime::on_start(std::int64_t now_us) {
  last_token_seen_us_ = now_us;
  next_hb_us_ = now_us + cfg_.opts.heartbeat_period_us;
  send_ready(now_us);
  if (leader()) {
    // The leader seeds the first token; peer sockets are already bound (the
    // orchestrator binds every transport before starting any loop), so the
    // forward ARQ covers peers whose loops lag behind.
    proto::OrderingToken t(kRuntimeGroup, epoch_);
    t.set_serial(1);
    last_rx_key_ = TokenKey{t.epoch(), t.serial(), t.rotation(), true};
    accept_token(std::move(t), now_us);
  }
  flush();
}

void BrRuntime::on_datagram(const Datagram& d, std::int64_t now_us) {
  if (d.kind == FrameKind::Control) {
    on_control(d);
    return;
  }
  handle_proto(d, now_us);
  flush();
}

void BrRuntime::handle_proto(const Datagram& d, std::int64_t now_us) {
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) {
    metrics_.incr(names::kMalformed);
    return;
  }
  if (msg->type() != proto::MsgType::Bundle) {
    handle_msg(*msg, d.src, now_us);
    return;
  }
  for (const proto::Message& part : msg->bundle().parts) {
    handle_msg(part, d.src, now_us);
  }
}

void BrRuntime::handle_msg(const proto::Message& msg, NodeId from,
                           std::int64_t now_us) {
  switch (msg.type()) {
    case proto::MsgType::Data:  // uplink submission
      handle_uplink(msg.data(), now_us);
      break;
    case proto::MsgType::DataBatch:  // a peer's assignments or pull reply
      for (const proto::DataMsg& dm : msg.batch().entries) {
        store_and_forward_ordered(dm, now_us);
      }
      break;
    case proto::MsgType::Token:
      handle_token(msg.token(), from, now_us);
      break;
    case proto::MsgType::TokenAck: {
      const proto::TokenAckMsg& ack = msg.token_ack();
      if (await_.active && ack.serial == await_.serial &&
          ack.rotation == await_.rotation) {
        await_.active = false;
      }
      break;
    }
    case proto::MsgType::DeliveryAck:
      handle_member_ack(msg.ack(), now_us);
      break;
    case proto::MsgType::Membership: {
      const proto::MembershipMsg& mm = msg.membership();
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
      if (from.tier() == Tier::AP) {
        for (NodeId peer : cfg_.ring) {
          if (peer != cfg_.self) post(peer, proto::Message(mm));
        }
      }
      break;
    }
    case proto::MsgType::Heartbeat:
    case proto::MsgType::CellFrame:  // AP-bound only
    case proto::MsgType::Bundle:     // never a part
      break;
  }
}

void BrRuntime::handle_uplink(const proto::DataMsg& msg, std::int64_t now_us) {
  SourceIn& si = uplink_[msg.source.v];
  if (msg.lseq < si.next_expected) {
    // A duplicate means the source missed an ack: ack in this call.
    metrics_.incr(names::kDuplicates);
    defer_submit_ack(msg.source, si, now_us);
    post_due_acks(
        [&](const DueAck& due) { return due.source == msg.source.v; });
    return;
  }
  // Span stamp: first reception of each uplink. The stamp rides the sim-only
  // (non-serialized) DataMsg field through the WQ/pending until assignment,
  // where it lands in span_assigned_.
  const bool spans = cfg_.opts.record_spans;
  if (msg.lseq == si.next_expected) {
    proto::DataMsg in = msg;
    if (spans) in.uplink_rx_at.us = now_us;
    wq_.add(std::move(in));
    ++si.next_expected;
    auto it = si.pending.find(si.next_expected);
    while (it != si.pending.end()) {
      wq_.add(std::move(it->second));
      si.pending.erase(it);
      ++si.next_expected;
      it = si.pending.find(si.next_expected);
    }
    defer_submit_ack(msg.source, si, now_us);
    return;
  }
  if (si.pending.size() >= kUplinkPendingCap) return;  // source ARQ re-offers
  const auto [it, inserted] = si.pending.emplace(msg.lseq, msg);
  if (!inserted) {
    metrics_.incr(names::kDuplicates);
  } else if (spans) {
    it->second.uplink_rx_at.us = now_us;
  }
}

void BrRuntime::defer_submit_ack(NodeId source, SourceIn& si,
                                 std::int64_t now_us) {
  // Multi-group mode only: a source need not be a member of its messages'
  // destination groups, so seeing its own submission come back ordered (the
  // legacy uplink-ARQ exit) is no longer guaranteed. Ack the contiguously
  // accepted prefix instead; duplicates re-trigger it, covering a lost ack.
  // The ack waits for a cell frame to ride (flush), for at most one ack
  // period (on_tick).
  if (!multi() || si.ack_due) return;
  const NodeId mh = NodeId::make(Tier::MH, source.index());
  const auto it = members_.find(mh.v);
  if (it == members_.end()) return;
  si.ack_due = true;
  due_acks_.push_back(DueAck{source.v, mh, it->second.ap, now_us});
}

template <class Pred>
void BrRuntime::post_due_acks(Pred ready) {
  // Routed by the ack's member, not by a relay target, so it can share the
  // cell's datagram; it carries the prefix accepted by the time it leaves.
  std::erase_if(due_acks_, [&](const DueAck& due) {
    if (!ready(due)) return false;
    SourceIn& si = uplink_[due.source];
    si.ack_due = false;
    post(due.ap, proto::Message(proto::DeliveryAckMsg{kRuntimeGroup, due.mh,
                                                      si.next_expected}));
    return true;
  });
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
  if (mq_.store(msg, sim::SimTime{now_us}) == nullptr) {
    metrics_.incr(names::kDuplicates);
    return;
  }
  // Span stamp: first ordered arrival of this gseq at the relay endpoint
  // for this BR's subtree (emplace keeps the earliest arrival).
  if (cfg_.opts.record_spans) span_relay_rx_us_.emplace(msg.gseq, now_us);
  mq_.keep_newest(kMqWindow);
  if (multi()) {
    // Chain links must rise monotonically per member, so chain forwarding
    // walks the MQ in gseq order; an out-of-order peer distribution parks
    // in the MQ until the hole fills (peer pull closes persistent holes).
    mq_.forward_in_order([&](const proto::DataMsg& m) { forward_chain(m); });
    return;
  }
  for (NodeId ap : cfg_.own_aps) emit(ap, msg);
}

void BrRuntime::forward_chain(const proto::DataMsg& msg) {
  // Genuine relay: only members whose memberships intersect the message's
  // destination set get it, each with its own chain link. Their AP gets
  // the body once, in its cell frame.
  for (auto& [id, m] : members_) {
    if (!m.groups.intersects(msg.groups)) continue;
    emit_chain(m.ap, msg, NodeId{id},
               m.chain.link(msg.gseq, kMqWindow + kResendWindow), true);
  }
}

void BrRuntime::handle_token(proto::OrderingToken token, NodeId from,
                             std::int64_t now_us) {
  // Ack every token frame, even duplicates: the sender's ARQ keys on
  // (serial, rotation) and a lost ack must not keep it retransmitting. The
  // ack rides whatever this call sends the sender: after an accept, the
  // assignments the accept made.
  post(from, proto::Message(proto::TokenAckMsg{cfg_.self, token.serial(),
                                               token.rotation()}));
  if (token.epoch() < epoch_) {
    metrics_.incr(names::kTokenDupDestroyed);
    record(obs::FrEvent::TokenDupDestroyed, now_us, token.epoch(),
           token.serial());
    return;
  }
  // Accept only a strictly newer visit of the same lineage: retransmits
  // (same rotation) and stale re-injections (lower rotation) are destroyed.
  if (last_rx_key_.valid && token.epoch() == last_rx_key_.epoch &&
      token.serial() == last_rx_key_.serial &&
      token.rotation() <= last_rx_key_.rotation) {
    metrics_.incr(names::kTokenDupDestroyed);
    record(obs::FrEvent::TokenDupDestroyed, now_us, token.epoch(),
           token.serial());
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
  metrics_.incr(names::kTokenHeld);
  if (leader()) token_.bump_rotation();
  record(obs::FrEvent::TokenRx, now_us, token_.epoch(), token_.rotation());
  token_.prune_entries_of(cfg_.self);
  release_deadline_us_ = now_us + cfg_.opts.token_hold_us;
  assign_staged(now_us);
}

void BrRuntime::assign_staged(std::int64_t now_us) {
  for (const proto::DataMsg& m :
       wq_.assign(token_, cfg_.self, sim::SimTime{now_us})) {
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
}

void BrRuntime::release_token(std::int64_t now_us) {
  if (!has_token_) return;
  // The token leaves last in this call's datagram to the next BR, behind
  // the hold's assignments; flush() keeps that datagram for the ARQ.
  outbox(next_br()).token = proto::encode(proto::Message(token_));
  await_ = AwaitedAck{true, token_.serial(), token_.rotation(), {}, 0,
                      now_us + cfg_.opts.retx_timeout_us};
  record(obs::FrEvent::TokenTx, now_us, token_.serial(), next_br().v);
  has_token_ = false;
}

void BrRuntime::regenerate_token(std::int64_t now_us) {
  ++epoch_;
  proto::OrderingToken t(kRuntimeGroup, epoch_);
  t.set_serial(next_serial_++);
  // Seed the counters past everything this BR's MQ has stored: its own
  // assignments and every peer's that reached it.
  mq_.high_water().seed(t);
  metrics_.incr(names::kTokenRegenerated);
  record(obs::FrEvent::TokenRegen, now_us, epoch_);  // arms an auto-dump
  last_rx_key_ = TokenKey{t.epoch(), t.serial(), t.rotation(), true};
  accept_token(std::move(t), now_us);
}

void BrRuntime::handle_member_ack(const proto::DeliveryAckMsg& ack,
                                  std::int64_t now_us) {
  const GlobalSeq newest = mq_.high_water().next_gseq();
  if (ack.member.tier() == Tier::BR) {
    // Peer-BR gap repair: a peer lost an ordered frame we assigned and asks
    // for the window starting at its hole. Serve whatever the MQ retains.
    for (GlobalSeq g = ack.watermark;
         g < newest && g < ack.watermark + kResendWindow; ++g) {
      if (const proto::DataMsg* m = mq_.find(g)) {
        emit(ack.member, *m);
        metrics_.incr(names::kRetransmits);
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
  const bool behind = m.next_expected < newest;
  if (!resync_due(m, ack.watermark, behind, now_us)) return;
  const GlobalSeq want = m.next_expected;
  record(obs::FrEvent::StallResync, now_us, ack.member.v, want);
  const GlobalSeq front = mq_.valid_front();
  if (want < front) {
    // The MQ no longer retains the member's gap: push its floor forward so
    // it gap-skips (those messages are "really lost" for this member).
    post(m.ap,
         proto::Message(
             proto::DeliveryAckMsg{kRuntimeGroup, ack.member, front}),
         ack.member);
    metrics_.incr(names::kFloorAdvances);
    return;
  }
  bool pull_requested = false;
  std::uint64_t resent = 0;
  for (GlobalSeq g = want; g < newest && g < want + kResendWindow; ++g) {
    if (const proto::DataMsg* dm = mq_.find(g)) {
      emit(m.ap, *dm, ack.member);
      metrics_.incr(names::kRetransmits);
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
    record(obs::FrEvent::ArqResend, now_us, ack.member.v, resent);
  }
}

bool BrRuntime::resync_due(Member& m, GlobalSeq wm, bool behind,
                           std::int64_t now_us) {
  // Only a *stalled* member needs resync: kStallAckLimit consecutive acks
  // with no watermark progress while it is behind. A merely lagging member
  // (deliveries in flight through the AP) would turn every resend into a
  // duplicate at the MH. Resyncs are at most one per retx window.
  if (!behind || wm > m.prev_ack_wm) {
    m.prev_ack_wm = std::max(m.prev_ack_wm, wm);
    m.stalled_acks = 0;
    return false;
  }
  if (++m.stalled_acks < kStallAckLimit) return false;
  if (now_us - m.last_resend_us < cfg_.opts.retx_timeout_us) return false;
  m.stalled_acks = 0;
  m.last_resend_us = now_us;
  return true;
}

void BrRuntime::request_pull(GlobalSeq g, std::int64_t now_us) {
  if (now_us - last_pull_us_ < cfg_.opts.retx_timeout_us) return;
  last_pull_us_ = now_us;
  for (NodeId peer : cfg_.ring) {
    if (peer != cfg_.self) {
      post(peer, proto::Message(
                     proto::DeliveryAckMsg{kRuntimeGroup, cfg_.self, g}));
    }
  }
}

void BrRuntime::handle_chain_ack(Member& m, NodeId member, GlobalSeq tail,
                                 std::int64_t now_us) {
  if (m.chain.ack(tail)) {
    metrics_.incr(names::kGapsSkipped);
    record(obs::FrEvent::ChainSplice, now_us, member.v,
           m.chain.links().front().gseq);
  }
  // A member with unacked links, or a BR-side chain cursor, making no
  // progress triggers recovery work.
  const bool behind = !m.chain.links().empty() ||
                      mq_.forward_next() < mq_.high_water().next_gseq();
  if (!resync_due(m, tail, behind, now_us)) return;
  if (m.chain.links().empty()) {
    // The member is current; the BR itself is stuck on an MQ hole at the
    // chain cursor (a lost peer distribution). Pull it from the ring.
    request_pull(mq_.forward_next(), now_us);
    return;
  }
  using Step = core::ChainSender::Step;
  GlobalSeq served = 0;
  m.chain.walk([&](const core::ChainSender::Link& link) {
    if (served >= kResendWindow) return Step::Stop;
    if (const proto::DataMsg* dm = mq_.find(link.gseq)) {
      emit_chain(m.ap, *dm, member, link.prev, false);
      metrics_.incr(names::kRetransmits);
      ++served;
      return Step::Next;
    }
    if (link.gseq >= mq_.valid_front()) {
      // MQ hole inside the retained window: refill via peer pull and retry
      // next window — resending past the hole would still honor the chain,
      // but the member can't advance through it anyway.
      request_pull(link.gseq, now_us);
      return Step::Stop;
    }
    // Below the MQ floor: unrecoverable for this member.
    metrics_.incr(names::kGapSkippedMsgs);
    record(obs::FrEvent::ChainSplice, now_us, member.v, link.gseq);
    return Step::Splice;
  });
}

void BrRuntime::on_tick(std::int64_t now_us) {
  resend_ready(now_us);
  if (has_token_) {
    assign_staged(now_us);  // uplink that arrived during the hold window
    if (now_us >= release_deadline_us_) release_token(now_us);
  }
  if (await_.active && now_us >= await_.next_resend_us) {
    if (await_.attempts >= cfg_.opts.max_retx) {
      await_.active = false;
      metrics_.incr(names::kTokenDropped);  // leader watchdog regenerates
      record(obs::FrEvent::TokenDropped, now_us, await_.serial);
    } else {
      ++await_.attempts;
      metrics_.incr(names::kTokenRetx);
      record(obs::FrEvent::TokenRetx, now_us, await_.serial,
             static_cast<std::uint64_t>(await_.attempts));
      tr_.send(next_br(), await_.frame_bytes);
      await_.next_resend_us = now_us + cfg_.opts.retx_timeout_us;
    }
  }
  if (now_us >= next_hb_us_) {
    post(cfg_.ss, proto::Message(proto::HeartbeatMsg{cfg_.self, ++hb_beat_}));
    next_hb_us_ = now_us + cfg_.opts.heartbeat_period_us;
  }
  if (leader() && !has_token_ &&
      now_us - last_token_seen_us_ >= cfg_.opts.token_regen_timeout_us()) {
    regenerate_token(now_us);
  }
  // A submit-ack that found no frame to ride in one ack period leaves
  // alone (or with whatever this tick sends its AP).
  post_due_acks([&](const DueAck& due) {
    return now_us - due.since_us >= cfg_.opts.ack_period_us;
  });
  flush();
}

// ---------------------------------------------------------------------------
// ApRuntime

ApRuntime::ApRuntime(ApConfig cfg, Transport& tr)
    : SupervisedNode(cfg.self, cfg.ss, cfg.opts.handshake_resend_us, tr),
      cfg_(std::move(cfg)),
      attached_(cfg_.attached) {
  for (NodeId mh : attached_) attached_set_.insert(mh.v);
}

void ApRuntime::on_start(std::int64_t now_us) { send_ready(now_us); }

void ApRuntime::on_datagram(const Datagram& d, std::int64_t /*now_us*/) {
  if (d.kind == FrameKind::Control) {
    on_control(d);
    return;
  }
  if (d.payload.empty()) {
    metrics_.incr(names::kMalformed);
    return;
  }
  // The AP is a store-less relay. It peeks the envelope tag to pick a
  // direction and forwards uplink and relayed payloads untouched. It decodes
  // only membership deltas, to track the cell, and the downlink frames it
  // hands out per member. The frame is built once: every copy of a cell
  // broadcast is identical.
  std::vector<std::uint8_t> bytes;
  const auto forward = [&](NodeId to) {
    if (bytes.empty()) bytes = frame(cfg_.self, FrameKind::Proto, d.payload);
    tr_.send(to, bytes);
  };
  const auto type = static_cast<proto::MsgType>(d.payload[0]);
  if (d.src.tier() == Tier::MH) {
    switch (type) {
      case proto::MsgType::Data:
      case proto::MsgType::DataBatch:
      case proto::MsgType::DeliveryAck:
      case proto::MsgType::Membership:
      case proto::MsgType::Bundle:
        if (!track_membership(d.payload.data(), d.payload.size())) {
          metrics_.incr(names::kMalformed);
          return;
        }
        forward(cfg_.br);
        break;
      default:
        break;
    }
    return;
  }
  if (d.relay.valid()) {
    forward(d.relay);  // one member: its resend window or a floor push
    return;
  }
  switch (type) {
    case proto::MsgType::Data:
    case proto::MsgType::DataBatch:
      for (NodeId mh : attached_) forward(mh);
      break;
    case proto::MsgType::DeliveryAck:
    case proto::MsgType::CellFrame:
    case proto::MsgType::Bundle:
      if (!hand_out(d.payload)) metrics_.incr(names::kMalformed);
      break;
    default:
      break;
  }
}

bool ApRuntime::track_membership(const std::uint8_t* data, std::size_t size) {
  // An uplink Membership, alone or as a Bundle part, joins or leaves a
  // member to or from this cell. false when it does not decode.
  const auto type = static_cast<proto::MsgType>(data[0]);
  if (type == proto::MsgType::Bundle) {
    const auto parts = proto::bundle_parts(data, size);
    if (!parts) return false;
    return std::all_of(parts->begin(), parts->end(),
                       [&](const proto::BundlePart& p) {
                         return track_membership(p.data, p.size);
                       });
  }
  if (type != proto::MsgType::Membership) return true;
  const auto msg = proto::decode(data, size);
  if (!msg) return false;
  for (const auto& ev : msg->membership().events) {
    if (ev.ap == cfg_.self) {
      if (attached_set_.insert(ev.mh.v).second) attached_.push_back(ev.mh);
    } else if (attached_set_.erase(ev.mh.v) != 0) {
      attached_.erase(std::remove(attached_.begin(), attached_.end(), ev.mh),
                      attached_.end());
    }
  }
  return true;
}

bool ApRuntime::hand_out(const std::vector<std::uint8_t>& payload) {
  // Each member's share of a downlink frame: a CellFrame's batch for each
  // member it names (split_cell: the decoder's rules keep that batch no
  // larger than the frame), an ack for the member it names, plain data for
  // the whole cell. A member's parts leave in one datagram. false, and
  // nothing leaves, when any part is malformed.
  std::vector<std::pair<NodeId, std::vector<std::vector<std::uint8_t>>>> out;
  std::unordered_map<std::uint32_t, std::size_t> slot;  // member -> out index
  const auto give = [&](NodeId mh, std::vector<std::uint8_t> part) {
    const auto [it, fresh] = slot.try_emplace(mh.v, out.size());
    if (fresh) out.emplace_back(mh, std::vector<std::vector<std::uint8_t>>{});
    out[it->second].second.push_back(std::move(part));
  };
  const auto split = [&](const std::uint8_t* data, std::size_t size) {
    switch (static_cast<proto::MsgType>(data[0])) {
      case proto::MsgType::CellFrame: {
        auto batches = proto::split_cell(data, size);
        if (!batches) return false;
        for (proto::MemberBatch& b : *batches) {
          give(b.mh, std::move(b.payload));
        }
        return true;
      }
      case proto::MsgType::DeliveryAck: {
        const auto msg = proto::decode(data, size);
        if (!msg) return false;
        give(msg->ack().member, std::vector<std::uint8_t>(data, data + size));
        return true;
      }
      case proto::MsgType::Data:
      case proto::MsgType::DataBatch:
        for (NodeId mh : attached_) {
          give(mh, std::vector<std::uint8_t>(data, data + size));
        }
        return true;
      default:
        return true;  // nothing for the cell
    }
  };
  if (static_cast<proto::MsgType>(payload[0]) == proto::MsgType::Bundle) {
    const auto parts = proto::bundle_parts(payload.data(), payload.size());
    if (!parts) return false;
    for (const proto::BundlePart& p : *parts) {
      if (!split(p.data, p.size)) return false;
    }
  } else if (!split(payload.data(), payload.size())) {
    return false;
  }
  for (auto& [mh, parts] : out) {
    for (const auto& part :
         proto::pack_bundles(std::move(parts), kMaxPayloadBytes)) {
      tr_.send(mh, frame(cfg_.self, FrameKind::Proto, part));
    }
  }
  return true;
}

void ApRuntime::on_tick(std::int64_t now_us) { resend_ready(now_us); }

// ---------------------------------------------------------------------------
// MhRuntime

MhRuntime::MhRuntime(MhConfig cfg, Transport& tr)
    : SupervisedNode(cfg.self, cfg.ss, cfg.opts.handshake_resend_us, tr),
      cfg_(std::move(cfg)) {
  period_us_ = cfg_.rate_hz > 0
                   ? static_cast<std::int64_t>(1e6 / cfg_.rate_hz)
                   : 0;
}

stats::Histogram MhRuntime::latency_hist() const {
  util::MutexLock lock(lat_mu_);
  return live_lat_;
}

void MhRuntime::on_start(std::int64_t now_us) {
  next_ack_us_ = now_us + cfg_.opts.ack_period_us;
  // Announce attachment up the tree (redundant with boot membership, but it
  // exercises the membership path end to end on every run).
  post(proto::Message(proto::MembershipMsg{
      kRuntimeGroup, cfg_.self, {{cfg_.self, cfg_.ap}}}));
  send_ready(now_us);
  flush();
}

void MhRuntime::on_datagram(const Datagram& d, std::int64_t now_us) {
  if (d.kind == FrameKind::Control) {
    if (on_control(d)) next_submit_us_ = now_us + cfg_.submit_phase_us;
    return;
  }
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) {
    metrics_.incr(names::kMalformed);
    return;
  }
  if (msg->type() != proto::MsgType::Bundle) {
    handle_msg(*msg, now_us);
    return;
  }
  for (const proto::Message& part : msg->bundle().parts) {
    handle_msg(part, now_us);
  }
}

void MhRuntime::handle_msg(const proto::Message& msg, std::int64_t now_us) {
  const auto on_deliver = [&](const proto::DataMsg& m) { deliver(m, now_us); };
  switch (msg.type()) {
    case proto::MsgType::DataBatch:
      for (const proto::DataMsg& dm : msg.batch().entries) {
        const std::size_t dropped = cfg_.groups.multi()
                                        ? chain_.receive(dm, on_deliver)
                                        : ordered_.receive(dm, on_deliver);
        if (dropped > 0) metrics_.incr(names::kDuplicates, dropped);
      }
      break;
    case proto::MsgType::DeliveryAck: {
      const auto& ack = msg.ack();
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
      if (ack.member != cfg_.self) break;
      const auto skip = ordered_.skip_to(ack.watermark, on_deliver);
      if (skip.lost > 0) {
        metrics_.incr(names::kGapSkippedMsgs, skip.lost);
        metrics_.incr(names::kGapsSkipped, skip.gaps);
        record(obs::FrEvent::GapSkip, now_us, ack.watermark, skip.lost);
      }
      break;
    }
    default:
      break;
  }
}

void MhRuntime::deliver(const proto::DataMsg& msg, std::int64_t now_us) {
  // Total-order sanity: delivered gseqs must rise strictly. A violation is
  // a protocol bug, so it also arms a flight-recorder dump.
  if (!log_.empty() && msg.gseq <= log_.back().gseq) {
    record(obs::FrEvent::OrderViolation, now_us, msg.gseq, log_.back().gseq);
  }
  log_.push_back(DeliveredRec{msg.gseq, msg.source, msg.lseq});
  if (cfg_.opts.record_spans) deliver_times_us_.push_back(now_us);
  record(obs::FrEvent::Deliver, now_us, msg.gseq);
  metrics_.incr(names::kMhDelivered);
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
  util::MutexLock lock(lat_mu_);
  live_lat_.record(lat_us < 0 ? 0 : static_cast<std::uint64_t>(lat_us));
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
  record(obs::FrEvent::Submit, now_us, m.lseq);
  pending_.push_back(PendingSubmit{m, now_us, now_us, 0});
  post(proto::Message(m));
  next_submit_us_ += period_us_;
}

bool MhRuntime::submitting() const {
  return start_seen() && !stop_seen() && next_lseq_ < cfg_.msgs_to_send;
}

void MhRuntime::post(const proto::Message& msg) {
  outbox_.push_back(proto::encode(msg));
}

void MhRuntime::flush() {
  if (outbox_.empty()) return;
  for (const auto& payload :
       proto::pack_bundles(std::move(outbox_), kMaxPayloadBytes)) {
    tr_.send(cfg_.ap, frame(cfg_.self, FrameKind::Proto, payload));
  }
  outbox_.clear();
}

void MhRuntime::on_tick(std::int64_t now_us) {
  resend_ready(now_us);
  for (int burst = 0; burst < 8 && submitting() && now_us >= next_submit_us_;
       ++burst) {
    submit_one(now_us);
  }
  // Uplink ARQ: resubmit until the message comes back ordered. The budget
  // only expires at the queue head so later lseqs can't starve earlier ones.
  while (!pending_.empty() && pending_.front().attempts >= cfg_.opts.max_retx &&
         now_us - pending_.front().last_send_us >= cfg_.opts.retx_timeout_us) {
    pending_.pop_front();
    metrics_.incr(names::kUplinkDropped);
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
      post(proto::Message(p.msg));
      metrics_.incr(names::kUplinkRetx);
      record(obs::FrEvent::UplinkRetx, now_us, p.msg.lseq,
             static_cast<std::uint64_t>(p.attempts));
    }
  }
  // A due ack rides whatever this call sends the AP. A source with nothing
  // to send now holds it for its next submission when that is due within
  // one ack period, so acks never leave more often than once a period.
  const bool ack_waits = outbox_.empty() && submitting() &&
                         next_submit_us_ - now_us <= cfg_.opts.ack_period_us;
  if (now_us >= next_ack_us_ && !ack_waits) {
    const GlobalSeq wm =
        cfg_.groups.multi() ? chain_.tail() : ordered_.next_expected();
    post(proto::Message(proto::DeliveryAckMsg{kRuntimeGroup, cfg_.self, wm}));
    metrics_.incr(names::kAcksSent);
    next_ack_us_ = now_us + cfg_.opts.ack_period_us;
  }
  flush();
  if (!done_ && cfg_.expected_total > 0 &&
      delivered_count() >= cfg_.expected_total) {
    done_ = true;
    next_done_us_ = now_us;
  }
  if (done_ && !stop_seen() && now_us >= next_done_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Done, delivered_count()});
    next_done_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
}

// ---------------------------------------------------------------------------
// SsRuntime

SsRuntime::SsRuntime(SsConfig cfg, Transport& tr)
    : RoleNode(cfg.self, tr), cfg_(std::move(cfg)) {}

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
    metrics_.incr(names::kSsHeartbeats);
  }
}

void SsRuntime::on_tick(std::int64_t now_us) {
  if (now_us < next_bcast_us_) return;
  next_bcast_us_ = now_us + cfg_.opts.handshake_resend_us;
  if (stop_requested_.load(std::memory_order_acquire)) {
    broadcast(ControlMsg{ControlOp::Stop, 0});
    if (stop_rounds_ < kStopRounds && ++stop_rounds_ == kStopRounds) {
      mark_stopped();
    }
  } else if (started()) {
    broadcast(ControlMsg{ControlOp::Start, 0});  // covers a lost Start
  }
}

}  // namespace ringnet::runtime
