// Threaded runtime over the in-process transport twin: a tiny Figure-1
// deployment must boot through the supervisor handshake, deliver the whole
// scripted workload in total order, and survive scripted token loss (the
// per-hop ARQ and, when that is exhausted, the leader's regeneration
// watchdog). Plus direct single-threaded unit coverage: the MhRuntime
// reordering buffer and gap-skip accounting, and the batched ordered
// datapath (one DataBatch datagram per destination per handler call).

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/groups.hpp"
#include "proto/messages.hpp"
#include "ringnet_test.hpp"
#include "runtime/inproc_transport.hpp"
#include "runtime/node.hpp"
#include "runtime/orchestrator.hpp"

using namespace ringnet;
using namespace ringnet::runtime;

namespace {

LoopbackSpec tiny_spec() {
  LoopbackSpec spec;
  spec.num_brs = 1;
  spec.aps_per_br = 1;
  spec.mhs_per_ap = 2;
  spec.rate_hz = 100.0;
  spec.msgs_per_source = 8;
  spec.use_udp = false;
  return spec;
}

bool is_token_frame(const Datagram& d) {
  if (d.kind != FrameKind::Proto) return false;
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  return msg && msg->type() == proto::MsgType::Token;
}

proto::DataMsg ordered_data(GlobalSeq gseq, NodeId source, LocalSeq lseq) {
  proto::DataMsg m;
  m.gid = kRuntimeGroup;
  m.source = source;
  m.lseq = lseq;
  m.ordering_node = NodeId::make(Tier::BR, 0);
  m.gseq = gseq;
  m.epoch = 1;
  m.payload_size = 32;
  return m;
}

Datagram proto_datagram(const proto::Message& msg) {
  Datagram d;
  d.src = NodeId::make(Tier::BR, 0);
  d.kind = FrameKind::Proto;
  d.payload = proto::encode(msg);
  return d;
}

/// Ordered data travels only inside DataBatch frames: wrap the entries.
Datagram batch_datagram(std::vector<proto::DataMsg> entries) {
  return proto_datagram(
      proto::Message(proto::DataBatchMsg{std::move(entries)}));
}

/// The one-entry batch that carries a single ordered message.
Datagram ordered_datagram(const proto::DataMsg& msg) {
  return batch_datagram({msg});
}

proto::DataMsg chain_data(GlobalSeq gseq, GlobalSeq prev, NodeId source,
                          LocalSeq lseq) {
  proto::DataMsg m = ordered_data(gseq, source, lseq);
  m.groups.insert(GroupId{1});
  m.group_seqs[0] = lseq;
  m.prev_chain = prev;
  return m;
}

/// An MH submission as its AP relays it up to the BR.
Datagram uplink_datagram(NodeId ap, NodeId source, LocalSeq lseq,
                         const proto::GroupSet& groups = {}) {
  proto::DataMsg m;
  m.gid = kRuntimeGroup;
  m.source = source;
  m.lseq = lseq;
  m.payload_size = 32;
  m.groups = groups;
  Datagram d = proto_datagram(proto::Message(m));
  d.src = ap;
  return d;
}

Datagram member_ack_datagram(NodeId from, NodeId member, GlobalSeq wm) {
  Datagram d = proto_datagram(
      proto::Message(proto::DeliveryAckMsg{kRuntimeGroup, member, wm}));
  d.src = from;
  return d;
}

/// Every frame waiting in a node's mailbox, oldest first.
std::vector<Datagram> drain(Transport& tr) {
  std::vector<Datagram> out;
  while (auto d = tr.recv(0)) out.push_back(std::move(*d));
  return out;
}

std::optional<proto::DataBatchMsg> batch_of(const Datagram& d) {
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg || msg->type() != proto::MsgType::DataBatch) return std::nullopt;
  return msg->batch();
}

MhConfig chain_cfg(NodeId self) {
  MhConfig cfg;
  cfg.self = self;
  cfg.source_id = NodeId{2};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  cfg.msgs_to_send = 0;
  cfg.groups.count = 4;
  cfg.groups.groups_per_mh = 1;
  cfg.groups.dest_groups = 1;
  return cfg;
}

}  // namespace

// --- full deployment over InProc + NodeLoop --------------------------------

TEST(inproc_tiny_hierarchy_completes_in_order) {
  const auto spec = tiny_spec();
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK_EQ(res.n_mh, spec.n_mhs());
  for (const auto count : res.delivered_counts) {
    CHECK_EQ(count, spec.expected_total());
  }
  CHECK_EQ(res.counters.really_lost, 0u);
  CHECK_EQ(res.frames_malformed, 0u);
  CHECK(res.counters.tokens_held > 0);
}

TEST(token_loss_recovers_via_arq) {
  auto spec = tiny_spec();
  spec.num_brs = 2;  // a real ring: token frames cross between BRs
  // Lose the first two inter-BR token transmissions; the per-hop ARQ
  // must retransmit until one lands, with no order or loss impact.
  auto dropped = std::make_shared<std::atomic<int>>(0);
  spec.drop_hook = [dropped](NodeId from, NodeId to, const Datagram& d) {
    if (from.tier() == Tier::BR && to.tier() == Tier::BR &&
        is_token_frame(d) && dropped->load() < 2) {
      ++*dropped;
      return true;
    }
    return false;
  };
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK(dropped->load() >= 2);
  CHECK(res.counters.token_retx >= 2);
  CHECK_EQ(res.counters.really_lost, 0u);
  for (const auto count : res.delivered_counts) {
    CHECK_EQ(count, spec.expected_total());
  }
}

TEST(token_destroyed_recovers_via_leader_regeneration) {
  auto spec = tiny_spec();
  spec.num_brs = 2;
  // Shrink the watchdogs so exhausting the ARQ (max_retx attempts) and the
  // subsequent regeneration fit comfortably in a test budget.
  spec.opts.retx_timeout_us = 5'000;
  spec.opts.max_retx = 3;
  spec.opts.heartbeat_period_us = 10'000;
  // Swallow every inter-BR token frame until the sender has burned through
  // all ARQ attempts: the token dies on the wire, and only the leader's
  // regeneration watchdog can revive the ring.
  auto dropped = std::make_shared<std::atomic<int>>(0);
  const int kill_budget = 2 * (spec.opts.max_retx + 1);
  spec.drop_hook = [dropped, kill_budget](NodeId from, NodeId to,
                                          const Datagram& d) {
    if (from.tier() == Tier::BR && to.tier() == Tier::BR &&
        is_token_frame(d) && dropped->load() < kill_budget) {
      ++*dropped;
      return true;
    }
    return false;
  };
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK(res.counters.token_regenerated >= 1);
  CHECK_EQ(res.counters.really_lost, 0u);
  for (const auto count : res.delivered_counts) {
    CHECK_EQ(count, spec.expected_total());
  }
}

// --- MhRuntime unit coverage (single-threaded, no loop) --------------------

TEST(mh_reorders_out_of_order_gseq) {
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 0);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));  // ack sink

  MhConfig cfg;
  cfg.self = mh_id;
  cfg.source_id = NodeId{0};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  cfg.msgs_to_send = 0;
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  mh.on_datagram(ordered_datagram(ordered_data(1, src, 11)), 10);
  CHECK_EQ(mh.delivered_count(), 0u);  // holding for gseq 0
  mh.on_datagram(ordered_datagram(ordered_data(0, src, 10)), 20);
  CHECK_EQ(mh.delivered_count(), 2u);  // contiguous drain
  mh.on_datagram(ordered_datagram(ordered_data(2, src, 12)), 30);
  CHECK_EQ(mh.delivered_count(), 3u);

  const auto& log = mh.deliveries();
  CHECK_EQ(log.size(), 3u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    CHECK_EQ(log[i].gseq, i);
  }

  // Replays of anything already delivered or buffered only bump the
  // duplicate counter.
  mh.on_datagram(ordered_datagram(ordered_data(1, src, 11)), 40);
  CHECK_EQ(mh.delivered_count(), 3u);
  CHECK_EQ(mh.counters().duplicates, 1u);
}

TEST(mh_gap_skip_counts_really_lost) {
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 1);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));

  MhConfig cfg;
  cfg.self = mh_id;
  cfg.source_id = NodeId{1};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  mh.on_datagram(ordered_datagram(ordered_data(0, src, 0)), 10);
  // gseq 1,2 never arrive; 3 is buffered beyond the gap.
  mh.on_datagram(ordered_datagram(ordered_data(3, src, 3)), 20);
  CHECK_EQ(mh.delivered_count(), 1u);

  // The ordering BR advances the floor past the pruned range: the MH must
  // account the two missing messages as really lost (one contiguous gap)
  // and then drain the buffered gseq 3.
  proto::DeliveryAckMsg floor_advance;
  floor_advance.gid = kRuntimeGroup;
  floor_advance.member = mh_id;
  floor_advance.watermark = 3;
  mh.on_datagram(proto_datagram(proto::Message(floor_advance)), 30);

  CHECK_EQ(mh.delivered_count(), 2u);
  CHECK_EQ(mh.counters().really_lost, 2u);
  CHECK_EQ(mh.counters().gaps_skipped, 1u);
  const auto& log = mh.deliveries();
  CHECK_EQ(log.back().gseq, 3u);
}

TEST(mh_chain_merges_repaired_link_on_resend) {
  // Chain-splice regression: when the BR finds a predecessor unrecoverable
  // it splices it out and resends the successor with a rewritten (lower)
  // prev_chain. The member already holds that successor from the original
  // transmission — dropping the resend as a duplicate would wedge the
  // chain forever.
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 2);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));
  MhRuntime mh(chain_cfg(mh_id), *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  // gseq 5 chained behind coordinate 3: its predecessor (gseq 2) was lost
  // on the downlink, so the frame is held undeliverable.
  mh.on_datagram(ordered_datagram(chain_data(5, 3, src, 1)), 10);
  CHECK_EQ(mh.delivered_count(), 0u);
  // A byte-identical duplicate is dropped and changes nothing.
  mh.on_datagram(ordered_datagram(chain_data(5, 3, src, 1)), 20);
  CHECK_EQ(mh.delivered_count(), 0u);
  CHECK_EQ(mh.counters().duplicates, 1u);
  // The splice resend carries the repaired link: the held copy must adopt
  // the lower link and drain.
  mh.on_datagram(ordered_datagram(chain_data(5, 0, src, 1)), 30);
  CHECK_EQ(mh.delivered_count(), 1u);
  CHECK_EQ(mh.deliveries().back().gseq, 5u);
  // The chain continues from the new tail (coordinate 6).
  mh.on_datagram(ordered_datagram(chain_data(9, 6, src, 2)), 40);
  CHECK_EQ(mh.delivered_count(), 2u);
  // A stale resend of the settled coordinate stays a plain duplicate.
  mh.on_datagram(ordered_datagram(chain_data(5, 3, src, 1)), 50);
  CHECK_EQ(mh.delivered_count(), 2u);
  CHECK_EQ(mh.counters().duplicates, 2u);
}

TEST(mh_chain_hold_queue_is_bounded) {
  // A member wedged behind a missing head must not accrete unbounded held
  // frames: past the cap the farthest-future frame is shed (the BR's
  // ack-driven resend replays it once the tail catches up).
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 3);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));
  MhRuntime mh(chain_cfg(mh_id), *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  // gseq 1 (coordinate 2) never arrives; 4096 successors pile up held,
  // each linked to its immediate predecessor's coordinate.
  const GlobalSeq cap = 4096;
  for (GlobalSeq g = 2; g < 2 + cap; ++g) {
    mh.on_datagram(ordered_datagram(chain_data(g, g, src, g)), 10);
  }
  CHECK_EQ(mh.delivered_count(), 0u);
  CHECK_EQ(mh.counters().duplicates, 0u);
  // One past the cap: shed instead of held.
  const GlobalSeq over = 2 + cap;
  mh.on_datagram(ordered_datagram(chain_data(over, over, src, over)), 20);
  CHECK_EQ(mh.counters().duplicates, 1u);
  // The missing head arrives: everything held drains in chain order; only
  // the shed frame is absent (a later resend would replay it).
  mh.on_datagram(ordered_datagram(chain_data(1, 0, src, 1)), 30);
  CHECK_EQ(mh.delivered_count(), cap + 1);
  CHECK_EQ(mh.deliveries().back().gseq, 2 + cap - 1);
}

// --- flight recorder through the live roles --------------------------------

TEST(mh_flight_recorder_wraps_under_load) {
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 4);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));

  MhConfig cfg;
  cfg.self = mh_id;
  cfg.source_id = NodeId{4};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  const std::uint64_t n = obs::FlightRecorder::kDefaultCapacity + 50;
  for (std::uint64_t g = 0; g < n; ++g) {
    mh.on_datagram(ordered_datagram(ordered_data(g, src, g)),
                   static_cast<std::int64_t>(10 * g));
  }
  CHECK_EQ(mh.delivered_count(), n);
  const auto& fr = mh.flight_recorder();
  CHECK_EQ(fr.size(), fr.capacity());  // ring is full and wrapped
  CHECK(fr.total_recorded() >= n);     // every delivery was recorded
  const auto snap = mh.flight_recorder().snapshot();
  CHECK_EQ(snap.size(), fr.capacity());
  // Newest retained event is the last delivery; the oldest deliveries were
  // overwritten.
  CHECK(snap.back().kind == obs::FrEvent::Deliver);
  CHECK_EQ(snap.back().a, n - 1);
  // Routine traffic never arms an auto-dump, but an on-demand dump (the
  // daemon's SIGUSR1 path) renders the retained window as one JSON line.
  CHECK(!mh.flight_recorder().take_dump_request());
  const std::string json = fr.dump_json("mh[4]", "sigusr1");
  CHECK(json.find("\"reason\":\"sigusr1\"") != std::string::npos);
  CHECK(json.find("\"ev\":\"deliver\"") != std::string::npos);
}

TEST(mh_chain_regression_rejected_without_dump) {
  // The receive layer rejects any chain frame whose coordinate is at or
  // below the live tail, so a regressed gseq can never reach deliver()'s
  // order-violation arm from the wire — the auto-dump stays quiet and the
  // frame is accounted as a duplicate. (The arming semantics themselves
  // are unit-covered in test_obs; deliver()'s check is defense-in-depth
  // against a future receive-path bug.)
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 5);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));
  MhRuntime mh(chain_cfg(mh_id), *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  mh.on_datagram(ordered_datagram(chain_data(5, 0, src, 1)), 10);
  CHECK_EQ(mh.delivered_count(), 1u);
  CHECK(!mh.flight_recorder().take_dump_request());
  // gseq 3 (coordinate 4, below the tail at 6): rejected, not delivered.
  mh.on_datagram(ordered_datagram(chain_data(3, 6, src, 2)), 20);
  CHECK_EQ(mh.delivered_count(), 1u);
  CHECK_EQ(mh.counters().duplicates, 1u);
  CHECK(!mh.flight_recorder().take_dump_request());
  const std::string json = mh.flight_recorder().dump_json("mh[5]", "manual");
  CHECK(json.find("\"ev\":\"order_violation\"") == std::string::npos);
}

TEST(br_token_loss_arms_watchdog_dump) {
  // Scripted token loss at the BR: the peer BR never acks, the forward ARQ
  // burns its budget (token_dropped arms a dump), and the leader's
  // regeneration watchdog revives the ring (token_regen arms another).
  InProcNet net;
  const auto br0 = NodeId::make(Tier::BR, 0);
  const auto br1 = NodeId::make(Tier::BR, 1);
  const auto ss = NodeId{0x00FFFFFEu};
  auto tr = net.attach(br0);
  (void)net.attach(br1);  // silent peer: every token transmission is lost
  (void)net.attach(ss);

  BrConfig cfg;
  cfg.self = br0;
  cfg.ss = ss;
  cfg.ring = {br0, br1};
  cfg.opts.token_hold_us = 200;
  cfg.opts.retx_timeout_us = 1'000;
  cfg.opts.max_retx = 2;
  cfg.opts.heartbeat_period_us = 2'000;
  cfg.opts.heartbeat_miss_limit = 4;
  BrRuntime br(cfg, *tr);
  br.on_start(0);

  const std::int64_t horizon =
      cfg.opts.token_regen_timeout_us() + 5 * cfg.opts.retx_timeout_us;
  bool drop_dump_armed = false;
  for (std::int64_t t = 100; t <= horizon; t += 100) {
    br.on_tick(t);
    if (br.counters().token_dropped >= 1 && !drop_dump_armed) {
      // ARQ exhaustion armed the auto-dump before regeneration happened.
      drop_dump_armed = br.flight_recorder().take_dump_request();
    }
  }
  CHECK(drop_dump_armed);
  const auto c = br.counters();
  CHECK(c.token_retx >= 2);
  CHECK(c.token_dropped >= 1);
  CHECK(c.token_regenerated >= 1);
  CHECK_EQ(br.epoch(), 2u);
  // Regeneration re-armed the dump; its JSON names the watchdog event.
  CHECK(br.flight_recorder().take_dump_request());
  const std::string json = br.flight_recorder().dump_json("br[0]", "auto");
  CHECK(json.find("\"ev\":\"token_dropped\"") != std::string::npos);
  CHECK(json.find("\"ev\":\"token_regen\"") != std::string::npos);
  // The unified registry reports the same vocabulary the sim uses.
  CHECK_EQ(br.metrics().counter("token.dropped"), c.token_dropped);
  CHECK_EQ(br.metrics().counter("token.regenerated"), c.token_regenerated);
}

// --- batched ordered datapath ----------------------------------------------

namespace {

const NodeId kBr0 = NodeId::make(Tier::BR, 0);
const NodeId kBr1 = NodeId::make(Tier::BR, 1);
const NodeId kAp0 = NodeId::make(Tier::AP, 0);
const NodeId kAp1 = NodeId::make(Tier::AP, 1);
const NodeId kMh0 = NodeId::make(Tier::MH, 0);
const NodeId kMh1 = NodeId::make(Tier::MH, 1);
const NodeId kSs{0x00FFFFFEu};

/// BR 0 of a two-BR ring, leader, serving AP 0 (and AP 1 when asked).
BrConfig leader_cfg(std::vector<NodeId> own_aps) {
  BrConfig cfg;
  cfg.self = kBr0;
  cfg.ss = kSs;
  cfg.ring = {kBr0, kBr1};
  cfg.own_aps = std::move(own_aps);
  return cfg;
}

}  // namespace

TEST(br_hold_sends_one_batch_per_destination) {
  InProcNet net;
  auto tr = net.attach(kBr0);
  auto peer = net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  auto cell1 = net.attach(kAp1);
  (void)net.attach(kSs);
  BrRuntime br(leader_cfg({kAp0, kAp1}), *tr);
  br.on_start(0);  // the leader seeds the token and holds it

  const std::uint64_t n = 12;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(uplink_datagram(kAp0, NodeId{5}, l), 10);
  }
  // Past the hold deadline: one tick assigns the staged uplinks and then
  // releases the token, which must reach the peer after the batch.
  br.on_tick(250);
  CHECK_EQ(br.assigned(), n);
  for (InProcTransport* t : {cell0.get(), cell1.get(), peer.get()}) {
    const auto frames = drain(*t);
    const bool at_peer = t == peer.get();
    CHECK_EQ(frames.size(), at_peer ? 2u : 1u);
    if (frames.empty()) continue;
    if (at_peer && frames.size() == 2) CHECK(is_token_frame(frames[1]));
    const auto b = batch_of(frames[0]);
    CHECK(b.has_value());
    if (!b) continue;
    CHECK(!frames[0].relay.valid());  // cell broadcast / peer copy
    CHECK_EQ(b->entries.size(), n);
    for (std::size_t i = 0; i < b->entries.size(); ++i) {
      CHECK_EQ(b->entries[i].gseq, i);
      CHECK_EQ(b->entries[i].lseq, i);
      CHECK_EQ(b->entries[i].ordering_node.v, kBr0.v);
    }
  }
}

TEST(br_batch_splits_at_the_datagram_limit) {
  // Worst-case entries (four destination groups, so a full 97-byte body):
  // a hold too big for one datagram splits into frames that each fit, and
  // only where the next entry would not fit.
  InProcNet net;
  auto tr = net.attach(kBr0);
  auto peer = net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0});
  cfg.groups.count = 4;
  cfg.groups.groups_per_mh = 4;
  cfg.groups.dest_groups = 4;
  cfg.members = {kMh0};
  cfg.member_ap = {kAp0};
  const proto::GroupSet all = core::member_groups(0, cfg.groups);
  CHECK_EQ(all.size(), proto::kMaxDataGroups);
  BrRuntime br(cfg, *tr);
  br.on_start(0);

  const std::uint64_t n = 1500;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(uplink_datagram(kAp0, NodeId{9}, l, all), 10);
  }
  br.on_tick(100);
  CHECK_EQ(br.assigned(), n);
  for (InProcTransport* t : {cell0.get(), peer.get()}) {
    const auto frames = drain(*t);
    CHECK(frames.size() > 1);
    std::uint64_t next = 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::size_t bytes = kFrameHeaderBytes + frames[f].payload.size();
      CHECK(bytes <= kMaxDatagramBytes);
      if (f + 1 < frames.size()) {
        CHECK(bytes + 1 + proto::kMaxDataBodyBytes > kMaxDatagramBytes);
      }
      const auto b = batch_of(frames[f]);
      CHECK(b.has_value());
      if (!b) continue;
      for (const proto::DataMsg& m : b->entries) {
        CHECK_EQ(m.gseq, next);
        if (t == cell0.get()) {
          // Chain-mode relay to the member, linked to its predecessor.
          CHECK_EQ(frames[f].relay.v, kMh0.v);
          CHECK_EQ(m.prev_chain, next);
        }
        ++next;
      }
    }
    CHECK_EQ(next, n);
  }
}

TEST(mh_applies_batch_entries_in_order_counting_duplicates) {
  InProcNet net;
  (void)net.attach(kAp0);
  auto tr = net.attach(kMh0);
  MhConfig cfg;
  cfg.self = kMh0;
  cfg.source_id = NodeId{0};
  cfg.ap = kAp0;
  cfg.ss = kSs;
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);
  const auto src = NodeId{3};
  // Reordered and duplicated entries inside one frame.
  std::vector<proto::DataMsg> entries;
  for (const GlobalSeq g : {2, 0, 1, 0, 2}) {
    entries.push_back(ordered_data(g, src, g));
  }
  mh.on_datagram(batch_datagram(entries), 10);
  CHECK_EQ(mh.delivered_count(), 3u);
  CHECK_EQ(mh.counters().duplicates, 2u);
  for (std::size_t i = 0; i < mh.deliveries().size(); ++i) {
    CHECK_EQ(mh.deliveries()[i].gseq, i);
  }

  // Chain mode: a frame held on a missing link drains once the link lands
  // later in the same batch; a repeat of it is a duplicate.
  auto tr1 = net.attach(kMh1);
  MhRuntime chain(chain_cfg(kMh1), *tr1);
  chain.on_start(0);
  std::vector<proto::DataMsg> links;
  links.push_back(chain_data(5, 3, src, 1));
  links.push_back(chain_data(2, 0, src, 0));
  links.push_back(chain_data(5, 3, src, 1));
  links.push_back(chain_data(9, 6, src, 2));
  chain.on_datagram(batch_datagram(links), 10);
  CHECK_EQ(chain.delivered_count(), 3u);
  CHECK_EQ(chain.counters().duplicates, 1u);
  CHECK_EQ(chain.deliveries().back().gseq, 9u);
}

TEST(br_ack_driven_resends_leave_as_one_batch) {
  InProcNet net;
  auto tr = net.attach(kBr0);
  auto peer = net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0});
  cfg.members = {kMh0};
  cfg.member_ap = {kAp0};
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  const std::uint64_t n = 10;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(uplink_datagram(kAp0, NodeId{7}, l), 10);
  }
  br.on_tick(100);
  CHECK_EQ(drain(*cell0).size(), 1u);
  CHECK_EQ(drain(*peer).size(), 1u);

  // The member acks watermark 0 until the BR counts it stalled, then the
  // whole resend window goes to it in one frame.
  for (int k = 0; k < 4; ++k) {
    br.on_datagram(member_ack_datagram(kAp0, kMh0, 0), 120 + k);
  }
  const auto resent = drain(*cell0);
  CHECK_EQ(resent.size(), 1u);
  if (!resent.empty()) {
    CHECK_EQ(resent[0].relay.v, kMh0.v);
    const auto b = batch_of(resent[0]);
    CHECK(b.has_value());
    if (b) CHECK_EQ(b->entries.size(), n);
  }
  CHECK_EQ(br.counters().retransmits, n);

  // A peer's pull for a hole is served the same way.
  br.on_datagram(member_ack_datagram(kBr1, kBr1, 0), 200);
  const auto pulled = drain(*peer);
  CHECK_EQ(pulled.size(), 1u);
  if (!pulled.empty()) {
    const auto b = batch_of(pulled[0]);
    CHECK(b.has_value());
    if (b) CHECK_EQ(b->entries.size(), n);
  }
  CHECK_EQ(br.counters().retransmits, 2 * n);
}

TEST(ap_relays_batch_bytes_untouched) {
  InProcNet net;
  auto tr = net.attach(kAp0);
  auto m0 = net.attach(kMh0);
  auto m1 = net.attach(kMh1);
  (void)net.attach(kSs);
  ApConfig cfg;
  cfg.self = kAp0;
  cfg.br = kBr0;
  cfg.ss = kSs;
  cfg.attached = {kMh0, kMh1};
  ApRuntime ap(cfg, *tr);
  ap.on_start(0);
  const auto src = NodeId{3};
  std::vector<proto::DataMsg> entries;
  entries.push_back(ordered_data(0, src, 0));
  entries.push_back(chain_data(4, 1, src, 1));
  Datagram in = batch_datagram(entries);
  // Relay target: exactly that member gets the frame.
  in.relay = kMh1;
  ap.on_datagram(in, 10);
  CHECK(drain(*m0).empty());
  const auto one = drain(*m1);
  CHECK_EQ(one.size(), 1u);
  if (!one.empty()) {
    CHECK(one[0].payload == in.payload);
    CHECK_EQ(one[0].src.v, kAp0.v);
  }
  // No relay target: the whole cell gets it.
  in.relay = NodeId::invalid();
  ap.on_datagram(in, 20);
  for (InProcTransport* t : {m0.get(), m1.get()}) {
    const auto got = drain(*t);
    CHECK_EQ(got.size(), 1u);
    if (!got.empty()) CHECK(got[0].payload == in.payload);
  }
}

TEST(loopback_spans_capture_all_stages) {
  auto spec = tiny_spec();
  spec.opts.record_spans = true;
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.spans.empty());
  const auto expected =
      static_cast<std::uint64_t>(spec.n_mhs()) * spec.expected_total();
  CHECK_EQ(res.spans.total().count(), expected);
  for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
    CHECK_EQ(res.spans.stage(static_cast<obs::SpanStage>(i)).count(),
             expected);
  }
}

TEST_MAIN()
