// Threaded runtime over the in-process transport twin: a tiny Figure-1
// deployment must boot through the supervisor handshake, deliver the whole
// scripted workload in total order, and survive scripted token loss (the
// per-hop ARQ and, when that is exhausted, the leader's regeneration
// watchdog). The deployment both hosts boot is checked field by field.
// Plus direct single-threaded unit coverage: the MhRuntime reordering
// buffer and gap-skip accounting, the batched datapath (one datagram per
// next hop per handler call: a DataBatch, or a multi-group AP's CellFrame,
// which the AP splits per member, with the token and the acks riding in
// Bundles), and the counters a regenerated token starts from.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/groups.hpp"
#include "obs/names.hpp"
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

/// The messages a datagram carries: a Bundle's parts in order, or the one
/// message; nothing when it does not decode.
std::vector<proto::Message> parts_of(const Datagram& d) {
  if (d.kind != FrameKind::Proto) return {};
  auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) return {};
  if (msg->type() != proto::MsgType::Bundle) return {std::move(*msg)};
  return msg->bundle().parts;
}

/// The datagram carries a message of `type`, alone or in a Bundle.
bool carries(const Datagram& d, proto::MsgType type) {
  const auto parts = parts_of(d);
  return std::any_of(parts.begin(), parts.end(), [type](const auto& m) {
    return m.type() == type;
  });
}

bool is_token_frame(const Datagram& d) {
  return carries(d, proto::MsgType::Token);
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

std::optional<proto::CellFrameMsg> cell_of(const Datagram& d) {
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg || msg->type() != proto::MsgType::CellFrame) return std::nullopt;
  return msg->cell();
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

// --- the Figure-1 deployment that run_loopback and ringnet_node boot -------

TEST(deployment_wires_the_figure1_shape) {
  LoopbackSpec spec;
  spec.num_brs = 2;
  spec.aps_per_br = 2;
  spec.mhs_per_ap = 2;
  spec.rate_hz = 100.0;
  spec.msgs_per_source = 3;
  spec.time_scale = 2.0;  // folded in: 50 Hz, so a 20 ms source period
  const Deployment dep = make_deployment(spec);
  const auto br = [](std::uint32_t i) { return NodeId::make(Tier::BR, i); };
  const auto ap = [](std::uint32_t i) { return NodeId::make(Tier::AP, i); };
  const auto mh = [](std::uint32_t i) { return NodeId::make(Tier::MH, i); };

  CHECK_EQ(dep.brs.size(), std::size_t{2});
  CHECK_EQ(dep.aps.size(), std::size_t{4});
  CHECK_EQ(dep.mhs.size(), std::size_t{8});
  const BrConfig& br1 = dep.brs[1];
  CHECK(br1.self == br(1));
  CHECK(br1.ss == dep.ss.self);
  CHECK(br1.ring == (std::vector<NodeId>{br(0), br(1)}));
  CHECK(br1.own_aps == (std::vector<NodeId>{ap(2), ap(3)}));
  CHECK(br1.members == (std::vector<NodeId>{mh(4), mh(5), mh(6), mh(7)}));
  CHECK(br1.member_ap == (std::vector<NodeId>{ap(2), ap(2), ap(3), ap(3)}));
  CHECK(dep.aps[3].self == ap(3));
  CHECK(dep.aps[3].br == br(1));
  CHECK(dep.aps[3].attached == (std::vector<NodeId>{mh(6), mh(7)}));
  for (std::uint32_t m = 0; m < 8; ++m) {
    const MhConfig& cfg = dep.mhs[m];
    CHECK(cfg.self == mh(m));
    CHECK(cfg.source_id == NodeId{m});
    CHECK(cfg.ap == ap(m / 2));
    CHECK_NEAR(cfg.rate_hz, 50.0, 1e-9);
    CHECK_EQ(cfg.msgs_to_send, 3u);
    CHECK_EQ(cfg.expected_total, std::uint64_t{8 * 3});
    CHECK_EQ(cfg.submit_phase_us, std::int64_t{m} * 20'000 / 8);
  }
  CHECK_EQ(dep.mhs[1].opts.retx_timeout_us,
           2 * RuntimeOptions{}.retx_timeout_us);
  std::vector<NodeId> all = {br(0), br(1)};
  for (std::uint32_t a = 0; a < 4; ++a) all.push_back(ap(a));
  for (std::uint32_t m = 0; m < 8; ++m) all.push_back(mh(m));
  CHECK(dep.ss.all_nodes == all);
  CHECK_EQ(dep.ss.expected_ready, std::size_t{14});
  CHECK_EQ(dep.ss.expected_done, std::size_t{8});

  // Multi-group: each MH expects its destined subsequence, and the
  // supervisor waits only for MHs that expect something. With one message
  // per source over 8 groups, some MH is destined none.
  spec.groups.count = 8;
  spec.groups.groups_per_mh = 1;
  spec.groups.dest_groups = 1;
  spec.msgs_per_source = 1;
  const Deployment multi = make_deployment(spec);
  std::size_t expecting = 0;
  for (std::size_t m = 0; m < multi.mhs.size(); ++m) {
    CHECK_EQ(multi.mhs[m].expected_total, spec.expected_at(m));
    expecting += spec.expected_at(m) > 0 ? 1 : 0;
  }
  CHECK(expecting < multi.mhs.size());
  CHECK_EQ(multi.ss.expected_done, expecting);
}

// --- full deployment over InProc + NodeLoop --------------------------------

TEST(inproc_tiny_hierarchy_completes_in_order) {
  const auto spec = tiny_spec();
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK_EQ(res.n_mh, spec.n_mhs());
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    CHECK_EQ(res.log.records(m).size(), spec.expected_at(m));
  }
  CHECK_EQ(res.metrics.counter(obs::names::kGapSkippedMsgs), 0u);
  CHECK_EQ(res.frames_malformed, 0u);
  CHECK(res.metrics.counter(obs::names::kTokenHeld) > 0);
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
  CHECK(res.metrics.counter(obs::names::kTokenRetx) >= 2);
  CHECK_EQ(res.metrics.counter(obs::names::kGapSkippedMsgs), 0u);
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    CHECK_EQ(res.log.records(m).size(), spec.expected_at(m));
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
  CHECK(res.metrics.counter(obs::names::kTokenRegenerated) >= 1);
  CHECK_EQ(res.metrics.counter(obs::names::kGapSkippedMsgs), 0u);
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    CHECK_EQ(res.log.records(m).size(), spec.expected_at(m));
  }
}

TEST(mh_delivered_counter_matches_delivery_log) {
  // delivered_count() reads the MH's registry counter, mh.delivered, the
  // delivery metric the sim oracle reports: the merged counter counts
  // exactly the logged deliveries, and the per-MH logs hold the derived
  // expectation.
  auto spec = tiny_spec();
  spec.mhs_per_ap = 4;
  spec.groups.count = 2;
  spec.groups.groups_per_mh = 1;
  spec.groups.dest_groups = 1;
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  std::uint64_t sum = 0;
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    CHECK_EQ(res.log.records(m).size(), spec.expected_at(m));
    sum += res.log.records(m).size();
  }
  CHECK_EQ(res.metrics.counter(obs::names::kMhDelivered), sum);
  CHECK_EQ(sum, res.expected_total);
  CHECK(sum > 0);
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
  CHECK_EQ(mh.metrics().counter(obs::names::kMhDelivered), 3u);

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
  CHECK_EQ(mh.metrics().counter(obs::names::kGapSkippedMsgs), 2u);
  CHECK_EQ(mh.metrics().counter(obs::names::kGapsSkipped), 1u);
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
  CHECK_EQ(br.metrics().counter(obs::names::kTokenDropped), c.token_dropped);
  CHECK_EQ(br.metrics().counter(obs::names::kTokenRegenerated),
           c.token_regenerated);
}

TEST(ss_counts_itself_stopped_after_four_stop_rounds) {
  // The daemon ends every role on stop_seen(); the supervisor's turns true
  // once its Stop broadcast has gone out four times, enough to cover a
  // lost one.
  InProcNet net;
  const auto ss_id = NodeId{0x00FFFFFEu};
  const auto br0 = NodeId::make(Tier::BR, 0);
  auto tr = net.attach(ss_id);
  auto peer = net.attach(br0);
  SsConfig cfg;
  cfg.self = ss_id;
  cfg.all_nodes = {br0};
  SsRuntime ss(cfg, *tr);
  ss.on_start(0);
  ss.request_stop();
  const std::int64_t period = cfg.opts.handshake_resend_us;
  for (std::int64_t round = 1; round <= 4; ++round) {
    CHECK(!ss.stop_seen());
    ss.on_tick(round * period);
  }
  CHECK(ss.stop_seen());
  std::size_t stops = 0;
  for (const Datagram& d : drain(*peer)) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (d.kind == FrameKind::Control && ctl && ctl->op == ControlOp::Stop) {
      ++stops;
    }
  }
  CHECK_EQ(stops, std::size_t{4});
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
  BrConfig cfg = leader_cfg({kAp0, kAp1});
  BrRuntime br(cfg, *tr);
  br.on_start(0);  // the leader seeds the token and holds it

  const std::uint64_t n = 12;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(uplink_datagram(kAp0, NodeId{5}, l), 10);
  }
  // Past the hold deadline: one tick assigns the staged uplinks and then
  // releases the token. Each cell gets the batch; the peer gets one
  // datagram whose parts are the batch, then the token.
  br.on_tick(250);
  CHECK_EQ(br.assigned(), n);
  const auto check_batch = [&](const proto::Message& m) {
    CHECK(m.type() == proto::MsgType::DataBatch);
    if (m.type() != proto::MsgType::DataBatch) return;
    const auto& entries = m.batch().entries;
    CHECK_EQ(entries.size(), n);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      CHECK_EQ(entries[i].gseq, i);
      CHECK_EQ(entries[i].lseq, i);
      CHECK_EQ(entries[i].ordering_node.v, kBr0.v);
    }
  };
  for (InProcTransport* t : {cell0.get(), cell1.get()}) {
    const auto frames = drain(*t);
    CHECK_EQ(frames.size(), 1u);
    if (frames.empty()) continue;
    CHECK(!frames[0].relay.valid());  // cell broadcast
    const auto parts = parts_of(frames[0]);
    CHECK_EQ(parts.size(), 1u);
    if (!parts.empty()) check_batch(parts[0]);
  }
  const auto sent = drain(*peer);
  CHECK_EQ(sent.size(), 1u);
  if (sent.empty()) return;
  CHECK(!sent[0].relay.valid());
  const auto parts = parts_of(sent[0]);
  CHECK_EQ(parts.size(), 2u);
  if (parts.size() != 2) return;
  check_batch(parts[0]);
  CHECK(parts[1].type() == proto::MsgType::Token);

  // The peer never acks: the forward ARQ resends the same datagram, so the
  // resend carries the assignments too.
  br.on_tick(250 + cfg.opts.retx_timeout_us);
  CHECK_EQ(br.counters().token_retx, 1u);
  const auto resent = drain(*peer);
  CHECK_EQ(resent.size(), 1u);
  if (!resent.empty()) CHECK(resent[0].payload == sent[0].payload);
}

TEST(br_accept_acks_the_token_in_its_batch_to_the_sender) {
  // A follower takes the token from BR 0 while uplinks wait in its WQ: the
  // accept assigns them, and BR 0 gets one datagram, the TokenAck and the
  // batch of those assignments.
  InProcNet net;
  auto tr = net.attach(kBr1);
  auto br0 = net.attach(kBr0);
  (void)net.attach(kAp1);
  (void)net.attach(kSs);
  BrConfig cfg;
  cfg.self = kBr1;
  cfg.ss = kSs;
  cfg.ring = {kBr0, kBr1};
  cfg.own_aps = {kAp1};
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  const std::uint64_t n = 3;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(uplink_datagram(kAp1, NodeId{6}, l), 10);
  }
  CHECK(drain(*br0).empty());
  proto::OrderingToken token(kRuntimeGroup, 1);
  token.set_serial(1);
  Datagram in = proto_datagram(proto::Message(token));
  in.src = kBr0;
  br.on_datagram(in, 20);
  CHECK_EQ(br.assigned(), n);
  const auto sent = drain(*br0);
  CHECK_EQ(sent.size(), 1u);
  if (sent.empty()) return;
  const auto parts = parts_of(sent[0]);
  CHECK_EQ(parts.size(), 2u);
  if (parts.size() != 2) return;
  CHECK(parts[0].type() == proto::MsgType::TokenAck);
  CHECK_EQ(parts[0].token_ack().serial, 1u);
  CHECK(parts[1].type() == proto::MsgType::DataBatch);
  if (parts[1].type() == proto::MsgType::DataBatch) {
    CHECK_EQ(parts[1].batch().entries.size(), n);
  }
}

namespace {

/// A two-member cell under the leader in multi-group mode: both members
/// are in both groups, so every message is destined to both. MH 0 hosts
/// source 0.
BrConfig member_source_cfg() {
  BrConfig cfg = leader_cfg({kAp0});
  cfg.groups.count = 2;
  cfg.groups.groups_per_mh = 2;
  cfg.groups.dest_groups = 1;
  cfg.members = {kMh0, kMh1};
  cfg.member_ap = {kAp0, kAp0};
  return cfg;
}

/// The one DeliveryAck among a datagram's parts.
std::optional<proto::DeliveryAckMsg> ack_in(const Datagram& d) {
  for (const proto::Message& m : parts_of(d)) {
    if (m.type() == proto::MsgType::DeliveryAck) return m.ack();
  }
  return std::nullopt;
}

}  // namespace

TEST(br_submit_ack_rides_the_cell_frame_that_names_the_source) {
  InProcNet net;
  auto tr = net.attach(kBr0);
  (void)net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  const BrConfig cfg = member_source_cfg();
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  const NodeId src{0};  // MH 0's source
  br.on_datagram(
      uplink_datagram(kAp0, src, 0, core::dest_groups(src, 0, cfg.groups)),
      10);
  // Accepted but not yet assigned: the ack waits for a frame to ride.
  CHECK(drain(*cell0).empty());
  br.on_tick(100);  // assigns and forwards: the cell frame names MH 0
  const auto frames = drain(*cell0);
  CHECK_EQ(frames.size(), 1u);
  if (frames.empty()) return;
  CHECK(!frames[0].relay.valid());
  const auto parts = parts_of(frames[0]);
  CHECK_EQ(parts.size(), 2u);
  const auto ack = ack_in(frames[0]);
  CHECK(ack.has_value());
  if (ack) {
    CHECK_EQ(ack->member.v, kMh0.v);
    CHECK_EQ(ack->watermark, 1u);
  }
  CHECK(carries(frames[0], proto::MsgType::CellFrame));
  for (const proto::Message& m : parts) {
    if (m.type() != proto::MsgType::CellFrame) continue;
    const auto& members = m.cell().members;
    CHECK(std::any_of(members.begin(), members.end(),
                      [](const auto& mem) { return mem.mh == kMh0; }));
  }
  // Nothing is left waiting: a full ack period later no ack leaves.
  br.on_tick(100 + cfg.opts.ack_period_us);
  for (const Datagram& d : drain(*cell0)) CHECK(!ack_in(d).has_value());
}

TEST(br_submit_ack_leaves_alone_after_one_ack_period) {
  // A follower without the token forwards nothing, so the source's ack has
  // no frame to ride: it leaves alone once it has waited one ack period,
  // addressed by its member and not by a relay target. A duplicate is
  // acked in the call that sees it.
  InProcNet net;
  auto tr = net.attach(kBr1);
  (void)net.attach(kBr0);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = member_source_cfg();
  cfg.self = kBr1;
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  const NodeId src{0};
  const auto groups = core::dest_groups(src, 0, cfg.groups);
  br.on_datagram(uplink_datagram(kAp0, src, 0, groups), 10);
  br.on_tick(10 + cfg.opts.ack_period_us - 1);
  CHECK(drain(*cell0).empty());
  br.on_tick(10 + cfg.opts.ack_period_us);
  auto frames = drain(*cell0);
  CHECK_EQ(frames.size(), 1u);
  if (!frames.empty()) {
    CHECK(!frames[0].relay.valid());
    CHECK_EQ(parts_of(frames[0]).size(), 1u);
    const auto ack = ack_in(frames[0]);
    CHECK(ack.has_value());
    if (ack) {
      CHECK_EQ(ack->member.v, kMh0.v);
      CHECK_EQ(ack->watermark, 1u);
    }
  }
  const std::int64_t later = 20 + cfg.opts.ack_period_us;
  br.on_datagram(uplink_datagram(kAp0, src, 0, groups), later);
  frames = drain(*cell0);
  CHECK_EQ(frames.size(), 1u);
  if (!frames.empty()) CHECK(ack_in(frames[0]).has_value());
  CHECK_EQ(br.counters().duplicates, 1u);
}

TEST(br_batch_splits_at_the_datagram_limit) {
  // Worst-case entries (four destination groups, so a full 97-byte body):
  // a hold too big for one datagram splits into frames that each fit, and
  // only where the next entry would not fit. The peer gets DataBatches; the
  // AP gets CellFrames, where the next entry is a body and its link.
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
      if (t == peer.get()) {
        if (f + 1 < frames.size()) {
          CHECK(bytes + 1 + proto::kMaxDataBodyBytes > kMaxDatagramBytes);
        }
        const auto b = batch_of(frames[f]);
        CHECK(b.has_value());
        if (!b) continue;
        for (const proto::DataMsg& m : b->entries) {
          CHECK_EQ(m.gseq, next);
          ++next;
        }
        continue;
      }
      if (f + 1 < frames.size()) {
        CHECK(bytes + 1 + proto::kMaxDataBodyBytes + proto::kCellLinkBytes >
              kMaxDatagramBytes);
      }
      // Chain data for the one member, each entry linked to its
      // predecessor; the frame itself names no relay target.
      CHECK(!frames[f].relay.valid());
      const auto c = cell_of(frames[f]);
      CHECK(c.has_value());
      if (!c) continue;
      CHECK_EQ(c->members.size(), 1u);
      if (c->members.size() != 1) continue;
      CHECK_EQ(c->members[0].mh.v, kMh0.v);
      CHECK_EQ(c->members[0].links.size(), c->bodies.size());
      for (std::size_t k = 0; k < c->bodies.size(); ++k) {
        CHECK_EQ(c->bodies[k].gseq, next);
        if (k < c->members[0].links.size()) {
          CHECK_EQ(c->members[0].links[k].body, k);
          CHECK_EQ(c->members[0].links[k].prev_chain, next);
        }
        ++next;
      }
    }
    CHECK_EQ(next, n);
  }
}

namespace {

/// The chain links a member's ChainSender stamps, in gseq order: its
/// predecessor's coordinate (gseq + 1), 0 for the first.
std::vector<GlobalSeq> chain_links(const std::vector<GlobalSeq>& gseqs) {
  core::ChainSender chain;
  std::vector<GlobalSeq> out;
  for (const GlobalSeq g : gseqs) out.push_back(chain.link(g, 1u << 20));
  return out;
}

}  // namespace

TEST(br_chain_sends_one_frame_per_ap) {
  // Multi-group hold: 2 APs x 3 members, 12 messages with 2 of 4 groups
  // each. Each AP gets one CellFrame for the hold: each destined message's
  // body once, and each member its links, as its ChainSender stamps them.
  InProcNet net;
  auto tr = net.attach(kBr0);
  auto peer = net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  auto cell1 = net.attach(kAp1);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0, kAp1});
  cfg.groups.count = 4;
  cfg.groups.groups_per_mh = 2;
  cfg.groups.dest_groups = 2;
  for (std::uint32_t i = 0; i < 6; ++i) {
    cfg.members.push_back(NodeId::make(Tier::MH, i));
    cfg.member_ap.push_back(i < 3 ? kAp0 : kAp1);
  }
  const BrConfig ref = cfg;
  BrRuntime br(cfg, *tr);
  br.on_start(0);

  const NodeId src{9};  // not a member: no submit-acks in the cells
  const std::uint64_t n = 12;
  std::vector<proto::GroupSet> dest;
  for (LocalSeq l = 0; l < n; ++l) {
    dest.push_back(core::dest_groups(src, l, ref.groups));
    br.on_datagram(uplink_datagram(kAp0, src, l, dest.back()), 10);
  }
  br.on_tick(250);
  CHECK_EQ(br.assigned(), n);
  (void)drain(*peer);

  std::size_t linked = 0;
  for (std::size_t a = 0; a < 2; ++a) {
    const auto frames = drain(a == 0 ? *cell0 : *cell1);
    CHECK_EQ(frames.size(), 1u);
    if (frames.size() != 1) continue;
    CHECK(!frames[0].relay.valid());
    const auto c = cell_of(frames[0]);
    CHECK(c.has_value());
    if (!c) continue;
    // Expected: the gseqs each of this AP's members is a destination of.
    std::vector<std::vector<GlobalSeq>> want(3);
    std::vector<GlobalSeq> bodies;
    for (GlobalSeq g = 0; g < n; ++g) {
      bool any = false;
      for (std::size_t k = 0; k < 3; ++k) {
        const auto groups = core::member_groups(3 * a + k, ref.groups);
        if (!groups.intersects(dest[g])) continue;
        want[k].push_back(g);
        any = true;
      }
      if (any) bodies.push_back(g);
    }
    CHECK_EQ(c->bodies.size(), bodies.size());
    for (std::size_t b = 0; b < c->bodies.size() && b < bodies.size(); ++b) {
      CHECK_EQ(c->bodies[b].gseq, bodies[b]);  // each body once
    }
    std::size_t named = 0;
    for (std::size_t k = 0; k < 3; ++k) {
      if (!want[k].empty()) ++named;
    }
    CHECK_EQ(c->members.size(), named);
    for (const auto& mem : c->members) {
      const std::size_t k = mem.mh.index() - 3 * a;
      CHECK(k < 3);
      if (k >= 3) continue;
      const auto links = chain_links(want[k]);
      CHECK_EQ(mem.links.size(), links.size());
      for (std::size_t i = 0; i < mem.links.size() && i < links.size(); ++i) {
        CHECK_EQ(c->bodies[mem.links[i].body].gseq, want[k][i]);
        CHECK_EQ(mem.links[i].prev_chain, links[i]);
      }
      linked += mem.links.size();
    }
  }
  CHECK(linked > n);  // several members share most bodies
}

TEST(br_cell_frame_splits_a_body_with_more_links_than_a_frame_holds) {
  // 4000 members in one cell, every one a destination: one body's links
  // need more than one datagram, so the body goes out in each frame.
  InProcNet net;
  auto tr = net.attach(kBr0);
  (void)net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0});
  cfg.groups.count = 2;
  cfg.groups.groups_per_mh = 2;
  cfg.groups.dest_groups = 1;
  const std::uint32_t members = 4000;
  for (std::uint32_t i = 0; i < members; ++i) {
    cfg.members.push_back(NodeId::make(Tier::MH, i));
    cfg.member_ap.push_back(kAp0);
  }
  const auto groups = core::dest_groups(NodeId{members}, 0, cfg.groups);
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  br.on_datagram(uplink_datagram(kAp0, NodeId{members}, 0, groups), 10);
  br.on_tick(250);
  CHECK_EQ(br.assigned(), 1u);
  const auto frames = drain(*cell0);
  CHECK_EQ(frames.size(), 2u);
  std::vector<std::uint8_t> seen(members, 0);
  for (const Datagram& d : frames) {
    CHECK(kFrameHeaderBytes + d.payload.size() <= kMaxDatagramBytes);
    const auto c = cell_of(d);
    CHECK(c.has_value());
    if (!c) continue;
    CHECK_EQ(c->bodies.size(), 1u);
    for (const auto& mem : c->members) {
      CHECK_EQ(mem.links.size(), 1u);
      if (mem.mh.index() < members) ++seen[mem.mh.index()];
    }
  }
  CHECK(std::all_of(seen.begin(), seen.end(),
                    [](std::uint8_t v) { return v == 1; }));
}

TEST(br_stalled_chain_member_gets_one_cell_frame) {
  // Two members of one cell get every message. The first member stalls:
  // its resend window leaves as one CellFrame that names only it.
  InProcNet net;
  auto tr = net.attach(kBr0);
  (void)net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0});
  cfg.groups.count = 4;
  cfg.groups.groups_per_mh = 4;
  cfg.groups.dest_groups = 2;
  cfg.members = {kMh0, kMh1};
  cfg.member_ap = {kAp0, kAp0};
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  const NodeId src{7};
  const std::uint64_t n = 10;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(
        uplink_datagram(kAp0, src, l, core::dest_groups(src, l, cfg.groups)),
        10);
  }
  br.on_tick(100);
  const auto first = drain(*cell0);
  CHECK_EQ(first.size(), 1u);
  if (!first.empty()) {
    const auto c = cell_of(first[0]);
    CHECK(c.has_value());
    if (c) CHECK_EQ(c->members.size(), 2u);
  }

  for (int k = 0; k < 4; ++k) {
    br.on_datagram(member_ack_datagram(kAp0, kMh0, 0), 120 + k);
  }
  const auto resent = drain(*cell0);
  CHECK_EQ(resent.size(), 1u);
  CHECK_EQ(br.counters().retransmits, n);
  if (resent.empty()) return;
  CHECK(!resent[0].relay.valid());
  const auto c = cell_of(resent[0]);
  CHECK(c.has_value());
  if (!c) return;
  CHECK_EQ(c->bodies.size(), n);
  CHECK_EQ(c->members.size(), 1u);
  if (c->members.size() != 1) return;
  CHECK_EQ(c->members[0].mh.v, kMh0.v);
  std::vector<GlobalSeq> all;
  for (GlobalSeq g = 0; g < n; ++g) all.push_back(g);
  const auto links = chain_links(all);
  CHECK_EQ(c->members[0].links.size(), n);
  for (std::size_t i = 0; i < c->members[0].links.size(); ++i) {
    CHECK_EQ(c->bodies[c->members[0].links[i].body].gseq, all[i]);
    CHECK_EQ(c->members[0].links[i].prev_chain, links[i]);
  }
}

TEST(br_chain_splice_below_the_mq_floor_counts_gap_skipped_msgs) {
  // A chain member that never acks falls behind the BR's MQ window: links
  // whose payload the MQ has released are spliced out of its chain on the
  // next resend walk, one mh.gap_skipped_msgs each, as the sim counts them.
  InProcNet net;
  auto tr = net.attach(kBr0);
  (void)net.attach(kBr1);
  auto cell0 = net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0});
  cfg.groups.count = 2;
  cfg.groups.groups_per_mh = 2;
  cfg.groups.dest_groups = 1;
  cfg.members = {kMh0};
  cfg.member_ap = {kAp0};
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  // 64 past the MQ's window of 8,192, all assigned in the first hold.
  const NodeId src{7};
  const LocalSeq n = 8192 + 64;
  for (LocalSeq l = 0; l < n; ++l) {
    br.on_datagram(
        uplink_datagram(kAp0, src, l, core::dest_groups(src, l, cfg.groups)),
        10);
  }
  br.on_tick(100);
  (void)drain(*cell0);
  CHECK_EQ(br.assigned(), n);
  for (int k = 0; k < 4; ++k) {
    br.on_datagram(member_ack_datagram(kAp0, kMh0, 0), 120 + k);
  }
  CHECK_EQ(br.metrics().counter(obs::names::kGapSkippedMsgs), 64u);
  CHECK_EQ(br.metrics().counter(obs::names::kRetransmits), 64u);
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

TEST(br_regenerated_token_continues_peer_group_seqs) {
  // Token-Regeneration seeds every counter past what the leader's MQ
  // holds, a peer's assignments included. The leader stores a peer's
  // group-3 seqs 0-4, its token then dies on the wire (the peer never
  // acks), and the watchdog regenerates it: the next group-3 message must
  // get group seq 5, not a second seq 0.
  InProcNet net;
  auto tr = net.attach(kBr0);
  auto peer = net.attach(kBr1);
  (void)net.attach(kAp0);
  (void)net.attach(kSs);
  BrConfig cfg = leader_cfg({kAp0});
  cfg.groups.count = 4;
  cfg.groups.groups_per_mh = 1;
  cfg.groups.dest_groups = 1;
  cfg.opts.retx_timeout_us = 1'000;
  cfg.opts.max_retx = 2;
  cfg.opts.heartbeat_period_us = 2'000;
  BrRuntime br(cfg, *tr);
  br.on_start(0);

  proto::GroupSet g3;
  g3.insert(GroupId{3});
  std::vector<proto::DataMsg> assigned;
  for (GlobalSeq g = 0; g < 5; ++g) {
    proto::DataMsg m = ordered_data(g, NodeId{6}, g);
    m.ordering_node = kBr1;
    m.gid = GroupId{3};
    m.groups = g3;
    m.group_seqs[0] = g;
    assigned.push_back(m);
  }
  Datagram from_peer = batch_datagram(assigned);
  from_peer.src = kBr1;
  br.on_datagram(from_peer, 10);

  std::int64_t t = 100;
  const std::int64_t horizon =
      cfg.opts.token_regen_timeout_us() + 5 * cfg.opts.retx_timeout_us;
  for (; t <= horizon && br.epoch() < 2; t += 100) br.on_tick(t);
  CHECK_EQ(br.epoch(), 2u);
  CHECK_EQ(br.counters().token_regenerated, 1u);
  (void)drain(*peer);

  // The regenerated token is in hand: one group-3 uplink gets assigned.
  br.on_datagram(uplink_datagram(kAp0, NodeId{5}, 0, g3), t);
  br.on_tick(t + 10);
  CHECK_EQ(br.assigned(), 1u);
  std::vector<proto::DataMsg> out;
  for (const Datagram& d : drain(*peer)) {
    if (const auto b = batch_of(d)) {
      out.insert(out.end(), b->entries.begin(), b->entries.end());
    }
  }
  CHECK_EQ(out.size(), 1u);
  if (!out.empty()) {
    CHECK_EQ(out[0].epoch, 2u);
    CHECK_EQ(out[0].gseq, GlobalSeq{5});
    CHECK_EQ(out[0].group_seqs[0], std::uint64_t{5});
  }
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

TEST(ap_splits_a_cell_frame_into_one_batch_per_member) {
  InProcNet net;
  auto tr = net.attach(kAp0);
  auto m0 = net.attach(kMh0);
  auto m1 = net.attach(kMh1);
  const NodeId mh2 = NodeId::make(Tier::MH, 2);
  auto m2 = net.attach(mh2);
  (void)net.attach(kBr0);
  (void)net.attach(kSs);
  ApConfig cfg;
  cfg.self = kAp0;
  cfg.br = kBr0;
  cfg.ss = kSs;
  cfg.attached = {kMh0, kMh1, mh2};
  ApRuntime ap(cfg, *tr);
  ap.on_start(0);

  const auto src = NodeId{3};
  proto::CellFrameMsg cell;
  cell.bodies.push_back(chain_data(4, 0, src, 1));
  cell.bodies.push_back(chain_data(6, 0, src, 2));
  cell.bodies.push_back(chain_data(9, 0, src, 3));
  // Member 0 gets all three, member 2 the last two; member 1 is not named.
  cell.members.push_back({kMh0, {{0, 0}, {1, 5}, {2, 7}}});
  cell.members.push_back({mh2, {{1, 2}, {2, 7}}});
  Datagram in = proto_datagram(proto::Message(cell));
  ap.on_datagram(in, 10);

  CHECK(drain(*m1).empty());
  for (const auto& mem : cell.members) {
    std::vector<proto::DataMsg> entries;
    for (const auto& link : mem.links) {
      entries.push_back(cell.bodies[link.body]);
      entries.back().prev_chain = link.prev_chain;
    }
    const auto got = drain(mem.mh == kMh0 ? *m0 : *m2);
    CHECK_EQ(got.size(), 1u);
    if (got.empty()) continue;
    CHECK(got[0].payload ==
          proto::encode_batch(entries.data(), entries.size()));
    CHECK_EQ(got[0].src.v, kAp0.v);
  }
  CHECK_EQ(ap.counters().malformed, 0u);

  // A malformed cell frame (a member repeated) is counted; nothing leaves.
  cell.members.push_back({kMh0, {{2, 7}}});
  ap.on_datagram(proto_datagram(proto::Message(cell)), 20);
  CHECK_EQ(ap.counters().malformed, 1u);
  for (InProcTransport* t : {m0.get(), m1.get(), m2.get()}) {
    CHECK(drain(*t).empty());
  }
}

TEST(ap_gives_each_member_its_batch_and_its_ack_in_one_datagram) {
  // A BR bundle: acks for members 0 and 1, then a cell frame that names
  // members 0 and 2. Member 0 gets one datagram with its ack and its
  // batch; member 1 gets its ack alone, member 2 its batch alone.
  InProcNet net;
  auto tr = net.attach(kAp0);
  auto m0 = net.attach(kMh0);
  auto m1 = net.attach(kMh1);
  const NodeId mh2 = NodeId::make(Tier::MH, 2);
  auto m2 = net.attach(mh2);
  (void)net.attach(kBr0);
  (void)net.attach(kSs);
  ApConfig cfg;
  cfg.self = kAp0;
  cfg.br = kBr0;
  cfg.ss = kSs;
  cfg.attached = {kMh0, kMh1, mh2};
  ApRuntime ap(cfg, *tr);
  ap.on_start(0);

  const auto src = NodeId{3};
  proto::CellFrameMsg cell;
  cell.bodies.push_back(chain_data(4, 0, src, 1));
  cell.bodies.push_back(chain_data(6, 0, src, 2));
  cell.members.push_back({kMh0, {{0, 0}, {1, 5}}});
  cell.members.push_back({mh2, {{1, 2}}});
  const auto cell_bytes = proto::encode(proto::Message(cell));
  const auto batches = proto::split_cell(cell_bytes.data(), cell_bytes.size());
  CHECK(batches.has_value());
  if (!batches) return;
  const auto ack_bytes = [](NodeId mh, GlobalSeq wm) {
    return proto::encode(
        proto::Message(proto::DeliveryAckMsg{kRuntimeGroup, mh, wm}));
  };
  proto::BundleMsg bundle;
  bundle.parts.emplace_back(proto::DeliveryAckMsg{kRuntimeGroup, kMh0, 3});
  bundle.parts.emplace_back(proto::DeliveryAckMsg{kRuntimeGroup, kMh1, 7});
  bundle.parts.emplace_back(cell);
  ap.on_datagram(proto_datagram(proto::Message(bundle)), 10);

  const auto got0 = drain(*m0);
  CHECK_EQ(got0.size(), 1u);
  if (!got0.empty()) {
    const auto parts = proto::bundle_parts(got0[0].payload.data(),
                                           got0[0].payload.size());
    CHECK(parts.has_value());
    if (parts && parts->size() == 2) {
      const proto::BundlePart& ack = (*parts)[0];
      const proto::BundlePart& batch = (*parts)[1];
      CHECK(std::vector<std::uint8_t>(ack.data, ack.data + ack.size) ==
            ack_bytes(kMh0, 3));
      CHECK(std::vector<std::uint8_t>(batch.data, batch.data + batch.size) ==
            (*batches)[0].payload);
    } else {
      CHECK(false);
    }
  }
  const auto got1 = drain(*m1);
  CHECK_EQ(got1.size(), 1u);
  if (!got1.empty()) CHECK(got1[0].payload == ack_bytes(kMh1, 7));
  const auto got2 = drain(*m2);
  CHECK_EQ(got2.size(), 1u);
  if (!got2.empty()) CHECK(got2[0].payload == (*batches)[1].payload);
  CHECK_EQ(ap.counters().malformed, 0u);

  // A plain ack from the BR goes to the member it names, byte for byte.
  const Datagram lone = proto_datagram(
      proto::Message(proto::DeliveryAckMsg{kRuntimeGroup, mh2, 9}));
  ap.on_datagram(lone, 20);
  CHECK(drain(*m0).empty());
  const auto got = drain(*m2);
  CHECK_EQ(got.size(), 1u);
  if (!got.empty()) CHECK(got[0].payload == lone.payload);
}

TEST(mh_due_ack_leaves_with_the_next_submission) {
  // A 200 Hz source: its ack falls due at 10 ms between two submissions
  // and rides the one due at 12 ms. Once the source has sent everything, a
  // due ack leaves alone.
  InProcNet net;
  auto ap = net.attach(kAp0);
  auto tr = net.attach(kMh0);
  (void)net.attach(kSs);
  MhConfig cfg;
  cfg.self = kMh0;
  cfg.source_id = NodeId{0};
  cfg.ap = kAp0;
  cfg.ss = kSs;
  cfg.rate_hz = 200.0;
  cfg.msgs_to_send = 3;
  cfg.submit_phase_us = 2'000;
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);
  (void)drain(*ap);  // the membership announcement
  Datagram start;
  start.src = kSs;
  start.kind = FrameKind::Control;
  start.payload = encode_control(ControlMsg{ControlOp::Start, 0});
  mh.on_datagram(start, 0);

  struct Sent {
    std::int64_t at;
    std::vector<proto::MsgType> types;
  };
  std::vector<Sent> sent;
  for (std::int64_t t = 1'000; t <= 30'000; t += 1'000) {
    mh.on_tick(t);
    for (const Datagram& d : drain(*ap)) {
      std::vector<proto::MsgType> types;
      for (const auto& m : parts_of(d)) types.push_back(m.type());
      sent.push_back(Sent{t, types});
    }
  }
  using T = proto::MsgType;
  const std::vector<std::pair<std::int64_t, std::vector<T>>> want = {
      {2'000, {T::Data}},
      {7'000, {T::Data}},
      {12'000, {T::Data, T::DeliveryAck}},  // due at 10 ms, held 2 ms
      {22'000, {T::DeliveryAck}},           // nothing left to submit
  };
  CHECK_EQ(sent.size(), want.size());
  for (std::size_t i = 0; i < sent.size() && i < want.size(); ++i) {
    CHECK_EQ(sent[i].at, want[i].first);
    CHECK(sent[i].types == want[i].second);
  }
  CHECK_EQ(mh.counters().acks_sent, 2u);
}

TEST(ack_deferral_fits_inside_the_retransmission_timeout) {
  // A submit-ack waits up to one ack period for a frame to ride, and a
  // BR's on_tick sends it one tick after that at the latest; the source
  // must not retransmit first. The loopback spec stretches the tick with
  // every timer, so the inequality holds at any time scale.
  for (const double f : {1.0, 2.0, 5.0, 15.0}) {
    LoopbackSpec spec;
    spec.time_scale = f;
    const LoopbackSpec s = scaled(spec);
    CHECK(s.opts.ack_period_us + s.tick_us < s.opts.retx_timeout_us);
    RuntimeOptions opts;
    opts.scale_timers(f);
    CHECK(opts.ack_period_us + s.tick_us < opts.retx_timeout_us);
  }
}

TEST(riding_acks_stay_reliable_when_their_datagrams_are_lost) {
  // Multi-group run over the in-process transport. The first K BR -> AP
  // datagrams that carry a submit-ack are lost, and so are the first K
  // MH -> AP datagrams that carry a member ack (with whatever they carry
  // besides). Sources retransmit what was never acked, the BR re-acks the
  // duplicates, and stalled members are resynced: every MH still gets
  // exactly its destined set, in pairwise order, with nothing lost.
  auto spec = tiny_spec();
  spec.num_brs = 2;
  spec.rate_hz = 50.0;
  spec.groups.count = 4;
  spec.groups.groups_per_mh = 2;
  spec.groups.dest_groups = 2;
  constexpr int kLost = 6;
  auto down = std::make_shared<std::atomic<int>>(0);
  auto up = std::make_shared<std::atomic<int>>(0);
  spec.drop_hook = [down, up](NodeId from, NodeId to, const Datagram& d) {
    const bool acked = carries(d, proto::MsgType::DeliveryAck);
    if (from.tier() == Tier::BR && to.tier() == Tier::AP && acked &&
        down->load() < kLost) {
      ++*down;
      return true;
    }
    if (from.tier() == Tier::MH && to.tier() == Tier::AP && acked &&
        up->load() < kLost) {
      ++*up;
      return true;
    }
    return false;
  };
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK_EQ(down->load(), kLost);
  CHECK_EQ(up->load(), kLost);
  if (res.order_violation) std::printf("  %s\n", res.order_violation->c_str());
  CHECK(!res.order_violation.has_value());
  CHECK_EQ(res.metrics.counter(obs::names::kGapSkippedMsgs), 0u);
  CHECK(res.metrics.counter(obs::names::kUplinkRetx) > 0);
  for (std::size_t m = 0; m < res.n_mh; ++m) {
    const auto mine = core::member_groups(m, spec.groups);
    std::vector<std::pair<std::uint32_t, LocalSeq>> want, got;
    for (std::uint32_t s = 0; s < spec.n_mhs(); ++s) {
      for (LocalSeq l = 0; l < spec.msgs_per_source; ++l) {
        if (core::dest_groups(NodeId{s}, l, spec.groups).intersects(mine)) {
          want.emplace_back(s, l);
        }
      }
    }
    for (const auto& r : res.log.records(m)) {
      got.emplace_back(r.source.v, r.lseq);
    }
    std::sort(got.begin(), got.end());
    CHECK(got == want);
  }
}

TEST(loopback_spans_capture_all_stages) {
  auto spec = tiny_spec();
  spec.opts.record_spans = true;
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.spans.empty());
  const auto expected = spec.expected_total();
  CHECK_EQ(res.spans.total().count(), expected);
  for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
    CHECK_EQ(res.spans.stage(static_cast<obs::SpanStage>(i)).count(),
             expected);
  }
}

TEST_MAIN()
