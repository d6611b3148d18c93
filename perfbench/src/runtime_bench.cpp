// Single-threaded emulated-clock driver for the UDP runtime.
//
// The Figure-1 deployment's role objects (BrRuntime, ApRuntime, MhRuntime,
// SsRuntime) run over real UdpTransport sockets on 127.0.0.1, but no
// NodeLoop and no thread: this driver calls RuntimeNode::on_start /
// on_datagram / on_tick itself and owns the clock they see.
//
//  * Every node send goes through a TapTransport decorator, which forwards
//    to the node's UdpTransport and records that the destination socket now
//    holds one more datagram. The driver drains exactly those sockets, in
//    the order they were first written, until every datagram sent has been
//    received and handled. It never polls an idle socket and never sleeps.
//  * Emulated time advances only once every socket is drained, and then
//    jumps straight to the next tick. All nodes tick in lockstep every
//    1 ms (the runtime's tick_us default), in a fixed order.
//
// Hops therefore take zero emulated time and the latency measured is the
// protocol's timer-and-hop latency: exact for a seed, independent of the
// machine. Frame, token and delivery counts repeat exactly too. Wall and
// CPU time measure what one core spends running all 39 nodes.

#include "runtime_bench.hpp"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "codec_replay.hpp"
#include "core/analysis.hpp"
#include "core/groups.hpp"
#include "core/protocol.hpp"
#include "runtime/node.hpp"
#include "runtime/udp_transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ringnet::NodeId;
using ringnet::Tier;
namespace rt = ringnet::runtime;

constexpr std::size_t kBrs = 2;
constexpr std::size_t kApsPerBr = 2;
constexpr std::size_t kMhsPerAp = 8;
constexpr std::size_t kAps = kBrs * kApsPerBr;
constexpr std::size_t kMhs = kAps * kMhsPerAp;
constexpr std::int64_t kTickUs = 1000;
constexpr std::uint32_t kPayloadBytes = 64;
constexpr NodeId kSupervisorId{0x00FFFFFEu};
// Frames copied off the wire in a traced episode for the codec replay.
constexpr std::size_t kCaptureFrames = 20000;
// Polls (1 ms each) before a datagram we know was sent counts as lost.
constexpr int kRecvPatience = 2000;

enum Role : std::size_t { kBr = 0, kAp = 1, kMh = 2, kSs = 3, kRoles = 4 };
constexpr std::array<const char*, kRoles> kRoleName{"br", "ap", "mh", "ss"};

/// The driver's clock: it moves only when the driver advances it.
class EmuClock final : public ringnet::util::Clock {
 public:
  std::int64_t now_us() override { return now_; }
  void sleep_us(std::int64_t us) override {
    if (us > 0) now_ += us;
  }

 private:
  std::int64_t now_ = 0;
};

/// What the decorators record, shared by every socket of a deployment.
struct Tap {
  std::unordered_map<std::uint32_t, std::uint32_t> index_of;  // NodeId.v
  std::vector<std::uint32_t> inflight;  // sent, not yet received, per socket
  std::vector<std::uint32_t> ready;     // sockets to drain, first-write order
  std::vector<std::uint8_t> queued;     // socket already in `ready`
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t send_failures = 0;
  // Traced episodes only.
  bool timing = false;
  std::int64_t send_ns = 0;    // inside UdpTransport::send
  std::int64_t nested_ns = 0;  // whole decorator, reset per role call
  bool capture = false;
  std::vector<std::vector<std::uint8_t>> captured;
};

class TapTransport final : public rt::Transport {
 public:
  TapTransport(rt::UdpTransport& inner, Tap& tap)
      : Transport(inner.self()), inner_(inner), tap_(tap) {}

  bool send(NodeId to, const std::vector<std::uint8_t>& bytes) override {
    const std::int64_t t0 = tap_.timing ? now_ns() : 0;
    const bool ok = inner_.send(to, bytes);
    const std::int64_t t1 = tap_.timing ? now_ns() : 0;
    if (ok) {
      ++sent_;
      ++tap_.frames;
      tap_.bytes += bytes.size();
      const std::uint32_t idx = tap_.index_of.at(to.v);
      ++tap_.inflight[idx];
      if (tap_.queued[idx] == 0) {
        tap_.queued[idx] = 1;
        tap_.ready.push_back(idx);
      }
      if (tap_.capture && tap_.captured.size() < kCaptureFrames) {
        tap_.captured.push_back(bytes);
      }
    } else {
      ++send_failures_;
      ++tap_.send_failures;
    }
    if (tap_.timing) {
      tap_.send_ns += t1 - t0;
      tap_.nested_ns += now_ns() - t0;
    }
    return ok;
  }

  std::optional<rt::Datagram> recv(std::int64_t timeout_us) override {
    auto d = inner_.recv(timeout_us);
    if (d) ++received_;
    return d;
  }

 private:
  rt::UdpTransport& inner_;
  Tap& tap_;
};

/// One Figure-1 deployment. Socket/node index order: BRs, APs, MHs, SS.
struct Deployment {
  Tap tap;
  std::shared_ptr<rt::AddressBook> book = std::make_shared<rt::AddressBook>();
  std::vector<std::unique_ptr<rt::UdpTransport>> udp;
  std::vector<std::unique_ptr<TapTransport>> taps;
  std::vector<std::unique_ptr<rt::BrRuntime>> brs;
  std::vector<std::unique_ptr<rt::ApRuntime>> aps;
  std::vector<std::unique_ptr<rt::MhRuntime>> mhs;
  std::unique_ptr<rt::SsRuntime> ss;
  std::vector<rt::RuntimeNode*> nodes;
  std::vector<Role> role;
};

constexpr std::size_t kFirstMh = kBrs + kAps;

std::unique_ptr<Deployment> build(const RuntimeInputs& in, bool spans) {
  auto dep = std::make_unique<Deployment>();
  std::vector<NodeId> brs, aps, mhs, all;
  for (std::size_t i = 0; i < kBrs; ++i) {
    brs.push_back(NodeId::make(Tier::BR, static_cast<std::uint32_t>(i)));
  }
  for (std::size_t a = 0; a < kAps; ++a) {
    aps.push_back(NodeId::make(Tier::AP, static_cast<std::uint32_t>(a)));
  }
  for (std::size_t m = 0; m < kMhs; ++m) {
    mhs.push_back(NodeId::make(Tier::MH, static_cast<std::uint32_t>(m)));
  }
  all = brs;
  all.insert(all.end(), aps.begin(), aps.end());
  all.insert(all.end(), mhs.begin(), mhs.end());

  // Bind every socket and complete the address book before any node runs.
  std::vector<NodeId> sockets = all;
  sockets.push_back(kSupervisorId);
  Tap& tap = dep->tap;
  for (const NodeId id : sockets) {
    dep->udp.push_back(std::make_unique<rt::UdpTransport>(id, dep->book));
  }
  // UdpTransport sets SO_REUSEADDR before binding port 0, and Linux may
  // then hand two such sockets the same ephemeral port; datagrams for one
  // node would reach the other. Rebind until every port is distinct.
  for (bool clash = true; clash;) {
    clash = false;
    std::unordered_map<std::uint16_t, std::size_t> owner;
    for (std::size_t i = 0; i < sockets.size(); ++i) {
      if (owner.emplace(dep->udp[i]->local_endpoint().port, i).second) continue;
      auto fresh = std::make_unique<rt::UdpTransport>(sockets[i], dep->book);
      dep->udp[i] = std::move(fresh);
      clash = true;
    }
  }
  for (std::size_t i = 0; i < sockets.size(); ++i) {
    dep->book->set(sockets[i], dep->udp[i]->local_endpoint());
    tap.index_of[sockets[i].v] = static_cast<std::uint32_t>(i);
    dep->taps.push_back(std::make_unique<TapTransport>(*dep->udp[i], tap));
  }
  tap.inflight.assign(sockets.size(), 0);
  tap.queued.assign(sockets.size(), 0);

  rt::RuntimeOptions opts;
  opts.record_spans = spans;
  const auto ap_of_mh = [&](std::size_t m) { return aps[m / kMhsPerAp]; };
  const auto br_index_of_ap = [](std::size_t a) { return a / kApsPerBr; };

  for (std::size_t i = 0; i < kBrs; ++i) {
    rt::BrConfig cfg;
    cfg.self = brs[i];
    cfg.ss = kSupervisorId;
    cfg.ring = brs;
    for (std::size_t a = 0; a < kAps; ++a) {
      if (br_index_of_ap(a) == i) cfg.own_aps.push_back(aps[a]);
    }
    for (std::size_t m = 0; m < kMhs; ++m) {
      if (br_index_of_ap(m / kMhsPerAp) != i) continue;
      cfg.members.push_back(mhs[m]);
      cfg.member_ap.push_back(ap_of_mh(m));
    }
    cfg.groups = in.w.groups;
    cfg.opts = opts;
    dep->brs.push_back(std::make_unique<rt::BrRuntime>(std::move(cfg), *dep->taps[i]));
    dep->nodes.push_back(dep->brs.back().get());
    dep->role.push_back(kBr);
  }
  for (std::size_t a = 0; a < kAps; ++a) {
    rt::ApConfig cfg;
    cfg.self = aps[a];
    cfg.br = brs[br_index_of_ap(a)];
    cfg.ss = kSupervisorId;
    for (std::size_t m = 0; m < kMhs; ++m) {
      if (ap_of_mh(m) == aps[a]) cfg.attached.push_back(mhs[m]);
    }
    cfg.opts = opts;
    dep->aps.push_back(
        std::make_unique<rt::ApRuntime>(std::move(cfg), *dep->taps[kBrs + a]));
    dep->nodes.push_back(dep->aps.back().get());
    dep->role.push_back(kAp);
  }
  std::size_t expected_done = 0;
  for (std::size_t m = 0; m < kMhs; ++m) {
    rt::MhConfig cfg;
    cfg.self = mhs[m];
    cfg.source_id = NodeId{static_cast<std::uint32_t>(m)};
    cfg.ap = ap_of_mh(m);
    cfg.ss = kSupervisorId;
    cfg.rate_hz = in.w.rate_hz;
    cfg.msgs_to_send = in.w.msgs_per_source;
    cfg.expected_total = in.expected_count[m];
    cfg.payload_size = kPayloadBytes;
    cfg.submit_phase_us = in.phase_us[m];
    cfg.groups = in.w.groups;
    cfg.opts = opts;
    if (cfg.expected_total > 0) ++expected_done;
    dep->mhs.push_back(
        std::make_unique<rt::MhRuntime>(std::move(cfg), *dep->taps[kFirstMh + m]));
    dep->nodes.push_back(dep->mhs.back().get());
    dep->role.push_back(kMh);
  }
  rt::SsConfig ss_cfg;
  ss_cfg.self = kSupervisorId;
  ss_cfg.all_nodes = all;
  ss_cfg.expected_ready = all.size();
  ss_cfg.expected_done = expected_done;
  ss_cfg.opts = opts;
  dep->ss = std::make_unique<rt::SsRuntime>(ss_cfg, *dep->taps.back());
  dep->nodes.push_back(dep->ss.get());
  dep->role.push_back(kSs);
  return dep;
}

class Driver {
 public:
  Driver(Deployment& dep, const RuntimeInputs& in)
      : dep_(dep), in_(in), seen_(kMhs, 0) {}

  std::int64_t now() { return clock_.now_us(); }

  /// on_start for every node, then drain. false when a datagram is lost.
  bool start() {
    for (rt::RuntimeNode* n : dep_.nodes) n->on_start(now());
    return drain();
  }

  /// Jump to the next tick, tick every node in index order, drain.
  bool tick() {
    clock_.sleep_us(kTickUs);
    for (std::size_t i = 0; i < dep_.nodes.size(); ++i) call(i, nullptr);
    return drain();
  }

  /// Sources start when the MHs see Start; latency is timed from then.
  void mark_start() { start_us_ = now(); }

  std::int64_t due_us(std::uint32_t src, std::uint64_t lseq) const {
    return start_us_ + in_.phase_us[src] +
           static_cast<std::int64_t>(lseq) * in_.period_us;
  }

  std::uint64_t deliveries() const { return deliveries_; }
  const std::vector<std::int64_t>& latencies() const { return lat_us_; }
  const std::array<std::array<std::int64_t, 2>, kRoles>& role_ns() const {
    return role_ns_;
  }
  std::int64_t recv_ns() const { return recv_ns_; }
  std::uint64_t timed_recvs() const { return timed_recvs_; }
  /// Socket whose expected datagram never arrived (drain returned false).
  std::size_t lost_at() const { return lost_at_; }

 private:
  /// One call into a node: a datagram, or a tick when `d` is null. While
  /// the tap is timing, the call's own time (minus the nested decorator
  /// time) is charged to the node's role.
  void call(std::size_t idx, const rt::Datagram* d) {
    rt::RuntimeNode& node = *dep_.nodes[idx];
    const bool timing = dep_.tap.timing;
    const std::int64_t t0 = timing ? now_ns() : 0;
    dep_.tap.nested_ns = 0;
    if (d != nullptr) {
      node.on_datagram(*d, now());
    } else {
      node.on_tick(now());
    }
    if (timing) {
      role_ns_[dep_.role[idx]][d != nullptr ? 0 : 1] +=
          now_ns() - t0 - dep_.tap.nested_ns;
    }
    if (dep_.role[idx] == kMh) collect(idx - kFirstMh);
  }

  /// Time-stamp the deliveries an MH made during the last call.
  void collect(std::size_t m) {
    const auto& log = dep_.mhs[m]->deliveries();
    for (std::size_t i = seen_[m]; i < log.size(); ++i) {
      const rt::DeliveredRec& r = log[i];
      if (r.source.v < kMhs && r.lseq < in_.w.msgs_per_source) {
        lat_us_.push_back(now() - due_us(r.source.v, r.lseq));
      }
    }
    deliveries_ += log.size() - seen_[m];
    seen_[m] = log.size();
  }

  bool drain() {
    Tap& tap = dep_.tap;
    for (std::size_t h = 0; h < tap.ready.size(); ++h) {
      const std::uint32_t idx = tap.ready[h];
      tap.queued[idx] = 0;
      while (tap.inflight[idx] > 0) {
        std::optional<rt::Datagram> d = recv_one(idx);
        if (!d) {
          lost_at_ = idx;
          return false;
        }
        --tap.inflight[idx];
        call(idx, &*d);
      }
    }
    tap.ready.clear();
    return true;
  }

  std::optional<rt::Datagram> recv_one(std::size_t idx) {
    rt::Transport& tr = *dep_.taps[idx];
    const bool timing = dep_.tap.timing;
    for (int attempt = 0; attempt < kRecvPatience; ++attempt) {
      const std::int64_t t0 = timing ? now_ns() : 0;
      auto d = tr.recv(attempt == 0 ? 0 : 1000);
      if (timing) recv_ns_ += now_ns() - t0;
      if (d) {
        if (timing) ++timed_recvs_;
        return d;
      }
    }
    return std::nullopt;
  }

  Deployment& dep_;
  const RuntimeInputs& in_;
  EmuClock clock_;
  std::int64_t start_us_ = 0;
  std::vector<std::size_t> seen_;
  std::vector<std::int64_t> lat_us_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t timed_recvs_ = 0;
  std::size_t lost_at_ = 0;
  std::array<std::array<std::int64_t, 2>, kRoles> role_ns_{};
  std::int64_t recv_ns_ = 0;
};

struct BrTotals {
  std::uint64_t holds = 0, assigned = 0, retransmits = 0, token_retx = 0;
  std::uint64_t regenerated = 0;
};

BrTotals br_totals(const Deployment& dep) {
  BrTotals t;
  for (const auto& br : dep.brs) {
    const rt::RuntimeCounters c = br->counters();
    t.holds += c.tokens_held;
    t.assigned += br->assigned();
    t.retransmits += c.retransmits;
    t.token_retx += c.token_retx;
    t.regenerated += c.token_regenerated;
  }
  return t;
}

/// Compare every MH's deliveries with its expected (source, lseq) set and
/// check the order across members. Returns the number of failed deliveries.
std::uint64_t check_deliveries(const Deployment& dep, const RuntimeInputs& in,
                               Episode& ep) {
  const std::uint32_t msgs = in.w.msgs_per_source;
  std::uint64_t missing = 0, duplicated = 0, unexpected = 0, misordered = 0;
  ringnet::core::DeliveryLog log;
  std::vector<NodeId> ids;
  for (std::size_t m = 0; m < kMhs; ++m) {
    ids.push_back(NodeId::make(Tier::MH, static_cast<std::uint32_t>(m)));
  }
  log.reset(ids);
  std::vector<std::uint8_t> seen;
  for (std::size_t m = 0; m < kMhs; ++m) {
    const auto& want = in.expected[m];
    seen.assign(want.size(), 0);
    std::uint64_t got = 0;
    bool first = true;
    ringnet::GlobalSeq last = 0;
    for (const rt::DeliveredRec& r : dep.mhs[m]->deliveries()) {
      log.record(ids[m], r.gseq, r.source, r.lseq);
      if (!first && r.gseq <= last) ++misordered;
      first = false;
      last = r.gseq;
      if (r.source.v >= kMhs || r.lseq >= msgs) {
        ++unexpected;
        continue;
      }
      const std::size_t k = r.source.v * msgs + r.lseq;
      if (want[k] == 0) {
        ++unexpected;
      } else if (seen[k] != 0) {
        ++duplicated;
      } else {
        seen[k] = 1;
        ++got;
      }
    }
    missing += in.expected_count[m] - got;
  }
  const auto violation = in.w.groups.multi()
                             ? ringnet::core::check_pairwise_order(log)
                             : log.check_total_order();
  std::uint64_t failed = missing + duplicated + unexpected + misordered;
  if (violation) {
    ep.problems.push_back("order violation: " + *violation);
    if (failed == 0) failed = 1;
  }
  if (missing + duplicated + unexpected + misordered > 0) {
    ep.problems.push_back(
        "deliveries: missing=" + std::to_string(missing) +
        " duplicated=" + std::to_string(duplicated) +
        " unexpected=" + std::to_string(unexpected) +
        " misordered=" + std::to_string(misordered));
  }
  return failed;
}

/// Join the runtime's record_spans stamps per delivery. The submit stage is
/// timed from when the message was due, so the four stages add up to the
/// end-to-end latency.
void span_stages(const Deployment& dep, const Driver& drv, Episode& ep) {
  struct Assign {
    std::int64_t uplink_rx = 0, assigned = 0;
  };
  const auto key = [](std::uint32_t src, std::uint64_t lseq) {
    return (static_cast<std::uint64_t>(src) << 32) ^ lseq;
  };
  std::unordered_map<std::uint64_t, Assign> assigns;
  for (const auto& br : dep.brs) {
    for (const rt::SpanAssignRec& r : br->span_assigned()) {
      assigns.emplace(key(r.source.v, r.lseq), Assign{r.uplink_rx_us, r.assigned_us});
    }
  }
  std::array<std::vector<std::int64_t>, 4> stage;
  std::vector<std::int64_t> late;
  for (std::size_t m = 0; m < kMhs; ++m) {
    const rt::MhRuntime& mh = *dep.mhs[m];
    for (const auto& [lseq, t] : mh.span_submits()) {
      late.push_back(t - drv.due_us(static_cast<std::uint32_t>(m), lseq));
    }
    const auto& relay = dep.brs[m / (kMhsPerAp * kApsPerBr)]->span_relay_rx_us();
    const auto& recs = mh.deliveries();
    const auto& times = mh.deliver_times_us();
    for (std::size_t i = 0; i < recs.size() && i < times.size(); ++i) {
      const rt::DeliveredRec& r = recs[i];
      const auto a = assigns.find(key(r.source.v, r.lseq));
      const auto rl = relay.find(r.gseq);
      if (a == assigns.end() || rl == relay.end()) continue;
      const std::int64_t due = drv.due_us(r.source.v, r.lseq);
      const std::int64_t v[5] = {due, a->second.uplink_rx, a->second.assigned,
                                 rl->second, times[i]};
      bool monotone = true;
      for (int s = 0; s < 4; ++s) monotone = monotone && v[s + 1] >= v[s];
      if (!monotone) continue;
      for (std::size_t s = 0; s < 4; ++s) stage[s].push_back(v[s + 1] - v[s]);
    }
  }
  constexpr std::array<const char*, 4> kStage{"submit", "assign", "relay", "deliver"};
  for (std::size_t s = 0; s < 4; ++s) {
    const std::string p = std::string("runtime.stage.") + kStage[s];
    ep.layer[p + "_p50_us"] = quantile(stage[s], 0.50);
    ep.layer[p + "_p99_us"] = quantile(stage[s], 0.99);
  }
  ep.layer["runtime.source.late_p50_us"] = quantile(late, 0.50);
  ep.layer["runtime.source.late_p99_us"] = quantile(late, 0.99);
}

}  // namespace

const std::vector<RuntimeWorkload>& runtime_workloads() {
  static const std::vector<RuntimeWorkload> kAll = [] {
    std::vector<RuntimeWorkload> v;
    v.push_back({"fig1-heavy", 400.0, 50, {}});
    ringnet::core::GroupConfig groups;
    groups.count = 8;
    groups.groups_per_mh = 2;
    groups.dest_groups = 2;
    v.push_back({"groups-genuine", 200.0, 60, groups});
    return v;
  }();
  return kAll;
}

RuntimeInputs make_runtime_inputs(const RuntimeWorkload& w, std::uint64_t seed) {
  RuntimeInputs in;
  in.w = w;
  // Same integer period the MH source uses, so due times are exact.
  in.period_us = static_cast<std::int64_t>(1e6 / w.rate_hz);
  // Source onsets are spread evenly over one period (the tick each source
  // starts on), as in the loopback orchestrator, and their offsets inside
  // a tick are spread evenly too: source m starts in the m-th 1/32 of its
  // tick, at a point the seed draws. Every seed gives a different schedule,
  // all equally spread, so how late sources run against the 1 ms tick -
  // most of the latency - does not swing with the luck of 32 draws.
  ringnet::util::Rng rng(seed);
  const auto n = static_cast<std::int64_t>(kMhs);
  for (std::int64_t m = 0; m < n; ++m) {
    const std::int64_t tick_start = m * in.period_us / n / kTickUs * kTickUs;
    const auto jitter = static_cast<std::int64_t>(
        rng.bounded(static_cast<std::uint64_t>(kTickUs)));
    in.phase_us.push_back(tick_start + (m * kTickUs + jitter) / n);
  }
  const std::uint32_t msgs = w.msgs_per_source;
  // Destination sets are a pure function of (source, lseq); compute each
  // once, then intersect with every member's groups.
  std::vector<ringnet::proto::GroupSet> dest;
  if (w.groups.multi()) {
    for (std::size_t s = 0; s < kMhs; ++s) {
      for (std::uint32_t l = 0; l < msgs; ++l) {
        dest.push_back(ringnet::core::dest_groups(
            NodeId{static_cast<std::uint32_t>(s)}, l, w.groups));
      }
    }
  }
  for (std::size_t m = 0; m < kMhs; ++m) {
    std::vector<std::uint8_t> want(kMhs * msgs, 1);
    if (w.groups.multi()) {
      const auto mine = ringnet::core::member_groups(m, w.groups);
      for (std::size_t k = 0; k < want.size(); ++k) {
        want[k] = dest[k].intersects(mine) ? 1 : 0;
      }
    }
    std::uint64_t count = 0;
    for (const std::uint8_t b : want) count += b;
    in.expected_count.push_back(count);
    in.expected.push_back(std::move(want));
  }
  return in;
}

Episode run_runtime_episode(const RuntimeInputs& in, bool traced) {
  Episode ep;
  ep.traced = traced;

  // Set-up: bind the sockets, build the nodes, run the supervisor handshake
  // until Start has reached every node.
  const double setup0 = process_cpu_s();
  std::unique_ptr<Deployment> dep = build(in, traced);
  Driver drv(*dep, in);
  bool ok = drv.start();
  while (ok && !dep->ss->started() && drv.now() < 1'000'000) ok = drv.tick();
  drv.mark_start();
  ep.setup_s = process_cpu_s() - setup0;
  if (!ok || !dep->ss->started()) {
    ep.problems.push_back(
        ok ? "supervisor handshake did not complete"
           : "handshake datagram to socket " + std::to_string(drv.lost_at()) +
                 " never arrived");
    ep.failed = 1;
    ep.attempted = 1;
    return ep;
  }

  std::uint64_t expected_total = 0;
  for (const std::uint64_t n : in.expected_count) expected_total += n;
  std::int64_t max_phase = 0;
  for (const std::int64_t p : in.phase_us) max_phase = std::max(max_phase, p);
  const std::int64_t deadline =
      drv.now() + 3 * (max_phase + in.w.msgs_per_source * in.period_us) +
      2'000'000;

  Tap& tap = dep->tap;
  const std::uint64_t frames0 = tap.frames;
  const std::uint64_t bytes0 = tap.bytes;
  const BrTotals br0 = br_totals(*dep);
  const std::int64_t emu0 = drv.now();
  tap.timing = traced;
  tap.capture = traced;

  const double wall0 = wall_s();
  const double cpu0 = process_cpu_s();
  bool done = false;
  while (ok && !done && drv.now() < deadline) {
    ok = drv.tick();
    done = dep->ss->all_done() && drv.deliveries() >= expected_total;
  }
  ep.wall_s = wall_s() - wall0;
  ep.cpu_s = process_cpu_s() - cpu0;
  tap.timing = false;
  tap.capture = false;
  const std::int64_t emu_us = drv.now() - emu0;

  if (!ok) {
    ep.problems.push_back("a datagram sent to socket " +
                          std::to_string(drv.lost_at()) + " never arrived");
  }
  if (!done) ep.problems.push_back("deadline passed before every MH was done");
  if (tap.send_failures != 0) {
    ep.problems.push_back("send failures: " + std::to_string(tap.send_failures));
  }
  ep.deliveries = drv.deliveries();
  ep.attempted = expected_total;
  ep.failed = check_deliveries(*dep, in, ep);
  if (ep.failed == 0 && !ep.problems.empty()) ep.failed = 1;

  const auto& lat = drv.latencies();
  ep.lat_p50_us = quantile(lat, 0.50);
  ep.lat_p99_us = quantile(lat, 0.99);
  ep.lat_samples = lat.size();

  const BrTotals br1 = br_totals(*dep);
  std::uint64_t acks = 0, uplink_retx = 0, mh_dups = 0;
  for (const auto& mh : dep->mhs) {
    const rt::RuntimeCounters c = mh->counters();
    acks += c.acks_sent;
    uplink_retx += c.uplink_retx;
    mh_dups += c.duplicates;
  }
  const std::uint64_t frames = tap.frames - frames0;
  const std::uint64_t bytes = tap.bytes - bytes0;
  const std::uint64_t holds = br1.holds - br0.holds;
  const std::uint64_t resends =
      (br1.retransmits - br0.retransmits) + (br1.token_retx - br0.token_retx) +
      uplink_retx;
  const double dlv = ep.deliveries > 0 ? static_cast<double>(ep.deliveries) : 1.0;

  ep.exact["deliveries"] = static_cast<double>(ep.deliveries);
  ep.exact["frames"] = static_cast<double>(frames);
  ep.exact["bytes"] = static_cast<double>(bytes);
  ep.exact["token_holds"] = static_cast<double>(holds);
  ep.exact["assigned"] = static_cast<double>(br1.assigned - br0.assigned);
  ep.exact["resends"] = static_cast<double>(resends);
  ep.exact["acks"] = static_cast<double>(acks);
  ep.exact["mh_duplicates"] = static_cast<double>(mh_dups);
  ep.exact["token_regenerated"] = static_cast<double>(br1.regenerated);
  ep.exact["send_failures"] = static_cast<double>(tap.send_failures);
  ep.exact["emulated_us"] = static_cast<double>(emu_us);
  ep.exact["lat_p50_us"] = ep.lat_p50_us;
  ep.exact["lat_p99_us"] = ep.lat_p99_us;

  if (!traced) return ep;

  // --- per-layer metrics ----------------------------------------------------
  auto& L = ep.layer;
  L["runtime.transport.frames_per_delivery"] = static_cast<double>(frames) / dlv;
  L["runtime.transport.bytes_per_delivery"] = static_cast<double>(bytes) / dlv;
  L["runtime.transport.send_ns"] =
      frames > 0 ? static_cast<double>(tap.send_ns) / static_cast<double>(frames) : 0.0;
  L["runtime.transport.recv_ns"] =
      drv.timed_recvs() > 0 ? static_cast<double>(drv.recv_ns()) /
                                  static_cast<double>(drv.timed_recvs())
                            : 0.0;
  L["runtime.transport.send_failures"] = static_cast<double>(tap.send_failures);

  std::int64_t roles_ns = 0;
  for (std::size_t r = 0; r < kRoles; ++r) {
    const auto& ns = drv.role_ns()[r];
    roles_ns += ns[0] + ns[1];
    const std::string p = std::string("runtime.") + kRoleName[r];
    if (r == kSs) {
      L[p + ".us_per_delivery"] = static_cast<double>(ns[0] + ns[1]) / 1e3 / dlv;
      continue;
    }
    L[p + ".datagram_us_per_delivery"] = static_cast<double>(ns[0]) / 1e3 / dlv;
    L[p + ".tick_us_per_delivery"] = static_cast<double>(ns[1]) / 1e3 / dlv;
  }

  L["runtime.br.msgs_per_token_hold"] =
      holds > 0 ? static_cast<double>(br1.assigned - br0.assigned) /
                      static_cast<double>(holds)
                : 0.0;
  L["runtime.br.acks_per_delivery"] = static_cast<double>(acks) / dlv;
  L["runtime.br.resends_per_delivery"] = static_cast<double>(resends) / dlv;
  L["runtime.br.token_rotation_us"] =
      holds > 0 ? static_cast<double>(emu_us) * static_cast<double>(kBrs) /
                      static_cast<double>(holds)
                : 0.0;
  span_stages(*dep, drv, ep);

  const CodecCost codec = replay_codec(tap.captured);
  L["proto.unframe_ns_per_frame"] = codec.unframe_ns;
  L["proto.decode_ns_per_frame"] = codec.decode_ns;
  L["proto.encode_ns_per_frame"] = codec.encode_ns;

  // Budget over the measured phase. Every nanosecond of it lands in exactly
  // one bucket: a role's own code, UdpTransport::send, the receive path, or
  // the driver (its loop plus the decorator's bookkeeping), so the residual
  // is whatever process CPU the wall-clock buckets do not account for.
  const double roles = static_cast<double>(roles_ns);
  const double send_ns = static_cast<double>(tap.send_ns);
  const double recv_ns = static_cast<double>(drv.recv_ns());
  const double driver_ns = ep.wall_s * 1e9 - roles - send_ns - recv_ns;
  const double cpu_ns = ep.cpu_s * 1e9;
  L["bench.driver.self_share"] = cpu_ns > 0 ? driver_ns / cpu_ns : 0.0;
  L["bench.budget.residual_share"] =
      cpu_ns > 0 ? 1.0 - (roles + send_ns + recv_ns + driver_ns) / cpu_ns : 0.0;
  return ep;
}

}  // namespace perfbench
