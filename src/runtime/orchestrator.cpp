#include "runtime/orchestrator.hpp"

#include <memory>
#include <unordered_map>
#include <utility>

#include "core/groups.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/udp_transport.hpp"
#include "topo/hierarchy.hpp"
#include "util/clock.hpp"

namespace ringnet::runtime {

namespace {
// Transport addresses never collide with message source ids (plain
// NodeId{i}): sources are labels inside DataMsg, not datagram endpoints.
constexpr NodeId kSupervisorId{0x00FFFFFEu};
}  // namespace

std::uint64_t LoopbackSpec::expected_at(std::size_t m) const {
  // Legacy mode: every MH delivers every message from every source.
  if (!groups.multi()) {
    return static_cast<std::uint64_t>(n_mhs()) * msgs_per_source;
  }
  const proto::GroupSet mine = core::member_groups(m, groups);
  std::uint64_t expect = 0;
  for (std::size_t s = 0; s < n_mhs(); ++s) {
    const NodeId source{static_cast<std::uint32_t>(s)};
    for (std::uint32_t l = 0; l < msgs_per_source; ++l) {
      if (core::dest_groups(source, l, groups).intersects(mine)) ++expect;
    }
  }
  return expect;
}

LoopbackSpec scaled(LoopbackSpec spec) {
  const double f = spec.time_scale;
  if (f == 1.0) return spec;
  spec.opts.scale_timers(f);
  spec.rate_hz /= f;
  spec.tick_us = static_cast<std::int64_t>(spec.tick_us * f);
  spec.boot_timeout_us = static_cast<std::int64_t>(spec.boot_timeout_us * f);
  spec.run_timeout_us = static_cast<std::int64_t>(spec.run_timeout_us * f);
  spec.time_scale = 1.0;
  return spec;
}

Deployment make_deployment(const LoopbackSpec& raw_spec) {
  const LoopbackSpec spec = scaled(raw_spec);
  // The simulator's index rule, with one AG per BR: the runtime has no AG
  // role, so a BR's APs are its one AG's.
  topo::HierarchyConfig shape;
  shape.num_brs = spec.num_brs;
  shape.ags_per_br = 1;
  shape.aps_per_ag = spec.aps_per_br;
  shape.mhs_per_ap = spec.mhs_per_ap;
  const topo::Topology topo = topo::build_hierarchy(shape);
  const std::vector<NodeId>& brs = topo.top_ring;
  const std::vector<NodeId>& aps = topo.aps;
  const std::vector<NodeId>& mhs = topo.mhs;

  Deployment dep;
  for (NodeId br : brs) {
    BrConfig cfg;
    cfg.self = br;
    cfg.ss = kSupervisorId;
    cfg.ring = brs;
    for (NodeId ap : aps) {
      if (topo.br_of(ap) == br) cfg.own_aps.push_back(ap);
    }
    for (NodeId mh : mhs) {
      if (topo.br_of(mh) != br) continue;
      cfg.members.push_back(mh);
      cfg.member_ap.push_back(topo.parent(mh));
    }
    cfg.groups = spec.groups;
    cfg.opts = spec.opts;
    dep.brs.push_back(std::move(cfg));
  }
  for (NodeId ap : aps) {
    ApConfig cfg;
    cfg.self = ap;
    cfg.br = topo.br_of(ap);
    cfg.ss = kSupervisorId;
    for (NodeId mh : mhs) {
      if (topo.parent(mh) == ap) cfg.attached.push_back(mh);
    }
    cfg.opts = spec.opts;
    dep.aps.push_back(std::move(cfg));
  }
  const std::int64_t period_us =
      spec.rate_hz > 0 ? static_cast<std::int64_t>(1e6 / spec.rate_hz) : 0;
  const std::size_t n_mh = mhs.size();
  for (std::size_t m = 0; m < n_mh; ++m) {
    MhConfig cfg;
    cfg.self = mhs[m];
    cfg.source_id = NodeId{static_cast<std::uint32_t>(m)};  // matches the sim
    cfg.ap = topo.parent(mhs[m]);
    cfg.ss = kSupervisorId;
    cfg.rate_hz = spec.rate_hz;
    cfg.msgs_to_send = spec.msgs_per_source;
    cfg.expected_total = spec.expected_at(m);
    cfg.payload_size = spec.payload_size;
    cfg.groups = spec.groups;
    cfg.submit_phase_us = static_cast<std::int64_t>(m) * period_us /
                          static_cast<std::int64_t>(n_mh);
    cfg.opts = spec.opts;
    // An MH expecting zero deliveries (possible under sparse multi-group
    // workloads) never reports Done, so the supervisor does not wait for it.
    if (cfg.expected_total > 0) ++dep.ss.expected_done;
    dep.mhs.push_back(std::move(cfg));
  }
  dep.ss.self = kSupervisorId;
  dep.ss.all_nodes = brs;
  dep.ss.all_nodes.insert(dep.ss.all_nodes.end(), aps.begin(), aps.end());
  dep.ss.all_nodes.insert(dep.ss.all_nodes.end(), mhs.begin(), mhs.end());
  dep.ss.expected_ready = dep.ss.all_nodes.size();
  dep.ss.opts = spec.opts;
  return dep;
}

LoopbackResult run_loopback(const LoopbackSpec& raw_spec) {
  const LoopbackSpec spec = scaled(raw_spec);
  const Deployment dep = make_deployment(spec);
  const std::vector<NodeId>& all = dep.ss.all_nodes;
  const std::size_t n_br = dep.brs.size();
  const std::size_t n_ap = dep.aps.size();
  const std::size_t n_mh = dep.mhs.size();

  // Transports first: every socket is bound (ephemeral ports resolved via
  // getsockname) and the address book complete before any loop starts, so
  // no node ever sends into the void. Order: BRs, APs, MHs, then the SS.
  std::vector<std::unique_ptr<Transport>> transports(all.size() + 1);
  InProcNet net;
  auto book = std::make_shared<AddressBook>();
  const auto make_transport = [&](NodeId id) -> std::unique_ptr<Transport> {
    if (spec.use_udp) return std::make_unique<UdpTransport>(id, book);
    return net.attach(id);
  };
  if (!spec.use_udp && spec.drop_hook) net.set_drop_hook(spec.drop_hook);
  for (std::size_t i = 0; i < all.size(); ++i) {
    transports[i] = make_transport(all[i]);
  }
  transports.back() = make_transport(dep.ss.self);
  if (spec.use_udp) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      book->set(all[i], static_cast<UdpTransport&>(*transports[i])
                            .local_endpoint());
    }
    book->set(dep.ss.self,
              static_cast<UdpTransport&>(*transports.back()).local_endpoint());
  }

  std::vector<std::unique_ptr<BrRuntime>> br_nodes;
  std::vector<std::unique_ptr<ApRuntime>> ap_nodes;
  std::vector<std::unique_ptr<MhRuntime>> mh_nodes;
  for (std::size_t i = 0; i < n_br; ++i) {
    br_nodes.push_back(std::make_unique<BrRuntime>(dep.brs[i], *transports[i]));
  }
  for (std::size_t a = 0; a < n_ap; ++a) {
    ap_nodes.push_back(
        std::make_unique<ApRuntime>(dep.aps[a], *transports[n_br + a]));
  }
  for (std::size_t m = 0; m < n_mh; ++m) {
    mh_nodes.push_back(std::make_unique<MhRuntime>(
        dep.mhs[m], *transports[n_br + n_ap + m]));
  }
  SsRuntime ss(dep.ss, *transports.back());

  util::WallClock clock;
  std::vector<std::unique_ptr<NodeLoop>> loops;
  for (std::size_t i = 0; i < n_br; ++i) {
    loops.push_back(std::make_unique<NodeLoop>(*br_nodes[i], *transports[i],
                                               clock, spec.tick_us));
  }
  for (std::size_t a = 0; a < n_ap; ++a) {
    loops.push_back(std::make_unique<NodeLoop>(
        *ap_nodes[a], *transports[n_br + a], clock, spec.tick_us));
  }
  for (std::size_t m = 0; m < n_mh; ++m) {
    loops.push_back(std::make_unique<NodeLoop>(
        *mh_nodes[m], *transports[n_br + n_ap + m], clock, spec.tick_us));
  }
  loops.push_back(std::make_unique<NodeLoop>(ss, *transports.back(), clock,
                                             spec.tick_us));

  for (auto& loop : loops) loop->start();

  const std::int64_t boot_deadline = clock.now_us() + spec.boot_timeout_us;
  while (!ss.started() && clock.now_us() < boot_deadline) {
    clock.sleep_us(1000);
  }
  const std::int64_t run_deadline = clock.now_us() + spec.run_timeout_us;
  while (!ss.all_done() && clock.now_us() < run_deadline) {
    clock.sleep_us(1000);
  }
  const bool completed = ss.all_done();
  ss.request_stop();
  // Let a couple of Stop broadcasts land so MHs quiesce before teardown.
  clock.sleep_us(2 * spec.opts.handshake_resend_us);
  for (auto& loop : loops) loop->stop();
  loops.clear();

  // Loops joined: node and transport state is now safe to read.
  LoopbackResult out;
  out.completed = completed;
  out.n_mh = n_mh;
  out.expected_total = spec.expected_total();
  std::vector<NodeId> mhs;
  for (const MhConfig& cfg : dep.mhs) mhs.push_back(cfg.self);
  out.log.reset(mhs);
  for (std::size_t m = 0; m < n_mh; ++m) {
    const MhRuntime& node = *mh_nodes[m];
    for (const DeliveredRec& r : node.deliveries()) {
      out.log.record(mhs[m], r.gseq, r.source, r.lseq);
    }
    out.lat_hist.merge_from(node.latency_hist());
    out.metrics.merge_from(node.metrics());
  }
  for (const auto& node : br_nodes) out.metrics.merge_from(node->metrics());
  for (const auto& node : ap_nodes) out.metrics.merge_from(node->metrics());
  out.metrics.merge_from(ss.metrics());
  if (spec.opts.record_spans) {
    // Join the four stamp sources per delivery. Keys are (source, lseq);
    // scripted loopback workloads keep lseq far below 2^32.
    struct AssignInfo {
      std::int64_t uplink_rx_us = 0;
      std::int64_t assigned_us = 0;
    };
    const auto span_key = [](std::uint32_t src, std::uint64_t lseq) {
      return (static_cast<std::uint64_t>(src) << 32) ^ lseq;
    };
    std::unordered_map<std::uint64_t, AssignInfo> assigns;
    for (const auto& node : br_nodes) {
      for (const SpanAssignRec& r : node->span_assigned()) {
        assigns.emplace(span_key(r.source.v, r.lseq),
                        AssignInfo{r.uplink_rx_us, r.assigned_us});
      }
    }
    std::unordered_map<std::uint64_t, std::int64_t> submits;
    for (std::size_t m = 0; m < n_mh; ++m) {
      for (const auto& [lseq, t] : mh_nodes[m]->span_submits()) {
        submits.emplace(span_key(static_cast<std::uint32_t>(m), lseq), t);
      }
    }
    for (std::size_t m = 0; m < n_mh; ++m) {
      const MhRuntime& node = *mh_nodes[m];
      const auto& relay =
          br_nodes[(m / spec.mhs_per_ap) / spec.aps_per_br]->span_relay_rx_us();
      const auto& recs = node.deliveries();
      const auto& times = node.deliver_times_us();
      for (std::size_t i = 0; i < recs.size() && i < times.size(); ++i) {
        const DeliveredRec& r = recs[i];
        const auto s_it = submits.find(span_key(r.source.v, r.lseq));
        const auto a_it = assigns.find(span_key(r.source.v, r.lseq));
        const auto rl_it = relay.find(r.gseq);
        if (s_it == submits.end() || a_it == assigns.end() ||
            rl_it == relay.end()) {
          continue;
        }
        // A message whose stamps a retransmission perturbed is skipped,
        // not clamped.
        out.spans.record_lifecycle(s_it->second, a_it->second.uplink_rx_us,
                                   a_it->second.assigned_us, rl_it->second,
                                   times[i]);
      }
    }
  }
  for (const auto& tr : transports) {
    out.frames_sent += tr->sent();
    out.frames_received += tr->received();
    out.frames_malformed += tr->dropped_malformed();
    out.send_failures += tr->send_failures();
  }
  out.order_violation = out.log.check_total_order();
  return out;
}

}  // namespace ringnet::runtime
