// End-to-end integration: a full RingNet deployment (4 BRs, 2 sources,
// lossy wireless cells) must deliver every message to every MH in one
// agreed total order, within the analytic latency bound family, while
// pruning its buffers. Below them, the delivery log those checks read: its
// block chains read back in record order, and the total-order check sees
// violations across blocks.

#include <set>
#include <string>
#include <vector>

#include "baseline/harness.hpp"
#include "core/analysis.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

baseline::RunSpec spec_4br() {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 4;
  spec.config.hierarchy.ags_per_br = 2;
  spec.config.hierarchy.aps_per_ag = 2;
  spec.config.hierarchy.mhs_per_ap = 1;
  spec.config.num_sources = 2;
  spec.config.source.rate_hz = 100.0;
  spec.warmup = sim::secs(0.25);
  spec.run = sim::secs(1.0);
  spec.drain = sim::secs(0.75);
  spec.seed = 7;
  return spec;
}

}  // namespace

TEST(total_order_holds_and_delivery_completes) {
  const auto spec = spec_4br();
  const auto r = baseline::run_experiment(spec);
  CHECK(!r.order_violation.has_value());
  if (r.order_violation) {
    std::printf("  violation: %s\n", r.order_violation->c_str());
  }
  // Every MH saw (essentially) every message after the drain.
  CHECK(r.min_delivery_ratio > 0.999);
  CHECK_EQ(r.metrics.counter(obs::names::kGapSkippedMsgs), std::uint64_t{0});
  // Throughput tracks the offered load s*lambda.
  CHECK_NEAR(r.throughput_per_mh_hz, 200.0, 10.0);
}

TEST(latency_within_tight_bound) {
  const auto spec = spec_4br();
  const auto r = baseline::run_experiment(spec);
  const auto bounds = core::analyze(baseline::effective_config(spec));
  // Ordering latency on lossy cells: the two-rotation 2*Torder+tau budget
  // must hold with slack for ARQ jitter (the loss-free bounds, with their
  // uplink term, are bench_paper's E3).
  CHECK(static_cast<double>(r.assign_hist.max()) <=
        bounds.tight_order_bound_s() * 1.2e6);
  CHECK(static_cast<double>(r.lat_hist.p99()) <=
        bounds.tight_e2e_bound_s() * 1.2e6);
  CHECK(r.assign_hist.p99() > 0);
}

TEST(buffers_stay_bounded) {
  auto spec = spec_4br();
  spec.config.options.mq_retention = 0;  // measure the theorem's quantity
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  const auto r = baseline::run_experiment(spec);
  const auto bounds = core::analyze(baseline::effective_config(spec));
  CHECK(r.metrics.gauge(obs::names::kBufWqPeak) <=
        bounds.wq_bound_msgs() * 2.0 + 4.0);
  CHECK(r.metrics.gauge(obs::names::kBufMqPeak) <=
        bounds.mq_bound_msgs(spec.config.options.ack_period.seconds()) * 2.0 +
            4.0);
  CHECK(r.metrics.gauge(obs::names::kBufWqPeak) > 0.0);
  CHECK(r.metrics.gauge(obs::names::kBufMqPeak) > 0.0);
}

TEST(token_rotates_continuously) {
  const auto spec = spec_4br();
  sim::Simulation sim(spec.seed);
  sim.enable_trace();
  core::RingNetProtocol proto(sim, baseline::effective_config(spec));
  proto.start();
  sim.run_for(sim::secs(1.0));
  std::vector<obs::FrRecord> passes = sim.recorder().snapshot();
  std::erase_if(passes, [](const obs::FrRecord& ev) {
    return ev.kind != obs::FrEvent::TokenRx;
  });
  // One hop every (wan one-way + hold) ~ 5.1ms: expect on the order of
  // 190 passes/s; allow generous slack.
  CHECK(passes.size() > 100);
  // All passes carry the initial epoch and visit every BR.
  bool epochs_ok = true;
  for (const auto& ev : passes) epochs_ok = epochs_ok && ev.a == 1;
  CHECK(epochs_ok);
  std::set<std::uint32_t> visited;
  for (const auto& ev : passes) visited.insert(ev.node);
  CHECK_EQ(visited.size(), std::size_t{4});
}

TEST(delivery_log_reads_back_across_blocks_and_contexts) {
  // A member's records span several blocks, taken in turn from two
  // contexts' arenas (a member that changed domains); they read back in
  // record order.
  const std::vector<NodeId> mhs = {NodeId::make(Tier::MH, 0),
                                   NodeId::make(Tier::MH, 1)};
  core::DeliveryLog log;
  log.reset(mhs, 2);
  const NodeId src{9};
  const std::size_t n = 3 * core::DeliveryLog::kBlockRecs + 3;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t ctx = (k / 5) % 2;
    log.record(mhs[0], 2 * k + 1, src, k, ctx);
    if (k % 3 == 0) log.record(mhs[1], 2 * k + 1, src, k, 1 - ctx);
  }
  CHECK_EQ(log.members(), std::size_t{2});
  CHECK_EQ(log.records(0).size(), n);
  std::size_t k = 0;
  bool in_order = true;
  for (const core::DeliveryLog::Rec& r : log.records(0)) {
    in_order = in_order && r.gseq == 2 * k + 1 && r.lseq == k &&
               r.source == src;
    ++k;
  }
  CHECK(in_order);
  CHECK_EQ(k, n);
  std::size_t k1 = 0;
  for (const core::DeliveryLog::Rec& r : log.records(1)) {
    in_order = in_order && r.gseq == 6 * k1 + 1;
    ++k1;
  }
  CHECK(in_order);
  CHECK_EQ(k1, log.records(1).size());
  CHECK_EQ(k1, (n + 2) / 3);
  CHECK(!log.check_total_order().has_value());
}

TEST(total_order_check_spans_blocks) {
  const std::vector<NodeId> mhs = {NodeId::make(Tier::MH, 0),
                                   NodeId::make(Tier::MH, 1)};
  const NodeId src{9};
  const std::size_t full = core::DeliveryLog::kBlockRecs;
  // A non-increasing gseq whose two records sit in different blocks.
  core::DeliveryLog repeat;
  repeat.reset(mhs);
  for (std::size_t g = 1; g <= full; ++g) repeat.record(mhs[0], g, src, g);
  repeat.record(mhs[0], full, src, full);
  const auto r1 = repeat.check_total_order();
  CHECK(r1 && r1->find("non-increasing") != std::string::npos);

  // One gseq bound to two messages: member 0 holds it in its first block,
  // member 1 in its second.
  core::DeliveryLog twice;
  twice.reset(mhs, 2);
  twice.record(mhs[0], 100, src, 100, 0);
  for (std::size_t g = 1; g <= full; ++g) {
    twice.record(mhs[1], g, src, g, 1);
  }
  twice.record(mhs[1], 100, src, 7, 0);
  const auto r2 = twice.check_total_order();
  CHECK(r2 && r2->find("two different messages") != std::string::npos);
}

TEST_MAIN()
