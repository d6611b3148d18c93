// core::analyze: Theorem 5.1 bound structure — monotonicity in r / tau /
// s*lambda, the paper-vs-two-rotation constant relationship, the uplink
// terms of the submit-timed bounds, and unit sanity.

#include "core/analysis.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

core::ProtocolConfig base() {
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 4;
  cfg.num_sources = 2;
  cfg.source.rate_hz = 100.0;
  cfg.options.tau = sim::msecs(5);
  return cfg;
}

}  // namespace

TEST(torder_linear_in_ring_size) {
  auto cfg = base();
  const auto b4 = core::analyze(cfg);
  cfg.hierarchy.num_brs = 8;
  const auto b8 = core::analyze(cfg);
  CHECK_NEAR(b8.torder_s, 2.0 * b4.torder_s, 1e-12);
  CHECK(b8.tight_order_bound_s() > b4.tight_order_bound_s());
}

TEST(tau_additive_in_bounds) {
  auto cfg = base();
  const auto b5 = core::analyze(cfg);
  cfg.options.tau = sim::msecs(15);
  const auto b15 = core::analyze(cfg);
  CHECK_NEAR(b15.paper_order_bound_s() - b5.paper_order_bound_s(), 0.010,
             1e-9);
  CHECK_NEAR(b15.tight_order_bound_s() - b5.tight_order_bound_s(), 0.010,
             1e-9);
}

TEST(tight_bound_dominates_paper_bound) {
  // 2*Torder + tau >= Max(Torder, Ttransmit) + tau whenever
  // Torder >= Ttransmit, which holds for every ring of >= 1 hop.
  for (std::size_t r : {2u, 4u, 16u}) {
    auto cfg = base();
    cfg.hierarchy.num_brs = r;
    const auto b = core::analyze(cfg);
    CHECK(b.tight_order_bound_s() >= b.paper_order_bound_s());
    CHECK(b.tight_e2e_bound_s() > b.tight_order_bound_s());
    CHECK(b.tdeliver_s > 0.0);
  }
}

TEST(uplink_bounds_add_their_terms) {
  for (std::size_t r : {2u, 4u, 16u}) {
    auto cfg = base();
    cfg.hierarchy.num_brs = r;
    const auto b = core::analyze(cfg);
    // The uplink crosses the down tree's hops: Tuplink == Tdeliver.
    CHECK_NEAR(b.uplink_max_order_transmit_tau_s() - b.paper_order_bound_s(),
               b.tdeliver_s, 1e-12);
    CHECK_NEAR(b.uplink_order_tau_transmit_deliver_s(),
               b.tuplink_s + b.torder_s + b.tau_s + b.ttransmit_s +
                   b.tdeliver_s,
               1e-12);
  }
}

TEST(uplink_bounds_rise_with_ring_size_and_tau) {
  auto cfg = base();
  const auto b4 = core::analyze(cfg);
  cfg.hierarchy.num_brs = 8;
  const auto b8 = core::analyze(cfg);
  CHECK(b8.uplink_max_order_transmit_tau_s() >
        b4.uplink_max_order_transmit_tau_s());
  CHECK(b8.uplink_order_tau_transmit_deliver_s() >
        b4.uplink_order_tau_transmit_deliver_s());
  cfg = base();
  cfg.options.tau = sim::msecs(15);
  const auto b15 = core::analyze(cfg);
  CHECK_NEAR(b15.uplink_max_order_transmit_tau_s() -
                 b4.uplink_max_order_transmit_tau_s(),
             0.010, 1e-9);
  CHECK_NEAR(b15.uplink_order_tau_transmit_deliver_s() -
                 b4.uplink_order_tau_transmit_deliver_s(),
             0.010, 1e-9);
}

TEST(buffer_bounds_scale_with_load) {
  auto cfg = base();
  const auto b1 = core::analyze(cfg);
  cfg.num_sources = 4;
  const auto b2 = core::analyze(cfg);
  CHECK_NEAR(b2.wq_bound_msgs(), 2.0 * b1.wq_bound_msgs(), 1e-9);
  CHECK_NEAR(b2.mq_bound_msgs(), 2.0 * b1.mq_bound_msgs(), 1e-9);
  cfg.source.rate_hz = 200.0;
  const auto b3 = core::analyze(cfg);
  CHECK_NEAR(b3.wq_bound_msgs(), 2.0 * b2.wq_bound_msgs(), 1e-9);
  // Extra ack lag only grows the MQ budget.
  CHECK(b3.mq_bound_msgs(0.05) > b3.mq_bound_msgs(0.0));
}

TEST(token_hold_in_torder) {
  auto cfg = base();
  const auto fast = core::analyze(cfg);
  cfg.options.token_hold = sim::msecs(5);
  const auto slow = core::analyze(cfg);
  CHECK_NEAR(slow.torder_s - fast.torder_s,
             4.0 * (0.005 - 0.0001), 1e-9);
}

TEST_MAIN()
