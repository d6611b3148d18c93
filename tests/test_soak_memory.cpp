// Tentpole regression: long soak runs must hold Theorem 5.1's bounded-buffer
// claim in the implementation, not just the analysis. Steady-state state at
// the ordering tier (assigned-message archive, MQs) must stay
// O(resend/retention window) — pruned by the global acked-floor watermark —
// instead of O(total messages sent).

#include <cstdlib>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

core::ProtocolConfig soak_cfg(double rate_hz) {
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 2;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  auto wireless = net::ChannelModel::wireless(0.0);
  wireless.burst_loss = false;
  wireless.bandwidth_bps = 100e6;
  cfg.hierarchy.wireless = wireless;
  cfg.num_sources = 2;
  cfg.source.rate_hz = rate_hz;
  // The per-delivery order log is O(total deliveries) by design (a debug
  // artifact); a bounded-memory soak must run without it.
  cfg.record_deliveries = false;
  return cfg;
}

}  // namespace

// Quick watermark regression: the archive holds every assigned message
// until the global acked floor passes it, then only archive_retention
// entries plus the in-flight window remain materialized.
TEST(archive_prunes_to_retention_window) {
  sim::Simulation sim(7);
  auto cfg = soak_cfg(100.0);
  cfg.hierarchy.num_brs = 3;
  cfg.options.archive_retention = 32;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  sim.run_for(sim::secs(3.0));
  proto.stop_sources();
  sim.run_for(sim::secs(1.0));

  CHECK(proto.total_sent() > 400);
  CHECK(sim.metrics().counter(obs::names::kArchivePruned) > 0);
  CHECK(proto.global_acked_floor() > 0);
  // Retained = archive_retention + the unacked in-flight window (well under
  // one second of traffic); before watermark pruning this equaled
  // total_sent.
  CHECK(proto.archive_retained() < 128);
  CHECK(proto.archive_retained() < proto.total_sent() / 2);
}

// The soak proper: >= 1M messages through a 2-BR ring. Peak archive and MQ
// residency must stay O(window) — orders of magnitude below the total —
// and nothing may be lost.
TEST(soak_one_million_messages_bounded_memory) {
  std::uint64_t target = 1'000'000;
  // Single-threaded main; no concurrent setenv to race with.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("RINGNET_SOAK_MESSAGES")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      target = static_cast<std::uint64_t>(v);
    }
  }
  const double rate = 6500.0;
  const double seconds =
      static_cast<double>(target) / (2.0 * rate) + 1.0;

  sim::Simulation sim(42);
  const auto cfg = soak_cfg(rate);
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  sim.run_for(sim::secs(seconds));
  proto.stop_sources();
  sim.run_for(sim::secs(2.0));

  CHECK(proto.total_sent() >= target);
  // Theorem 5.1 bound: state is O(resend/retention window), not O(total).
  const std::size_t window =
      cfg.options.archive_retention + cfg.options.mq_retention + 8192;
  CHECK(proto.archive_peak() < window);
  CHECK(sim.metrics().gauge(obs::names::kBufMqPeak) <
        static_cast<double>(window));
  CHECK(proto.archive_peak() < proto.total_sent() / 50);
  // After the drain the floor has caught up: only the retention tails and
  // the final unacked residue remain.
  CHECK(proto.archive_retained() < window);
  // Nothing lost, nothing skipped: every member saw every message.
  CHECK_EQ(sim.metrics().counter(obs::names::kGapsSkipped), std::uint64_t{0});
  for (const auto& mh : proto.mhs()) {
    CHECK_EQ(mh.delivered_count(), proto.total_sent());
  }
}

TEST_MAIN()
