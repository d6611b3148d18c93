#include "sim_bench.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ringnet;
namespace names = obs::names;

constexpr std::size_t kBrs = 16;
constexpr std::size_t kApsPerAg = 25;
constexpr std::size_t kMhs = 100'000;
constexpr std::size_t kSources = 32;
constexpr std::size_t kWorkers = 2;
constexpr sim::SimTime kRun = sim::msecs(250);
// Drain until every MH has every message (the last submission needs up
// to a full token rotation, ~100 ms), in slices, capped.
constexpr sim::SimTime kDrainCap = sim::msecs(1000);
constexpr sim::SimTime kSlice = sim::msecs(10);

baseline::RunSpec make_spec(const SimInputs& in) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = kBrs;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = kApsPerAg;
  spec.config.hierarchy.mhs_per_ap = kMhs / (kBrs * kApsPerAg);
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = kSources;
  spec.config.source.rate_hz = in.rate_hz;
  spec.config.source.pattern = core::TrafficPattern::Constant;
  // One submission per source: 32 messages whatever the rate, so the
  // delivery count (and the delivery log's memory) is the same every seed.
  spec.config.source.max_messages = 1;
  spec.config.options.ack_period = sim::msecs(100);
  // The per-delivery log feeds the total-order check.
  spec.config.record_deliveries = true;
  spec.warmup = sim::SimTime::zero();
  spec.run = kRun;
  spec.drain = kDrainCap;
  spec.seed = in.seed;
  spec.shard = true;
  spec.shard_threads = kWorkers;
  return spec;
}

/// CPU seconds of every thread but the calling one (the pool workers),
/// read through each thread's CPU clock.
double other_threads_cpu_s() {
  const long self = ::syscall(SYS_gettid);
  double total = 0.0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0.0;
  while (const dirent* e = ::readdir(dir)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid <= 0 || tid == self) continue;
    // The kernel's per-thread CPU clock id (CPUCLOCK_SCHED | PERTHREAD).
    const auto id = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
    total += clock_s(id);
  }
  ::closedir(dir);
  return total;
}

}  // namespace

SimInputs make_sim_inputs(std::uint64_t seed) {
  SimInputs in;
  in.seed = seed;
  // The seed sets the common source rate in [4.0, 4.5) Hz, which places
  // the evenly phased submissions (1/33 of a period apart) at different
  // points of the token's rotation: each seed samples a different set of
  // ordering waits.
  util::Rng rng(seed);
  in.rate_hz = 4.0 * (1.0 + 0.125 * rng.uniform());
  return in;
}

Episode run_sim_episode(const SimInputs& in, bool traced) {
  Episode ep;
  ep.traced = traced;

  // Set-up: config, Simulation (spawns the pool), protocol, start().
  const double c0 = process_cpu_s();
  const baseline::RunSpec spec = make_spec(in);
  const core::ProtocolConfig cfg = baseline::effective_config(spec);
  auto sim = std::make_unique<sim::Simulation>(spec.seed,
                                               baseline::shard_plan(spec, cfg));
  const double c1 = process_cpu_s();
  auto proto = std::make_unique<core::RingNetProtocol>(*sim, cfg);
  proto->start();
  ep.setup_s = process_cpu_s() - c0;

  std::vector<double> slice_ms;
  const auto run_slices = [&](sim::SimTime span) {
    for (sim::SimTime t = sim::SimTime::zero(); t < span; t += kSlice) {
      const double w = traced ? wall_s() : 0.0;
      sim->run_for(std::min(kSlice, span - t));
      if (traced) slice_ms.push_back((wall_s() - w) * 1e3);
    }
  };
  const double main0 = thread_cpu_s();
  const double workers0 = traced ? other_threads_cpu_s() : 0.0;
  const double wall0 = wall_s();
  const double cpu0 = process_cpu_s();
  run_slices(spec.run);
  proto->stop_sources();
  const auto all_delivered = [&] {
    return sim->metrics().counter(names::kMhDelivered) ==
           static_cast<std::uint64_t>(proto->mhs().size()) * proto->total_sent();
  };
  for (sim::SimTime t = sim::SimTime::zero(); t < spec.drain && !all_delivered();
       t += kSlice) {
    run_slices(kSlice);
  }
  ep.wall_s = wall_s() - wall0;
  ep.cpu_s = process_cpu_s() - cpu0;
  const double main_cpu = thread_cpu_s() - main0;
  const double workers_cpu = traced ? other_threads_cpu_s() - workers0 : 0.0;

  // Zero loss: every MH delivers every message, in one total order.
  const auto& metrics = sim->metrics();
  const std::uint64_t sent = proto->total_sent();
  ep.deliveries = metrics.counter(names::kMhDelivered);
  ep.attempted = static_cast<std::uint64_t>(proto->mhs().size()) * sent;
  std::uint64_t missing = 0, extra = 0;
  for (const auto& mh : proto->mhs()) {
    const std::uint64_t got = mh.delivered_count();
    if (got < sent) missing += sent - got;
    if (got > sent) extra += got - sent;
  }
  ep.failed = missing + extra;
  if (ep.failed > 0) {
    ep.problems.push_back("deliveries: missing=" + std::to_string(missing) +
                          " extra=" + std::to_string(extra));
  }
  if (sent == 0) {
    ep.problems.push_back("no message was sent");
    ep.failed += 1;
  }
  if (const auto violation = proto->deliveries().check_total_order()) {
    ep.problems.push_back("order violation: " + *violation);
    ep.failed += 1;
  }
  const std::uint64_t lost = metrics.counter(names::kGapSkippedMsgs);
  if (lost > 0) {
    ep.problems.push_back("gap-skipped messages: " + std::to_string(lost));
    ep.failed += lost;
  }

  const auto lat = proto->lat_hist();
  ep.lat_p50_us = static_cast<double>(lat.p50());
  ep.lat_p99_us = static_cast<double>(lat.p99());
  ep.lat_samples = lat.count();

  const std::uint64_t events = sim->executed_events();
  ep.exact["executed_events"] = static_cast<double>(events);
  ep.exact["deliveries"] = static_cast<double>(ep.deliveries);
  ep.exact["total_sent"] = static_cast<double>(sent);
  ep.exact["token_holds"] = static_cast<double>(metrics.counter(names::kTokenHeld));
  ep.exact["windows"] = static_cast<double>(metrics.counter(names::kSchedWindows));
  ep.exact["serial_steps"] =
      static_cast<double>(metrics.counter(names::kSchedSerialSteps));
  ep.exact["inbox_deferred"] =
      static_cast<double>(metrics.counter(names::kSchedInboxDeferred));
  ep.exact["mq_peak"] = metrics.gauge(names::kBufMqPeak);
  ep.exact["archive_peak"] = metrics.gauge(names::kBufArchivePeak);
  ep.exact["lat_p50_us"] = ep.lat_p50_us;
  ep.exact["lat_p99_us"] = ep.lat_p99_us;

  if (traced) {
    auto& L = ep.layer;
    const double dlv = ep.deliveries > 0 ? static_cast<double>(ep.deliveries) : 1.0;
    L["sim.setup.config_s"] = c1 - c0;
    L["sim.setup.protocol_s"] = ep.setup_s - (c1 - c0);
    L["sim.sched.events_per_delivery"] = static_cast<double>(events) / dlv;
    L["sim.sched.windows"] = ep.exact["windows"];
    L["sim.sched.serial_steps"] = ep.exact["serial_steps"];
    L["sim.sched.inbox_deferred"] = ep.exact["inbox_deferred"];
    L["sim.sched.ns_per_event"] =
        events > 0 ? ep.cpu_s * 1e9 / static_cast<double>(events) : 0.0;
    L["sim.sched.worker_busy_share"] =
        ep.wall_s > 0 ? workers_cpu / (static_cast<double>(kWorkers) * ep.wall_s)
                      : 0.0;
    L["sim.sched.slice_wall_ms_p50"] = quantile(slice_ms, 0.50);
    L["sim.sched.slice_wall_ms_p99"] = quantile(slice_ms, 0.99);
    L["core.buf.mq_peak"] = ep.exact["mq_peak"];
    L["core.buf.archive_peak"] = ep.exact["archive_peak"];
    // The coordinating thread runs serial steps and barriers; the workers
    // run the parallel windows. Whatever CPU neither accounts for is the
    // residual.
    L["bench.driver.self_share"] = ep.cpu_s > 0 ? main_cpu / ep.cpu_s : 0.0;
    L["bench.budget.residual_share"] =
        ep.cpu_s > 0 ? 1.0 - (main_cpu + workers_cpu) / ep.cpu_s : 0.0;
  }
  return ep;
}

}  // namespace perfbench
