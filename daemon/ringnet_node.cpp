// ringnet_node: one protocol node as a standalone daemon over real UDP.
// Every process is told the same deployment shape and derives the same
// static port scheme, so a full Figure-1 hierarchy boots from a shell loop
// (see README "Running on real sockets") with no discovery service:
//   port-base + 0                     supervisor (SS)
//   port-base + 1 + i                 BR i
//   port-base + 1 + B + a             AP a        (B BRs)
//   port-base + 1 + B + A + m         MH m        (A = B * aps-per-br APs)
// The supervisor exits once every MH reports Done (broadcasting Stop on
// the way out); MHs exit when they see Stop; BRs and APs serve until Stop
// arrives or SIGINT. Exit status 0 = clean shutdown.
//
// Live introspection: SIGUSR1 makes the node spill its flight recorder —
// the bounded ring of recent protocol events — to stderr as one JSON line;
// the same dump fires automatically on token-regeneration watchdog expiry,
// a dropped token, or a delivery-order violation. A periodic one-line
// stats frame (--stats-period, default 5s, 0 = off) reports the node's
// metric counters and, on MHs, delivery-latency quantiles.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/node.hpp"
#include "runtime/orchestrator.hpp"
#include "runtime/udp_transport.hpp"
#include "util/clock.hpp"

namespace {

using namespace ringnet;
using namespace ringnet::runtime;

volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }
volatile std::sig_atomic_t g_dump_requested = 0;
void on_sigusr1(int) { g_dump_requested = 1; }

struct Cli {
  std::string role;  // ss | br | ap | mh
  std::size_t index = 0;
  std::size_t brs = 2;
  std::size_t aps_per_br = 2;
  std::size_t mhs_per_ap = 8;
  std::uint32_t host = kLoopbackHost;
  std::uint16_t port_base = 29000;
  double rate_hz = 50.0;
  std::uint32_t msgs = 40;
  double time_scale = 1.0;
  std::int64_t tick_us = 1000;
  double duration_secs = 0.0;  // br/ap fallback exit; 0 = until Stop/SIGINT
  double stats_period_secs = 5.0;  // one-line stats frame cadence; 0 = off
};

/// One line of live counters (plus MH latency quantiles), sorted by name
/// so frames diff cleanly across captures.
std::string stats_frame(const std::string& node, const obs::Metrics& metrics,
                        const MhRuntime* mh, std::int64_t t_us) {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  metrics.for_each_counter(
      [&](obs::names::Metric m, std::uint64_t count, double) {
        if (count == 0) return;
        counters.emplace_back(obs::names::metric_name(m), count);
      });
  std::sort(counters.begin(), counters.end());
  std::string out = "ringnet_node stats " + node + " t_us=" +
                    std::to_string(t_us);
  for (const auto& [name, count] : counters) {
    out += " " + name + "=" + std::to_string(count);
  }
  if (mh != nullptr) {
    const stats::Histogram lat = mh->latency_hist();
    if (lat.count() > 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " lat_us_p50=%llu lat_us_p90=%llu lat_us_p99=%llu",
                    static_cast<unsigned long long>(lat.quantile(0.50)),
                    static_cast<unsigned long long>(lat.quantile(0.90)),
                    static_cast<unsigned long long>(lat.quantile(0.99)));
      out += buf;
    }
  }
  return out;
}

[[noreturn]] void usage_and_exit(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s --role ss|br|ap|mh --index N [--brs N] [--aps-per-br N]\n"
      "          [--mhs-per-ap N] [--port-base P] [--host A.B.C.D]\n"
      "          [--rate HZ] [--msgs N] [--time-scale F] [--duration SECS]\n"
      "          [--stats-period SECS]\n",
      prog);
  std::exit(2);
}

std::uint32_t parse_host(const std::string& dotted, const char* prog) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    usage_and_exit(prog);
  }
  return (a << 24) | (b << 16) | (c << 8) | d;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    const auto num = [&](const std::string& v) -> std::uint64_t {
      char* end = nullptr;
      const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0') {
        usage_and_exit(argv[0]);
      }
      return n;
    };
    if (arg == "--role") {
      cli.role = value();
    } else if (arg == "--index") {
      cli.index = num(value());
    } else if (arg == "--brs") {
      cli.brs = num(value());
    } else if (arg == "--aps-per-br") {
      cli.aps_per_br = num(value());
    } else if (arg == "--mhs-per-ap") {
      cli.mhs_per_ap = num(value());
    } else if (arg == "--port-base") {
      cli.port_base = static_cast<std::uint16_t>(num(value()));
    } else if (arg == "--host") {
      cli.host = parse_host(value(), argv[0]);
    } else if (arg == "--rate") {
      cli.rate_hz = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--msgs") {
      cli.msgs = static_cast<std::uint32_t>(num(value()));
    } else if (arg == "--time-scale") {
      cli.time_scale = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--tick-us") {
      cli.tick_us = static_cast<std::int64_t>(num(value()));
    } else if (arg == "--duration") {
      cli.duration_secs = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--stats-period") {
      cli.stats_period_secs = std::strtod(value().c_str(), nullptr);
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (cli.role != "ss" && cli.role != "br" && cli.role != "ap" &&
      cli.role != "mh") {
    usage_and_exit(argv[0]);
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  LoopbackSpec spec;
  spec.num_brs = cli.brs;
  spec.aps_per_br = cli.aps_per_br;
  spec.mhs_per_ap = cli.mhs_per_ap;
  spec.rate_hz = cli.rate_hz;
  spec.msgs_per_source = cli.msgs;
  spec.time_scale = cli.time_scale;
  spec.tick_us = cli.tick_us;
  spec = scaled(spec);
  const Deployment dep = make_deployment(spec);

  // The static port scheme: the supervisor, then every other node in the
  // deployment's order.
  auto book = std::make_shared<AddressBook>();
  std::uint16_t port = cli.port_base;
  book->set(dep.ss.self, Endpoint{cli.host, port++});
  for (NodeId id : dep.ss.all_nodes) book->set(id, Endpoint{cli.host, port++});

  NodeId self;
  if (cli.role == "ss") {
    self = dep.ss.self;
  } else if (cli.role == "br" && cli.index < dep.brs.size()) {
    self = dep.brs[cli.index].self;
  } else if (cli.role == "ap" && cli.index < dep.aps.size()) {
    self = dep.aps[cli.index].self;
  } else if (cli.role == "mh" && cli.index < dep.mhs.size()) {
    self = dep.mhs[cli.index].self;
  } else {
    std::fprintf(stderr, "--index out of range for role %s\n",
                 cli.role.c_str());
    return 2;
  }
  const auto ep = *book->find(self);
  UdpTransport transport(self, book, ep.port, cli.host);

  std::unique_ptr<RoleNode> node;
  MhRuntime* mh_node = nullptr;
  SsRuntime* ss_node = nullptr;
  if (cli.role == "ss") {
    auto owned = std::make_unique<SsRuntime>(dep.ss, transport);
    ss_node = owned.get();
    node = std::move(owned);
  } else if (cli.role == "br") {
    node = std::make_unique<BrRuntime>(dep.brs[cli.index], transport);
  } else if (cli.role == "ap") {
    node = std::make_unique<ApRuntime>(dep.aps[cli.index], transport);
  } else {
    auto owned = std::make_unique<MhRuntime>(dep.mhs[cli.index], transport);
    mh_node = owned.get();
    node = std::move(owned);
  }

  // Every role exposes the same observability surface: an atomic metric
  // registry, a mutex-guarded flight recorder, and (MH only) a live
  // latency histogram — all safe to read from this thread mid-run.
  obs::FlightRecorder& fr = node->flight_recorder();
  const std::string node_label =
      cli.role + "[" + std::to_string(cli.index) + "]";

  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);
  std::signal(SIGUSR1, on_sigusr1);
  util::WallClock clock;
  NodeLoop loop(*node, transport, clock, spec.tick_us);
  loop.start();
  std::printf("ringnet_node %s[%zu] up on %u.%u.%u.%u:%u (%zu nodes total)\n",
              cli.role.c_str(), cli.index, (cli.host >> 24) & 255,
              (cli.host >> 16) & 255, (cli.host >> 8) & 255, cli.host & 255,
              ep.port, dep.ss.all_nodes.size() + 1);
  std::fflush(stdout);

  const std::int64_t deadline =
      cli.duration_secs > 0
          ? clock.now_us() + static_cast<std::int64_t>(cli.duration_secs * 1e6)
          : 0;
  const std::int64_t stats_period_us =
      cli.stats_period_secs > 0
          ? static_cast<std::int64_t>(cli.stats_period_secs * 1e6)
          : 0;
  std::int64_t next_stats_us =
      stats_period_us > 0 ? clock.now_us() + stats_period_us : 0;
  while (!g_interrupted) {
    clock.sleep_us(50'000);
    if (g_dump_requested) {
      g_dump_requested = 0;
      fr.take_dump_request();  // fold any pending auto-dump into this one
      std::fprintf(stderr, "%s\n",
                   fr.dump_json(node_label, "sigusr1").c_str());
      std::fflush(stderr);
    } else if (fr.take_dump_request()) {
      // Armed by the role loop itself: token regeneration (watchdog
      // expiry), a dropped token, or a delivery-order violation.
      std::fprintf(stderr, "%s\n", fr.dump_json(node_label, "auto").c_str());
      std::fflush(stderr);
    }
    if (stats_period_us > 0 && clock.now_us() >= next_stats_us) {
      next_stats_us = clock.now_us() + stats_period_us;
      std::fprintf(stderr, "%s\n",
                   stats_frame(node_label, node->metrics(), mh_node,
                               clock.now_us())
                       .c_str());
      std::fflush(stderr);
    }
    // The supervisor starts the Stop fan-out; every role, the supervisor
    // included once Stop has gone out, then reports stop_seen().
    if (ss_node != nullptr && ss_node->all_done()) ss_node->request_stop();
    if (node->stop_seen()) break;
    if (deadline != 0 && clock.now_us() >= deadline) break;
  }
  loop.stop();

  if (mh_node) {
    std::printf("ringnet_node mh[%zu]: delivered=%llu submitted=%llu "
                "gap_skipped_msgs=%llu\n",
                cli.index,
                static_cast<unsigned long long>(mh_node->delivered_count()),
                static_cast<unsigned long long>(mh_node->submitted_count()),
                static_cast<unsigned long long>(mh_node->metrics().counter(
                    obs::names::kGapSkippedMsgs)));
  }
  std::printf("ringnet_node %s[%zu]: sent=%llu received=%llu malformed=%llu\n",
              cli.role.c_str(), cli.index,
              static_cast<unsigned long long>(transport.sent()),
              static_cast<unsigned long long>(transport.received()),
              static_cast<unsigned long long>(transport.dropped_malformed()));
  return 0;
}
