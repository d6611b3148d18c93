// E13: domain-sharded scaling sweep. One deployment shape (16 BR subtrees,
// zero-loss channels, ack-driven pruning throttled so delivery fan-out
// dominates) swept over the MH population (10k -> 1M) and the worker count
// (serial oracle, then 1 -> hardware_concurrency threads). Reports wall
// time, executed events, deliveries, deliveries/second, events per delivery
// and speedup over the single-heap oracle. A downlink event reaches every
// member due at one instant, so deliveries/s (not events/s) is the
// throughput figure. --json emits the numbers in google-benchmark format,
// with the build type and CPU model in its context, so tools/bench_diff.py
// and plotting scripts can consume them like any micro run.
//
//   bench_scale [--smoke] [--seed N] [--json FILE]
//
// --smoke shrinks the sweep to the 10k population and <=2 threads: a
// seconds-long CI gate that still exercises the full parallel machinery.
// Every sharded point must execute the oracle's event count and make its
// delivery count; the sweep exits 1 otherwise.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "sim/simulation.hpp"
#include "stats/table.hpp"

namespace {

using namespace ringnet;

struct SweepPoint {
  std::size_t mhs = 0;
  std::size_t threads = 0;  // 0 = single-heap oracle
};

struct SweepResult {
  SweepPoint point;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  double events_per_s = 0.0;
  double deliveries_per_s = 0.0;
  double events_per_delivery = 0.0;
  double speedup = 1.0;  // vs the oracle at the same population
};

constexpr std::size_t kBrs = 16;
constexpr std::size_t kApsPerAg = 25;

baseline::RunSpec make_spec(std::size_t mhs, std::size_t threads,
                            std::uint64_t seed, bool smoke) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = kBrs;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = kApsPerAg;
  spec.config.hierarchy.mhs_per_ap = mhs / (kBrs * kApsPerAg);
  // Zero-loss channels: the sweep measures engine throughput, not ARQ.
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = 32;
  spec.config.source.rate_hz = smoke ? 10.0 : 4.0;
  spec.config.source.pattern = core::TrafficPattern::Constant;
  // Acks every 100ms instead of 10ms: at 1M members the default cadence
  // would drown the delivery fan-out this sweep is sized around.
  spec.config.options.ack_period = sim::msecs(100);
  // A per-delivery log over populations this size is O(GB): off.
  spec.config.record_deliveries = false;
  spec.warmup = sim::SimTime::zero();
  spec.run = smoke ? sim::secs(0.1) : sim::secs(0.25);
  spec.drain = sim::secs(0.05);
  spec.seed = seed;
  spec.shard = true;
  spec.shard_threads = threads;
  return spec;
}

SweepResult run_point(const SweepPoint& p, std::uint64_t seed, bool smoke) {
  const auto spec = make_spec(p.mhs, p.threads, seed, smoke);
  const core::ProtocolConfig cfg = baseline::effective_config(spec);
  sim::Simulation sim(spec.seed, baseline::shard_plan(spec, cfg));
  core::RingNetProtocol proto(sim, cfg);
  proto.start();

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_for(spec.run);
  proto.stop_sources();
  sim.run_for(spec.drain);
  const auto t1 = std::chrono::steady_clock::now();

  SweepResult r;
  r.point = p;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = sim.executed_events();
  r.delivered = sim.metrics().counter(obs::names::kMhDelivered);
  if (r.wall_s > 0.0) {
    r.events_per_s = static_cast<double>(r.events) / r.wall_s;
    r.deliveries_per_s = static_cast<double>(r.delivered) / r.wall_s;
  }
  if (r.delivered > 0) {
    r.events_per_delivery =
        static_cast<double>(r.events) / static_cast<double>(r.delivered);
  }
  return r;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void write_json(const std::string& path,
                const std::vector<SweepResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"num_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"cpu_model\": %s,\n", json_str(cpu_model()).c_str());
  std::fprintf(f, "    \"library_build_type\": %s\n  },\n",
               json_str(RINGNET_BUILD_TYPE).c_str());
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"BM_ScaleSweep/mhs:%zu/threads:%zu\",\n",
                 r.point.mhs, r.point.threads);
    std::fprintf(f, "      \"run_type\": \"iteration\",\n");
    std::fprintf(f, "      \"iterations\": 1,\n");
    std::fprintf(f, "      \"real_time\": %.6e,\n", r.wall_s * 1e3);
    std::fprintf(f, "      \"cpu_time\": %.6e,\n", r.wall_s * 1e3);
    std::fprintf(f, "      \"time_unit\": \"ms\",\n");
    std::fprintf(f, "      \"events\": %llu,\n",
                 static_cast<unsigned long long>(r.events));
    std::fprintf(f, "      \"delivered\": %llu,\n",
                 static_cast<unsigned long long>(r.delivered));
    std::fprintf(f, "      \"events_per_second\": %.6e,\n", r.events_per_s);
    std::fprintf(f, "      \"deliveries_per_second\": %.6e,\n",
                 r.deliveries_per_s);
    std::fprintf(f, "      \"events_per_delivery\": %.4f,\n",
                 r.events_per_delivery);
    std::fprintf(f, "      \"speedup_vs_serial\": %.4f\n", r.speedup);
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seed = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seed N] [--json FILE]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> populations;
  std::vector<std::size_t> threads{0, 1};  // oracle, then workers
  if (smoke) {
    populations = {10'000};
    if (hw >= 2) threads.push_back(2);
  } else {
    populations = {10'000, 100'000, 1'000'000};
    for (std::size_t t = 2; t <= hw; t *= 2) threads.push_back(t);
    if (threads.back() != hw) threads.push_back(hw);
  }

  std::printf(
      "# E13 scale sweep: %zu BR domains, zero loss, seed %llu%s\n"
      "# speedup is vs the single-heap oracle at the same population\n\n",
      kBrs, static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");
  std::printf("%10s %8s %9s %10s %11s %11s %12s %7s %8s\n", "mhs",
              "threads", "wall_s", "events", "delivered", "events/s",
              "deliveries/s", "ev/dlv", "speedup");

  std::vector<SweepResult> results;
  for (const std::size_t mhs : populations) {
    SweepResult oracle;  // threads[0] == 0: the oracle runs first
    for (const std::size_t t : threads) {
      SweepResult r = run_point(SweepPoint{mhs, t}, seed, smoke);
      if (t == 0) {
        oracle = r;
      } else if (r.events != oracle.events || r.delivered != oracle.delivered) {
        // The parallel engine must execute exactly the oracle's run: the
        // same events, and the same deliveries from them.
        std::fprintf(stderr,
                     "FATAL: run diverged from the oracle at mhs=%zu "
                     "threads=%zu (events %llu vs %llu, delivered %llu vs "
                     "%llu)\n",
                     mhs, t, static_cast<unsigned long long>(r.events),
                     static_cast<unsigned long long>(oracle.events),
                     static_cast<unsigned long long>(r.delivered),
                     static_cast<unsigned long long>(oracle.delivered));
        return 1;
      }
      r.speedup = oracle.events_per_s > 0.0
                      ? r.events_per_s / oracle.events_per_s
                      : 1.0;
      std::printf("%10zu %8s %9.3f %10llu %11llu %11.3e %12.3e %7.3f %7.2fx\n",
                  mhs, t == 0 ? "oracle" : std::to_string(t).c_str(),
                  r.wall_s, static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.delivered),
                  r.events_per_s, r.deliveries_per_s, r.events_per_delivery,
                  r.speedup);
      results.push_back(r);
    }
  }

  if (!json_path.empty()) write_json(json_path, results);
  return 0;
}
