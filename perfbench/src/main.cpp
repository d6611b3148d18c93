// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --describe        metric and workload tables as JSON
//
// Repeats seed-determined episodes of one workload until S seconds have
// passed (at least three), checks each episode's deliveries, requires the
// exact counts to repeat across episodes, and prints as its last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run alternates untraced and traced episodes; the
// per-layer figures come from the traced ones and the CPU difference
// between the two kinds is the tracing overhead.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "runtime_bench.hpp"
#include "sim_bench.hpp"

namespace {

using perfbench::Episode;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"lat_p50_us", "us", "lower"},
    {"lat_p99_us", "us", "lower"},
    {"cpu_us_per_delivery", "us", "lower"},
    {"deliveries_per_s", "1/s", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

// Every traced run prints all of these. A layer a workload does not run
// through reads 0 there (the sim has no sockets, the runtime no sharded
// scheduler); README.md maps each metric to the workload it is read on.
constexpr MetricDef kPerLayer[] = {
    {"runtime.transport.frames_per_delivery", "count", "lower"},
    {"runtime.transport.bytes_per_delivery", "B", "lower"},
    {"runtime.transport.send_ns", "ns", "lower"},
    {"runtime.transport.recv_ns", "ns", "lower"},
    {"runtime.transport.send_failures", "count", "lower"},
    {"proto.decode_ns_per_frame", "ns", "lower"},
    {"proto.encode_ns_per_frame", "ns", "lower"},
    {"proto.unframe_ns_per_frame", "ns", "lower"},
    {"runtime.br.datagram_us_per_delivery", "us", "lower"},
    {"runtime.br.tick_us_per_delivery", "us", "lower"},
    {"runtime.ap.datagram_us_per_delivery", "us", "lower"},
    {"runtime.ap.tick_us_per_delivery", "us", "lower"},
    {"runtime.mh.datagram_us_per_delivery", "us", "lower"},
    {"runtime.mh.tick_us_per_delivery", "us", "lower"},
    {"runtime.ss.us_per_delivery", "us", "lower"},
    {"runtime.br.msgs_per_token_hold", "count", "higher"},
    {"runtime.br.acks_per_delivery", "count", "lower"},
    {"runtime.br.resends_per_delivery", "count", "lower"},
    {"runtime.br.token_rotation_us", "us", "lower"},
    {"runtime.stage.submit_p50_us", "us", "lower"},
    {"runtime.stage.submit_p99_us", "us", "lower"},
    {"runtime.stage.assign_p50_us", "us", "lower"},
    {"runtime.stage.assign_p99_us", "us", "lower"},
    {"runtime.stage.relay_p50_us", "us", "lower"},
    {"runtime.stage.relay_p99_us", "us", "lower"},
    {"runtime.stage.deliver_p50_us", "us", "lower"},
    {"runtime.stage.deliver_p99_us", "us", "lower"},
    {"runtime.source.late_p50_us", "us", "lower"},
    {"runtime.source.late_p99_us", "us", "lower"},
    {"sim.setup.config_s", "s", "lower"},
    {"sim.setup.protocol_s", "s", "lower"},
    {"sim.sched.events_per_delivery", "count", "lower"},
    {"sim.sched.windows", "count", "lower"},
    {"sim.sched.serial_steps", "count", "lower"},
    {"sim.sched.inbox_deferred", "count", "lower"},
    {"sim.sched.ns_per_event", "ns", "lower"},
    {"sim.sched.worker_busy_share", "share", "higher"},
    {"sim.sched.slice_wall_ms_p50", "ms", "lower"},
    {"sim.sched.slice_wall_ms_p99", "ms", "lower"},
    {"core.buf.mq_peak", "count", "lower"},
    {"core.buf.archive_peak", "count", "lower"},
    {"bench.driver.self_share", "share", "lower"},
    {"bench.budget.residual_share", "share", "lower"},
    {"bench.trace.overhead_share", "share", "lower"},
};

struct WorkloadDef {
  std::string name;
  std::string why;
  std::function<std::function<Episode(bool)>(std::uint64_t)> prepare;
  bool single_thread = true;
};

std::vector<WorkloadDef> workloads() {
  std::vector<WorkloadDef> out;
  const char* why[] = {
      "UDP runtime at 400 Hz/source, ~12.5 msgs per token hold: per-frame "
      "codec, socket and role work dominate",
      "UDP runtime, 8 groups, 2 per MH, 2 per message, 200 Hz: the genuine "
      "multi-group chain delivery path",
  };
  std::size_t i = 0;
  for (const auto& w : perfbench::runtime_workloads()) {
    out.push_back({w.name, why[i++], [w](std::uint64_t seed) {
                     auto in = std::make_shared<perfbench::RuntimeInputs>(
                         perfbench::make_runtime_inputs(w, seed));
                     return std::function<Episode(bool)>([in](bool traced) {
                       return perfbench::run_runtime_episode(*in, traced);
                     });
                   }});
  }
  out.push_back({"sim-e13",
                 "E13 shape on the sharded simulator: 100k MHs in 16 BR "
                 "domains, 32 sources, 2 pool workers",
                 [](std::uint64_t seed) {
                   const perfbench::SimInputs in = perfbench::make_sim_inputs(seed);
                   return std::function<Episode(bool)>([in](bool traced) {
                     return perfbench::run_sim_episode(in, traced);
                   });
                 },
                 false});
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
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

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Run the calling (only) thread on CPU `c` until the next call.
void pin_to(int c) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(c, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void describe() {
  std::printf("{\"workloads\": [");
  const auto ws = workloads();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    std::printf("%s{\"name\": %s, \"why\": %s}", i ? ", " : "",
                json_str(ws[i].name).c_str(), json_str(ws[i].why).c_str());
  }
  const auto table = [](const char* key, const MetricDef* defs, std::size_t n) {
    std::printf("], \"%s\": [", key);
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  i ? ", " : "", defs[i].name, defs[i].unit, defs[i].better);
    }
  };
  table("end_to_end", kEndToEnd, std::size(kEndToEnd));
  table("per_layer", kPerLayer, std::size(kPerLayer));
  std::printf("]}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "       %s --describe\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build\n");
  return 3;
#endif
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--describe") {
      describe();
      return 0;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  const auto ws = workloads();
  const WorkloadDef* def = nullptr;
  for (const auto& w : ws) {
    if (w.name == workload) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage(argv[0]);
  }

  const std::vector<int> cpus = allowed_cpus();
  std::printf("context {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"cpus_allowed\": %zu, \"nproc\": %ld, \"cpu\": %s, "
              "\"compiler\": %s, \"build_type\": %s}\n",
              json_str(workload).c_str(), static_cast<unsigned long long>(seed),
              trace ? 1 : 0, cpus.size(), sysconf(_SC_NPROCESSORS_ONLN),
              json_str(cpu_model()).c_str(), json_str(PERFBENCH_COMPILER).c_str(),
              json_str(PERFBENCH_BUILD_TYPE).c_str());
  std::fflush(stdout);

  // Inputs are made once from the seed; every episode replays them.
  const std::function<Episode(bool)> episode = def->prepare(seed);
  constexpr std::size_t kMinEpisodes = 3;
  std::vector<Episode> eps;
  const double t0 = perfbench::wall_s();
  bool broken = false;
  while (!broken && (eps.size() < kMinEpisodes + (trace ? 1 : 0) ||
                     perfbench::wall_s() - t0 < seconds)) {
    // A traced run alternates: untraced, traced, untraced, traced, ...
    const bool traced = trace && eps.size() % 2 == 1;
    // A single-threaded episode runs pinned to one CPU, so loopback delivery
    // always runs in the sender's own softirq and is charged to this
    // process (unpinned, it sometimes lands in ksoftirqd on another CPU).
    // Successive episodes take the allowed CPUs in turn: host contention
    // moves between vCPUs over seconds, and a run that sat on one vCPU
    // read its contention, not the protocol's cost.
    if (def->single_thread && !cpus.empty()) pin_to(cpus[eps.size() % cpus.size()]);
    eps.push_back(episode(traced));
    // Hand the episode's freed memory back to the kernel, so every set-up
    // starts from the same allocator state as the first one.
    malloc_trim(0);
    const Episode& ep = eps.back();
    std::printf("episode %zu%s: setup_s=%.6f cpu_us/delivery=%.4f "
                "deliveries/s=%.0f deliveries=%llu failed=%llu\n",
                eps.size(), traced ? " (traced)" : "", ep.setup_s,
                ep.deliveries ? ep.cpu_s * 1e6 / static_cast<double>(ep.deliveries) : 0.0,
                ep.wall_s > 0 ? static_cast<double>(ep.deliveries) / ep.wall_s : 0.0,
                static_cast<unsigned long long>(ep.deliveries),
                static_cast<unsigned long long>(ep.failed));
    for (const auto& p : ep.problems) std::printf("  problem: %s\n", p.c_str());
    std::fflush(stdout);
    broken = ep.failed > 0;
  }

  // Exact counts must repeat across the run's episodes (same seed, same
  // inputs); a difference is nondeterminism and fails the run.
  std::uint64_t attempted = 0, failed = 0;
  for (const Episode& ep : eps) {
    attempted += ep.attempted;
    failed += ep.failed;
    if (ep.exact != eps.front().exact) {
      std::printf("  problem: exact counts differ between episodes\n");
      failed += 1;
    }
  }
  std::printf("exact {");
  bool first = true;
  for (const auto& [k, v] : eps.front().exact) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(), num(v).c_str());
    first = false;
  }
  std::printf("}\n");

  // Cost figures are whole-run ratios (all CPU over all deliveries), not
  // medians of episodes: host interference on this class of machine comes
  // in regimes lasting seconds, ~1.6x apart, and a median jumps between
  // regimes while a ratio moves smoothly with their mix.
  struct Totals {
    double cpu_s = 0.0, wall_s = 0.0, deliveries = 0.0;
    double cpu_us_per_delivery() const {
      return deliveries > 0 ? cpu_s * 1e6 / deliveries : 0.0;
    }
  } plain, traced_totals;
  std::vector<double> setup, lat50, lat99;
  for (const Episode& ep : eps) {
    setup.push_back(ep.setup_s);
    lat50.push_back(ep.lat_p50_us);
    lat99.push_back(ep.lat_p99_us);
    Totals& t = ep.traced ? traced_totals : plain;
    t.cpu_s += ep.cpu_s;
    t.wall_s += ep.wall_s;
    t.deliveries += static_cast<double>(ep.deliveries);
  }
  std::printf("latency samples per episode: %llu (p99 has %llu beyond it)\n",
              static_cast<unsigned long long>(eps.front().lat_samples),
              static_cast<unsigned long long>(eps.front().lat_samples / 100));

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!trace) {
    metrics.push_back({"setup_s", {perfbench::median(setup), "s"}});
    metrics.push_back({"lat_p50_us", {perfbench::median(lat50), "us"}});
    metrics.push_back({"lat_p99_us", {perfbench::median(lat99), "us"}});
    metrics.push_back({"cpu_us_per_delivery", {plain.cpu_us_per_delivery(), "us"}});
    metrics.push_back({"deliveries_per_s",
                       {plain.wall_s > 0 ? plain.deliveries / plain.wall_s : 0.0, "1/s"}});
    metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
  } else {
    // Tracing overhead: traced episodes' CPU per delivery over untraced.
    const double base = plain.cpu_us_per_delivery();
    const double overhead =
        base > 0 ? traced_totals.cpu_us_per_delivery() / base - 1.0 : 0.0;
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> vals;
      for (const Episode& ep : eps) {
        if (!ep.traced) continue;
        const auto it = ep.layer.find(m.name);
        vals.push_back(it == ep.layer.end() ? 0.0 : it->second);
      }
      const bool is_overhead = std::strcmp(m.name, "bench.trace.overhead_share") == 0;
      metrics.push_back({m.name, {is_overhead ? overhead : perfbench::median(vals), m.unit}});
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.c_str(), num(metrics[i].second.first).c_str(),
                metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
