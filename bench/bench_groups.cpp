// E15: multi-group genuineness sweep. One deployment shape swept over the
// total group count (1 -> 256, overlap fixed) and then over the overlap
// degree (memberships per MH at a fixed group count), measuring deliveries
// per submitted message — the per-message delivery cost. Genuine multicast
// means that cost tracks the destination groups' membership size, not the
// number of groups sharing the ring: it must fall as the population spreads
// over more groups and rise with the overlap degree. Both monotonicity
// gates and the zero-pairwise-order-violation gate exit non-zero on
// failure, so CI can run this as a correctness smoke as well as a bench.
//
//   bench_groups [--smoke] [--seed N] [--shard THREADS] [--json FILE]
//
// --json emits google-benchmark format for tools/bench_diff.py trajectory
// tracking; --smoke shrinks both sweeps to a seconds-long CI gate.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/harness.hpp"
#include "net/channel.hpp"

namespace {

using namespace ringnet;

struct SweepResult {
  std::size_t groups = 0;
  std::size_t per_mh = 0;
  double wall_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double deliveries_per_msg = 0.0;
};

baseline::RunSpec make_spec(std::size_t groups, std::size_t per_mh,
                            std::uint64_t seed, bool smoke,
                            std::size_t shard_threads, bool shard) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = 4;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = 4;
  spec.config.hierarchy.mhs_per_ap = 4;  // 64 MHs
  // Zero-loss channels: the sweep measures delivery fan-out, not ARQ.
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = 8;
  spec.config.source.rate_hz = smoke ? 60.0 : 120.0;
  spec.config.groups.count = groups;
  spec.config.groups.groups_per_mh = per_mh;
  spec.config.groups.dest_groups = 2;
  spec.warmup = sim::secs(0.1);
  spec.run = smoke ? sim::secs(0.5) : sim::secs(1.5);
  spec.drain = sim::secs(0.5);
  spec.seed = seed;
  spec.shard = shard;
  spec.shard_threads = shard_threads;
  return spec;
}

int failures = 0;

SweepResult run_point(std::size_t groups, std::size_t per_mh,
                      std::uint64_t seed, bool smoke,
                      std::size_t shard_threads, bool shard) {
  const auto spec =
      make_spec(groups, per_mh, seed, smoke, shard_threads, shard);
  const auto t0 = std::chrono::steady_clock::now();
  const baseline::RunResult res = baseline::run_experiment(spec);
  const auto t1 = std::chrono::steady_clock::now();

  SweepResult r;
  r.groups = groups;
  r.per_mh = per_mh;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.sent = res.total_sent;
  r.delivered = res.metrics.counter(obs::names::kMhDelivered);
  r.deliveries_per_msg =
      r.sent > 0 ? static_cast<double>(r.delivered) /
                       static_cast<double>(r.sent)
                 : 0.0;
  if (res.order_violation) {
    std::fprintf(stderr, "FAIL: order violation at groups=%zu per_mh=%zu: %s\n",
                 groups, per_mh, res.order_violation->c_str());
    ++failures;
  }
  if (r.sent == 0 || r.delivered == 0) {
    std::fprintf(stderr, "FAIL: empty run at groups=%zu per_mh=%zu\n", groups,
                 per_mh);
    ++failures;
  }
  std::printf("%8zu %8zu %10.3f %10llu %12llu %16.2f\n", groups, per_mh,
              r.wall_s, static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.delivered),
              r.deliveries_per_msg);
  return r;
}

void write_json(const std::string& path,
                const std::vector<SweepResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"library_build_type\": \"release\"\n  },\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f,
                 "      \"name\": \"BM_GroupSweep/groups:%zu/per_mh:%zu\",\n",
                 r.groups, r.per_mh);
    std::fprintf(f, "      \"run_type\": \"iteration\",\n");
    std::fprintf(f, "      \"iterations\": 1,\n");
    std::fprintf(f, "      \"real_time\": %.6e,\n", r.wall_s * 1e3);
    std::fprintf(f, "      \"cpu_time\": %.6e,\n", r.wall_s * 1e3);
    std::fprintf(f, "      \"time_unit\": \"ms\",\n");
    std::fprintf(f, "      \"deliveries_per_msg\": %.4f\n",
                 r.deliveries_per_msg);
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool shard = false;
  std::size_t shard_threads = 0;
  std::uint64_t seed = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      shard = true;
      shard_threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seed N] [--shard THREADS] "
                   "[--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf(
      "# E15 multi-group genuineness sweep: 4 BR domains, 64 MHs, "
      "8 sources, dest=2, seed %llu%s\n"
      "# deliveries/msg must fall with group count and rise with overlap\n\n",
      static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");
  std::printf("%8s %8s %10s %10s %12s %16s\n", "groups", "per_mh", "wall_s",
              "sent", "delivered", "deliveries/msg");

  const std::vector<std::size_t> group_sweep =
      smoke ? std::vector<std::size_t>{1, 8, 64}
            : std::vector<std::size_t>{1, 4, 16, 64, 256};
  const std::vector<std::size_t> overlap_sweep =
      smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2,
                                                                        4, 8};
  std::vector<SweepResult> results;

  // Sweep A: total group count at fixed overlap. Per-message cost must not
  // grow: the destination groups' membership shrinks as the fixed
  // population spreads over more groups, and non-destination groups must
  // cost nothing (genuineness).
  std::vector<double> by_groups;
  for (const std::size_t g : group_sweep) {
    const SweepResult r = run_point(g, 2, seed, smoke, shard_threads, shard);
    by_groups.push_back(r.deliveries_per_msg);
    results.push_back(r);
  }
  for (std::size_t i = 1; i < by_groups.size(); ++i) {
    // Allow 5% jitter between adjacent points; the endpoints must show a
    // clear fall (spreading 64 MHs over 64x more groups shrinks every
    // destination set).
    if (by_groups[i] > by_groups[i - 1] * 1.05) {
      std::fprintf(stderr,
                   "FAIL: deliveries/msg rose with group count "
                   "(%zu groups: %.2f -> %zu groups: %.2f)\n",
                   group_sweep[i - 1], by_groups[i - 1], group_sweep[i],
                   by_groups[i]);
      ++failures;
    }
  }
  if (by_groups.back() >= by_groups.front() * 0.5) {
    std::fprintf(stderr,
                 "FAIL: per-message cost barely fell across the group sweep "
                 "(%.2f -> %.2f): relay is not genuine\n",
                 by_groups.front(), by_groups.back());
    ++failures;
  }

  std::printf("\n");

  // Sweep B: overlap degree at a fixed group count. Per-message cost must
  // track destination membership, which grows with memberships per MH.
  std::vector<double> by_overlap;
  const std::size_t fixed_groups = 16;
  for (const std::size_t per : overlap_sweep) {
    const SweepResult r =
        run_point(fixed_groups, per, seed, smoke, shard_threads, shard);
    by_overlap.push_back(r.deliveries_per_msg);
    results.push_back(r);
  }
  for (std::size_t i = 1; i < by_overlap.size(); ++i) {
    if (by_overlap[i] < by_overlap[i - 1] * 0.95) {
      std::fprintf(stderr,
                   "FAIL: deliveries/msg fell as overlap grew "
                   "(per_mh %zu: %.2f -> per_mh %zu: %.2f)\n",
                   overlap_sweep[i - 1], by_overlap[i - 1], overlap_sweep[i],
                   by_overlap[i]);
      ++failures;
    }
  }

  if (!json_path.empty()) write_json(json_path, results);
  std::printf("\nbench_groups: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
