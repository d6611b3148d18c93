#pragma once
// Shared helpers for the experiment benches: parallel sweep execution (one
// deterministic Simulation per sweep point, fanned across a thread pool),
// table headers, pass/fail claim checks, and common CLI parsing (seed /
// duration / scenario overrides) so benches stop duplicating argv handling.
// Analytic bounds live in the library proper (core/analysis.hpp) so
// applications can size deployments with the same model the benches
// validate.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/harness.hpp"
#include "core/analysis.hpp"
#include "scenario/catalogue.hpp"
#include "stats/table.hpp"
#include "util/thread_pool.hpp"

namespace ringnet::bench {

/// Run `specs` concurrently (deterministic per spec), preserving order.
inline std::vector<baseline::RunResult> run_all(
    const std::vector<baseline::RunSpec>& specs) {
  return util::parallel_map<baseline::RunResult>(
      specs.size(),
      [&specs](std::size_t i) { return baseline::run_experiment(specs[i]); });
}

inline void print_header(const std::string& title, const std::string& claim) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n", title.c_str());
  std::printf("# Paper claim: %s\n", claim.c_str());
  std::printf("################################################################\n\n");
}

/// `v` printed to `precision` decimals.
inline std::string fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Paper-claim verdicts. Each check becomes one
/// `PASS|FAIL <claim> <check> <row>: <measured> vs <op> <bound>` line, held
/// until flush() so a claim can check rows while it fills its table and
/// still print the table first. Any failure makes the exit status 1.
class Checks {
 public:
  enum class Op { Le, Lt, Ge, Gt, Eq };

  explicit Checks(std::ostream& out) : out_(out) {}

  /// Name the claim the following checks belong to.
  void begin(std::string claim) { claim_ = std::move(claim); }

  /// Record a verdict whose two sides are already text.
  bool record(std::string_view check, std::string_view row, bool ok,
              std::string_view measured, std::string_view bound) {
    ++total_;
    if (!ok) ++failed_;
    pending_ << (ok ? "PASS " : "FAIL ") << claim_ << ' ' << check << ' '
             << row << ": " << measured << " vs " << bound << '\n';
    return ok;
  }

  /// Record `measured <op> bound` for any two arithmetic values, both
  /// printed to `precision`.
  template <typename M, typename B>
  bool compare(std::string_view check, std::string_view row, M measured,
               Op op, B bound, int precision) {
    static constexpr const char* kSymbols[] = {"<= ", "< ", ">= ", "> ",
                                               "== "};
    const auto m = static_cast<double>(measured);
    const auto b = static_cast<double>(bound);
    const bool ok = op == Op::Le   ? m <= b
                    : op == Op::Lt ? m < b
                    : op == Op::Ge ? m >= b
                    : op == Op::Gt ? m > b
                                   : m == b;
    return record(check, row, ok, fixed(m, precision),
                  kSymbols[static_cast<int>(op)] + fixed(b, precision));
  }

  /// Print the lines recorded since the last flush.
  void flush() {
    out_ << pending_.str();
    pending_.str("");
  }

  /// Flush, print the summary line and return the process exit status.
  int finish() {
    flush();
    out_ << "SUMMARY " << total_ << " checks, " << failed_ << " failed\n";
    return failed_ == 0 ? 0 : 1;
  }

 private:
  std::ostream& out_;
  std::string claim_;
  std::ostringstream pending_;
  std::size_t total_ = 0;
  std::size_t failed_ = 0;
};

/// Common bench CLI:
///   --seed N       override every sweep point's seed
///   --run SECONDS  override the measured-run duration
///   --scenario S   canned scenario name or ad-hoc parse_scenario() text
///   --smoke        short-run preset (run 1.6s — the smallest window that
///                  still covers every canned fault time with live sources)
///   --shard N      run every sweep point on the domain-sharded parallel
///                  engine with N worker threads (N=0: single-heap oracle
///                  over the same domain plan)
///   --spans        record message-lifecycle spans on every sweep point
///                  (benches that support it print the per-stage breakdown)
///   --list         print the canned scenario catalogue and exit
struct Options {
  std::optional<std::uint64_t> seed;
  std::optional<double> run_secs;
  std::optional<std::string> scenario;
  std::optional<std::size_t> shard_threads;
  bool smoke = false;
  bool spans = false;
};

[[noreturn]] inline void usage_and_exit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--run SECONDS] [--scenario NAME|TEXT] "
               "[--shard THREADS] [--smoke] [--spans] [--list]\n",
               prog);
  std::exit(2);
}

inline Options parse_cli(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      // strtoull silently wraps negatives: reject them like any other typo.
      if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0') {
        usage_and_exit(argv[0]);
      }
    } else if (arg == "--run") {
      const std::string v = value();
      char* end = nullptr;
      opts.run_secs = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || *opts.run_secs <= 0.0) {
        usage_and_exit(argv[0]);
      }
    } else if (arg == "--scenario") {
      opts.scenario = value();
    } else if (arg == "--shard") {
      const std::string v = value();
      char* end = nullptr;
      opts.shard_threads = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0') {
        usage_and_exit(argv[0]);
      }
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--spans") {
      opts.spans = true;
    } else if (arg == "--list") {
      for (const auto& c : scenario::catalogue()) {
        std::printf("%-14s %s\n    %s\n", c.name.c_str(), c.summary.c_str(),
                    c.text.c_str());
      }
      std::exit(0);
    } else {
      usage_and_exit(argv[0]);
    }
  }
  return opts;
}

/// Resolve a scenario name (or ad-hoc parse_scenario text) through the
/// catalogue, printing the parser's diagnostic and a --list hint on stderr
/// when it fails. The single resolution path shared by every scenario-aware
/// bench — per-bench copies of this lambda had already drifted apart in
/// their diagnostics before it was hoisted here.
inline std::optional<scenario::ScenarioSpec> resolve_scenario(
    const std::string& text) {
  std::string error;
  auto parsed = scenario::find_scenario(text, &error);
  if (!parsed) {
    std::fprintf(stderr, "bad scenario '%s': %s (try --list)\n", text.c_str(),
                 error.c_str());
  }
  return parsed;
}

/// Apply the shared seed / shard / window / spans overrides to one sweep
/// point. `--scenario` is the caller's to resolve (resolve_scenario): a
/// scenario sweep assigns each resolved spec itself.
inline void apply_cli(const Options& opts, baseline::RunSpec& spec) {
  if (opts.seed) spec.seed = *opts.seed;
  if (opts.shard_threads) {
    spec.shard = true;
    spec.shard_threads = *opts.shard_threads;
  }
  if (opts.smoke) {
    // The measured window must still cover every canned fault/churn event
    // time (latest: token-storm's second loss at 1.5s) with live sources,
    // or the smoke gate would pass vacuously on the fault scenarios.
    spec.warmup = sim::secs(0.2);
    spec.run = sim::secs(1.6);
    spec.drain = sim::secs(0.75);
  }
  if (opts.run_secs) spec.run = sim::secs(*opts.run_secs);
  if (opts.spans) spec.config.record_spans = true;
}

}  // namespace ringnet::bench
