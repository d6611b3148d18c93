// The shared bench helpers (bench/bench_util.hpp): scenario resolution
// through the one hoisted path every bench uses, the spec overrides
// apply_cli layers on a sweep point, and the pass/fail claim checks
// bench_paper reports through. The usage_and_exit path is covered by
// resolving first, the way bench_scenarios does.

#include <sstream>

#include "../bench/bench_util.hpp"
#include "ringnet_test.hpp"
#include "scenario/catalogue.hpp"

using namespace ringnet;

namespace {

bool contains(const std::string& text, const std::string& line) {
  return text.find(line) != std::string::npos;
}

}  // namespace

TEST(resolve_scenario_accepts_canned_names) {
  const auto parsed = bench::resolve_scenario("waypoint-roam");
  CHECK(parsed.has_value());
  if (parsed) CHECK_EQ(parsed->name, std::string("waypoint-roam"));
}

TEST(resolve_scenario_accepts_adhoc_text) {
  const auto parsed = bench::resolve_scenario(
      "name=adhoc;groups=8,per_mh=2,dest=2;traffic=poisson,rate=100");
  CHECK(parsed.has_value());
  if (!parsed) return;
  CHECK_EQ(parsed->name, std::string("adhoc"));
  CHECK(parsed->groups.has_value());
  CHECK_EQ(parsed->groups->count, std::size_t{8});
  CHECK_EQ(parsed->groups->groups_per_mh, std::size_t{2});
  CHECK_EQ(parsed->groups->dest_groups, std::size_t{2});
}

TEST(resolve_scenario_rejects_unknown) {
  CHECK(!bench::resolve_scenario("no-such-scenario").has_value());
  CHECK(!bench::resolve_scenario("mobility=warp,rate=2").has_value());
}

TEST(every_catalogue_entry_resolves) {
  // The canned entries (including the multi-group ones) must always pass
  // through the shared resolver: the benches iterate the catalogue with it.
  bool saw_group_mesh = false;
  for (const auto& c : scenario::catalogue()) {
    const auto by_name = bench::resolve_scenario(c.name);
    const auto by_text = bench::resolve_scenario(c.text);
    CHECK(by_name.has_value());
    CHECK(by_text.has_value());
    if (by_name && by_text) CHECK_EQ(by_name->name, by_text->name);
    saw_group_mesh |= c.name == "group-mesh";
  }
  CHECK(saw_group_mesh);
}

TEST(apply_cli_layers_overrides) {
  bench::Options opts;
  opts.seed = 99;
  opts.smoke = true;
  opts.shard_threads = 3;
  baseline::RunSpec spec;
  bench::apply_cli(opts, spec);
  CHECK_EQ(spec.seed, std::uint64_t{99});
  CHECK(spec.shard);
  CHECK_EQ(spec.shard_threads, std::size_t{3});
  // The smoke preset still covers the latest canned fault time (1.5s).
  CHECK(spec.warmup == sim::secs(0.2));
  CHECK(spec.run == sim::secs(1.6));
  CHECK(spec.drain == sim::secs(0.75));
  // --run wins over the smoke preset's window.
  opts.run_secs = 3.5;
  bench::apply_cli(opts, spec);
  CHECK(spec.run == sim::secs(3.5));
}

TEST(passing_checks_leave_exit_status_zero) {
  std::ostringstream out;
  bench::Checks checks(out);
  checks.begin("E0");
  CHECK(checks.compare("at-most", "r=1", 1.0, bench::Checks::Op::Le, 2.0, 1));
  CHECK(checks.record("text", "r=2", true, "yes", "yes"));
  CHECK_EQ(checks.finish(), 0);
  CHECK(contains(out.str(), "PASS E0 at-most r=1: 1.0 vs <= 2.0\n"));
  CHECK(contains(out.str(), "PASS E0 text r=2: yes vs yes\n"));
  CHECK(contains(out.str(), "SUMMARY 2 checks, 0 failed\n"));
}

TEST(a_failing_check_sets_exit_status_one_and_names_its_row) {
  std::ostringstream out;
  bench::Checks checks(out);
  checks.begin("E3");
  CHECK(checks.compare("order-max", "tau=1", 25.02, bench::Checks::Op::Le,
                       25.74, 2));
  CHECK(!checks.compare("e2e-max", "r=16", 101.5, bench::Checks::Op::Le,
                        100.49, 2));
  checks.begin("A4");
  CHECK(checks.compare("gaps", "retention=0", std::uint64_t{31},
                       bench::Checks::Op::Gt, 0, 0));
  CHECK_EQ(checks.finish(), 1);
  CHECK(contains(out.str(), "PASS E3 order-max tau=1: 25.02 vs <= 25.74\n"));
  CHECK(contains(out.str(), "FAIL E3 e2e-max r=16: 101.50 vs <= 100.49\n"));
  CHECK(contains(out.str(), "PASS A4 gaps retention=0: 31 vs > 0\n"));
  CHECK(contains(out.str(), "SUMMARY 3 checks, 1 failed\n"));
}

TEST(check_operators_hold_at_the_boundary) {
  std::ostringstream out;
  bench::Checks checks(out);
  using Op = bench::Checks::Op;
  checks.begin("X");
  CHECK(checks.compare("le", "eq", 2, Op::Le, 2, 0));
  CHECK(!checks.compare("lt", "eq", 2, Op::Lt, 2, 0));
  CHECK(checks.compare("ge", "eq", 2, Op::Ge, 2, 0));
  CHECK(!checks.compare("gt", "eq", 2, Op::Gt, 2, 0));
  CHECK(checks.compare("eq", "eq", 2, Op::Eq, 2, 0));
  CHECK(!checks.compare("eq", "ne", 2, Op::Eq, 3, 0));
  CHECK_EQ(checks.finish(), 1);
  CHECK(contains(out.str(), "FAIL X lt eq: 2 vs < 2\n"));
}

TEST(check_lines_wait_for_flush) {
  // A claim checks rows while it fills its table; its lines print after.
  std::ostringstream out;
  bench::Checks checks(out);
  checks.begin("E1");
  checks.record("valid", "2x1x1x1", true, "yes", "yes");
  CHECK(out.str().empty());
  checks.flush();
  CHECK_EQ(out.str(), std::string("PASS E1 valid 2x1x1x1: yes vs yes\n"));
}

TEST_MAIN()
