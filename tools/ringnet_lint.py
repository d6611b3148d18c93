#!/usr/bin/env python3
"""ringnet invariant linter.

Enforces repo-specific invariants that clang-tidy cannot express. Run from
anywhere; the repo root is located relative to this file (override with
--repo). Exit status: 0 clean, 1 violations found, 2 internal error.
Header self-containment is checked by the build instead: the
ringnet_header_check target compiles every public header on its own.

Rules
-----
RN002 map-in-core-header
    No `std::map` in core/ headers unless the declaration carries a
    `// lint: map-ok` rationale within the three lines above it (or on
    the line itself). Node-based ordered maps are a hot-path liability;
    a rationale must say what the ordering buys (e.g. MessageQueue's
    in-order prune/lower_bound walk).

RN003 raw-rng
    No `rand()`, `srand()`, `std::random_device`, or std::mt19937 outside
    util/rng. Every stochastic draw must flow through util::Rng so a
    (seed, config) pair replays bit-identically across runs, platforms,
    and compilers.

RN004 stdout-in-library
    No `std::cout` / `printf` / `puts` in library code (include/, src/).
    The library reports through Metrics, the flight recorder and Table
    values; only benches, tests, and tools own process output.

RN006 raw-wall-clock
    No raw wall-clock reads (`std::chrono::*_clock::now`, `gettimeofday`,
    `clock_gettime`, `::time(`) in library code outside runtime/ and
    util/clock.hpp. Simulation logic must take time as a parameter (the
    event-driven clock is what makes runs replayable); real time enters
    only through util::WallClock and the socket runtime that owns it.

RN007 hardcoded-group
    No hardcoded non-zero `GroupId{N}` literal in core/ or runtime/ code
    unless it carries an `// RN007-ok:` rationale within the three lines
    above it (or on the line itself). Ordering state is per-group now;
    a baked-in group id is the single-group assumption sneaking back.
    The zero sentinel (`GroupId{0}` == unset) stays allowed.

RN009 unclamped-wire-reserve
    No `reserve(*count)` on a count decoded from the wire in proto code
    (include/proto/, src/proto/). A decoded count is whatever the sender
    wrote: reserving it up front turns one short datagram into a request
    for gigabytes (std::bad_alloc, or an abort under ASan) instead of a
    clean reject. Bound the reservation by what the remaining bytes can
    hold, e.g. `reserve(std::min<std::size_t>(*n, r.remaining() / 8))`.

RN010 bytewise-integer-write
    No integer written one byte per `push_back`
    (`push_back(static_cast<std::uint8_t>(x >> ...))`) in the codec and the
    frame code (include/proto/, src/proto/, src/runtime/). Every frame is
    encoded and framed again at each hop; a fixed-width field is appended
    with one size check and one little-endian store instead.

RN011 function-in-sim
    No `std::function` under include/sim/. Every scheduled event carries
    its action through sim::Action, which stores captures of up to 48
    bytes in place; a std::function on the event path (16-byte buffer in
    libstdc++) allocates for almost every timer and ack closure the
    simulator schedules.

RN012 registry-mirror
    No plain registry read (`....counter(names::k...)` or
    `....gauge(names::k...)`) stored into a struct or member field in
    library code (include/, src/) unless an `// RN012-ok:` rationale
    covers it: on the statement's line, or above it, where it covers the
    next statement or, when a brace opens first, that whole block (one
    rationale above a function covers its body). A result or a caller
    reads the registry itself; a field copied out of it drifts into a
    second name for one quantity.

Self-test
---------
`--self-test` seeds one violation per rule in a scratch tree and fails
(exit 2) unless every rule fires; it is registered as a ctest case so the
linter cannot silently rot.
"""

import argparse
import os
import re
import sys
import tempfile

CPP_GLOBS = (".hpp", ".cpp")


def repo_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(CPP_GLOBS):
                    yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# RN002: std::map in core headers without rationale

MAP_RE = re.compile(r"\bstd::map\s*<")
MAP_OK_RE = re.compile(r"//\s*lint:\s*map-ok")


def check_map_in_core_header(root):
    findings = []
    for path in repo_files(root, ("include/core",)):
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, text in enumerate(lines, 1):
            if not MAP_RE.search(text):
                continue
            window = lines[max(0, i - 4):i]  # the line + three above
            if any(MAP_OK_RE.search(w) for w in window):
                continue
            findings.append(Finding(
                "RN002", rel(root, path), i,
                "std::map in a core header without a '// lint: map-ok' "
                "rationale (ordered node-based maps are hot-path "
                "liabilities; justify the ordering or use a flat/hash "
                "container)"))
    return findings


# --------------------------------------------------------------------------
# RN003: raw randomness outside util/rng

RAW_RNG_RE = re.compile(
    r"\b(?:s?rand)\s*\(|std::random_device|std::mt19937")


def check_raw_rng(root):
    findings = []
    for path in repo_files(root, ("include", "src", "bench", "tests")):
        r = rel(root, path)
        if r.replace(os.sep, "/") == "include/util/rng.hpp":
            continue
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = RAW_RNG_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN003", r, i,
                    f"raw randomness source '{m.group(0).strip()}' outside "
                    "util/rng; draw through util::Rng so replays stay "
                    "deterministic"))
    return findings


# --------------------------------------------------------------------------
# RN004: process output from library code

STDOUT_RE = re.compile(r"std::cout|(?<![A-Za-z_])(?:printf|puts)\s*\(")


def check_stdout_in_library(root):
    findings = []
    for path in repo_files(root, ("include", "src")):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = STDOUT_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN004", rel(root, path), i,
                    f"'{m.group(0).strip()}' in library code; the library "
                    "reports through Metrics, the flight recorder and Table "
                    "— process output belongs to benches, tests, and tools"))
    return findings


# --------------------------------------------------------------------------
# RN006: raw wall-clock reads outside runtime/ and util/clock

# Clock *reads* only: sleeping or waiting on a duration (sleep_for,
# wait_for_us) is time-consuming, not time-observing, and stays allowed.
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)"
    r"\s*::\s*now"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|(?<![A-Za-z0-9_])::time\s*\(")

WALL_CLOCK_EXEMPT = ("include/runtime/", "src/runtime/",
                     "include/util/clock.hpp")


def check_raw_wall_clock(root):
    findings = []
    for path in repo_files(root, ("include", "src")):
        r = rel(root, path)
        posix = r.replace(os.sep, "/")
        if posix.startswith(WALL_CLOCK_EXEMPT[:2]) or \
                posix == WALL_CLOCK_EXEMPT[2]:
            continue
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = WALL_CLOCK_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN006", r, i,
                    f"raw wall-clock read '{m.group(0).strip()}' outside "
                    "runtime/; take time as a parameter or go through "
                    "util::WallClock so simulated runs stay replayable"))
    return findings


# --------------------------------------------------------------------------
# RN007: hardcoded non-zero GroupId literal in core/ or runtime/

# Both forms of baking a group in: the inline literal (`GroupId{3}`) and a
# named constant initialized from one (`constexpr GroupId kFoo{3}`).
HARDCODED_GROUP_RE = re.compile(r"\bGroupId\s*(?:\w+\s*)?\{\s*0*[1-9]")
RN007_OK_RE = re.compile(r"//\s*RN007-ok")


def check_hardcoded_group(root):
    findings = []
    for path in repo_files(root, ("include/core", "src/core",
                                  "include/runtime", "src/runtime")):
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, text in enumerate(lines, 1):
            if not HARDCODED_GROUP_RE.search(text):
                continue
            window = lines[max(0, i - 4):i]  # the line + three above
            if any(RN007_OK_RE.search(w) for w in window):
                continue
            findings.append(Finding(
                "RN007", rel(root, path), i,
                "hardcoded non-zero GroupId literal in core/runtime code; "
                "ordering state is per-group — take the gid from the "
                "message/config, or justify with an '// RN007-ok:' "
                "rationale"))
    return findings


# --------------------------------------------------------------------------
# RN009: unclamped reservation by a decoded wire count in proto/

UNCLAMPED_RESERVE_RE = re.compile(r"\breserve\s*\(\s*\*\s*[A-Za-z_]\w*\s*\)")


def check_unclamped_wire_reserve(root):
    findings = []
    for path in repo_files(root, ("include/proto", "src/proto")):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = UNCLAMPED_RESERVE_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN009", rel(root, path), i,
                    f"'{m.group(0)}' reserves by a decoded wire count; bound "
                    "it by what the remaining bytes can hold"))
    return findings


# --------------------------------------------------------------------------
# RN010: an integer written one byte per push_back in codec and frame code

BYTEWISE_WRITE_RE = re.compile(
    r"\bpush_back\s*\(\s*static_cast\s*<\s*(?:std::)?uint8_t\s*>\s*"
    r"\([^;]*>>")


def check_bytewise_integer_write(root):
    findings = []
    for path in repo_files(root, ("include/proto", "src/proto",
                                  "src/runtime")):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            if BYTEWISE_WRITE_RE.search(text):
                findings.append(Finding(
                    "RN010", rel(root, path), i,
                    "integer written one byte per push_back; append the "
                    "whole field with one size check and one "
                    "little-endian store"))
    return findings


# --------------------------------------------------------------------------
# RN011: std::function on the simulator's event path

STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")


def check_function_in_sim(root):
    findings = []
    for path in repo_files(root, ("include/sim",)):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            if STD_FUNCTION_RE.search(text):
                findings.append(Finding(
                    "RN011", rel(root, path), i,
                    "std::function on the event path allocates for "
                    "captures over 16 bytes; carry the callable in "
                    "sim::Action"))
    return findings


# --------------------------------------------------------------------------
# RN012: a registry read mirrored into a field

# `lhs = <expr>.counter(names::kX);` (or gauge), where the left side is a
# member access (a.b, a->b) or a trailing-underscore member. The statement
# may span lines.
REGISTRY_MIRROR_RE = re.compile(
    r"(?:^|(?<=[;{}]))\s*"
    r"(?P<lhs>(?:[A-Za-z_]\w*(?:\[[^\]\n]*\])?(?:\.|->))+[A-Za-z_]\w*"
    r"|[A-Za-z_]\w*_)"
    r"\s*=\s*"
    r"[A-Za-z_][\w.\->()]*?(?:\.|->)\s*(?:counter|gauge)\s*\(\s*"
    r"(?:obs::)?names::k\w+\s*\)\s*;",
    re.MULTILINE)
RN012_OK_RE = re.compile(r"//\s*RN012-ok")


def rn012_ok_spans(text):
    """Character spans an `// RN012-ok:` rationale covers: from the comment
    to the end of the next statement, or of the next braced block when a
    brace opens before that statement ends."""
    spans = []
    for m in RN012_OK_RE.finditer(text):
        # Skip the rest of the rationale's comment lines.
        i = text.find("\n", m.end())
        while i != -1:
            nxt = text.find("\n", i + 1)
            line = text[i + 1:nxt if nxt != -1 else len(text)]
            if not line.lstrip().startswith("//"):
                break
            i = nxt
        if i == -1:
            continue
        semi = text.find(";", i)
        brace = text.find("{", i)
        if brace != -1 and (semi == -1 or brace < semi):
            depth, end = 0, brace
            for end in range(brace, len(text)):
                if text[end] == "{":
                    depth += 1
                elif text[end] == "}":
                    depth -= 1
                    if depth == 0:
                        break
            spans.append((m.start(), end))
        elif semi != -1:
            spans.append((m.start(), semi))
    return spans


def check_registry_mirror(root):
    findings = []
    for path in repo_files(root, ("include", "src")):
        text = open(path, encoding="utf-8").read()
        spans = rn012_ok_spans(text)
        for m in REGISTRY_MIRROR_RE.finditer(text):
            start = m.start("lhs")
            end = m.end() - 1
            line_end = text.find("\n", end)
            tail = text[end:line_end if line_end != -1 else len(text)]
            if RN012_OK_RE.search(tail):
                continue  # rationale on the statement's own line
            if any(a <= start and end <= b for a, b in spans):
                continue
            findings.append(Finding(
                "RN012", rel(root, path), text.count("\n", 0, start) + 1,
                f"registry read stored into '{m.group('lhs')}'; read the "
                "registry where the value is used, or justify the copy "
                "with an '// RN012-ok:' rationale"))
    return findings


# --------------------------------------------------------------------------
# Driver

def run_checks(root):
    findings = []
    findings += check_map_in_core_header(root)
    findings += check_raw_rng(root)
    findings += check_stdout_in_library(root)
    findings += check_raw_wall_clock(root)
    findings += check_hardcoded_group(root)
    findings += check_unclamped_wire_reserve(root)
    findings += check_bytewise_integer_write(root)
    findings += check_function_in_sim(root)
    findings += check_registry_mirror(root)
    return findings


def self_test():
    """Seed one violation per rule; every rule must fire on its seed."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="ringnet_lint_st_") as tmp:
        for sub in ("include/core", "include/sim", "include/util",
                    "src/core", "bench", "tests"):
            os.makedirs(os.path.join(tmp, sub))

        def write(path, text):
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as f:
                f.write(text)

        # RN002: bare std::map in a core header; annotated one is fine.
        write("include/core/bad_map.hpp",
              "#include <map>\nstd::map<int, int> m;\n")
        write("include/core/good_map.hpp",
              "#include <map>\n// lint: map-ok — ordered prune walk\n"
              "std::map<int, int> m;\n")

        # RN003: raw randomness outside util/rng.
        write("src/core/bad_rng.cpp",
              "#include <cstdlib>\nint f() { return rand(); }\n")
        write("include/util/rng.hpp",
              "#include <random>\ninline std::mt19937 exempt_here;\n")

        # RN004: stdout from library code; bench output is exempt.
        write("src/core/bad_out.cpp",
              '#include <cstdio>\nvoid f() { printf("x"); }\n')
        write("bench/ok_out.cpp",
              '#include <cstdio>\nint main() { printf("x"); }\n')
        # snprintf into a buffer is formatting, not process output.
        write("src/core/ok_snprintf.cpp",
              "#include <cstdio>\nvoid f(char* b) "
              '{ (void)snprintf(b, 4, "x"); }\n')

        # RN006: wall-clock read in sim code; runtime/ and util/clock.hpp
        # (plus duration-only waits) are exempt.
        os.makedirs(os.path.join(tmp, "src/runtime"))
        write("src/core/bad_clock.cpp",
              "#include <chrono>\n"
              "long f() { return std::chrono::steady_clock::now()"
              ".time_since_epoch().count(); }\n")
        write("src/runtime/ok_clock.cpp",
              "#include <chrono>\n"
              "long f() { return std::chrono::steady_clock::now()"
              ".time_since_epoch().count(); }\n")
        write("include/util/clock.hpp",
              "#include <chrono>\n"
              "inline auto t0 = std::chrono::steady_clock::now();\n")
        write("src/core/ok_wait.cpp",
              "#include <thread>\nvoid f() { std::this_thread::sleep_for("
              "std::chrono::microseconds(5)); }\n")

        # RN007: hardcoded group id indexing ordering state; the annotated
        # constant and the zero "unset" sentinel must NOT fire.
        write("src/runtime/bad_group.cpp",
              "void f(S& s) { s.slab(GroupId{1}).push(7); }\n")
        write("src/core/good_group.cpp",
              "// RN007-ok: degenerate single-group deployment.\n"
              "constexpr GroupId kG{1};\n"
              "void g(M& m) { m.gid = GroupId{0}; }\n")

        # RN009: a reservation sized by a decoded count; the clamped form
        # and a reservation outside proto/ must NOT fire.
        os.makedirs(os.path.join(tmp, "src/proto"))
        write("src/proto/bad_reserve.cpp",
              "void f(R& r, V& v) { const auto n = r.u32(); "
              "v.reserve(*n); }\n")
        write("src/proto/good_reserve.cpp",
              "void f(R& r, V& v) { const auto n = r.u32(); "
              "v.reserve(std::min<std::size_t>(*n, r.remaining() / 8)); }\n")
        write("src/core/ok_reserve.cpp",
              "void f(V& v, const O& n) { v.reserve(*n); }\n")

        # RN010: a u32 shifted out one byte per push_back in frame code;
        # a single-byte push_back and the same loop outside the codec and
        # frame code must NOT fire.
        write("src/runtime/bad_bytewise.cpp",
              "void f(B& b, unsigned v) { for (int i = 0; i < 4; ++i) "
              "b.push_back(static_cast<std::uint8_t>(v >> (8 * i))); }\n")
        write("src/proto/good_bytewise.cpp",
              "void f(B& b, unsigned v) "
              "{ b.push_back(static_cast<std::uint8_t>(v)); }\n")
        write("src/core/ok_bytewise.cpp",
              "void f(B& b, unsigned v) "
              "{ b.push_back(static_cast<std::uint8_t>(v >> 8)); }\n")

        # RN011: std::function under include/sim/; the same alias outside
        # the simulator's headers must NOT fire.
        write("include/sim/bad_function.hpp",
              "#pragma once\n#include <functional>\n"
              "using Action = std::function<void()>;\n")
        write("include/util/ok_function.hpp",
              "#pragma once\n#include <functional>\n"
              "using Task = std::function<void()>;\n")

        # RN012: a registry read copied into a result field, also across a
        # line break; a local, a rationale above a function, a rationale on
        # the line, and a computed value must NOT fire.
        write("src/core/bad_mirror.cpp",
              "void f(R& out, const M& m) {\n"
              "  out.retransmits = m.counter(names::kRetransmits);\n"
              "  out.mq_peak =\n"
              "      m.gauge(obs::names::kBufMqPeak);\n"
              "}\n")
        write("src/core/good_mirror.cpp",
              "void f(const M& m) {\n"
              "  const auto n = m.counter(names::kRetransmits);\n"
              "}\n"
              "// RN012-ok: a struct a benchmark reads.\n"
              "C g(const M& metrics_) {\n"
              "  C c;\n"
              "  c.held = metrics_.counter(names::kTokenHeld);\n"
              "  c.retx = metrics_.counter(names::kRetransmits);\n"
              "  return c;\n"
              "}\n"
              "void h(R& r, const M& m) {\n"
              "  r.held = m.counter(names::kTokenHeld);  // RN012-ok: pinned\n"
              "  r.rate = m.counter(names::kMhDelivered) / 2.0;\n"
              "}\n")

        findings = run_checks(tmp)
        fired = {f.rule for f in findings}
        for rule in ("RN002", "RN003", "RN004", "RN006", "RN007", "RN009",
                     "RN010", "RN011", "RN012"):
            if rule not in fired:
                failures.append(f"{rule} did not fire on its seeded "
                                "violation")
        by_file = {(f.rule, os.path.basename(f.path)) for f in findings}
        for rule, fname in (("RN002", "good_map.hpp"),
                            ("RN003", "rng.hpp"),
                            ("RN004", "ok_out.cpp"),
                            ("RN004", "ok_snprintf.cpp"),
                            ("RN006", "ok_clock.cpp"),
                            ("RN006", "clock.hpp"),
                            ("RN006", "ok_wait.cpp"),
                            ("RN007", "good_group.cpp"),
                            ("RN009", "good_reserve.cpp"),
                            ("RN009", "ok_reserve.cpp"),
                            ("RN010", "good_bytewise.cpp"),
                            ("RN010", "ok_bytewise.cpp"),
                            ("RN011", "ok_function.hpp"),
                            ("RN012", "good_mirror.cpp")):
            if (rule, fname) in by_file:
                failures.append(f"{rule} false-positive on {fname}")
    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 2
    print("ringnet_lint self-test: all rules fire on seeded violations")
    return 0


def main(argv):
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=default_root,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on seeded violations")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    findings = run_checks(args.repo)
    for f in findings:
        print(f)
    if findings:
        print(f"ringnet_lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("ringnet_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
