#pragma once
// Runtime workloads: the Figure-1 UDP deployment (SS + 2 BRs + 4 APs +
// 32 MHs over real 127.0.0.1 sockets) driven from one thread on an
// emulated clock. See runtime_bench.cpp for the driver's rules.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"

namespace perfbench {

struct RuntimeWorkload {
  std::string name;
  double rate_hz = 50.0;            // per-MH open-loop source rate
  std::uint32_t msgs_per_source = 0;
  ringnet::core::GroupConfig groups;
};

/// Seed-determined inputs shared by every episode of one run.
struct RuntimeInputs {
  RuntimeWorkload w;
  std::int64_t period_us = 0;
  std::vector<std::int64_t> phase_us;  // per source MH, in [0, period)
  // expected[m][s * msgs + l] != 0 when MH m must deliver (source s, lseq l)
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint64_t> expected_count;  // per MH
};

const std::vector<RuntimeWorkload>& runtime_workloads();
RuntimeInputs make_runtime_inputs(const RuntimeWorkload& w, std::uint64_t seed);
Episode run_runtime_episode(const RuntimeInputs& in, bool traced);

}  // namespace perfbench
