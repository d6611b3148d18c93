#pragma once
// sim-e13: the E13 deployment shape (16 BR domains x 25 APs, 100k MHs,
// 32 constant-rate sources, zero loss, 100 ms acks) on the domain-sharded
// simulation engine with 2 pool workers.

#include <cstdint>

#include "common.hpp"

namespace perfbench {

struct SimInputs {
  std::uint64_t seed = 1;
  double rate_hz = 4.0;  // set from the seed within [4.0, 4.5)
};

SimInputs make_sim_inputs(std::uint64_t seed);
Episode run_sim_episode(const SimInputs& in, bool traced);

}  // namespace perfbench
