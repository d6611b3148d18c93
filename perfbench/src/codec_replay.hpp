#pragma once
// The `proto` layer measured from outside: replay frames captured off the
// transport during a traced episode through runtime::unframe,
// proto::decode and proto::encode, and time each step per frame.

#include <cstdint>
#include <vector>

namespace perfbench {

struct CodecCost {
  double unframe_ns = 0.0;  // per captured frame
  double decode_ns = 0.0;   // per protocol (non-control) frame
  double encode_ns = 0.0;   // per protocol frame, re-encoding the decode
  std::uint64_t frames = 0;
  std::uint64_t proto_frames = 0;
};

CodecCost replay_codec(const std::vector<std::vector<std::uint8_t>>& frames);

}  // namespace perfbench
