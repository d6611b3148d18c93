#include "codec_replay.hpp"

#include <optional>

#include "common.hpp"
#include "proto/messages.hpp"
#include "runtime/transport.hpp"

namespace perfbench {

namespace {
// Repeat the replay until each step has run this long, so a per-frame
// figure is not one clock read's worth of noise.
constexpr std::int64_t kMinReplayNs = 20'000'000;
// The replays' results land here so the optimizer cannot drop them.
volatile std::uint64_t g_sink = 0;
}  // namespace

CodecCost replay_codec(const std::vector<std::vector<std::uint8_t>>& frames) {
  using ringnet::runtime::Datagram;
  using ringnet::runtime::FrameKind;
  CodecCost out;
  if (frames.empty()) return out;

  std::vector<Datagram> unframed;
  unframed.reserve(frames.size());
  for (const auto& f : frames) {
    if (auto d = ringnet::runtime::unframe(f.data(), f.size())) {
      unframed.push_back(std::move(*d));
    }
  }
  std::vector<ringnet::proto::Message> decoded;
  for (const Datagram& d : unframed) {
    if (d.kind != FrameKind::Proto) continue;
    if (auto m = ringnet::proto::decode(d.payload.data(), d.payload.size())) {
      decoded.push_back(std::move(*m));
    }
  }
  out.frames = frames.size();
  out.proto_frames = decoded.size();

  std::uint64_t sink = 0;
  const auto timed = [&](auto&& pass, std::size_t per_pass) {
    if (per_pass == 0) return 0.0;
    std::int64_t spent = 0;
    std::uint64_t done = 0;
    while (spent < kMinReplayNs) {
      const std::int64_t t0 = now_ns();
      pass();
      spent += now_ns() - t0;
      done += per_pass;
    }
    return static_cast<double>(spent) / static_cast<double>(done);
  };
  out.unframe_ns = timed(
      [&] {
        for (const auto& f : frames) {
          const auto d = ringnet::runtime::unframe(f.data(), f.size());
          sink += d ? d->payload.size() : 1;
        }
      },
      frames.size());
  out.decode_ns = timed(
      [&] {
        for (const Datagram& d : unframed) {
          if (d.kind != FrameKind::Proto) continue;
          const auto m =
              ringnet::proto::decode(d.payload.data(), d.payload.size());
          sink += m ? 1 : 0;
        }
      },
      decoded.size());
  out.encode_ns = timed(
      [&] {
        for (const auto& m : decoded) sink += ringnet::proto::encode(m).size();
      },
      decoded.size());
  g_sink = sink;
  return out;
}

}  // namespace perfbench
