#include "runtime/transport.hpp"

#include <bit>
#include <cstring>

#include "util/siphash.hpp"

namespace ringnet::runtime {

namespace {

constexpr std::uint32_t kMagic = 0x31474E52u;  // "RNG1" little-endian
constexpr std::size_t kTagAt = 4;
constexpr std::size_t kKindAt = 12;  // the tag covers [kKindAt, end)
constexpr std::size_t kSrcAt = 13;
constexpr std::size_t kRelayAt = 17;
constexpr std::size_t kLenAt = 21;
static_assert(kLenAt + 4 == kFrameHeaderBytes);

/// The frame key: one fixed constant, the same in every build. Anyone with
/// this source can tag a frame, so the tag detects corruption, not forgery.
constexpr util::SipKey kFrameKey{0x52474e312d666b30ull, 0x7461672d32342d31ull};

static_assert(std::endian::native == std::endian::little,
              "header fields are stored in native byte order");

template <typename T>
void store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

template <typename T>
T load(const std::uint8_t* p) {
  T v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t frame_tag(const std::uint8_t* frame, std::size_t size) {
  return util::siphash24(kFrameKey, frame + kKindAt, size - kKindAt);
}

}  // namespace

std::vector<std::uint8_t> frame(NodeId src, FrameKind kind,
                                const std::vector<std::uint8_t>& payload,
                                NodeId relay) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  std::uint8_t* p = out.data();
  store(p, kMagic);
  p[kKindAt] = static_cast<std::uint8_t>(kind);
  store(p + kSrcAt, src.v);
  store(p + kRelayAt, relay.v);
  store(p + kLenAt, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(p + kFrameHeaderBytes, payload.data(), payload.size());
  }
  store(p + kTagAt, frame_tag(p, out.size()));
  return out;
}

std::optional<Datagram> unframe(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderBytes || size > kMaxDatagramBytes) {
    return std::nullopt;
  }
  if (load<std::uint32_t>(data) != kMagic) return std::nullopt;
  const std::uint8_t kind = data[kKindAt];
  if (kind > static_cast<std::uint8_t>(FrameKind::Control)) {
    return std::nullopt;
  }
  const std::uint32_t len = load<std::uint32_t>(data + kLenAt);
  if (size - kFrameHeaderBytes != len) return std::nullopt;
  if (frame_tag(data, size) != load<std::uint64_t>(data + kTagAt)) {
    return std::nullopt;
  }
  Datagram d;
  d.src = NodeId{load<std::uint32_t>(data + kSrcAt)};
  d.relay = NodeId{load<std::uint32_t>(data + kRelayAt)};
  d.kind = static_cast<FrameKind>(kind);
  d.payload.assign(data + kFrameHeaderBytes, data + size);
  return d;
}

std::vector<std::uint8_t> encode_control(const ControlMsg& msg) {
  std::vector<std::uint8_t> out(9);
  out[0] = static_cast<std::uint8_t>(msg.op);
  store(out.data() + 1, msg.arg);
  return out;
}

std::optional<ControlMsg> decode_control(const std::uint8_t* data,
                                         std::size_t size) {
  if (size != 9) return std::nullopt;
  const std::uint8_t op = data[0];
  if (op < static_cast<std::uint8_t>(ControlOp::Ready) ||
      op > static_cast<std::uint8_t>(ControlOp::Done)) {
    return std::nullopt;
  }
  ControlMsg m;
  m.op = static_cast<ControlOp>(op);
  m.arg = load<std::uint64_t>(data + 1);
  return m;
}

}  // namespace ringnet::runtime
