#pragma once
// Transport seam for the real-socket runtime. A Transport moves framed
// datagrams between named nodes; the protocol-side runtime code is written
// against this interface only, so the same node state machines run over
// real UDP sockets (UdpTransport), the in-process channel-model twin
// (InProcTransport — the deterministic stand-in for the simulator's
// channels), or anything else.
//
// Framing: every datagram carries a fixed 25-byte header in front of the
// payload, all fields little-endian:
//   [0..3]   magic 0x31474E52 ("RNG1")
//   [4..11]  tag: SipHash-2-4 under the runtime's frame key over bytes
//            [12..end), i.e. every header field below and the payload
//   [12]     kind (0 = proto::Message payload, 1 = runtime control)
//   [13..16] source NodeId
//   [17..20] relay target NodeId (invalid = none; an AP forwards a relayed
//            downlink frame to exactly this member instead of the cell)
//   [21..24] payload length
// unframe() validates magic, kind, length consistency and the tag, and
// returns nullopt on any mismatch: a truncated datagram, or one with any
// bit flipped after the magic, is dropped at the transport edge, never
// handed to the protocol decoder. The key is one fixed constant, so the
// tag detects corruption, not forgery.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace ringnet::runtime {

/// IPv4 endpoint in host byte order.
struct Endpoint {
  std::uint32_t host = 0;  // e.g. 0x7F000001 for 127.0.0.1
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint& a, const Endpoint& b) {
    return a.host == b.host && a.port == b.port;
  }
};

constexpr std::uint32_t kLoopbackHost = 0x7F000001u;

/// NodeId -> Endpoint map. Built once by the orchestrator (or from the
/// daemon's static port scheme) before any node starts, then read-only —
/// which is what makes sharing it across node threads safe.
class AddressBook {
 public:
  void set(NodeId id, Endpoint ep) { map_[id] = ep; }

  std::optional<Endpoint> find(NodeId id) const {
    const auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<NodeId, Endpoint> map_;
};

enum class FrameKind : std::uint8_t { Proto = 0, Control = 1 };

/// One received datagram, already unframed and tag-verified.
struct Datagram {
  NodeId src;
  NodeId relay = NodeId::invalid();
  FrameKind kind = FrameKind::Proto;
  std::vector<std::uint8_t> payload;
};

constexpr std::size_t kFrameHeaderBytes = 25;
constexpr std::size_t kMaxDatagramBytes = 60000;  // stays under one UDP frame

/// Wrap `payload` in the frame header.
std::vector<std::uint8_t> frame(NodeId src, FrameKind kind,
                                const std::vector<std::uint8_t>& payload,
                                NodeId relay = NodeId::invalid());

/// Validate and strip the frame header; nullopt on truncation, bad magic,
/// unknown kind, length mismatch, oversize, or tag mismatch.
std::optional<Datagram> unframe(const std::uint8_t* data, std::size_t size);

// ---------------------------------------------------------------------------
// Runtime control vocabulary (orchestration, not protocol): the supervisor
// handshake that boots a deployment and tears it down.

enum class ControlOp : std::uint8_t {
  Ready = 1,  // node -> SS: event loop up, resent until Start is seen
  Start = 2,  // SS -> all: begin sources (idempotent, rebroadcast)
  Stop = 3,   // SS -> all: stop sources / wind down
  Done = 4,   // MH -> SS: delivered everything expected (arg = count)
};

struct ControlMsg {
  ControlOp op = ControlOp::Ready;
  std::uint64_t arg = 0;
};

std::vector<std::uint8_t> encode_control(const ControlMsg& msg);
std::optional<ControlMsg> decode_control(const std::uint8_t* data,
                                         std::size_t size);

// ---------------------------------------------------------------------------
// Transport interface

class Transport {
 public:
  virtual ~Transport() = default;

  NodeId self() const { return self_; }

  /// Send pre-framed bytes to `to`. Non-blocking, UDP semantics: false
  /// means the frame was dropped locally (unknown address, full socket
  /// buffer); true is no delivery guarantee.
  virtual bool send(NodeId to, const std::vector<std::uint8_t>& bytes) = 0;

  /// Block up to timeout_us for one datagram; nullopt on timeout (and on
  /// malformed frames, which are counted and dropped).
  virtual std::optional<Datagram> recv(std::int64_t timeout_us) = 0;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t dropped_malformed() const { return dropped_malformed_; }
  std::uint64_t send_failures() const { return send_failures_; }

  // Framing convenience.
  bool send_control(NodeId to, ControlMsg ctl) {
    return send(to, frame(self_, FrameKind::Control, encode_control(ctl)));
  }

 protected:
  explicit Transport(NodeId self) : self_(self) {}

  NodeId self_;
  // Touched by the owning node's loop thread only; reads from the
  // orchestrator happen after the loops have joined.
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_malformed_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace ringnet::runtime
