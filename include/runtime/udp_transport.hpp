#pragma once
// Non-blocking UDP socket transport: one IPv4 datagram socket per node,
// sendto/recvfrom with the runtime framing; a receive polls only when no
// frame is queued and the caller gave a timeout. Binding with port 0 takes
// a distinct ephemeral port (the orchestrator builds the address book from
// the actual bound ports, so parallel CI runs never collide); a fixed port
// supports the daemon's static port scheme and rebinding after a node
// restart.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/transport.hpp"

namespace ringnet::runtime {

class UdpTransport final : public Transport {
 public:
  /// Binds host:port at construction; throws std::runtime_error when the
  /// socket cannot be created or bound. port 0 = ephemeral.
  UdpTransport(NodeId self, std::shared_ptr<const AddressBook> book,
               std::uint16_t port = 0, std::uint32_t host = kLoopbackHost);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// The actual bound endpoint (resolves ephemeral ports).
  Endpoint local_endpoint() const { return local_; }

  /// Close and re-bind (node-restart path). With port 0 the old port is
  /// reused, so peers' address books stay valid across the restart.
  void rebind(std::uint16_t port = 0);

  bool send(NodeId to, const std::vector<std::uint8_t>& bytes) override;
  std::optional<Datagram> recv(std::int64_t timeout_us) override;

 private:
  void open_and_bind(std::uint16_t port);

  std::shared_ptr<const AddressBook> book_;
  std::uint32_t host_;
  Endpoint local_;
  int fd_ = -1;
  std::vector<std::uint8_t> rx_buf_;
};

}  // namespace ringnet::runtime
