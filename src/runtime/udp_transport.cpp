#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ringnet::runtime {

namespace {

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.host);
  sa.sin_port = htons(ep.port);
  return sa;
}

}  // namespace

UdpTransport::UdpTransport(NodeId self,
                           std::shared_ptr<const AddressBook> book,
                           std::uint16_t port, std::uint32_t host)
    : Transport(self), book_(std::move(book)), host_(host) {
  rx_buf_.resize(kMaxDatagramBytes + kFrameHeaderBytes + 1);
  open_and_bind(port);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::open_and_bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  // No SO_REUSEADDR: with it set before a port-0 bind, Linux can hand two
  // sockets the same ephemeral port, and one node then receives another's
  // frames. A UDP port is free again as soon as its socket closes, so
  // rebinding after a restart does not need the option either.
  // A whole deployment shares one loopback: fan-out bursts (BR -> APs ->
  // cells) overflow the default ~200KB buffers, and every lost frame there
  // becomes ARQ traffic that amplifies the burst. Size for the storm.
  const int buf_bytes = 4 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof(buf_bytes));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof(buf_bytes));
  sockaddr_in sa = to_sockaddr(Endpoint{host_, port});
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("bind(port ") +
                             std::to_string(port) +
                             "): " + std::strerror(err));
  }
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("getsockname(): ") +
                             std::strerror(err));
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  fd_ = fd;
  local_ = Endpoint{host_, ntohs(sa.sin_port)};
}

void UdpTransport::rebind(std::uint16_t port) {
  const std::uint16_t target = port != 0 ? port : local_.port;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  open_and_bind(target);
}

bool UdpTransport::send(NodeId to, const std::vector<std::uint8_t>& bytes) {
  const auto ep = book_->find(to);
  if (!ep || fd_ < 0) {
    ++send_failures_;
    return false;
  }
  const sockaddr_in sa = to_sockaddr(*ep);
  const ssize_t n =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (n != static_cast<ssize_t>(bytes.size())) {
    // EWOULDBLOCK (full socket buffer) is a legitimate UDP drop; anything
    // else is counted the same way — the protocol's ARQ covers both.
    ++send_failures_;
    return false;
  }
  ++sent_;
  return true;
}

std::optional<Datagram> UdpTransport::recv(std::int64_t timeout_us) {
  if (fd_ < 0) return std::nullopt;
  // The socket is non-blocking: try the read first, so a frame that is
  // already queued costs one syscall. Wait only when the queue is empty
  // and the caller allows it.
  ssize_t n =
      ::recvfrom(fd_, rx_buf_.data(), rx_buf_.size(), 0, nullptr, nullptr);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && timeout_us > 0) {
    pollfd pfd{fd_, POLLIN, 0};
    const int timeout_ms = static_cast<int>((timeout_us + 999) / 1000);
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) return std::nullopt;
    n = ::recvfrom(fd_, rx_buf_.data(), rx_buf_.size(), 0, nullptr, nullptr);
  }
  if (n <= 0) return std::nullopt;
  auto d = unframe(rx_buf_.data(), static_cast<std::size_t>(n));
  if (!d) {
    ++dropped_malformed_;
    return std::nullopt;
  }
  ++received_;
  return d;
}

}  // namespace ringnet::runtime
