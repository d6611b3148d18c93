#pragma once
// Per-node event loop: one thread runs the node. It calls on_start, then
// until stopped fires on_tick whenever the tick (default every 1ms) is
// due, and otherwise waits in Transport::recv until the next tick and
// hands whatever arrives to on_datagram. The node's role logic is
// therefore single-threaded by construction, and reading node state from
// outside is safe only after stop() has joined the thread.

#include <atomic>
#include <cstdint>
#include <thread>

#include "runtime/transport.hpp"
#include "util/clock.hpp"

namespace ringnet::runtime {

/// Role logic driven by a NodeLoop. Every method is called from the loop's
/// thread only, with `now_us` read from the injected clock.
class RuntimeNode {
 public:
  virtual ~RuntimeNode() = default;
  virtual void on_start(std::int64_t now_us) = 0;
  virtual void on_datagram(const Datagram& d, std::int64_t now_us) = 0;
  virtual void on_tick(std::int64_t now_us) = 0;
};

class NodeLoop {
 public:
  NodeLoop(RuntimeNode& node, Transport& transport, util::Clock& clock,
           std::int64_t tick_us = 1000);
  ~NodeLoop();

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  void start();
  /// Signal the loop and join it. Datagrams the transport already holds
  /// are handed to the node before the thread exits. Idempotent.
  void stop();

 private:
  void run();

  RuntimeNode& node_;
  Transport& transport_;
  util::Clock& clock_;
  const std::int64_t tick_us_;

  std::atomic<bool> stop_flag_{false};
  std::thread thread_;
};

}  // namespace ringnet::runtime
