#include "runtime/event_loop.hpp"

namespace ringnet::runtime {

NodeLoop::NodeLoop(RuntimeNode& node, Transport& transport,
                   util::Clock& clock, std::int64_t tick_us)
    : node_(node),
      transport_(transport),
      clock_(clock),
      tick_us_(tick_us > 0 ? tick_us : 1000) {}

NodeLoop::~NodeLoop() { stop(); }

void NodeLoop::start() {
  if (thread_.joinable()) return;
  thread_ = std::thread([this] { run(); });
}

void NodeLoop::stop() {
  if (!thread_.joinable()) return;
  stop_flag_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void NodeLoop::run() {
  node_.on_start(clock_.now_us());
  std::int64_t next_tick_us = clock_.now_us() + tick_us_;
  // recv waits at most until the next tick, which also bounds how long
  // stop() waits for the loop to notice the flag.
  while (!stop_flag_.load(std::memory_order_relaxed)) {
    const std::int64_t now_us = clock_.now_us();
    if (now_us >= next_tick_us) {
      node_.on_tick(now_us);
      // A tick after this one fired, not on a fixed grid: nodes' ticks then
      // drift apart. Two ring BRs whose ticks stay in step each hold the
      // token until their next tick, a whole tick per hold.
      next_tick_us = now_us + tick_us_;
      continue;
    }
    if (auto d = transport_.recv(next_tick_us - now_us)) {
      node_.on_datagram(*d, clock_.now_us());
    }
  }
  // A malformed frame reads as an empty transport and ends the drain.
  while (auto d = transport_.recv(0)) node_.on_datagram(*d, clock_.now_us());
}

}  // namespace ringnet::runtime
