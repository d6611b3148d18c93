// NodeLoop on its own: one thread runs the node. A recording RuntimeNode
// over InProcTransport and the wall clock checks that on_start comes first,
// that every call runs on one thread that is not the caller's, that ticks
// keep coming while datagrams arrive, that stop() hands the node every
// datagram sent before it in send order, and that a second stop() and
// destruction after stop() are safe. Timing bounds are loose so the test
// holds under TSan.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "ringnet_test.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/inproc_transport.hpp"
#include "util/clock.hpp"

using namespace ringnet;
using namespace ringnet::runtime;

namespace {

enum class Call { Start, Datagram, Tick };

/// Records every call and the thread that made it. The vectors are read
/// only after stop() has joined the loop; the atomics are polled while it
/// runs.
class Recorder final : public RuntimeNode {
 public:
  void on_start(std::int64_t) override { note(Call::Start); }
  void on_datagram(const Datagram& d, std::int64_t) override {
    // A handler that takes a while, so a sender can keep datagrams waiting.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    note(Call::Datagram);
    std::uint32_t seq = 0;
    for (std::size_t i = 0; i < 4 && i < d.payload.size(); ++i) {
      seq |= static_cast<std::uint32_t>(d.payload[i]) << (8 * i);
    }
    seqs.push_back(seq);
    received.fetch_add(1, std::memory_order_relaxed);
  }
  void on_tick(std::int64_t) override {
    note(Call::Tick);
    ticks.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<Call> calls;
  std::vector<std::thread::id> threads;
  std::vector<std::uint32_t> seqs;  // datagram payloads, in arrival order
  std::atomic<int> ticks{0};
  std::atomic<std::uint32_t> received{0};

 private:
  void note(Call c) {
    calls.push_back(c);
    threads.push_back(std::this_thread::get_id());
  }
};

/// Sends datagram number `seq` (its payload) from `from` to `to`.
void send_seq(Transport& from, NodeId to, std::uint32_t seq) {
  std::vector<std::uint8_t> payload(4);
  for (std::size_t i = 0; i < 4; ++i) {
    payload[i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  CHECK(from.send(to, frame(from.self(), FrameKind::Control, payload)));
}

}  // namespace

TEST(one_thread_runs_the_node_and_stop_drains_in_order) {
  InProcNet net;
  const NodeId node_id = NodeId::make(Tier::MH, 0);
  const NodeId peer_id = NodeId::make(Tier::AP, 0);
  auto node_tr = net.attach(node_id);
  auto peer_tr = net.attach(peer_id);
  util::WallClock clock;
  Recorder node;
  std::uint32_t sent = 0;
  {
    NodeLoop loop(node, *node_tr, clock, 1000);
    // Queued before the loop runs: on_start still comes first.
    for (; sent < 3; ++sent) send_seq(*peer_tr, node_id, sent);
    loop.start();
    loop.start();  // already running: no second thread

    const std::int64_t boot_deadline = clock.now_us() + 10'000'000;
    while (node.ticks.load(std::memory_order_relaxed) < 3 &&
           clock.now_us() < boot_deadline) {
      clock.sleep_us(1000);
    }
    CHECK(node.ticks.load(std::memory_order_relaxed) >= 3);

    // 100 ms of wall time in which the mailbox is never empty for long: the
    // sender keeps up to 64 datagrams waiting, however slowly the loop
    // runs.
    const std::uint32_t flood_first = sent;
    const std::int64_t flood_end = clock.now_us() + 100'000;
    while (clock.now_us() < flood_end) {
      if (sent - node.received.load(std::memory_order_relaxed) < 64) {
        send_seq(*peer_tr, node_id, sent++);
      } else {
        std::this_thread::yield();
      }
    }
    const std::uint32_t flood_last = sent - 1;

    // Sent just before stop(): each must reach the node before it returns.
    for (int i = 0; i < 100; ++i) send_seq(*peer_tr, node_id, sent++);
    loop.stop();
    const std::size_t calls_after_stop = node.calls.size();
    loop.stop();  // idempotent
    CHECK_EQ(node.calls.size(), calls_after_stop);

    CHECK(!node.calls.empty());
    CHECK(node.calls.front() == Call::Start);
    std::size_t starts = 0;
    for (const Call c : node.calls) starts += c == Call::Start ? 1 : 0;
    CHECK_EQ(starts, std::size_t{1});

    CHECK(!node.threads.empty());
    for (const std::thread::id& t : node.threads) {
      CHECK(t == node.threads.front());
    }
    CHECK(node.threads.front() != std::this_thread::get_id());

    CHECK_EQ(node.seqs.size(), static_cast<std::size_t>(sent));
    for (std::size_t i = 0; i < node.seqs.size(); ++i) {
      CHECK_EQ(node.seqs[i], static_cast<std::uint32_t>(i));
    }

    // Ticks interleave with the stream: count those between the first and
    // the last datagram sent during the flood. At 1 ms they number about
    // 100; anything over 5 shows the stream does not starve them.
    std::size_t first_at = node.calls.size();
    std::size_t last_at = 0;
    std::size_t datagram_no = 0;
    for (std::size_t i = 0; i < node.calls.size(); ++i) {
      if (node.calls[i] != Call::Datagram) continue;
      if (datagram_no == flood_first) first_at = i;
      if (datagram_no == flood_last) last_at = i;
      ++datagram_no;
    }
    std::size_t flood_ticks = 0;
    for (std::size_t i = first_at; i < last_at; ++i) {
      flood_ticks += node.calls[i] == Call::Tick ? 1 : 0;
    }
    CHECK(flood_ticks > 5);
  }  // destroying a stopped loop is safe

  {
    NodeLoop never_started(node, *node_tr, clock, 1000);
    never_started.stop();  // stop before start: nothing to join
  }
}

TEST_MAIN()
