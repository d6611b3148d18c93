// E10: google-benchmark micro suite — the per-operation costs of the data
// structures on the protocol's hot paths: MQ store/ack, WQ add/assign,
// token WTSNP update/lookup, wire codec, event scheduler and histogram.

#include <benchmark/benchmark.h>

#include "core/message_queue.hpp"
#include "core/protocol.hpp"
#include "core/working_queue.hpp"
#include "net/channel.hpp"
#include "obs/names.hpp"
#include "proto/messages.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace {

using namespace ringnet;

proto::DataMsg make_data(GlobalSeq g) {
  proto::DataMsg m;
  m.gid = GroupId{1};
  m.source = NodeId{1};
  m.lseq = g;
  m.ordering_node = NodeId{1};
  m.gseq = g;
  m.epoch = 1;
  m.payload_size = 256;
  return m;
}

void BM_MessageQueueStoreDeliver(benchmark::State& state) {
  core::MessageQueue mq(1024);
  GlobalSeq g = 0;
  for (auto _ : state) {
    mq.store(make_data(g), sim::SimTime{0});
    mq.ack_to(++g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g));
}
BENCHMARK(BM_MessageQueueStoreDeliver);

void BM_MessageQueueOutOfOrderWindow(benchmark::State& state) {
  const auto window = static_cast<GlobalSeq>(state.range(0));
  core::MessageQueue mq(16);
  GlobalSeq base = 0;
  for (auto _ : state) {
    // Arrivals in reverse inside a window: worst-case gap materialization.
    for (GlobalSeq i = window; i-- > 0;) {
      mq.store(make_data(base + i), sim::SimTime{0});
    }
    base += window;
    mq.ack_to(base);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(base));
}
BENCHMARK(BM_MessageQueueOutOfOrderWindow)->Arg(8)->Arg(64)->Arg(512);

void BM_WorkingQueueAddAssign(benchmark::State& state) {
  const auto sources = static_cast<std::uint32_t>(state.range(0));
  core::WorkingQueue wq;
  proto::OrderingToken token(GroupId{1}, 1);
  const NodeId self = NodeId::make(Tier::BR, 0);
  std::vector<LocalSeq> next(sources, 0);
  std::uint64_t items = 0;
  for (auto _ : state) {
    for (std::uint32_t s = 0; s < sources; ++s) {
      proto::DataMsg m;
      m.source = NodeId{s};
      m.lseq = next[s]++;
      wq.add(m);
    }
    // Recycle the WTSNP rows each pass, as a token hop back home does.
    token.prune_entries_of(self);
    auto out = wq.assign(token, self, sim::SimTime::zero());
    items += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_WorkingQueueAddAssign)->Arg(1)->Arg(4)->Arg(16);

void BM_TokenUpdateAndLookup(benchmark::State& state) {
  const auto ring = static_cast<std::uint32_t>(state.range(0));
  proto::OrderingToken token(GroupId{1}, 1);
  LocalSeq lseq = 0;
  std::uint32_t holder = 0;
  for (auto _ : state) {
    token.prune_entries_of(NodeId{holder});
    token.append_range(NodeId{holder}, NodeId{holder}, lseq, lseq + 9);
    benchmark::DoNotOptimize(token.lookup(NodeId{holder}, lseq + 5));
    lseq += 10;
    holder = (holder + 1) % ring;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenUpdateAndLookup)->Arg(3)->Arg(8)->Arg(32);

void BM_TokenSerialize(benchmark::State& state) {
  proto::OrderingToken token(GroupId{1}, 1);
  for (int i = 0; i < state.range(0); ++i) {
    token.append_range(NodeId{static_cast<std::uint32_t>(i)},
                       NodeId{static_cast<std::uint32_t>(i)}, 0, 99);
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    proto::WireWriter w;
    token.serialize(w);
    bytes += w.size();
    benchmark::DoNotOptimize(w);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TokenSerialize)->Arg(4)->Arg(32);

void BM_TokenDecodeOwned(benchmark::State& state) {
  // Relay-side cost of materializing a received token: full deserialize
  // into an owned OrderingToken (vector<WtsnpEntry> allocation + copy),
  // then one WTSNP lookup.
  proto::OrderingToken token(GroupId{1}, 1);
  for (int i = 0; i < state.range(0); ++i) {
    token.append_range(NodeId{static_cast<std::uint32_t>(i)},
                       NodeId{static_cast<std::uint32_t>(i)}, 0, 99);
  }
  proto::WireWriter w;
  token.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();
  for (auto _ : state) {
    proto::WireReader r(bytes);
    auto decoded = proto::OrderingToken::deserialize(r);
    benchmark::DoNotOptimize(decoded->lookup(NodeId{0}, 50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenDecodeOwned)->Arg(4)->Arg(32);

void BM_TokenForwardRing(benchmark::State& state) {
  // The ordering loop with members and traffic stripped out: the token
  // circulates an 8-BR ring, so each iteration pays token_arrive (serial
  // check, rotation bump, WTSNP prune, empty WQ assign, next-hop pick) and
  // the scheduler hop — the flat alive-ring/ring-pos hot path.
  sim::Simulation sim(1);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 8;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  cfg.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  cfg.num_sources = 1;
  cfg.source.rate_hz = 0.0;  // no traffic: pure token machinery
  cfg.record_deliveries = false;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  for (auto _ : state) {
    sim.run_for(sim::msecs(50));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      sim.metrics().counter(obs::names::kTokenHeld)));
}
BENCHMARK(BM_TokenForwardRing);

void BM_DistributeBatchDeliver(benchmark::State& state) {
  // The delivery fan-out path end to end: ordered batches distributed
  // ring-wide, forwarded down 64-member subtrees and delivered in gseq
  // order — dominated by the BR's MQ store + forward_down and each
  // member's core::OrderedReceiver.
  sim::Simulation sim(1);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 4;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 8;
  cfg.hierarchy.mhs_per_ap = 8;
  cfg.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  cfg.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  cfg.num_sources = 8;
  cfg.source.rate_hz = 400.0;
  cfg.options.ack_period = sim::msecs(50);
  cfg.record_deliveries = false;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  for (auto _ : state) {
    sim.run_for(sim::msecs(10));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      sim.metrics().counter(obs::names::kMhDelivered)));
}
BENCHMARK(BM_DistributeBatchDeliver);

void BM_DataMsgCodecRoundTrip(benchmark::State& state) {
  const proto::Message msg = make_data(123456789);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto encoded = proto::encode(msg);
    bytes += encoded.size();
    auto decoded = proto::decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DataMsgCodecRoundTrip);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(sim::SimTime{i}, [&sink] { ++sink; });
    }
    sched.run_to_completion();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

// A timer that reschedules itself one period later. Its capture is 24
// bytes, like the simulator's ack ticks ([this, mh, gen]).
struct SteadyTimer {
  sim::Scheduler* sched;
  std::uint64_t* sink;
  std::int64_t period_us;

  void operator()() const {
    ++*sink;
    sched->schedule_at(sched->now() + sim::usecs(period_us),
                       SteadyTimer{*this});
  }
};

// One sim-e13 shard's steady state: 6,250 pending ack timers, one due per
// microsecond; each step runs the earliest, which pushes its successor.
// BM_SchedulerThroughput cannot show the cost of a capture that misses
// std::function's 16-byte buffer: its capture is 8 bytes and its heap
// starts empty.
void BM_SchedulerSteadyState(benchmark::State& state) {
  constexpr std::int64_t kPending = 6250;
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  for (std::int64_t i = 0; i < kPending; ++i) {
    sched.schedule_at(sim::usecs(i), SteadyTimer{&sched, &sink, kPending});
  }
  sched.run_until(sim::usecs(2 * kPending));  // warm: vectors at full size
  const std::uint64_t before = sched.executed();
  for (auto _ : state) {
    sched.run_until(sched.now() + sim::usecs(1));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(sched.executed() - before));
}
BENCHMARK(BM_SchedulerSteadyState);

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram h;
  util::Rng rng(1);
  for (auto _ : state) {
    h.record(rng.next() & 0xFFFFF);
  }
  benchmark::DoNotOptimize(h.p99());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

BENCHMARK_MAIN();
