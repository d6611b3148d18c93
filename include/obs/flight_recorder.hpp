#pragma once
// Flight recorder: a bounded binary ring of recent protocol events (token
// rx/tx, ARQ retries, regeneration, ring repair, resync, chain splices,
// deliveries), the one event log of both engines. Each UDP runtime role
// keeps one, recorded from its protocol thread; the simulator keeps one per
// execution context once tracing is enabled (Simulation::enable_trace).
// A reader snapshots the ring from any thread or renders it as a single-line
// JSON dump. Certain events — watchdog-driven token regeneration, a dropped
// token, order violations — additionally arm a dump request so a live
// `ringnet_node` spills its recent history the moment something went
// wrong, not only when an operator sends SIGUSR1.

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ringnet::obs {

/// Every event either engine records. `node` (FrRecord) is the node the
/// event happened at; a and b mean the same in the simulator and the
/// runtime. Node-valued fields carry the raw NodeId value.
enum class FrEvent : std::uint8_t {
  TokenRx = 0,       // a = epoch, b = rotation (after the leader's bump)
  TokenTx = 1,       // a = serial, b = next node
  TokenDupDestroyed = 2,  // a = epoch, b = serial of the destroyed token
  TokenRetx = 3,     // a = serial, b = attempt
  TokenDropped = 4,  // a = serial (ARQ gave up)
  TokenRegen = 5,    // a = new epoch (regenerated at the leader)
  ArqResend = 6,     // a = member, b = resend count
  UplinkRetx = 7,    // a = lseq, b = attempt
  StallResync = 8,   // a = member, b = stalled watermark
  ChainSplice = 9,   // a = member, b = spliced gseq
  GapSkip = 10,      // a = skip target, b = msgs skipped
  OrderViolation = 11,  // a = offending gseq, b = previous gseq
  Deliver = 12,      // a = gseq
  Submit = 13,       // a = lseq
  NodeCrash = 14,    // node = the crashed BR
  RingRepair = 15,   // node = the BR ejected or rejoined, a = ring size after
  Handoff = 16       // node = the MH, a = 1 hot attach, 0 cold
};

/// Stable label for an event kind (used as the JSON "ev" value).
const char* fr_event_name(FrEvent kind);

struct FrRecord {
  std::int64_t t_us = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  FrEvent kind{};
  std::uint32_t node = 0;
};
static_assert(sizeof(FrRecord) == 32, "node rides in the record's padding");

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Keeps the latest `capacity` events; 0 keeps every event.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : cap_(capacity == 0 ? kUnbounded : capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(FrEvent kind, std::int64_t t_us, std::uint32_t node,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    {
      util::MutexLock lock(mu_);
      if (ring_.size() < cap_) {
        ring_.push_back(FrRecord{t_us, a, b, kind, node});
      } else {
        ring_[head_] = FrRecord{t_us, a, b, kind, node};
        head_ = (head_ + 1) % cap_;
      }
      ++total_;
    }
    if (kind == FrEvent::TokenRegen || kind == FrEvent::OrderViolation ||
        kind == FrEvent::TokenDropped) {
      dump_pending_.store(true, std::memory_order_release);
    }
  }

  /// 0 when unbounded.
  std::size_t capacity() const { return cap_ == kUnbounded ? 0 : cap_; }
  std::size_t size() const {
    util::MutexLock lock(mu_);
    return ring_.size();
  }
  std::uint64_t total_recorded() const {
    util::MutexLock lock(mu_);
    return total_;
  }

  /// True when an auto-dump event fired since the last call; clears the
  /// request. The daemon polls this to dump on watchdog expiry.
  bool take_dump_request() {
    return dump_pending_.exchange(false, std::memory_order_acq_rel);
  }

  /// Oldest-to-newest copy of the retained events.
  std::vector<FrRecord> snapshot() const {
    util::MutexLock lock(mu_);
    std::vector<FrRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Single-line JSON dump of the retained events:
  ///   {"flight_recorder":{"node":"...","reason":"...","recorded":N,
  ///    "retained":M,"events":[{"ev":"token_rx","node":K,"t_us":T,
  ///    "a":A,"b":B},..]}}
  /// Built into a string; the caller decides where it goes (the daemon
  /// writes it to stderr).
  std::string dump_json(const std::string& node,
                        const std::string& reason) const;

 private:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  mutable util::Mutex mu_;
  std::vector<FrRecord> ring_ RN_GUARDED_BY(mu_);
  std::size_t head_ RN_GUARDED_BY(mu_) = 0;
  std::uint64_t total_ RN_GUARDED_BY(mu_) = 0;
  std::atomic<bool> dump_pending_{false};
  std::size_t cap_;
};

}  // namespace ringnet::obs
