#pragma once
// The downlink delivery rules, shared by the simulator (RingNetProtocol)
// and the UDP runtime (BrRuntime, MhRuntime). A member delivers ordered
// messages in gseq order and skips the gap when the ordering tier no longer
// holds what it missed; the BR serving a multi-group member links every
// frame it forwards to that member into a per-member chain.
//
// Sans-I/O: these types take frames and acks and hand deliveries to a
// callback; they never see a clock, a scheduler or a socket. Payload
// lookup, resend timing and counters stay in each engine.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>

#include "core/types.hpp"
#include "proto/messages.hpp"

namespace ringnet::core {

/// Base-offset buffer of ordered messages keyed by contiguous GlobalSeq:
/// the storage of the ordering node's MQ (core/message_queue.hpp) and the
/// MH's reorder buffer. Slots below base() have been released (BR) or
/// delivered (MH). The slot store is made on the first insert: a member
/// whose frames all arrive in order never holds one, and an empty
/// std::deque already owns heap blocks.
class GseqBuffer {
 public:
  GlobalSeq base() const { return base_; }
  GlobalSeq end() const { return base_ + span(); }
  /// Filled slots.
  std::size_t size() const { return filled_; }

  bool contains(GlobalSeq g) const {
    return g >= base_ && g < end() && (*slots_)[idx(g)].has_value();
  }

  const proto::DataMsg* find(GlobalSeq g) const {
    if (!contains(g)) return nullptr;
    return &*(*slots_)[idx(g)];
  }

  /// The stored copy, or nullptr when g is below base (stale) or already
  /// present (duplicate).
  proto::DataMsg* insert(GlobalSeq g, const proto::DataMsg& msg) {
    if (g < base_) return nullptr;
    if (!slots_) slots_ = std::make_unique<Slots>();
    if (g >= end()) slots_->resize(static_cast<std::size_t>(g - base_) + 1);
    auto& slot = (*slots_)[idx(g)];
    if (slot.has_value()) return nullptr;
    ++filled_;
    return &slot.emplace(msg);
  }

  /// Advance base to `g`, discarding everything below.
  void drop_below(GlobalSeq g) {
    while (base_ < g && span() > 0) pop_front();
    if (base_ < g) base_ = g;
  }

 private:
  using Slots = std::deque<std::optional<proto::DataMsg>>;

  std::size_t span() const { return slots_ ? slots_->size() : 0; }

  std::size_t idx(GlobalSeq g) const {
    return static_cast<std::size_t>(g - base_);
  }

  void pop_front() {
    if (slots_->front().has_value()) --filled_;
    slots_->pop_front();
    ++base_;
  }

  std::unique_ptr<Slots> slots_;  // null until the first insert
  GlobalSeq base_ = 0;
  std::size_t filled_ = 0;
};

/// The single-group member: gseqs are contiguous ring-wide, so it delivers
/// next_expected() and whatever is buffered behind it.
class OrderedReceiver {
 public:
  /// A gap skip's holes (really lost) and their maximal runs (gaps).
  struct Skip {
    std::uint64_t lost = 0;
    std::uint64_t gaps = 0;
  };

  GlobalSeq next_expected() const { return next_; }

  /// Accept one frame; `deliver` gets what it makes deliverable, in gseq
  /// order. Returns 1 for a duplicate (delivered or buffered already).
  template <class Deliver>
  std::size_t receive(const proto::DataMsg& msg, Deliver&& deliver) {
    if (msg.gseq != next_) {
      return msg.gseq < next_ || !buf_.insert(msg.gseq, msg) ? 1 : 0;
    }
    deliver(msg);
    ++next_;
    drain(deliver);
    return 0;
  }

  /// The ordering tier no longer holds gseqs below `floor`: deliver what
  /// is buffered below it, skip the holes, then drain from the new cursor.
  template <class Deliver>
  Skip skip_to(GlobalSeq floor, Deliver&& deliver) {
    Skip skip;
    bool in_gap = false;
    for (; next_ < floor; ++next_) {
      if (const proto::DataMsg* m = buf_.find(next_)) {
        deliver(*m);
        in_gap = false;
      } else {
        ++skip.lost;
        if (!in_gap) ++skip.gaps;
        in_gap = true;
      }
    }
    drain(deliver);
    return skip;
  }

 private:
  template <class Deliver>
  void drain(Deliver& deliver) {
    while (const proto::DataMsg* m = buf_.find(next_)) {
      deliver(*m);
      ++next_;
    }
    buf_.drop_below(next_);
  }

  GseqBuffer buf_;
  GlobalSeq next_ = 0;
};

/// The multi-group member. A gseq hole may be a message for another group,
/// so each frame carries its chain link: the coordinate (gseq + 1) of the
/// previous frame the serving BR forwarded to this member. tail() is the
/// coordinate of the last delivered frame; a frame linked above it is held.
class ChainReceiver {
 public:
  /// Past this many held frames the farthest-future one is shed; the BR's
  /// ack-driven resend replays it once the tail catches up.
  static constexpr std::size_t kHoldCap = 4096;

  GlobalSeq tail() const { return tail_; }

  /// Accept one frame; `deliver` gets what it unblocks, in chain order.
  /// Returns the frames dropped: this one if a duplicate, plus any shed.
  template <class Deliver>
  std::size_t receive(const proto::DataMsg& msg, Deliver&& deliver) {
    const GlobalSeq coord = msg.gseq + 1;
    if (coord <= tail_) return 1;  // already delivered
    if (msg.prev_chain <= tail_ &&
        (hold_.empty() || coord < hold_.begin()->first)) {
      // Links straight onto the tail ahead of anything held: deliver it
      // without a trip through the hold.
      tail_ = coord;
      deliver(msg);
      drain(deliver);
      return 0;
    }
    const auto [held, inserted] = hold_.emplace(coord, msg);
    if (!inserted) {
      // A resend after the BR spliced an unrecoverable predecessor out of
      // the chain carries a repaired (lower) link: merge it, or the member
      // waits forever on a frame that can no longer arrive.
      if (msg.prev_chain >= held->second.prev_chain) return 1;
      held->second.prev_chain = msg.prev_chain;
    }
    drain(deliver);
    std::size_t shed = 0;
    for (; hold_.size() > kHoldCap; ++shed) hold_.erase(std::prev(hold_.end()));
    return shed;
  }

  /// The BR restarted the chain (a reattach): old-chain holds never link up.
  void restart() { hold_.clear(); }

 private:
  template <class Deliver>
  void drain(Deliver& deliver) {
    while (!hold_.empty() && hold_.begin()->second.prev_chain <= tail_) {
      tail_ = hold_.begin()->first;
      deliver(hold_.begin()->second);
      hold_.erase(hold_.begin());
    }
  }

  GlobalSeq tail_ = 0;
  // lint: map-ok — coordinates rise along the chain, so only the smallest
  // held frame can extend the tail, and shedding takes the largest;
  // residency is bounded by kHoldCap.
  std::map<GlobalSeq, proto::DataMsg> hold_;
};

/// The serving BR's side of one member's chain: links each forwarded frame
/// to the previous one and keeps the unacked links, so a resend carries its
/// original link and slots into the exact hole the member waits on.
class ChainSender {
 public:
  struct Link {
    GlobalSeq gseq = 0;
    GlobalSeq prev = 0;  // the link the frame was stamped with
  };
  /// What walk() does after visiting a link.
  enum class Step : std::uint8_t { Next, Splice, Stop };

  /// Coordinate of the newest chained frame (0: nothing chained yet).
  GlobalSeq tail() const { return tail_; }
  /// Unacked links, oldest first.
  const std::deque<Link>& links() const { return log_; }

  /// Chain `gseq` (rising call to call); returns the link to stamp on its
  /// frame. Past `log_cap` unacked links the oldest is dropped, so a member
  /// that never acks cannot grow the log; its next ack relinks the head.
  GlobalSeq link(GlobalSeq gseq, std::size_t log_cap) {
    const GlobalSeq prev = tail_;
    tail_ = gseq + 1;
    log_.push_back(Link{gseq, prev});
    if (log_.size() > log_cap) log_.pop_front();
    return prev;
  }

  /// The member acks its chain tail. The watermark is monotone, so an ack
  /// overtaken by a newer one changes nothing; links it covers are pruned.
  /// Returns true when the head's predecessor is gone from the log unsettled
  /// and the head is relinked at the watermark (the member skips the gap).
  bool ack(GlobalSeq tail) {
    if (tail > acked_) acked_ = tail;
    while (!log_.empty() && log_.front().gseq + 1 <= acked_) log_.pop_front();
    if (log_.empty() || log_.front().prev <= acked_) return false;
    log_.front().prev = acked_;
    return true;
  }

  /// Visit the unacked links oldest first. Splice cuts out a link whose
  /// payload is unrecoverable: its successor inherits its link or, when it
  /// is the newest link, the tail rolls back to that link.
  template <class Visit>
  void walk(Visit&& visit) {
    for (auto it = log_.begin(); it != log_.end();) {
      const Step step = visit(static_cast<const Link&>(*it));
      if (step == Step::Stop) return;
      if (step == Step::Next) {
        ++it;
        continue;
      }
      const Link dead = *it;
      it = log_.erase(it);
      if (it != log_.end()) {
        it->prev = dead.prev;
      } else if (tail_ == dead.gseq + 1) {
        tail_ = dead.prev;
      }
    }
  }

  /// Restart at the member's delivered `tail` (a reattach).
  void restart(GlobalSeq tail) {
    tail_ = tail;
    acked_ = tail;
    log_.clear();
  }

 private:
  GlobalSeq tail_ = 0;
  GlobalSeq acked_ = 0;  // the highest chain tail the member has acked
  std::deque<Link> log_;
};

}  // namespace ringnet::core
