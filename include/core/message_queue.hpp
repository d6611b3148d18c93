#pragma once
// MessageQueue (the paper's MQ): an ordering node's buffer of globally-
// sequenced messages keyed by gseq, shared by the simulator
// (RingNetProtocol) and the UDP runtime (BrRuntime). It absorbs
// out-of-order arrival, notes the sequence high-water that seeds a
// regenerated token, and hands stored messages to the downlink in gseq
// order through one forward cursor.
//
// Entries leave through the ack cursor. The simulator acks what its subtree
// delivered (ack_to, skip_to) and keeps `retention` entries behind the
// cursor, the ValidFront lag, so handed-off members can resynchronize
// without end-to-end retransmission; its ack_to argument is the BR's
// AckFloor, kept per member watermark as acks and attachments change. A BR
// with no member acks to go by (a memberless sim BR, every runtime BR)
// keeps a fixed window of the newest gseqs instead (keep_newest).
//
// Sans-I/O: the caller passes the time; no clock, scheduler or socket is
// reached from here.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/delivery.hpp"
#include "proto/messages.hpp"
#include "sim/time.hpp"

namespace ringnet::core {

/// The next gseq and next per-group seqs past every assigned message a
/// node has stored. The MQ notes each message it stores; seed() writes the
/// counters into a regenerated token (§4 Token-Regeneration) so neither
/// gseqs nor per-group seqs repeat.
class SeqHighWater {
 public:
  void note(const proto::DataMsg& m) {
    next_gseq_ = std::max(next_gseq_, m.gseq + 1);
    for (std::size_t i = 0; i < m.groups.size(); ++i) {
      raise(m.groups[i], m.group_seqs[i] + 1);
    }
  }

  /// Fold in another node's high-water.
  void merge(const SeqHighWater& other) {
    next_gseq_ = std::max(next_gseq_, other.next_gseq_);
    for (const auto& [g, next] : other.groups_) raise(g, next);
  }

  void seed(proto::OrderingToken& token) const {
    token.set_next_gseq(next_gseq_);
    for (const auto& [g, next] : groups_) token.set_group_seq(g, next);
  }

  /// One past the highest stored gseq (0 before the first store).
  GlobalSeq next_gseq() const { return next_gseq_; }

 private:
  void raise(GroupId g, std::uint64_t next) {
    auto it = std::lower_bound(
        groups_.begin(), groups_.end(), g,
        [](const auto& e, GroupId gid) { return e.first < gid; });
    if (it == groups_.end() || it->first != g) {
      groups_.insert(it, {g, next});
    } else {
      it->second = std::max(it->second, next);
    }
  }

  GlobalSeq next_gseq_ = 0;
  // Sorted by gid, like the token's own counter table.
  std::vector<std::pair<GroupId, std::uint64_t>> groups_;
};

/// An ordering node's subtree-acked floor (Theorem 5.1): the smallest
/// next-expected watermark over its attached members, the bound up to
/// which ack_to may release. It counts members per distinct watermark, so
/// an ack or an attachment costs O(distinct watermarks), not a member
/// scan; members acking the same period share a count.
class AckFloor {
 public:
  /// A member joins the subtree at watermark `wm`.
  void add(GlobalSeq wm) {
    const auto it = find(wm);
    if (it == counts_.end() || it->first != wm) {
      counts_.insert(it, {wm, 1});
    } else {
      ++it->second;
    }
  }

  /// A member at watermark `wm` leaves; `wm` must be counted.
  void remove(GlobalSeq wm) {
    const auto it = find(wm);
    assert(it != counts_.end() && it->first == wm);
    if (--it->second == 0) counts_.erase(it);
  }

  /// A member's watermark rises from `from` to `to`.
  void raise(GlobalSeq from, GlobalSeq to) {
    remove(from);
    add(to);
  }

  bool empty() const { return counts_.empty(); }
  /// The smallest member watermark; only defined when not empty().
  GlobalSeq floor() const { return counts_.front().first; }

 private:
  using Count = std::pair<GlobalSeq, std::uint32_t>;

  std::vector<Count>::iterator find(GlobalSeq wm) {
    return std::lower_bound(
        counts_.begin(), counts_.end(), wm,
        [](const Count& e, GlobalSeq w) { return e.first < w; });
  }

  // Sorted by watermark; every count is at least 1.
  std::vector<Count> counts_;
};

class MessageQueue {
 public:
  /// `retention`: acked entries kept behind the ack cursor.
  explicit MessageQueue(std::size_t retention = 0) : retention_(retention) {}

  /// Store a sequenced message. A stale gseq (below the ack cursor) or a
  /// duplicate returns nullptr. Otherwise the high-water notes it, the
  /// stored copy's relay_rx_at is stamped with `now` (its arrival at this
  /// ordering node), and that copy is returned; it stays valid until the
  /// next call that releases entries.
  const proto::DataMsg* store(const proto::DataMsg& msg, sim::SimTime now) {
    if (msg.gseq < acked_) return nullptr;
    proto::DataMsg* stored = buf_.insert(msg.gseq, msg);
    if (stored == nullptr) return nullptr;
    stored->relay_rx_at = now;
    high_.note(msg);
    return stored;
  }

  const proto::DataMsg* find(GlobalSeq g) const { return buf_.find(g); }
  bool contains(GlobalSeq g) const { return buf_.contains(g); }
  std::size_t size() const { return buf_.size(); }

  /// The ack cursor: every gseq below it was acked or skipped.
  GlobalSeq next_expected() const { return acked_; }
  /// Oldest gseq a resyncing member can still be served from here: the
  /// released base, never above the ack cursor. Release drops holes below
  /// the cursor, so the base slot is present whenever it is below it.
  GlobalSeq valid_front() const { return buf_.base(); }
  const SeqHighWater& high_water() const { return high_; }
  /// The gseq the forward cursor waits on.
  GlobalSeq forward_next() const { return fwd_; }

  /// Advance the ack cursor over the stored run below `floor`, then
  /// release what falls out of retention behind it.
  void ack_to(GlobalSeq floor) {
    const GlobalSeq from = acked_;
    while (acked_ < floor && buf_.contains(acked_)) ++acked_;
    if (acked_ != from) release();
  }

  /// Force the ack cursor forward over holes (gap skip); never rewinds.
  void skip_to(GlobalSeq g) {
    if (g <= acked_) return;
    acked_ = g;
    release();
  }

  /// Skip the ack cursor to `window` gseqs below the high-water, holes
  /// included: the release rule of a BR with no member acks to go by.
  void keep_newest(std::size_t window) {
    const GlobalSeq newest = high_.next_gseq();
    const auto keep = static_cast<GlobalSeq>(window);
    skip_to(newest > keep ? newest - keep : 0);
  }

  /// Hand `fn` every stored message from the forward cursor up to the
  /// first hole, in gseq order, and leave the cursor at that hole. The
  /// cursor starts no earlier than the ack cursor.
  template <class Fn>
  void forward_in_order(Fn&& fn) {
    fwd_ = std::max(fwd_, acked_);
    while (const proto::DataMsg* m = buf_.find(fwd_)) {
      fn(*m);
      ++fwd_;
    }
  }

 private:
  void release() {
    const auto keep = static_cast<GlobalSeq>(retention_);
    GlobalSeq cut = std::max(buf_.base(), acked_ > keep ? acked_ - keep : 0);
    // A hole below the ack cursor can never fill (store rejects it).
    while (cut < acked_ && !buf_.contains(cut)) ++cut;
    buf_.drop_below(cut);
  }

  GseqBuffer buf_;
  SeqHighWater high_;
  GlobalSeq acked_ = 0;
  GlobalSeq fwd_ = 0;
  std::size_t retention_;
};

}  // namespace ringnet::core
