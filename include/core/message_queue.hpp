#pragma once
// MessageQueue (the paper's MQ): an ordering node's buffer of globally-
// sequenced messages keyed by gseq. It absorbs out-of-order arrival (gap
// windows), tracks the contiguous delivered (subtree-acked) watermark, and
// retains a bounded tail (`retention` entries behind that watermark, the
// ValidFront lag) so handed-off members can resynchronize without
// end-to-end retransmission.
//
// Storage is a base-offset deque: gseqs are assigned contiguously by the
// token, so entry g lives at slot (g - base) and every hot operation
// (store, find, mark_delivered, prune) is an index, not an ordered-tree
// descent. Slots inside the span that have not arrived yet
// are explicit holes; the span stays O(retention + in-flight window).

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>

#include "proto/messages.hpp"
#include "sim/time.hpp"

namespace ringnet::core {

class MessageQueue {
 public:
  explicit MessageQueue(std::size_t retention) : retention_(retention) {}

  /// Insert a sequenced message. Returns false on duplicate (already
  /// buffered, or at/below the pruned ValidFront).
  bool store(const proto::DataMsg& msg, sim::SimTime now) {
    if (have_delivered_ && msg.gseq <= delivered_) {
      return false;  // stale: already delivered (possibly pruned)
    }
    Entry& slot = slot_for(msg.gseq);
    if (slot.present) return false;
    slot.present = true;
    slot.msg = msg;
    slot.stored_at = now;
    ++present_count_;
    if (!max_seen_valid_ || msg.gseq > max_seen_) {
      max_seen_ = msg.gseq;
      max_seen_valid_ = true;
    }
    return true;
  }

  /// Mark one gseq delivered; advances the contiguous delivered watermark
  /// and prunes everything older than (watermark - retention).
  void mark_delivered(GlobalSeq gseq) {
    Entry* e = entry_at(gseq);
    if (e != nullptr && e->present) e->delivered = true;
    // Advance the watermark over the contiguous delivered prefix.
    while (true) {
      Entry* front = entry_at(next_expected_);
      if (front == nullptr || !front->present || !front->delivered) break;
      delivered_ = next_expected_;
      have_delivered_ = true;
      ++next_expected_;
    }
    prune();
  }

  /// The stored message (in place), or nullptr.
  const proto::DataMsg* find(GlobalSeq gseq) const {
    const Entry* e = entry_at(gseq);
    return e != nullptr && e->present ? &e->msg : nullptr;
  }

  bool contains(GlobalSeq gseq) const {
    const Entry* e = entry_at(gseq);
    return e != nullptr && e->present;
  }

  /// When the entry is still materialized, the sim time it was stored.
  std::optional<sim::SimTime> stored_at(GlobalSeq gseq) const {
    const Entry* e = entry_at(gseq);
    if (e == nullptr || !e->present) return std::nullopt;
    return e->stored_at;
  }

  /// Oldest gseq this queue can still serve: the start of the retained
  /// prefix, or next_expected when nothing older is materialized. A hole
  /// at the *front* (oldest entry above next_expected because it is still
  /// in flight) does not advance the front — only pruning does.
  GlobalSeq valid_front() const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].present) {
        return std::min(next_expected_,
                        base_ + static_cast<GlobalSeq>(i));
      }
    }
    return next_expected_;
  }

  /// Force the expected cursor forward (gap skip after retention loss).
  void skip_to(GlobalSeq gseq) {
    if (gseq <= next_expected_) return;
    next_expected_ = gseq;
    if (gseq > 0) {
      delivered_ = gseq - 1;
      have_delivered_ = true;
    }
    prune();
  }

  GlobalSeq next_expected() const { return next_expected_; }
  GlobalSeq max_seen() const { return max_seen_valid_ ? max_seen_ : 0; }
  bool empty() const { return present_count_ == 0; }
  std::size_t size() const { return present_count_; }

 private:
  struct Entry {
    proto::DataMsg msg;
    sim::SimTime stored_at;
    bool present = false;
    bool delivered = false;
  };

  Entry* entry_at(GlobalSeq gseq) {
    if (entries_.empty() || gseq < base_) return nullptr;
    const GlobalSeq off = gseq - base_;
    if (off >= entries_.size()) return nullptr;
    return &entries_[static_cast<std::size_t>(off)];
  }
  const Entry* entry_at(GlobalSeq gseq) const {
    return const_cast<MessageQueue*>(this)->entry_at(gseq);
  }

  /// The slot for `gseq`, growing the span (with holes) as needed.
  Entry& slot_for(GlobalSeq gseq) {
    if (entries_.empty()) {
      base_ = gseq;
      entries_.emplace_back();
      return entries_.front();
    }
    while (gseq < base_) {
      entries_.emplace_front();
      --base_;
    }
    while (gseq - base_ >= entries_.size()) entries_.emplace_back();
    return entries_[static_cast<std::size_t>(gseq - base_)];
  }

  void prune() {
    if (!have_delivered_) return;
    // Keep `retention_` delivered entries behind the watermark.
    if (delivered_ + 1 < retention_) return;
    const GlobalSeq cut = delivered_ + 1 - retention_;  // first kept gseq
    while (!entries_.empty() && base_ < cut) {
      if (entries_.front().present) --present_count_;
      entries_.pop_front();
      ++base_;
    }
    // Unfillable holes at the front (store() rejects anything at or below
    // the delivered watermark) only waste span: drop them.
    while (!entries_.empty() && !entries_.front().present &&
           base_ <= delivered_) {
      entries_.pop_front();
      ++base_;
    }
  }

  std::deque<Entry> entries_;  // slot i holds gseq base_ + i
  GlobalSeq base_ = 0;
  std::size_t present_count_ = 0;
  GlobalSeq next_expected_ = 0;
  GlobalSeq delivered_ = 0;
  bool have_delivered_ = false;
  GlobalSeq max_seen_ = 0;
  bool max_seen_valid_ = false;
  std::size_t retention_;
};

}  // namespace ringnet::core
