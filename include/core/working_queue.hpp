#pragma once
// The paper's Message-Ordering step, shared by the simulator
// (RingNetProtocol) and the UDP runtime (BrRuntime). WorkingQueue (the WQ)
// holds the messages an ordering node received while waiting for the
// token; assign() binds each one, in arrival order, to the token's next
// global sequence number. SeqHighWater is what a node knows of the token's
// counters from the assigned messages in its MQ, and seeds a regenerated
// token (§4 Token-Regeneration) so neither gseqs nor per-group seqs repeat.
//
// Sans-I/O: the caller passes the token, its own id and the time; no
// clock, scheduler or socket is reached from here.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "proto/messages.hpp"

namespace ringnet::core {

class WorkingQueue {
 public:
  void add(proto::DataMsg msg) { pending_.push_back(std::move(msg)); }

  /// Drain the queue in FIFO order, binding each message to the token's
  /// next gseq, the ordering node `self`, the token's epoch, the time
  /// `now` and, per destination group, the token's next group seq (drawn
  /// from the token, so it is totally ordered ring-wide). The token's
  /// WTSNP table records every binding.
  std::vector<proto::DataMsg> assign(proto::OrderingToken& token, NodeId self,
                                     sim::SimTime now) {
    std::vector<proto::DataMsg> out;
    out.reserve(pending_.size());
    for (auto& m : pending_) {
      m.gseq = token.append_range(self, m.source, m.lseq, m.lseq);
      m.ordering_node = self;
      m.epoch = token.epoch();
      m.assigned_at = now;
      for (std::size_t i = 0; i < m.groups.size(); ++i) {
        m.group_seqs[i] = token.bump_group_seq(m.groups[i]);
      }
      out.push_back(std::move(m));
    }
    pending_.clear();
    return out;
  }

  std::size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }
  void clear() { pending_.clear(); }

 private:
  std::deque<proto::DataMsg> pending_;
};

/// The next gseq and next per-group seqs past every assigned message a
/// node has stored. Note each message as it enters the MQ; seed() writes
/// the counters into a regenerated token.
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

}  // namespace ringnet::core
