#pragma once
// The paper's Message-Ordering step, shared by the simulator
// (RingNetProtocol) and the UDP runtime (BrRuntime). WorkingQueue (the WQ)
// holds the messages an ordering node received while waiting for the
// token; assign() binds each one, in arrival order, to the token's next
// global sequence number.
//
// Sans-I/O: the caller passes the token, its own id and the time; no
// clock, scheduler or socket is reached from here.

#include <cstddef>
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

}  // namespace ringnet::core
