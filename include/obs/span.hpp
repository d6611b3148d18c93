#pragma once
// Message-lifecycle spans: each delivered message is decomposed into the
// stages of the paper's delivery path — submit, uplink-rx at the ordering
// BR, gseq assignment at a token pass, ring relay to the delivering BR,
// and AP-downlink/MH delivery. A SpanBreakdown folds per-stage durations
// into one histogram per stage so sim and runtime runs of the same
// scenario render comparable per-stage latency tables.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "stats/histogram.hpp"

namespace ringnet::obs {

enum class SpanStage : std::uint8_t {
  Submit = 0,  // submit -> uplink-rx at the ordering BR
  Assign = 1,  // uplink-rx -> gseq assignment (token pass)
  Relay = 2,   // assignment -> ordered arrival at the delivering BR
  Deliver = 3  // BR arrival -> delivery at the MH (AP downlink included)
};
inline constexpr std::size_t kSpanStages = 4;

/// Stable label for a stage ("submit", "assign", "relay", "deliver").
const char* stage_name(SpanStage stage);

class SpanBreakdown {
 public:
  void record(SpanStage stage, std::uint64_t us) {
    stages_[static_cast<std::size_t>(stage)].record(us);
  }
  void record_total(std::uint64_t us) { total_.record(us); }

  /// Join one delivered message's five stamps (µs) into its four stage
  /// durations and its total. Records nothing and returns false unless the
  /// stamps rise: a stage the message never passed, or a stamp a resend
  /// moved, would otherwise credit a nonsense duration.
  bool record_lifecycle(std::int64_t submit, std::int64_t uplink_rx,
                        std::int64_t assigned, std::int64_t relay_rx,
                        std::int64_t deliver) {
    if (uplink_rx < submit || assigned < uplink_rx || relay_rx < assigned ||
        deliver < relay_rx) {
      return false;
    }
    const auto span = [](std::int64_t from, std::int64_t to) {
      return static_cast<std::uint64_t>(to - from);
    };
    record(SpanStage::Submit, span(submit, uplink_rx));
    record(SpanStage::Assign, span(uplink_rx, assigned));
    record(SpanStage::Relay, span(assigned, relay_rx));
    record(SpanStage::Deliver, span(relay_rx, deliver));
    record_total(span(submit, deliver));
    return true;
  }

  const stats::Histogram& stage(SpanStage s) const {
    return stages_[static_cast<std::size_t>(s)];
  }
  const stats::Histogram& total() const { return total_; }
  bool empty() const { return total_.count() == 0; }

  void merge_from(const SpanBreakdown& other) {
    for (std::size_t i = 0; i < kSpanStages; ++i) {
      stages_[i].merge_from(other.stages_[i]);
    }
    total_.merge_from(other.total_);
  }

  /// Render the per-stage latency table (one row per stage plus the
  /// end-to-end total; p50/p90/p99/mean/max in microseconds). The caller
  /// prints it — library code never writes to stdout.
  std::string table(const std::string& title) const;

 private:
  std::array<stats::Histogram, kSpanStages> stages_{};
  stats::Histogram total_;
};

}  // namespace ringnet::obs
