#include "obs/span.hpp"

#include <cstdio>

namespace ringnet::obs {

const char* stage_name(SpanStage stage) {
  switch (stage) {
    case SpanStage::Submit:
      return "submit";
    case SpanStage::Assign:
      return "assign";
    case SpanStage::Relay:
      return "relay";
    case SpanStage::Deliver:
      return "deliver";
  }
  return "?";
}

namespace {

void append_row(std::string& out, const char* name,
                const stats::Histogram& h) {
  char line[160];
  const int n = std::snprintf(
      line, sizeof(line),
      "  %-8s %10llu %10llu %10llu %10llu %10.1f %10llu\n", name,
      static_cast<unsigned long long>(h.count()),
      static_cast<unsigned long long>(h.p50()),
      static_cast<unsigned long long>(h.p90()),
      static_cast<unsigned long long>(h.p99()), h.mean(),
      static_cast<unsigned long long>(h.max()));
  if (n > 0) out.append(line, static_cast<std::size_t>(n));
}

}  // namespace

std::string SpanBreakdown::table(const std::string& title) const {
  std::string out;
  out += title;
  out += " (per-stage latency, us)\n";
  char head[160];
  const int n = std::snprintf(head, sizeof(head),
                              "  %-8s %10s %10s %10s %10s %10s %10s\n",
                              "stage", "count", "p50", "p90", "p99", "mean",
                              "max");
  if (n > 0) out.append(head, static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < kSpanStages; ++i) {
    append_row(out, stage_name(static_cast<SpanStage>(i)), stages_[i]);
  }
  append_row(out, "total", total_);
  return out;
}

}  // namespace ringnet::obs
