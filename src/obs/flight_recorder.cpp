#include "obs/flight_recorder.hpp"

#include <string>

namespace ringnet::obs {

const char* fr_event_name(FrEvent kind) {
  switch (kind) {
    case FrEvent::TokenRx:
      return "token_rx";
    case FrEvent::TokenTx:
      return "token_tx";
    case FrEvent::TokenDupDestroyed:
      return "token_dup_destroyed";
    case FrEvent::TokenRetx:
      return "token_retx";
    case FrEvent::TokenDropped:
      return "token_dropped";
    case FrEvent::TokenRegen:
      return "token_regen";
    case FrEvent::ArqResend:
      return "arq_resend";
    case FrEvent::UplinkRetx:
      return "uplink_retx";
    case FrEvent::StallResync:
      return "stall_resync";
    case FrEvent::ChainSplice:
      return "chain_splice";
    case FrEvent::GapSkip:
      return "gap_skip";
    case FrEvent::OrderViolation:
      return "order_violation";
    case FrEvent::Deliver:
      return "deliver";
    case FrEvent::Submit:
      return "submit";
    case FrEvent::NodeCrash:
      return "node_crash";
    case FrEvent::RingRepair:
      return "ring_repair";
    case FrEvent::Handoff:
      return "handoff";
  }
  return "unknown";
}

std::string FlightRecorder::dump_json(const std::string& node,
                                      const std::string& reason) const {
  // Snapshot under the lock, format outside it: formatting is O(ring) and
  // must not stall the protocol thread's record() calls.
  std::vector<FrRecord> events = snapshot();
  std::uint64_t recorded = 0;
  {
    util::MutexLock lock(mu_);
    recorded = total_;
  }
  std::string out;
  out.reserve(96 + node.size() + reason.size() + events.size() * 80);
  out += "{\"flight_recorder\":{\"node\":\"";
  out += node;
  out += "\",\"reason\":\"";
  out += reason;
  out += "\",\"recorded\":" + std::to_string(recorded);
  out += ",\"retained\":" + std::to_string(events.size());
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FrRecord& r = events[i];
    if (i != 0) out += ',';
    out += "{\"ev\":\"";
    out += fr_event_name(r.kind);
    out += "\",\"node\":" + std::to_string(r.node);
    out += ",\"t_us\":" + std::to_string(r.t_us);
    out += ",\"a\":" + std::to_string(r.a);
    out += ",\"b\":" + std::to_string(r.b);
    out += '}';
  }
  out += "]}}";
  return out;
}

}  // namespace ringnet::obs
