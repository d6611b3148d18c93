#include "topo/hierarchy.hpp"

namespace ringnet::topo {

NodeId Topology::parent(NodeId id) const {
  const std::size_t i = id.index();
  switch (id.tier()) {
    case Tier::MH:
      if (i < mhs.size()) return aps[i / config.mhs_per_ap];
      break;
    case Tier::AP:
      if (i < aps.size()) {
        return NodeId::make(Tier::AG,
                            static_cast<std::uint32_t>(i / config.aps_per_ag));
      }
      break;
    case Tier::AG:
      if (i < ag_count()) return top_ring[i / config.ags_per_br];
      break;
    case Tier::BR:
    case Tier::None:
      break;
  }
  return NodeId::invalid();
}

NodeId Topology::br_of(NodeId id) const {
  for (NodeId up = parent(id); up.valid(); up = parent(up)) id = up;
  const bool is_br = id.tier() == Tier::BR && id.index() < top_ring.size();
  return is_br ? id : NodeId::invalid();
}

Topology build_hierarchy(const HierarchyConfig& config) {
  const auto tier_ids = [](Tier tier, std::size_t n) {
    std::vector<NodeId> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = NodeId::make(tier, static_cast<std::uint32_t>(i));
    }
    return ids;
  };
  Topology topo;
  topo.config = config;
  topo.top_ring = tier_ids(Tier::BR, config.num_brs);
  topo.aps = tier_ids(Tier::AP, topo.ag_count() * config.aps_per_ag);
  topo.mhs = tier_ids(Tier::MH, topo.aps.size() * config.mhs_per_ap);
  return topo;
}

}  // namespace ringnet::topo
