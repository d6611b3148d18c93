#pragma once
// The RingNet distribution vehicle (paper Figure 1): a four-tier hierarchy
// BRT (border routers, one top logical ring) / AGT (access gateways, one
// logical ring per BR) / APT (access proxies, tree children of AGs) / MHT
// (mobile hosts in wireless cells). The tree is regular and every tier is
// numbered in emission order (BR by BR, AG by AG, AP by AP), so a node's
// tree parent is its index divided by its parent's fan-out: nothing but
// the config and the index-ordered tier lists is stored.

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "net/channel.hpp"

namespace ringnet::topo {

struct HierarchyConfig {
  std::size_t num_brs = 3;
  std::size_t ags_per_br = 1;
  std::size_t aps_per_ag = 1;
  std::size_t mhs_per_ap = 1;
  net::ChannelModel wan = net::ChannelModel::wired_wan(0.0);
  net::ChannelModel lan = net::ChannelModel::wired_lan(0.0);
  net::ChannelModel wireless = net::ChannelModel::wireless(0.01);
};

struct Topology {
  HierarchyConfig config;
  std::vector<NodeId> top_ring;  // BRT ring, index order; front() leads
  std::vector<NodeId> aps;       // index order
  std::vector<NodeId> mhs;       // index order

  std::size_t ag_count() const { return config.num_brs * config.ags_per_br; }
  std::size_t entity_count() const {
    return top_ring.size() + ag_count() + aps.size() + mhs.size();
  }

  /// The tree parent: MH -> AP -> AG -> BR. Invalid for a BR and for an id
  /// outside the topology.
  NodeId parent(NodeId id) const;

  /// The BR at the root of `id`'s tree path (a BR is its own); invalid for
  /// an id outside the topology.
  NodeId br_of(NodeId id) const;
};

Topology build_hierarchy(const HierarchyConfig& config);

}  // namespace ringnet::topo
