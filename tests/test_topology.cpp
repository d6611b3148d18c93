// Hierarchy construction: tier inventories, and parent() / br_of() against
// the tree build_hierarchy emits, BR by BR, AG by AG, AP by AP.

#include "ringnet_test.hpp"
#include "topo/hierarchy.hpp"

using namespace ringnet;

namespace {

topo::HierarchyConfig shape(std::size_t brs, std::size_t ags, std::size_t aps,
                            std::size_t mhs) {
  topo::HierarchyConfig cfg;
  cfg.num_brs = brs;
  cfg.ags_per_br = ags;
  cfg.aps_per_ag = aps;
  cfg.mhs_per_ap = mhs;
  return cfg;
}

}  // namespace

TEST(shapes_and_counts) {
  for (const auto& [brs, ags, aps, mhs] :
       {std::tuple{2, 1, 1, 1}, std::tuple{3, 3, 2, 2},
        std::tuple{8, 4, 4, 4}}) {
    const auto cfg = shape(static_cast<std::size_t>(brs),
                           static_cast<std::size_t>(ags),
                           static_cast<std::size_t>(aps),
                           static_cast<std::size_t>(mhs));
    const auto topo = topo::build_hierarchy(cfg);
    CHECK_EQ(topo.top_ring.size(), cfg.num_brs);
    CHECK_EQ(topo.aps.size(), cfg.num_brs * cfg.ags_per_br * cfg.aps_per_ag);
    CHECK_EQ(topo.mhs.size(), topo.aps.size() * cfg.mhs_per_ap);
    CHECK_EQ(topo.entity_count(),
             cfg.num_brs + cfg.num_brs * cfg.ags_per_br + topo.aps.size() +
                 topo.mhs.size());
    // Every tier list is index-ordered.
    for (std::size_t i = 0; i < topo.mhs.size(); ++i) {
      CHECK_EQ(topo.mhs[i],
               NodeId::make(Tier::MH, static_cast<std::uint32_t>(i)));
    }
  }
}

TEST(parents_follow_emission_order) {
  // Walk the tree in the order the paper's Figure 1 is emitted, numbering
  // each tier as it goes: every node's parent() is the node it was emitted
  // under, and br_of() is the BR whose subtree is being walked.
  const auto cfg = shape(3, 2, 3, 2);
  const auto topo = topo::build_hierarchy(cfg);
  std::uint32_t ag = 0, ap = 0, mh = 0;
  for (NodeId br : topo.top_ring) {
    CHECK(!topo.parent(br).valid());
    CHECK_EQ(topo.br_of(br), br);
    for (std::size_t g = 0; g < cfg.ags_per_br; ++g, ++ag) {
      const NodeId ag_id = NodeId::make(Tier::AG, ag);
      CHECK_EQ(topo.parent(ag_id), br);
      CHECK_EQ(topo.br_of(ag_id), br);
      for (std::size_t a = 0; a < cfg.aps_per_ag; ++a, ++ap) {
        const NodeId ap_id = topo.aps[ap];
        CHECK_EQ(topo.parent(ap_id), ag_id);
        CHECK_EQ(topo.br_of(ap_id), br);
        for (std::size_t m = 0; m < cfg.mhs_per_ap; ++m, ++mh) {
          const NodeId mh_id = topo.mhs[mh];
          CHECK_EQ(topo.parent(mh_id), ap_id);
          CHECK_EQ(topo.br_of(mh_id), br);
        }
      }
    }
  }
  CHECK_EQ(std::size_t{ag}, topo.ag_count());
  CHECK_EQ(std::size_t{ap}, topo.aps.size());
  CHECK_EQ(std::size_t{mh}, topo.mhs.size());
}

TEST(ids_outside_the_topology_have_no_parent) {
  const auto topo = topo::build_hierarchy(shape(2, 1, 2, 2));
  const NodeId outside[] = {
      NodeId::make(Tier::MH, 8), NodeId::make(Tier::AP, 4),
      NodeId::make(Tier::AG, 2), NodeId::make(Tier::BR, 2), NodeId{3},
      NodeId::invalid()};
  for (NodeId id : outside) {
    CHECK(!topo.parent(id).valid());
    CHECK(!topo.br_of(id).valid());
  }
  // A shape without MHs numbers none, and its APs still have parents.
  const auto empty = topo::build_hierarchy(shape(2, 1, 2, 0));
  CHECK(empty.mhs.empty());
  CHECK(!empty.parent(NodeId::make(Tier::MH, 0)).valid());
  CHECK_EQ(empty.br_of(empty.aps[3]), empty.top_ring[1]);
}

TEST(node_id_tiers_and_names) {
  const NodeId br = NodeId::make(Tier::BR, 7);
  CHECK(br.tier() == Tier::BR);
  CHECK_EQ(br.index(), std::uint32_t{7});
  CHECK(to_string(br) == "BR7");
  CHECK(to_string(NodeId::make(Tier::MH, 12)) == "MH12");
  CHECK(to_string(NodeId{5}) == "N5");
  CHECK(!NodeId::invalid().valid());
}

TEST_MAIN()
