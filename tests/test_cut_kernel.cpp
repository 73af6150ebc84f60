// Pair-kernel differential suite: every local-cut query served by the
// allocation-free kernel (cuts/two_cuts.hpp) must answer exactly as the
// seed implementations kept in tests/reference/ — on every generator family,
// every radius 1..6, three labellings each, and the degenerate shapes
// (empty, isolated, K2, cycles, K_{2,t}, disconnected, r >= diameter). The
// LOCAL half asserts the per-view loops give the same answer for 1 and 4
// worker threads (the tsan preset runs this file too).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/algorithm1.hpp"
#include "core/mvc.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "cuts/two_cuts.hpp"
#include "ding/generators.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "local/simulator.hpp"
#include "reference/cuts_reference.hpp"

namespace lmds {
namespace {

using graph::Graph;
using graph::Vertex;

struct Instance {
  std::string name;
  Graph g;
};

Graph relabel(const Graph& g, std::uint64_t seed) {
  std::vector<Vertex> perm(static_cast<std::size_t>(g.num_vertices()));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  graph::GraphBuilder b(g.num_vertices());
  for (const graph::Edge& e : g.edges()) {
    b.add_edge(perm[static_cast<std::size_t>(e.u)], perm[static_cast<std::size_t>(e.v)]);
  }
  return b.build();
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  graph::GraphBuilder out(a.num_vertices() + b.num_vertices());
  for (const graph::Edge& e : a.edges()) out.add_edge(e.u, e.v);
  for (const graph::Edge& e : b.edges()) {
    out.add_edge(e.u + a.num_vertices(), e.v + a.num_vertices());
  }
  return out.build();
}

// Every generator family at a size the seed reference answers quickly.
std::vector<Instance> families() {
  std::mt19937_64 rng(20260417);
  std::vector<Instance> out;
  out.push_back({"path", graph::gen::path(14)});
  out.push_back({"cycle", graph::gen::cycle(13)});
  out.push_back({"star", graph::gen::star(8)});
  out.push_back({"complete", graph::gen::complete(6)});
  out.push_back({"complete_bipartite", graph::gen::complete_bipartite(3, 4)});
  out.push_back({"grid", graph::gen::grid(4, 5)});
  out.push_back({"wheel", graph::gen::wheel(9)});
  out.push_back({"spider", graph::gen::spider(4, 3)});
  out.push_back({"random_tree", graph::gen::random_tree(24, rng)});
  out.push_back({"caterpillar", graph::gen::caterpillar(6, 2)});
  out.push_back({"theta_chain", graph::gen::theta_chain(4, 3)});
  out.push_back({"clique_with_pendants", graph::gen::clique_with_pendants(6)});
  out.push_back({"apollonian", graph::gen::apollonian(16, rng)});
  out.push_back({"maximal_outerplanar", graph::gen::random_maximal_outerplanar(20, rng)});
  out.push_back({"outerplanar", graph::gen::random_outerplanar(24, 0.4, rng)});
  out.push_back({"max_degree", graph::gen::random_max_degree(24, 4, 8, rng)});
  out.push_back({"connected", graph::gen::random_connected(22, 10, rng)});
  ding::CactusConfig cc;
  cc.pieces = 4;
  cc.max_piece_size = 7;
  cc.t = 5;
  out.push_back({"ding_cactus", ding::random_cactus_of_structures(cc, rng)});
  ding::AugmentationConfig ac;
  ac.max_length = 5;
  out.push_back({"ding_augmentation", ding::random_augmentation(ac, rng).graph});
  return out;
}

// The degenerate shapes: empty, isolated, K2, C3..C12, K_{2,t},
// disconnected, and graphs every tested radius covers whole.
std::vector<Instance> degenerate() {
  std::vector<Instance> out;
  out.push_back({"empty", Graph()});
  out.push_back({"isolated", graph::GraphBuilder(5).build()});
  out.push_back({"K2", graph::gen::complete(2)});
  for (int k = 3; k <= 12; ++k) out.push_back({"C" + std::to_string(k), graph::gen::cycle(k)});
  for (int t = 1; t <= 5; ++t) {
    out.push_back({"K2," + std::to_string(t), graph::gen::complete_bipartite(2, t)});
  }
  out.push_back({"disconnected",
                 disjoint_union(graph::gen::theta_chain(2, 3), graph::gen::cycle(6))});
  out.push_back({"with_isolated", disjoint_union(graph::gen::wheel(6), graph::GraphBuilder(2).build())});
  return out;
}

// All list queries, and every per-vertex query on one scratch shared across
// graphs and radii (the arena must not leak state between them).
void expect_matches_reference(const Graph& g, int r, cuts::CutScratch& scratch,
                              const std::string& where) {
  namespace ref = cuts::reference;
  const auto in_cuts = ref::vertices_in_local_two_cuts(g, r);
  EXPECT_EQ(cuts::interesting_vertices(g, r), ref::interesting_vertices(g, r)) << where;
  EXPECT_EQ(cuts::local_two_cuts(g, r), ref::local_two_cuts(g, r)) << where;
  EXPECT_EQ(cuts::vertices_in_local_two_cuts(g, r), in_cuts) << where;
  EXPECT_EQ(cuts::local_one_cuts(g, r), ref::local_one_cuts(g, r)) << where;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::string at = where + " v=" + std::to_string(v);
    EXPECT_EQ(cuts::is_interesting(g, v, r, scratch), ref::is_interesting(g, v, r)) << at;
    EXPECT_EQ(cuts::is_local_one_cut(g, v, r, scratch), ref::is_local_one_cut(g, v, r)) << at;
    EXPECT_EQ(cuts::in_local_two_cut(g, v, r, scratch),
              std::binary_search(in_cuts.begin(), in_cuts.end(), v))
        << at;
  }
}

TEST(PairKernel, EveryFamilyEveryRadiusThreeLabellingsMatchesReference) {
  cuts::CutScratch scratch;
  for (const Instance& inst : families()) {
    for (std::uint64_t label = 0; label < 3; ++label) {
      const Graph g = label == 0 ? inst.g : relabel(inst.g, 77 * label + 5);
      for (int r = 1; r <= 6; ++r) {
        expect_matches_reference(
            g, r, scratch, inst.name + " label=" + std::to_string(label) + " r=" + std::to_string(r));
      }
    }
  }
}

TEST(PairKernel, DegenerateShapesMatchReference) {
  cuts::CutScratch scratch;
  for (const Instance& inst : degenerate()) {
    for (std::uint64_t label = 0; label < 3; ++label) {
      const Graph g = label == 0 ? inst.g : relabel(inst.g, 31 * label + 1);
      for (const int r : {1, 2, 3, 4, 5, 6, 40}) {
        const std::string where =
            inst.name + " label=" + std::to_string(label) + " r=" + std::to_string(r);
        expect_matches_reference(g, r, scratch, where);
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            EXPECT_EQ(cuts::is_local_two_cut(g, u, v, r),
                      cuts::reference::is_local_two_cut(g, u, v, r))
                << where << " u=" << u << " v=" << v;
          }
        }
      }
    }
  }
}

TEST(PairKernel, GlobalQueriesMatchReference) {
  std::vector<Instance> all = families();
  for (Instance& inst : degenerate()) all.push_back(std::move(inst));
  for (const Instance& inst : all) {
    const Graph& g = inst.g;
    EXPECT_EQ(cuts::globally_interesting_vertices(g),
              cuts::reference::globally_interesting_vertices(g))
        << inst.name;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(cuts::is_almost_interesting(g, v), cuts::reference::is_almost_interesting(g, v))
          << inst.name << " v=" << v;
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        EXPECT_EQ(cuts::full_component_count(g, u, v),
                  cuts::reference::full_component_count(g, u, v))
            << inst.name << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(PairKernel, RadiusBelowOneAndBadVertices) {
  const Graph g = graph::gen::cycle(6);
  EXPECT_TRUE(cuts::interesting_vertices(g, 0).empty());
  cuts::CutScratch scratch;
  EXPECT_FALSE(cuts::is_interesting(g, 0, 0, scratch));
  EXPECT_FALSE(cuts::in_local_two_cut(g, 0, 0, scratch));
  EXPECT_THROW(cuts::is_interesting(g, 6, 2, scratch), std::invalid_argument);
  EXPECT_THROW(cuts::is_local_one_cut(g, 6, 2), std::invalid_argument);
  EXPECT_THROW(cuts::is_local_two_cut(g, 0, 6, 2), std::invalid_argument);
  EXPECT_THROW(cuts::vertices_in_local_two_cuts(g, 0), std::invalid_argument);
  EXPECT_EQ(cuts::full_component_count(g, 0, 6), 0);
}

TEST(PairKernel, BlockRuleKeepsOnlyPartnersOnACommonCycle) {
  // Triangles {0,1,2} and {2,3,4} share cut vertex 2; 4-5 is a bridge.
  graph::GraphBuilder b(6);
  for (const auto& [u, v] : std::vector<std::pair<Vertex, Vertex>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}}) {
    b.add_edge(u, v);
  }
  const Graph g = b.build();
  const cuts::BlockIndex blocks = cuts::block_index(g);
  EXPECT_TRUE(blocks[5].empty());  // only in the bridge block
  EXPECT_EQ(blocks[2].size(), 2u);  // the cut vertex is in both triangles
  EXPECT_EQ(blocks[0], blocks[1]);
  EXPECT_NE(blocks[0], blocks[3]);
  cuts::CutScratch scratch;
  std::vector<Vertex> kept;
  const auto keep = [&](Vertex u) {
    kept.push_back(u);
    return false;
  };
  EXPECT_FALSE(cuts::any_partner(g, blocks, 0, 3, scratch, keep));
  EXPECT_EQ(kept, (std::vector<Vertex>{1, 2}));
  kept.clear();
  EXPECT_FALSE(cuts::any_partner(g, blocks, 5, 3, scratch, keep));
  EXPECT_TRUE(kept.empty());
  EXPECT_TRUE(cuts::any_partner(g, blocks, 2, 1, scratch, [](Vertex u) { return u == 3; }));
}

// The LOCAL per-view loops: one scratch per worker, bit-identical output
// for any thread count, and equal to the seed reference on the whole graph.
TEST(PairKernel, LocalPathsFourThreadsEqualOneAndTheReference) {
  std::mt19937_64 rng(4242);
  std::vector<Graph> graphs = {graph::gen::theta_chain(5, 3), graph::gen::cycle(16),
                               graph::gen::random_maximal_outerplanar(30, rng)};
  ding::CactusConfig cc;
  cc.pieces = 5;
  cc.max_piece_size = 7;
  cc.t = 5;
  graphs.push_back(ding::random_cactus_of_structures(cc, rng));
  core::Algorithm1Config cfg;
  cfg.radius1 = 3;
  cfg.radius2 = 2;
  cfg.twin_removal = false;
  for (const Graph& g : graphs) {
    const local::Network net(g);
    const auto a1 = core::algorithm1_local(net, cfg, 1);
    const auto a4 = core::algorithm1_local(net, cfg, 4);
    EXPECT_EQ(a1.dominating_set, a4.dominating_set) << g.summary();
    EXPECT_EQ(a1.diag.one_cuts, a4.diag.one_cuts) << g.summary();
    EXPECT_EQ(a1.diag.interesting, a4.diag.interesting) << g.summary();
    EXPECT_EQ(a1.diag.one_cuts, cuts::reference::local_one_cuts(g, 3)) << g.summary();
    EXPECT_EQ(a1.diag.interesting, cuts::reference::interesting_vertices(g, 2)) << g.summary();

    const auto m1 = core::algorithm1_mvc_local(net, cfg, 1);
    const auto m4 = core::algorithm1_mvc_local(net, cfg, 4);
    EXPECT_EQ(m1.vertex_cover, m4.vertex_cover) << g.summary();
    EXPECT_EQ(m1.diag.one_cuts, m4.diag.one_cuts) << g.summary();
    EXPECT_EQ(m1.diag.two_cut_vertices, m4.diag.two_cut_vertices) << g.summary();
    EXPECT_EQ(m1.diag.two_cut_vertices, cuts::reference::vertices_in_local_two_cuts(g, 2))
        << g.summary();
  }
}

}  // namespace
}  // namespace lmds
