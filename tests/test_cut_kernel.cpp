// Pair-kernel differential suite: every local-cut query served by the
// allocation-free kernel (cuts/two_cuts.hpp) must answer exactly as the
// seed implementations kept in tests/reference/ — on every generator family,
// every radius 1..6, three labellings each, and the degenerate shapes
// (empty, isolated, K2, cycles, K_{2,t}, disconnected, r >= diameter). The
// LOCAL half asserts the per-view loops give the same answer for 1 and 4
// worker threads (the tsan preset runs this file too). The link rule's
// rejections are checked against the reference count one by one, and the
// fingerprinted true-twin reduction against the map-based seed version.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm1.hpp"
#include "core/mvc.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "cuts/two_cuts.hpp"
#include "ding/generators.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
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
                 graph::disjoint_union(graph::gen::theta_chain(2, 3), graph::gen::cycle(6))});
  out.push_back({"with_isolated",
                 graph::disjoint_union(graph::gen::wheel(6), graph::GraphBuilder(2).build())});
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
  EXPECT_THROW(cuts::in_local_two_cut(g, 6, 2, scratch), std::invalid_argument);
}

Graph from_edges(int n, const std::vector<std::pair<Vertex, Vertex>>& edges) {
  graph::GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

// The partners any_partner hands to fn, ascending.
std::vector<Vertex> kept_partners(const Graph& g, Vertex v, int r, cuts::CutScratch& scratch) {
  std::vector<Vertex> kept;
  cuts::any_partner(g, cuts::block_index(g), v, r, scratch, [&](Vertex u) {
    kept.push_back(u);
    return false;
  });
  return kept;
}

TEST(PairKernel, BlockRuleKeepsOnlyPartnersOnACommonCycle) {
  // Triangles {0,1,2} and {2,3,4} share cut vertex 2; 4-5 is a bridge.
  const Graph g = from_edges(6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}});
  const cuts::BlockIndex blocks = cuts::block_index(g);
  EXPECT_TRUE(blocks[5].empty());  // only in the bridge block
  EXPECT_EQ(blocks[2].size(), 2u);  // the cut vertex is in both triangles
  EXPECT_EQ(blocks[0], blocks[1]);
  EXPECT_NE(blocks[0], blocks[3]);

  // Triangles' links are connected, so the link rule rejects every pair
  // there; the block rule is observed on links that are not. 4-cycles
  // {0,1,2,3} and {3,4,5,6} share cut vertex 3; 5-7-8 is a pendant path.
  const Graph h = from_edges(
      9, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}, {4, 5}, {5, 6}, {3, 6}, {5, 7}, {7, 8}});
  cuts::CutScratch scratch;
  // 4 and 5 lie in N^3[0] with disconnected links: only the block rule
  // rejects them. 1 and 3 leave 0's link a single vertex.
  EXPECT_FALSE(cuts::link_connected(h, 4, graph::kNoVertex, scratch));
  EXPECT_FALSE(cuts::link_connected(h, 5, graph::kNoVertex, scratch));
  EXPECT_EQ(kept_partners(h, 0, 3, scratch), (std::vector<Vertex>{2}));
  EXPECT_EQ(kept_partners(h, 3, 2, scratch), (std::vector<Vertex>{1, 5}));
  EXPECT_TRUE(kept_partners(h, 8, 3, scratch).empty());  // on no cycle
  EXPECT_TRUE(kept_partners(h, 7, 3, scratch).empty());
  EXPECT_TRUE(cuts::any_partner(h, cuts::block_index(h), 3, 2, scratch,
                                [](Vertex u) { return u == 5; }));
}

// Reference check of every rejection: whenever G[N(v) \ {u}] or
// G[N(u) \ {v}] is connected, {u, v} has at most one full component in
// H = G[N^r[{u, v}]] (for r < 0, the components of u and v, which hold every
// full component of G); with u == v, v is no cut vertex of H.
TEST(PairKernel, LinkRuleRejectsOnlyPairsWithAtMostOneFullComponent) {
  namespace ref = cuts::reference;
  std::vector<Instance> all = families();
  for (Instance& inst : degenerate()) all.push_back(std::move(inst));
  cuts::CutScratch scratch;
  long rejected = 0;
  for (const Instance& inst : all) {
    for (std::uint64_t label = 0; label < 3; ++label) {
      const Graph g = label == 0 ? inst.g : relabel(inst.g, 77 * label + 5);
      for (const int r : {1, 2, 3, 4, 5, 6, -1}) {
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          for (Vertex u = 0; u < g.num_vertices(); ++u) {
            if (!cuts::link_connected(g, v, u, scratch) &&
                !cuts::link_connected(g, u, v, scratch)) {
              continue;
            }
            ++rejected;
            const Vertex sources[] = {u, v};
            const auto host = graph::induced_subgraph(g, graph::ball_of_set(g, sources, r));
            const Vertex hu = host.from_parent[static_cast<std::size_t>(u)];
            const Vertex hv = host.from_parent[static_cast<std::size_t>(v)];
            const std::string at = inst.name + " label=" + std::to_string(label) +
                                   " r=" + std::to_string(r) + " u=" + std::to_string(u) +
                                   " v=" + std::to_string(v);
            if (u == v) {
              EXPECT_FALSE(ref::is_cut_vertex(host.graph, hv)) << at;
            } else {
              EXPECT_LE(ref::full_component_count(host.graph, hu, hv), 1) << at;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(PairKernel, LinkRuleHandMadeShapes) {
  cuts::CutScratch scratch;
  // 1 is an isolated vertex of 0's link {1, 2, 3}; 1-4-2 puts it on a cycle
  // with 0, so only the link rule rejects it. {0, 2} and {0, 4} are 2-cuts.
  const Graph isolated = from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {2, 3}, {1, 4}, {4, 2}});
  EXPECT_FALSE(cuts::link_connected(isolated, 0, graph::kNoVertex, scratch));
  EXPECT_TRUE(cuts::link_connected(isolated, 0, 1, scratch));
  EXPECT_EQ(kept_partners(isolated, 0, 2, scratch), (std::vector<Vertex>{2, 4}));

  // Fan: 0's link is the path 1-2-3-4. Interior vertices split it and are
  // kept; the ends leave it connected and are rejected.
  const Graph fan = from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_FALSE(cuts::link_connected(fan, 0, 2, scratch));
  EXPECT_TRUE(cuts::link_connected(fan, 0, 1, scratch));
  EXPECT_EQ(kept_partners(fan, 0, 2, scratch), (std::vector<Vertex>{2, 3}));

  // Wheel hub: its link is the rim cycle, connected with any vertex taken
  // out, so nothing is kept and Step X answers without a pass.
  const Graph wheel = graph::gen::wheel(8);
  EXPECT_TRUE(cuts::link_connected(wheel, 0, graph::kNoVertex, scratch));
  for (Vertex u = 1; u < 8; ++u) EXPECT_TRUE(cuts::link_connected(wheel, 0, u, scratch));
  for (Vertex v = 0; v < 8; ++v) EXPECT_TRUE(kept_partners(wheel, v, 3, scratch).empty()) << v;
  EXPECT_FALSE(cuts::is_local_one_cut(wheel, 0, 2, scratch));

  // K_{2,t}: every link is an independent set of >= 2 vertices, so the
  // partner set is the whole ball and no non-adjacent partner is rejected.
  // The edges go: the link of a degree-2 side vertex minus one hub is the
  // other hub.
  for (int t = 3; t <= 5; ++t) {
    const Graph k2t = graph::gen::complete_bipartite(2, t);
    std::vector<Vertex> sides(static_cast<std::size_t>(t));
    std::iota(sides.begin(), sides.end(), 2);
    for (Vertex v = 0; v < k2t.num_vertices(); ++v) {
      EXPECT_FALSE(cuts::link_connected(k2t, v, graph::kNoVertex, scratch)) << v;
    }
    EXPECT_EQ(kept_partners(k2t, 0, 2, scratch), (std::vector<Vertex>{1}));
    std::vector<Vertex> others = sides;
    others.erase(others.begin());
    EXPECT_EQ(kept_partners(k2t, 2, 2, scratch), others) << "t=" << t;
  }
}

TEST(PairKernel, MaximalOuterplanarPartnersAreTheChords) {
  cuts::CutScratch scratch;
  for (const int n : {3, 4, 10, 30}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = graph::gen::random_maximal_outerplanar(n, seed);
      for (Vertex v = 0; v < n; ++v) {
        std::vector<Vertex> chords;  // neighbours off the outer cycle 0..n-1
        for (const Vertex u : g.neighbors(v)) {
          const Vertex gap = u > v ? u - v : v - u;
          if (gap != 1 && gap != n - 1) chords.push_back(u);
        }
        for (int r = 1; r <= 6; ++r) {
          EXPECT_EQ(kept_partners(g, v, r, scratch), chords)
              << "n=" << n << " seed=" << seed << " v=" << v << " r=" << r;
        }
      }
    }
  }
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

// The map-based seed reduction: one class per sorted closed neighbourhood.
graph::TwinReduction map_twin_reduction(const Graph& g) {
  std::map<std::vector<Vertex>, std::vector<Vertex>> classes;
  for (Vertex v = 0; v < g.num_vertices(); ++v) classes[g.closed_neighborhood(v)].push_back(v);
  graph::TwinReduction result;
  result.representative.assign(static_cast<std::size_t>(g.num_vertices()), graph::kNoVertex);
  std::vector<Vertex> reps;
  for (const auto& [nbhd, members] : classes) {
    const Vertex rep = *std::min_element(members.begin(), members.end());
    reps.push_back(rep);
    for (Vertex v : members) result.representative[static_cast<std::size_t>(v)] = rep;
  }
  std::sort(reps.begin(), reps.end());
  result.num_classes = static_cast<int>(reps.size());
  result.reduced = graph::induced_subgraph(g, reps);
  return result;
}

// Complete multipartite graph with the given part sizes: singleton parts
// are true twins of each other, larger parts hold false twins only.
Graph complete_multipartite(const std::vector<int>& parts) {
  std::vector<int> part_of;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    part_of.insert(part_of.end(), parts[p], static_cast<int>(p));
  }
  const auto n = static_cast<Vertex>(part_of.size());
  graph::GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (part_of[static_cast<std::size_t>(u)] != part_of[static_cast<std::size_t>(v)]) {
        b.add_edge(u, v);
      }
    }
  }
  return b.build();
}

// Each vertex of g becomes a clique of 1..3 true twins; cliques of adjacent
// vertices are joined completely.
Graph blow_up(const Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> size(1, 3);
  std::vector<Vertex> first(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    first[static_cast<std::size_t>(v) + 1] = first[static_cast<std::size_t>(v)] + size(rng);
  }
  graph::GraphBuilder b(first.back());
  const auto copies = [&](Vertex v) {
    return std::pair{first[static_cast<std::size_t>(v)], first[static_cast<std::size_t>(v) + 1]};
  };
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto [lo, hi] = copies(v);
    for (Vertex x = lo; x < hi; ++x) {
      for (Vertex y = x + 1; y < hi; ++y) b.add_edge(x, y);
    }
    for (const Vertex w : g.neighbors(v)) {
      const auto [wlo, whi] = copies(w);
      for (Vertex x = lo; x < hi && v < w; ++x) {
        for (Vertex y = wlo; y < whi; ++y) b.add_edge(x, y);
      }
    }
  }
  return b.build();
}

TEST(TwinReduction, FingerprintsAndRowMergeMatchTheMapReference) {
  std::mt19937_64 rng(515);
  std::vector<Instance> all = families();
  for (Instance& inst : degenerate()) all.push_back(std::move(inst));
  for (const int k : {1, 2, 5, 12}) {
    all.push_back({"K" + std::to_string(k), graph::gen::complete(k)});
  }
  const std::vector<std::vector<int>> multipartite = {
      {1, 1, 1, 2, 3}, {2, 2, 2}, {1, 4}, {1, 1, 1, 1}, {3, 1, 3, 1}};
  for (const std::vector<int>& parts : multipartite) {
    all.push_back({"multipartite", complete_multipartite(parts)});
  }
  const std::size_t base = all.size();
  for (std::size_t i = 0; i < base; ++i) {
    all.push_back({all[i].name + " blow-up", blow_up(all[i].g, rng)});
  }
  for (const Instance& inst : all) {
    for (std::uint64_t label = 0; label < 3; ++label) {
      const Graph g = label == 0 ? inst.g : relabel(inst.g, 13 * label + 2);
      const std::string at = inst.name + " label=" + std::to_string(label);
      const graph::TwinReduction got = graph::remove_true_twins(g);
      const graph::TwinReduction want = map_twin_reduction(g);
      EXPECT_EQ(got.representative, want.representative) << at;
      EXPECT_EQ(got.num_classes, want.num_classes) << at;
      EXPECT_EQ(got.reduced.to_parent, want.reduced.to_parent) << at;
      EXPECT_EQ(got.reduced.graph, want.reduced.graph) << at;
      std::vector<std::vector<Vertex>> closed;
      for (Vertex v = 0; v < g.num_vertices(); ++v) closed.push_back(g.closed_neighborhood(v));
      for (Vertex a = 0; a < g.num_vertices(); ++a) {
        for (Vertex b = 0; b < g.num_vertices(); ++b) {
          EXPECT_EQ(g.true_twins(a, b),
                    closed[static_cast<std::size_t>(a)] == closed[static_cast<std::size_t>(b)])
              << at << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lmds
