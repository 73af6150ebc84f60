// Unit tests for the core graph substrate: Graph, GraphBuilder, BFS
// utilities, structural operations, I/O and generators.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/hash.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"

namespace lmds::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.has_vertex(0));
}

TEST(Graph, BuilderBasics) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 1);  // duplicate, deduplicated at build
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, BuilderRejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, BuilderCreatesVerticesOnDemand) {
  GraphBuilder b;
  b.add_edge(0, 5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, AsymmetricAdjacencyRejected) {
  std::vector<std::vector<Vertex>> adj{{1}, {}};
  EXPECT_THROW(Graph{adj}, std::invalid_argument);
}

TEST(Graph, AdjacencyConstructorValidatesEveryRow) {
  using Adjacency = std::vector<std::vector<Vertex>>;
  EXPECT_THROW(Graph(Adjacency{{1, 2}, {0}, {}}), std::invalid_argument);  // 2 lacks 0
  EXPECT_THROW(Graph(Adjacency{{1}, {0, 2}}), std::invalid_argument);      // 2 >= n
  EXPECT_THROW(Graph(Adjacency{{-1}, {}}), std::invalid_argument);         // negative
  EXPECT_THROW(Graph(Adjacency{{1}, {0, 1}}), std::invalid_argument);      // self-loop
  EXPECT_THROW(Graph(Adjacency{{0, 0}}), std::invalid_argument);           // repeated loop
  // Repeats and unsorted rows are fine: they are sorted and de-duplicated.
  const Graph g(Adjacency{{2, 1, 2}, {0, 0}, {0}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(std::vector<Vertex>(g.neighbors(0).begin(), g.neighbors(0).end()),
            (std::vector<Vertex>{1, 2}));
}

/// What GraphBuilder built before it kept a flat edge list: one adjacency
/// row per vertex, each edge entered in both rows, handed to
/// Graph(adjacency). Also returns the expected rows as sets.
struct ReferenceBuild {
  std::vector<std::vector<Vertex>> adjacency;
  std::vector<std::set<Vertex>> rows;

  void ensure(int n) {
    if (n > static_cast<int>(adjacency.size())) {
      adjacency.resize(static_cast<std::size_t>(n));
      rows.resize(static_cast<std::size_t>(n));
    }
  }
  void add_edge(Vertex u, Vertex v) {
    ensure(std::max(u, v) + 1);
    adjacency[static_cast<std::size_t>(u)].push_back(v);
    adjacency[static_cast<std::size_t>(v)].push_back(u);
    rows[static_cast<std::size_t>(u)].insert(v);
    rows[static_cast<std::size_t>(v)].insert(u);
  }
};

void expect_same_graph(const Graph& built, const ReferenceBuild& ref) {
  const Graph expected(ref.adjacency);
  ASSERT_EQ(built.num_vertices(), static_cast<int>(ref.rows.size()));
  EXPECT_EQ(built, expected);
  EXPECT_EQ(graph_hash(built), graph_hash(expected));
  std::size_t directed = 0;
  for (Vertex v = 0; v < built.num_vertices(); ++v) {
    const auto nb = built.neighbors(v);
    const std::set<Vertex>& row = ref.rows[static_cast<std::size_t>(v)];
    EXPECT_EQ(std::vector<Vertex>(nb.begin(), nb.end()),
              std::vector<Vertex>(row.begin(), row.end()))
        << "row " << v;
    EXPECT_EQ(built.adjacency_offset(v), directed);
    directed += row.size();
  }
  EXPECT_EQ(static_cast<std::size_t>(built.num_edges()) * 2, directed);
}

TEST(Graph, BuilderMatchesAdjacencyListConstruction) {
  std::mt19937 rng(20250617);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 40);
    const int m = static_cast<int>(rng() % static_cast<unsigned>(3 * n + 1));
    GraphBuilder b(trial % 3 == 0 ? n : 0);
    ReferenceBuild ref;
    if (trial % 3 == 0) ref.ensure(n);
    for (int i = 0; i < m && n > 1; ++i) {
      const auto u = static_cast<Vertex>(rng() % static_cast<unsigned>(n));
      auto v = static_cast<Vertex>(rng() % static_cast<unsigned>(n - 1));
      if (v >= u) ++v;
      b.add_edge(u, v);
      ref.add_edge(u, v);
      if (rng() % 4 == 0) {  // repeat it, in either orientation
        const bool flip = rng() % 2 != 0;
        b.add_edge(flip ? v : u, flip ? u : v);
        ref.add_edge(flip ? v : u, flip ? u : v);
      }
    }
    // Trailing isolated vertices, both ways.
    const int extra = static_cast<int>(rng() % 4);
    b.ensure_vertices(b.num_vertices() + extra);
    ref.ensure(static_cast<int>(ref.rows.size()) + extra);
    if (rng() % 2) {
      EXPECT_EQ(b.add_vertex(), static_cast<Vertex>(ref.rows.size()));
      ref.ensure(static_cast<int>(ref.rows.size()) + 1);
    }
    b.ensure_vertices(1);  // never shrinks
    ref.ensure(1);
    expect_same_graph(b.build(), ref);
    expect_same_graph(b.build(), ref);  // build() leaves the builder intact
  }
}

TEST(Graph, BuilderEdgeCases) {
  const Graph empty = GraphBuilder().build();
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(empty, Graph(std::vector<std::vector<Vertex>>{}));
  EXPECT_EQ(graph_hash(empty), graph_hash(Graph(std::vector<std::vector<Vertex>>{})));

  GraphBuilder isolated(3);
  EXPECT_EQ(isolated.build(), Graph(std::vector<std::vector<Vertex>>(3)));

  GraphBuilder b;
  b.add_edge(3, 1);
  b.add_edge(1, 3);
  b.add_edge(3, 1);
  const Graph first = b.build();
  b.add_edge(0, 1);  // still usable after build(); earlier results unchanged
  const Graph second = b.build();
  EXPECT_EQ(first.num_edges(), 1);
  EXPECT_EQ(second.num_edges(), 2);
  EXPECT_EQ(first.num_vertices(), 4);
  EXPECT_EQ(std::vector<Vertex>(second.neighbors(1).begin(), second.neighbors(1).end()),
            (std::vector<Vertex>{0, 3}));
}

TEST(Graph, NeighborsSorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 3u);
}

TEST(Graph, EdgesListedOnce) {
  const Graph g = gen::cycle(5);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 5u);
  for (const Edge e : edges) EXPECT_LT(e.u, e.v);
}

TEST(Graph, ClosedNeighborhood) {
  const Graph g = gen::path(4);  // 0-1-2-3
  EXPECT_EQ(g.closed_neighborhood(1), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(g.closed_neighborhood(0), (std::vector<Vertex>{0, 1}));
}

TEST(Graph, ClosedNeighborhoodContainment) {
  // Star: leaf neighbourhoods contained in centre's.
  const Graph g = gen::star(5);
  EXPECT_TRUE(g.closed_neighborhood_contained(1, 0));
  EXPECT_FALSE(g.closed_neighborhood_contained(0, 1));
  // Non-adjacent leaves: not contained (a not in N[b]).
  EXPECT_FALSE(g.closed_neighborhood_contained(1, 2));
}

TEST(Graph, TrueTwins) {
  // Triangle: all three vertices are pairwise true twins.
  const Graph g = gen::complete(3);
  EXPECT_TRUE(g.true_twins(0, 1));
  EXPECT_TRUE(g.true_twins(1, 2));
  // Path: no true twins.
  const Graph p = gen::path(3);
  EXPECT_FALSE(p.true_twins(0, 2));
  EXPECT_FALSE(p.true_twins(0, 1));
}

// ---------------------------------------------------------------------------
// BFS utilities

TEST(Bfs, DistancesOnPath) {
  const Graph g = gen::path(5);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Bfs, DistancesDisconnected) {
  const Graph g = disjoint_union(gen::path(2), gen::path(2));
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Bfs, MultiSourceDistances) {
  const Graph g = gen::path(7);
  const std::vector<Vertex> sources{0, 6};
  const auto dist = bfs_distances_multi(g, sources);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
}

TEST(Bfs, BallRadius) {
  const Graph g = gen::path(9);
  EXPECT_EQ(ball(g, 4, 2), (std::vector<Vertex>{2, 3, 4, 5, 6}));
  EXPECT_EQ(ball(g, 0, 0), (std::vector<Vertex>{0}));
}

TEST(Bfs, BallOfSet) {
  const Graph g = gen::path(9);
  const std::vector<Vertex> sources{0, 8};
  EXPECT_EQ(ball_of_set(g, sources, 1), (std::vector<Vertex>{0, 1, 7, 8}));
}

TEST(Bfs, ConnectedComponents) {
  const Graph g = disjoint_union(gen::cycle(3), gen::path(2));
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 2);
  EXPECT_EQ(comps.groups()[0], (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(comps.groups()[1], (std::vector<Vertex>{3, 4}));
}

TEST(Bfs, ComponentsWithout) {
  const Graph g = gen::path(5);
  const std::vector<Vertex> removed{2};
  const auto comps = components_without(g, removed);
  EXPECT_EQ(comps.count, 2);
  EXPECT_EQ(comps.component[2], -1);
}

TEST(Bfs, Diameter) {
  EXPECT_EQ(diameter(gen::path(6)), 5);
  EXPECT_EQ(diameter(gen::cycle(6)), 3);
  EXPECT_EQ(diameter(gen::complete(4)), 1);
  EXPECT_EQ(diameter(disjoint_union(gen::path(2), gen::path(2))), -1);
}

TEST(Bfs, WeakDiameterUsesWholeGraph) {
  // On a cycle, the two endpoints of a "broken" arc are close through the
  // rest of the graph: weak diameter of {0, 5} in C6 is 1? no: d(0,5)=1.
  const Graph g = gen::cycle(6);
  const std::vector<Vertex> s{0, 3};
  EXPECT_EQ(weak_diameter(g, s), 3);
  const std::vector<Vertex> s2{0, 1, 5};
  EXPECT_EQ(weak_diameter(g, s2), 2);
}

TEST(Bfs, IsConnected) {
  EXPECT_TRUE(is_connected(gen::cycle(4)));
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_FALSE(is_connected(disjoint_union(gen::path(2), gen::path(2))));
}

// ---------------------------------------------------------------------------
// Operations

TEST(Ops, InducedSubgraph) {
  const Graph g = gen::cycle(6);
  const std::vector<Vertex> vs{0, 1, 2, 4};
  const Subgraph sub = induced_subgraph(g, vs);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 0-1, 1-2 survive; 4 isolated
  EXPECT_EQ(sub.to_parent[3], 4);
  EXPECT_EQ(sub.from_parent[4], 3);
  EXPECT_EQ(sub.from_parent[5], kNoVertex);
}

TEST(Ops, InducedSubgraphLift) {
  const Graph g = gen::path(5);
  const std::vector<Vertex> vs{1, 3, 4};
  const Subgraph sub = induced_subgraph(g, vs);
  const std::vector<Vertex> picked{0, 2};
  EXPECT_EQ(sub.lift(picked), (std::vector<Vertex>{1, 4}));
}

TEST(Ops, RemoveVertices) {
  const Graph g = gen::cycle(5);
  const std::vector<Vertex> rm{0};
  const Subgraph sub = remove_vertices(g, rm);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.graph.num_edges(), 3);
}

TEST(Ops, TrueTwinReductionOnClique) {
  // All vertices of K5 are true twins; reduction keeps one.
  const TwinReduction red = remove_true_twins(gen::complete(5));
  EXPECT_EQ(red.num_classes, 1);
  EXPECT_EQ(red.reduced.graph.num_vertices(), 1);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(red.representative[v], 0);
}

TEST(Ops, TrueTwinReductionPreservesTwinless) {
  const Graph g = gen::path(6);
  const TwinReduction red = remove_true_twins(g);
  EXPECT_EQ(red.num_classes, 6);
  EXPECT_EQ(red.reduced.graph, g);
}

TEST(Ops, TrueTwinReductionLiftSolution) {
  const TwinReduction red = remove_true_twins(gen::complete(4));
  const std::vector<Vertex> sol{0};
  const auto lifted = red.lift_solution(sol);
  ASSERT_EQ(lifted.size(), 1u);
  EXPECT_EQ(lifted[0], 0);
}

TEST(Ops, TwinReductionMixedClasses) {
  // K3 with a pendant on vertex 0: vertices 1 and 2 are true twins.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 3);
  const TwinReduction red = remove_true_twins(b.build());
  EXPECT_EQ(red.num_classes, 3);
  EXPECT_EQ(red.representative[2], 1);
  EXPECT_EQ(red.representative[1], 1);
  EXPECT_EQ(red.representative[0], 0);
}

TEST(Ops, ContractPartition) {
  const Graph g = gen::path(6);
  const std::vector<std::vector<Vertex>> parts{{0, 1}, {2, 3}, {4, 5}};
  const Graph contracted = contract_partition(g, parts);
  EXPECT_EQ(contracted.num_vertices(), 3);
  EXPECT_EQ(contracted.num_edges(), 2);
  EXPECT_TRUE(contracted.has_edge(0, 1));
  EXPECT_TRUE(contracted.has_edge(1, 2));
  EXPECT_FALSE(contracted.has_edge(0, 2));
}

TEST(Ops, ContractPartitionRejectsOverlap) {
  const Graph g = gen::path(4);
  const std::vector<std::vector<Vertex>> parts{{0, 1}, {1, 2}};
  EXPECT_THROW(contract_partition(g, parts), std::invalid_argument);
}

TEST(Ops, GraphPower) {
  const Graph g = gen::path(5);
  const Graph g2 = power(g, 2);
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 3));
  EXPECT_EQ(g2.degree(2), 4);
}

TEST(Ops, DisjointUnion) {
  const Graph g = disjoint_union(gen::cycle(3), gen::cycle(4));
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Ops, RComponents) {
  // On a path 0..8, S = {0, 2, 7} with r = 2: {0,2} chain together, {7} apart.
  const Graph g = gen::path(9);
  const std::vector<Vertex> s{0, 2, 7};
  const auto comps = r_components(g, s, 2);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<Vertex>{0, 2}));
  EXPECT_EQ(comps[1], (std::vector<Vertex>{7}));
}

TEST(Ops, RComponentsOfCycleBand) {
  // All of C9 with r=1 forms one r-component.
  const Graph g = gen::cycle(9);
  std::vector<Vertex> all(9);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(r_components(g, all, 1).size(), 1u);
}

// ---------------------------------------------------------------------------
// I/O

TEST(Io, RoundTripEdgeList) {
  const Graph g = gen::cycle(5);
  std::ostringstream out;
  write_edge_list(out, g);
  const Graph back = parse_edge_list(out.str());
  EXPECT_EQ(back, g);
}

TEST(Io, ParseWithComments) {
  const Graph g = parse_edge_list("# a triangle\nn 3\n0 1\n1 2 # chord\n0 2\n");
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(Io, ParseRejectsGarbage) {
  EXPECT_THROW(parse_edge_list("0 x\n"), std::runtime_error);
  EXPECT_THROW(parse_edge_list("hello world\n"), std::runtime_error);
}

TEST(Io, DotContainsHighlights) {
  const Graph g = gen::path(3);
  const std::vector<Vertex> hl{1};
  const std::string dot = to_dot(g, hl);
  EXPECT_NE(dot.find("1 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Generators

TEST(Generators, BasicShapes) {
  EXPECT_EQ(gen::path(1).num_edges(), 0);
  EXPECT_EQ(gen::path(10).num_edges(), 9);
  EXPECT_EQ(gen::cycle(10).num_edges(), 10);
  EXPECT_EQ(gen::star(7).num_edges(), 6);
  EXPECT_EQ(gen::complete(6).num_edges(), 15);
  EXPECT_EQ(gen::complete_bipartite(2, 5).num_edges(), 10);
  EXPECT_EQ(gen::grid(3, 4).num_edges(), 17);
  EXPECT_EQ(gen::wheel(7).num_edges(), 12);
}

TEST(Generators, SpiderShape) {
  const Graph g = gen::spider(3, 4);
  EXPECT_EQ(g.num_vertices(), 13);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(diameter(g), 8);
}

TEST(Generators, RandomTreeIsTree) {
  std::mt19937_64 rng(42);
  const Graph g = gen::random_tree(50, rng);
  EXPECT_EQ(g.num_edges(), 49);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CaterpillarShape) {
  const Graph g = gen::caterpillar(5, 3);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 19);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ThetaChainShape) {
  const Graph g = gen::theta_chain(3, 4);
  // 4 hubs + 3*4 internal vertices.
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 24);
  // No hub-hub edges.
  EXPECT_FALSE(g.has_edge(0, 1));
  // Internal vertices have degree exactly 2.
  for (Vertex v = 4; v < 16; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CliqueWithPendantsShape) {
  const Graph g = gen::clique_with_pendants(5);
  EXPECT_EQ(g.num_vertices(), 9);
  // C(5,2) clique edges + 2 per pendant * 4 pendants.
  EXPECT_EQ(g.num_edges(), 18);
  for (Vertex v = 5; v < 9; ++v) {
    EXPECT_EQ(g.degree(v), 2);
    EXPECT_TRUE(g.has_edge(v, 0));
  }
}

TEST(Generators, ApollonianIsPlanarSized) {
  std::mt19937_64 rng(7);
  const Graph g = gen::apollonian(30, rng);
  EXPECT_EQ(g.num_vertices(), 30);
  // Planar triangulation: m = 3n - 6.
  EXPECT_EQ(g.num_edges(), 3 * 30 - 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, MaximalOuterplanarEdgeCount) {
  std::mt19937_64 rng(11);
  const Graph g = gen::random_maximal_outerplanar(20, rng);
  // Maximal outerplanar: m = 2n - 3.
  EXPECT_EQ(g.num_edges(), 2 * 20 - 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, OuterplanarKeepsCycle) {
  std::mt19937_64 rng(13);
  const Graph g = gen::random_outerplanar(15, 0.0, rng);
  EXPECT_EQ(g.num_edges(), 15);  // all chords dropped, cycle kept
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, MaxDegreeRespected) {
  std::mt19937_64 rng(17);
  const Graph g = gen::random_max_degree(60, 4, 30, rng);
  EXPECT_TRUE(is_connected(g));
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_LE(g.degree(v), 4);
}

TEST(Generators, RandomConnected) {
  std::mt19937_64 rng(19);
  const Graph g = gen::random_connected(40, 20, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 59);
}

TEST(Generators, InvalidArgumentsThrow) {
  EXPECT_THROW(gen::path(0), std::invalid_argument);
  EXPECT_THROW(gen::cycle(2), std::invalid_argument);
  EXPECT_THROW(gen::theta_chain(0, 1), std::invalid_argument);
  EXPECT_THROW(gen::clique_with_pendants(1), std::invalid_argument);
}

}  // namespace
}  // namespace lmds::graph
