// Tests for the paper's algorithms: constants, Theorem 4.4 (3-round rule),
// Algorithm 1 (Theorem 4.1), Algorithm 2 (Theorem 4.3), the MVC variants and
// the baselines.

#include <gtest/gtest.h>

#include <random>

#include "core/algorithm1.hpp"
#include "core/algorithm2.hpp"
#include "core/baselines.hpp"
#include "core/constants.hpp"
#include "core/metrics.hpp"
#include "core/mvc.hpp"
#include "core/theorem44.hpp"
#include "ding/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "solve/exact_mds.hpp"
#include "solve/exact_mvc.hpp"
#include "solve/tree_dp.hpp"
#include "solve/validate.hpp"

namespace lmds::core {
namespace {

using graph::Graph;
using graph::GraphPatch;
using graph::Vertex;

// ---------------------------------------------------------------------------
// Constants

TEST(Constants, RadiiFormulas) {
  const PaperConstants c{.t = 4, .d = 1};
  // f(r) = (5r+18)t: f(5) = 43*4 = 172, f(11) = 73*4 = 292.
  EXPECT_EQ(c.m32(), 172 + 2);
  EXPECT_EQ(c.m33(), 292 + 5);
}

TEST(Constants, ChargingConstants) {
  const PaperConstants c{.t = 2, .d = 1};
  EXPECT_EQ(c.c32(), 6);
  EXPECT_EQ(c.c33(), 44);
  // Reproduction finding: the printed constants sum to 51, not the claimed
  // 50 (Theorem 4.1 states c3.2(1) + c3.3(1) + 1 = 50).
  EXPECT_EQ(c.derived_ratio(), 51);
  EXPECT_EQ(PaperConstants::kClaimedRatio, 50);
}

TEST(Constants, Theorem44Ratios) {
  const PaperConstants c{.t = 7, .d = 1};
  EXPECT_EQ(c.theorem44_mds_ratio(), 13);
  EXPECT_EQ(c.theorem44_mvc_ratio(), 7);
}

// ---------------------------------------------------------------------------
// Theorem 4.4 — MDS

TEST(Theorem44, OutputDominates) {
  std::mt19937_64 rng(163);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(40, 20, rng);
    const auto result = theorem44_mds(g);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
    EXPECT_EQ(result.traffic.rounds, 3);
  }
}

TEST(Theorem44, FanDominatedByCentre) {
  // In a fan, N[p_i] ⊆ N[centre] strictly for every path vertex, so only
  // the centre survives.
  const Graph g = ding::fan(6);
  const auto result = theorem44_mds(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(Theorem44, CliqueCollapsesToOneVertex) {
  // All of K_n is one twin class; the representative has no strict superset.
  const auto result = theorem44_mds(graph::gen::complete(7));
  EXPECT_EQ(result.solution.size(), 1u);
}

TEST(Theorem44, CliqueWithPendantsSmall) {
  // §4 example: MDS = 1. Vertex 0 strictly contains every other clique
  // vertex's neighbourhood; pendants are strictly inside {0, v}'s. The rule
  // keeps exactly vertex 0.
  const Graph g = graph::gen::clique_with_pendants(8);
  const auto result = theorem44_mds(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(Theorem44, RespectsRatioOnThetaChains) {
  // Theta chains are K_{2,p+1}-minor-free; the guarantee is 2(p+1)-1.
  for (const int parallel : {2, 3, 4}) {
    const int t = parallel + 1;
    const Graph g = graph::gen::theta_chain(8, parallel);
    const auto result = theorem44_mds(g);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
    const int opt = solve::mds_size(g);
    EXPECT_LE(result.solution.size(), static_cast<std::size_t>((2 * t - 1) * opt))
        << "t=" << t;
  }
}

TEST(Theorem44, ThetaChainTakesEverything) {
  // On theta chains nothing strictly contains anything: the rule keeps all
  // vertices — this is exactly the Θ(t)-ratio worst case of the bench E2.
  const Graph g = graph::gen::theta_chain(4, 3);
  const auto result = theorem44_mds(g);
  EXPECT_EQ(result.solution.size(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(Theorem44, LocalMatchesCentralized) {
  std::mt19937_64 rng(167);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gen::random_connected(25, 12, rng);
    const local::Network net(g);  // identity ids to match centralized
    const auto central = theorem44_mds(g);
    const auto distributed = theorem44_mds_local(net);
    EXPECT_EQ(central.solution, distributed.solution);
    EXPECT_EQ(distributed.traffic.rounds, 3);
    EXPECT_GT(distributed.traffic.messages, 0u);
  }
}

TEST(Theorem44, OutperformedByExactOnTrees) {
  std::mt19937_64 rng(171);
  const Graph g = graph::gen::random_tree(60, rng);
  const auto result = theorem44_mds(g);
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
  EXPECT_GE(result.solution.size(), static_cast<std::size_t>(solve::tree_mds_size(g)));
}

// ---------------------------------------------------------------------------
// Theorem 4.4 — MVC

TEST(Theorem44Mvc, OutputCovers) {
  std::mt19937_64 rng(173);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(30, 20, rng);
    const auto result = theorem44_mvc(g);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.solution));
  }
}

TEST(Theorem44Mvc, IsolatedEdgeTakesOneEndpoint) {
  const Graph g = graph::disjoint_union(graph::gen::path(2), graph::gen::path(2));
  const auto result = theorem44_mvc(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0, 2}));
}

TEST(Theorem44Mvc, PendantLeavesExcluded) {
  const Graph g = graph::gen::star(6);
  const auto result = theorem44_mvc(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(Theorem44Mvc, RatioOnThetaChains) {
  for (const int parallel : {2, 3, 4}) {
    const int t = parallel + 1;
    const Graph g = graph::gen::theta_chain(6, parallel);
    const auto result = theorem44_mvc(g);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.solution));
    EXPECT_LE(result.solution.size(),
              static_cast<std::size_t>(t * solve::mvc_size(g)))
        << "t=" << t;
  }
}

TEST(Theorem44Mvc, LocalMatchesCentralized) {
  std::mt19937_64 rng(179);
  const Graph g = graph::gen::random_connected(25, 10, rng);
  const local::Network net(g);
  EXPECT_EQ(theorem44_mvc(g).solution, theorem44_mvc_local(net).solution);
}

// ---------------------------------------------------------------------------
// Algorithm 1

Algorithm1Config small_radius_config(int t, int r1, int r2) {
  Algorithm1Config cfg;
  cfg.t = t;
  cfg.radius1 = r1;
  cfg.radius2 = r2;
  return cfg;
}

TEST(Algorithm1, OutputDominatesAcrossFamilies) {
  std::mt19937_64 rng(181);
  const auto check = [](const Graph& g, const Algorithm1Config& cfg) {
    const auto result = algorithm1(g, cfg);
    EXPECT_TRUE(solve::is_dominating_set(g, result.dominating_set)) << g.summary();
  };
  check(graph::gen::cycle(30), small_radius_config(3, 3, 3));
  check(graph::gen::theta_chain(6, 4), small_radius_config(5, 3, 3));
  check(graph::gen::clique_with_pendants(7), small_radius_config(7, 2, 2));
  for (int trial = 0; trial < 5; ++trial) {
    check(graph::gen::random_tree(40, rng), small_radius_config(2, 3, 3));
    ding::CactusConfig cc;
    cc.pieces = 5;
    cc.t = 5;
    check(ding::random_cactus_of_structures(cc, rng), small_radius_config(5, 3, 3));
  }
}

TEST(Algorithm1, PaperConstantRadiiOnSmallGraphs) {
  // With the true paper radii (hundreds), every ball is the whole graph on
  // small instances: local cuts = global cuts and the run still dominates.
  const Graph g = graph::gen::theta_chain(4, 2);
  Algorithm1Config cfg;
  cfg.t = 3;  // radii default to m32 = 131, m33 = 224
  EXPECT_EQ(cfg.effective_radius1(), 43 * 3 + 2);
  EXPECT_EQ(cfg.effective_radius2(), 73 * 3 + 5);
  const auto result = algorithm1(g, cfg);
  EXPECT_TRUE(solve::is_dominating_set(g, result.dominating_set));
}

TEST(Algorithm1, ThetaChainTakesInteriorHubsAndStaysConstant) {
  // The headline behaviour: on theta chains the D2 rule keeps everything
  // (ratio ~ 2t) while Algorithm 1 keeps interior hubs + brute-forced bits,
  // independent of t.
  for (const int parallel : {3, 5, 8}) {
    const Graph g = graph::gen::theta_chain(8, parallel);
    const auto result = algorithm1(g, small_radius_config(parallel + 1, 4, 4));
    EXPECT_TRUE(solve::is_dominating_set(g, result.dominating_set));
    const int opt = solve::mds_size(g);
    // Constant multiple regardless of t (generous constant, far below the
    // D2 rule's ~2t·opt ≈ n).
    EXPECT_LE(result.dominating_set.size(), static_cast<std::size_t>(6 * opt))
        << "parallel=" << parallel;
    const auto d2 = theorem44_mds(g);
    EXPECT_GT(d2.solution.size(), result.dominating_set.size());
  }
}

TEST(Algorithm1, CycleHandledByOneCuts) {
  // On a long cycle every vertex is a local 1-cut: X = V, no brute force.
  const Graph g = graph::gen::cycle(24);
  const auto result = algorithm1(g, small_radius_config(3, 3, 3));
  EXPECT_EQ(result.diag.one_cuts.size(), 24u);
  EXPECT_TRUE(result.diag.interesting.empty());
  EXPECT_EQ(result.diag.residual_components, 0);
}

TEST(Algorithm1, CliqueWithPendantsStaysSmall) {
  // MDS = 1; no interesting vertices; twin removal and brute force must keep
  // the output tiny even though there are n-1 two-cuts.
  const Graph g = graph::gen::clique_with_pendants(9);
  const auto result = algorithm1(g, small_radius_config(9, 2, 2));
  EXPECT_TRUE(solve::is_dominating_set(g, result.dominating_set));
  EXPECT_LE(result.dominating_set.size(), 3u);
}

TEST(Algorithm1, DiagnosticsConsistent) {
  const Graph g = graph::gen::theta_chain(6, 3);
  const auto result = algorithm1(g, small_radius_config(4, 3, 3));
  // Every diagnostic vertex really is in the output.
  for (Vertex v : result.diag.one_cuts) {
    EXPECT_TRUE(std::binary_search(result.dominating_set.begin(),
                                   result.dominating_set.end(), v));
  }
  for (Vertex v : result.diag.interesting) {
    EXPECT_TRUE(std::binary_search(result.dominating_set.begin(),
                                   result.dominating_set.end(), v));
  }
  EXPECT_GE(result.diag.rounds, 1);
}

TEST(Algorithm1, LocalMatchesCentralized) {
  std::mt19937_64 rng(191);
  for (int trial = 0; trial < 4; ++trial) {
    ding::CactusConfig cc;
    cc.pieces = 4;
    cc.max_piece_size = 7;
    cc.t = 5;
    const Graph g = ding::random_cactus_of_structures(cc, rng);
    const local::Network net(g);
    const auto cfg = small_radius_config(5, 3, 3);
    const auto central = algorithm1(g, cfg);
    const auto distributed = algorithm1_local(net, cfg);
    EXPECT_EQ(central.dominating_set, distributed.dominating_set) << g.summary();
    EXPECT_GT(distributed.diag.traffic.messages, 0u);
  }
}

TEST(Algorithm1, LocalMatchesCentralizedOnThetaAndCycle) {
  const auto cfg = small_radius_config(4, 3, 3);
  for (const Graph& g : {graph::gen::theta_chain(5, 3), graph::gen::cycle(20)}) {
    const local::Network net(g);
    EXPECT_EQ(algorithm1(g, cfg).dominating_set,
              algorithm1_local(net, cfg).dominating_set);
  }
}

TEST(Algorithm1, TwinRemovalAblation) {
  // Without twin removal the output can only get larger on twin-heavy
  // graphs, but must still dominate.
  const Graph g = graph::gen::clique_with_pendants(8);
  auto cfg = small_radius_config(8, 2, 2);
  cfg.twin_removal = false;
  const auto no_twin = algorithm1(g, cfg);
  EXPECT_TRUE(solve::is_dominating_set(g, no_twin.dominating_set));
  cfg.twin_removal = true;
  const auto with_twin = algorithm1(g, cfg);
  EXPECT_LE(with_twin.dominating_set.size(), no_twin.dominating_set.size());
}

// ---------------------------------------------------------------------------
// Algorithm 2

TEST(Algorithm2, MatchesAlgorithm1WithSameRadii) {
  const Graph g = graph::gen::theta_chain(5, 3);
  Algorithm2Config cfg2;
  cfg2.d = 1;
  cfg2.f = [](int) { return 1; };  // f(5)+2 = 3, f(11)+5 = 6
  const auto result2 = algorithm2(g, cfg2);
  Algorithm1Config cfg1;
  cfg1.radius1 = 3;
  cfg1.radius2 = 6;
  const auto result1 = algorithm1(g, cfg1);
  EXPECT_EQ(result1.dominating_set, result2.dominating_set);
}

TEST(Algorithm2, RequiresControlFunction) {
  Algorithm2Config cfg;
  EXPECT_THROW(algorithm2(graph::gen::path(4), cfg), std::invalid_argument);
}

TEST(Algorithm2, RatioFormula) {
  EXPECT_EQ(algorithm2_ratio(1), 51);
  EXPECT_EQ(algorithm2_ratio(2), 76);
}

TEST(Algorithm2, LocalMatchesCentralized) {
  const Graph g = graph::gen::theta_chain(4, 3);
  Algorithm2Config cfg;
  cfg.d = 1;
  cfg.f = [](int) { return 1; };
  const local::Network net(g);
  EXPECT_EQ(algorithm2(g, cfg).dominating_set, algorithm2_local(net, cfg).dominating_set);
}

TEST(Algorithm1, RoundAccountingFormula) {
  // rounds = 2 (twin) + (max(r1, 2*r2) + 1) + (residual diameter + 3).
  const Graph g = graph::gen::theta_chain(6, 3);
  Algorithm1Config cfg;
  cfg.t = 4;
  cfg.radius1 = 3;
  cfg.radius2 = 4;
  const auto result = algorithm1(g, cfg);
  EXPECT_EQ(result.diag.rounds, 2 + (8 + 1) + (result.diag.max_residual_diameter + 3));
  cfg.twin_removal = false;
  const auto no_twin = algorithm1(g, cfg);
  EXPECT_EQ(no_twin.diag.rounds, (8 + 1) + (no_twin.diag.max_residual_diameter + 3));
}

// ---------------------------------------------------------------------------
// Algorithm 1 MVC variant

TEST(Algorithm1Mvc, OutputCoversAcrossFamilies) {
  std::mt19937_64 rng(193);
  const auto cfg = small_radius_config(5, 3, 3);
  const auto check = [&](const Graph& g) {
    const auto result = algorithm1_mvc(g, cfg);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.vertex_cover)) << g.summary();
  };
  check(graph::gen::cycle(25));
  check(graph::gen::theta_chain(5, 4));
  check(graph::gen::clique_with_pendants(6));
  for (int trial = 0; trial < 4; ++trial) {
    check(graph::gen::random_tree(30, rng));
  }
}

TEST(Algorithm1Mvc, ConstantFactorOnThetaChains) {
  for (const int parallel : {3, 5}) {
    const Graph g = graph::gen::theta_chain(7, parallel);
    const auto result = algorithm1_mvc(g, small_radius_config(parallel + 1, 3, 3));
    const int opt = solve::mvc_size(g);
    EXPECT_LE(result.vertex_cover.size(), static_cast<std::size_t>(6 * opt));
  }
}

// ---------------------------------------------------------------------------
// Baselines

TEST(Baselines, TakeAllIsEverything) {
  EXPECT_EQ(take_all(graph::gen::path(5)).size(), 5u);
}

TEST(Baselines, TakeAllRatioBoundOnBoundedDegree) {
  // Footnote 4: on max-degree-(t-1) graphs, n <= t * MDS.
  std::mt19937_64 rng(197);
  const int t = 5;
  const Graph g = graph::gen::random_max_degree(50, t - 1, 20, rng);
  const int opt = solve::mds_size(g);
  EXPECT_LE(static_cast<int>(take_all(g).size()), t * opt);
}

TEST(Baselines, TreeDegreeRuleDominatesAndIs3Approx) {
  std::mt19937_64 rng(199);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_tree(50, rng);
    const auto rule = tree_degree_rule(g);
    EXPECT_TRUE(solve::is_dominating_set(g, rule));
    EXPECT_LE(rule.size(), static_cast<std::size_t>(3 * solve::tree_mds_size(g)));
  }
}

TEST(Baselines, TreeDegreeRuleTinyComponents) {
  EXPECT_EQ(tree_degree_rule(graph::gen::path(2)), (std::vector<Vertex>{0}));
  EXPECT_EQ(tree_degree_rule(graph::Graph(std::vector<std::vector<Vertex>>(1))),
            (std::vector<Vertex>{0}));
}

TEST(Baselines, GammaValues) {
  const Graph g = graph::gen::star(6);
  // Centre: no other vertex dominates N[centre] (leaves are pairwise
  // non-adjacent): gamma = 5 > cap.
  EXPECT_GT(gamma(g, 0, 3), 3);
  // Leaf: the centre alone dominates N[leaf].
  EXPECT_EQ(gamma(g, 1, 3), 1);
  // Isolated vertex: nothing else covers it.
  const Graph iso(std::vector<std::vector<Vertex>>(1));
  EXPECT_GT(gamma(iso, 0, 3), 3);
}

// The seed route to gamma: the general exact set-cover solver over
// ball(v, 2) \ {v}, kept here as the reference for the bitmask kernel.
int reference_gamma(const Graph& g, Vertex v, int cap) {
  const auto targets = g.closed_neighborhood(v);
  std::vector<Vertex> candidates;
  for (Vertex c : graph::ball(g, v, 2)) {
    if (c != v) candidates.push_back(c);
  }
  try {
    const auto solution = solve::exact_set_domination(g, targets, candidates);
    const int size = static_cast<int>(solution.size());
    return size <= cap ? size : cap + 1;
  } catch (const std::runtime_error&) {
    return cap + 1;
  }
}

void expect_gamma_matches_reference(const Graph& g, const std::string& name) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (int cap = 0; cap <= 5; ++cap) {
      ASSERT_EQ(gamma(g, v, cap), reference_gamma(g, v, cap))
          << name << " v=" << v << " deg=" << g.degree(v) << " cap=" << cap;
    }
  }
}

TEST(Baselines, GammaMatchesSetCoverReferenceOnEveryFamily) {
  std::mt19937_64 rng(401);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"path", graph::gen::path(12)},
      {"cycle", graph::gen::cycle(11)},
      {"star", graph::gen::star(9)},
      {"complete", graph::gen::complete(7)},
      {"k33", graph::gen::complete_bipartite(3, 3)},
      {"grid", graph::gen::grid(7, 8)},
      {"wheel", graph::gen::wheel(10)},
      {"spider", graph::gen::spider(4, 3)},
      {"random_tree", graph::gen::random_tree(40, rng)},
      {"caterpillar", graph::gen::caterpillar(6, 2)},
      {"theta_chain", graph::gen::theta_chain(4, 3)},
      {"clique_with_pendants", graph::gen::clique_with_pendants(6)},
      {"apollonian", graph::gen::apollonian(30, rng)},
      {"maximal_outerplanar", graph::gen::random_maximal_outerplanar(30, rng)},
      {"outerplanar", graph::gen::random_outerplanar(30, 0.5, rng)},
      {"max_degree", graph::gen::random_max_degree(40, 4, 10, rng)},
      {"random_connected", graph::gen::random_connected(35, 25, rng)},
      {"cactus", ding::random_cactus_of_structures({}, rng)},
  };
  for (const auto& [name, g] : graphs) expect_gamma_matches_reference(g, name);
}

TEST(Baselines, GammaMatchesReferenceOnIsolatedAndHighDegreeVertices) {
  // Isolated vertices (alone and next to a component), and degree > 64, where
  // the uncovered-target mask spans several words.
  expect_gamma_matches_reference(Graph(std::vector<std::vector<Vertex>>(3)), "isolated");
  GraphPatch grow;
  grow.n = 12;
  expect_gamma_matches_reference(graph::apply_patch(graph::gen::cycle(9), grow).graph,
                                 "cycle+isolated");
  expect_gamma_matches_reference(graph::gen::wheel(101), "wheel(101)");
  expect_gamma_matches_reference(graph::gen::complete_bipartite(2, 100), "k2_100");
  expect_gamma_matches_reference(graph::gen::star(130), "star(130)");
  expect_gamma_matches_reference(graph::gen::clique_with_pendants(70), "clique70+pendants");
}

TEST(Baselines, GammaMatchesReferenceOnPatchedGrids) {
  std::mt19937_64 rng(409);
  const Graph grid = graph::gen::grid(9, 9);
  const auto edges = grid.edges();
  for (int trial = 0; trial < 4; ++trial) {
    GraphPatch p;
    for (int i = 0; i < 6; ++i) p.del.push_back(edges[rng() % edges.size()]);
    std::sort(p.del.begin(), p.del.end());
    p.del.erase(std::unique(p.del.begin(), p.del.end()), p.del.end());
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<Vertex>(rng() % 81);
      const auto w = static_cast<Vertex>(rng() % 81);
      if (u != w && !grid.has_edge(u, w)) p.add.push_back({std::min(u, w), std::max(u, w)});
    }
    std::sort(p.add.begin(), p.add.end());
    p.add.erase(std::unique(p.add.begin(), p.add.end()), p.add.end());
    expect_gamma_matches_reference(graph::apply_patch(grid, p).graph,
                                   "patched grid " + std::to_string(trial));
  }
}

TEST(Baselines, KsvStyleIsThreadCountInvariant) {
  std::mt19937_64 rng(419);
  const std::vector<Graph> graphs = {graph::gen::grid(30, 30),
                                     graph::gen::random_maximal_outerplanar(500, rng),
                                     graph::gen::complete_bipartite(2, 100),
                                     ding::random_cactus_of_structures({.pieces = 40}, rng)};
  for (const Graph& g : graphs) {
    for (const int k : {1, 2, 3}) EXPECT_EQ(ksv_style(g, k, 4), ksv_style(g, k, 1)) << k;
  }
}

TEST(Baselines, KsvStyleDominates) {
  std::mt19937_64 rng(211);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gen::random_connected(35, 15, rng);
    for (const int k : {1, 2, 3}) {
      EXPECT_TRUE(solve::is_dominating_set(g, ksv_style(g, k)));
    }
  }
}

TEST(Baselines, KsvReasonableOnPlanar) {
  std::mt19937_64 rng(223);
  const Graph g = graph::gen::apollonian(40, rng);
  const auto solution = ksv_style(g, 3);
  EXPECT_TRUE(solve::is_dominating_set(g, solution));
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, ExactRatioOnSmallGraph) {
  const Graph g = graph::gen::cycle(9);  // MDS = 3
  const std::vector<Vertex> solution{0, 1, 3, 6};
  const auto report = measure_mds_ratio(g, solution);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.reference, 3);
  EXPECT_NEAR(report.ratio, 4.0 / 3.0, 1e-9);
}

TEST(Metrics, TreeUsesDp) {
  std::mt19937_64 rng(227);
  const Graph g = graph::gen::random_tree(300, rng);
  const auto solution = tree_degree_rule(g);
  const auto report = measure_mds_ratio(g, solution);
  EXPECT_TRUE(report.exact);
  EXPECT_LE(report.ratio, 3.0);
}

TEST(Metrics, MvcRatio) {
  const Graph g = graph::gen::cycle(8);  // MVC = 4
  const auto cover = theorem44_mvc(g);
  const auto report = measure_mvc_ratio(g, cover.solution);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.reference, 4);
}

}  // namespace
}  // namespace lmds::core
