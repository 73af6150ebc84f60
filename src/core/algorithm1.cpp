#include "core/algorithm1.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/bfs.hpp"
#include "graph/ops.hpp"
#include "local/view.hpp"
#include "solve/exact_mds.hpp"

namespace lmds::core {

namespace {

// Shared step 3: given the reduced graph and S0 = X ∪ I (reduced indices),
// computes U, the residual components, and the per-component optimal
// B-dominating sets. Appends the picked vertices (reduced indices) and
// fills the diagnostics fields.
std::vector<Vertex> brute_force_residual(const Graph& g, const std::vector<Vertex>& s0,
                                         Algorithm1Diagnostics& diag) {
  const int n = g.num_vertices();
  std::vector<char> in_s0(static_cast<std::size_t>(n), 0);
  for (Vertex v : s0) in_s0[static_cast<std::size_t>(v)] = 1;

  // Dominated = N[S0].
  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  for (Vertex v : s0) {
    dominated[static_cast<std::size_t>(v)] = 1;
    for (Vertex w : g.neighbors(v)) dominated[static_cast<std::size_t>(w)] = 1;
  }

  // U = dominated vertices with every neighbour dominated (paper: vertices
  // of N[S0] whose closed neighbourhood lies in N[S0]).
  std::vector<Vertex> removed = s0;
  for (Vertex v = 0; v < n; ++v) {
    if (in_s0[static_cast<std::size_t>(v)] || !dominated[static_cast<std::size_t>(v)]) continue;
    bool all_neighbors_dominated = true;
    for (Vertex w : g.neighbors(v)) {
      if (!dominated[static_cast<std::size_t>(w)]) {
        all_neighbors_dominated = false;
        break;
      }
    }
    if (all_neighbors_dominated) removed.push_back(v);
  }

  const auto comps = graph::components_without(g, removed);
  diag.residual_components = 0;
  diag.max_residual_diameter = 0;

  std::vector<Vertex> picked;
  for (const auto& component : comps.groups()) {
    if (component.empty()) continue;
    // B = undominated vertices of this component.
    std::vector<Vertex> b;
    for (Vertex v : component) {
      if (!dominated[static_cast<std::size_t>(v)]) b.push_back(v);
    }
    if (b.empty()) continue;
    ++diag.residual_components;
    const auto sub = graph::induced_subgraph(g, component);
    diag.max_residual_diameter =
        std::max(diag.max_residual_diameter, graph::diameter(sub.graph));
    const auto solution = solve::exact_b_domination(g, b);
    picked.insert(picked.end(), solution.begin(), solution.end());
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

Algorithm1Result run_pipeline(const Graph& input, const Algorithm1Config& cfg,
                              const std::vector<Vertex>* precomputed_one_cuts,
                              const std::vector<Vertex>* precomputed_interesting) {
  Algorithm1Result result;
  const int r1 = cfg.effective_radius1();
  const int r2 = cfg.effective_radius2();

  // Step 0: true-twin reduction.
  graph::TwinReduction reduction;
  const Graph* g = &input;
  if (cfg.twin_removal) {
    reduction = graph::remove_true_twins(input);
    g = &reduction.reduced.graph;
    result.diag.twin_classes = reduction.num_classes;
  } else {
    result.diag.twin_classes = input.num_vertices();
  }

  // Steps 1-2: local cuts (either centrally computed here or supplied by the
  // LOCAL path, already in reduced indices).
  const std::vector<Vertex> x =
      precomputed_one_cuts ? *precomputed_one_cuts : cuts::local_one_cuts(*g, r1);
  const std::vector<Vertex> i =
      precomputed_interesting ? *precomputed_interesting : cuts::interesting_vertices(*g, r2);

  std::vector<Vertex> s0 = x;
  s0.insert(s0.end(), i.begin(), i.end());
  std::sort(s0.begin(), s0.end());
  s0.erase(std::unique(s0.begin(), s0.end()), s0.end());

  // Step 3: per-component brute force.
  const std::vector<Vertex> extra = brute_force_residual(*g, s0, result.diag);

  std::vector<Vertex> solution = s0;
  solution.insert(solution.end(), extra.begin(), extra.end());
  std::sort(solution.begin(), solution.end());
  solution.erase(std::unique(solution.begin(), solution.end()), solution.end());

  // Lift to input indices.
  if (cfg.twin_removal) {
    result.dominating_set = reduction.reduced.lift(solution);
    result.diag.one_cuts = reduction.reduced.lift(x);
    result.diag.interesting = reduction.reduced.lift(i);
    result.diag.brute_forced = reduction.reduced.lift(extra);
  } else {
    result.dominating_set = solution;
    result.diag.one_cuts = x;
    result.diag.interesting = i;
    result.diag.brute_forced = extra;
  }
  std::sort(result.dominating_set.begin(), result.dominating_set.end());

  // Model-level rounds: 2 (twin reduction) + view gather for steps 1-2 +
  // leader-based residual resolution.
  const int view_radius = std::max(r1, 2 * r2);
  result.diag.rounds = (cfg.twin_removal ? 2 : 0) + (view_radius + 1) +
                       (result.diag.max_residual_diameter + 3);
  return result;
}

}  // namespace

Algorithm1Result algorithm1(const Graph& g, const Algorithm1Config& cfg) {
  return run_pipeline(g, cfg, nullptr, nullptr);
}

Algorithm1Result algorithm1_local(const local::Network& net, const Algorithm1Config& cfg,
                                  int threads) {
  const int r1 = cfg.effective_radius1();
  const int r2 = cfg.effective_radius2();

  // Twin reduction (2 rounds in the model; performed consistently from
  // radius-2 knowledge — we materialise the reduced network directly).
  const Graph& input = net.topology();
  graph::TwinReduction reduction;
  const Graph* g = &input;
  std::vector<local::NodeId> reduced_ids;
  if (cfg.twin_removal) {
    reduction = graph::remove_true_twins(input);
    g = &reduction.reduced.graph;
    for (Vertex v = 0; v < g->num_vertices(); ++v) {
      reduced_ids.push_back(net.id_of(reduction.reduced.to_parent[static_cast<std::size_t>(v)]));
    }
  } else {
    for (Vertex v = 0; v < g->num_vertices(); ++v) reduced_ids.push_back(net.id_of(v));
  }
  local::Network reduced_net(*g, reduced_ids);

  // One view gather serves both cut steps. Radius max(r1, 2*r2) guarantees
  // the double balls of every candidate 2-cut partner are complete (see
  // cuts/local_cuts.hpp), but never needs to exceed the graph itself —
  // beyond the diameter the views are the whole graph already.
  int view_radius = std::max(r1, 2 * r2);
  const int diam_cap = g->num_vertices();  // safe upper bound on any view
  view_radius = std::min(view_radius, diam_cap);

  local::TrafficStats traffic;
  const auto views = local::gather_views(reduced_net, view_radius, &traffic, threads);

  // Per-vertex cut classification into slot arrays; the ordered collect
  // below keeps X and I bit-identical for any thread count.
  const int rn = g->num_vertices();
  std::vector<char> is_one_cut(static_cast<std::size_t>(rn), 0);
  std::vector<char> is_interesting_v(static_cast<std::size_t>(rn), 0);
  common::parallel_for(rn, threads, [&](int begin, int end) {
    cuts::CutScratch scratch;  // one arena per worker, reused across its views
    for (Vertex v = begin; v < end; ++v) {
      const local::BallView& view = views[static_cast<std::size_t>(v)];
      is_one_cut[static_cast<std::size_t>(v)] = cuts::is_local_one_cut(
          view.graph, view.centre, std::min(r1, view_radius), scratch);
      is_interesting_v[static_cast<std::size_t>(v)] = cuts::is_interesting(
          view.graph, view.centre, std::min(r2, view_radius), scratch);
    }
  });
  std::vector<Vertex> one_cuts;
  std::vector<Vertex> interesting;
  for (Vertex v = 0; v < rn; ++v) {
    if (is_one_cut[static_cast<std::size_t>(v)]) one_cuts.push_back(v);
    if (is_interesting_v[static_cast<std::size_t>(v)]) interesting.push_back(v);
  }

  Algorithm1Config local_cfg = cfg;
  Algorithm1Result result = run_pipeline(input, local_cfg, &one_cuts, &interesting);
  result.diag.traffic = traffic;
  return result;
}

}  // namespace lmds::core
