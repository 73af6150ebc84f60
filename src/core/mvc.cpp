#include "core/mvc.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/bfs.hpp"
#include "graph/ops.hpp"
#include "local/view.hpp"
#include "solve/exact_mvc.hpp"

namespace lmds::core {

namespace {

MvcAlgorithm1Result run_mvc_pipeline(const Graph& g, const Algorithm1Config& cfg,
                                     std::vector<Vertex> one_cuts,
                                     std::vector<Vertex> two_cut_vertices) {
  MvcAlgorithm1Result result;
  const int r1 = cfg.effective_radius1();
  const int r2 = cfg.effective_radius2();
  result.diag.one_cuts = std::move(one_cuts);
  result.diag.two_cut_vertices = std::move(two_cut_vertices);

  std::vector<Vertex> s0 = result.diag.one_cuts;
  s0.insert(s0.end(), result.diag.two_cut_vertices.begin(), result.diag.two_cut_vertices.end());
  std::sort(s0.begin(), s0.end());
  s0.erase(std::unique(s0.begin(), s0.end()), s0.end());

  std::vector<char> in_s0(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v : s0) in_s0[static_cast<std::size_t>(v)] = 1;

  // Residual components: G minus the chosen cut vertices. All edges with
  // both endpoints outside S0 still need covering; they live inside these
  // components.
  const auto comps = graph::components_without(g, s0);
  std::vector<Vertex> extra;
  for (const auto& component : comps.groups()) {
    if (component.size() < 2) continue;
    std::vector<graph::Edge> uncovered;
    for (Vertex v : component) {
      for (Vertex w : g.neighbors(v)) {
        if (v < w && !in_s0[static_cast<std::size_t>(w)] &&
            comps.component[static_cast<std::size_t>(w)] ==
                comps.component[static_cast<std::size_t>(v)]) {
          uncovered.push_back({v, w});
        }
      }
    }
    if (uncovered.empty()) continue;
    ++result.diag.residual_components;
    const auto sub = graph::induced_subgraph(g, component);
    result.diag.max_residual_diameter =
        std::max(result.diag.max_residual_diameter, graph::diameter(sub.graph));
    const auto cover = solve::exact_edge_cover_vertices(g, uncovered);
    extra.insert(extra.end(), cover.begin(), cover.end());
  }

  result.vertex_cover = s0;
  result.vertex_cover.insert(result.vertex_cover.end(), extra.begin(), extra.end());
  std::sort(result.vertex_cover.begin(), result.vertex_cover.end());
  result.vertex_cover.erase(std::unique(result.vertex_cover.begin(), result.vertex_cover.end()),
                            result.vertex_cover.end());
  std::sort(extra.begin(), extra.end());
  result.diag.brute_forced = std::move(extra);

  const int view_radius = std::max(r1, 2 * r2);
  result.diag.rounds = (view_radius + 1) + (result.diag.max_residual_diameter + 3);
  return result;
}

}  // namespace

MvcAlgorithm1Result algorithm1_mvc(const Graph& g, const Algorithm1Config& cfg) {
  return run_mvc_pipeline(g, cfg, cuts::local_one_cuts(g, cfg.effective_radius1()),
                          cuts::vertices_in_local_two_cuts(g, cfg.effective_radius2()));
}

MvcAlgorithm1Result algorithm1_mvc_local(const local::Network& net,
                                         const Algorithm1Config& cfg, int threads) {
  const Graph& g = net.topology();
  const int r1 = cfg.effective_radius1();
  const int r2 = cfg.effective_radius2();
  int view_radius = std::max(r1, 2 * r2);
  view_radius = std::min(view_radius, g.num_vertices());

  local::TrafficStats traffic;
  const auto views = local::gather_views(net, view_radius, &traffic, threads);

  // Per-vertex cut classification into slot arrays; ordered collect keeps
  // the cut lists bit-identical for any thread count.
  const int n = g.num_vertices();
  std::vector<char> is_one_cut(static_cast<std::size_t>(n), 0);
  std::vector<char> in_two_cut(static_cast<std::size_t>(n), 0);
  common::parallel_for(n, threads, [&](int begin, int end) {
    cuts::CutScratch scratch;  // one arena per worker, reused across its views
    for (Vertex v = begin; v < end; ++v) {
      const local::BallView& view = views[static_cast<std::size_t>(v)];
      is_one_cut[static_cast<std::size_t>(v)] = cuts::is_local_one_cut(
          view.graph, view.centre, std::min(r1, view_radius), scratch);
      // "v is in some r2-local minimal 2-cut": partners inside the view.
      in_two_cut[static_cast<std::size_t>(v)] = cuts::in_local_two_cut(
          view.graph, view.centre, std::min(r2, view_radius), scratch);
    }
  });
  std::vector<Vertex> one_cuts;
  std::vector<Vertex> two_cut_vertices;
  for (Vertex v = 0; v < n; ++v) {
    if (is_one_cut[static_cast<std::size_t>(v)]) one_cuts.push_back(v);
    if (in_two_cut[static_cast<std::size_t>(v)]) two_cut_vertices.push_back(v);
  }

  MvcAlgorithm1Result result =
      run_mvc_pipeline(g, cfg, std::move(one_cuts), std::move(two_cut_vertices));
  result.diag.traffic = traffic;
  return result;
}

}  // namespace lmds::core
