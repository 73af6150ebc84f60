#include "reference/cuts_reference.hpp"

#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/ops.hpp"

namespace lmds::cuts::reference {

namespace {

void require_radius(int r) {
  if (r < 1) throw std::invalid_argument("local cuts: radius must be >= 1");
}

// Shared condition check on an already-materialised host graph h in which
// {u, v} is known to be a minimal 2-cut. Conditions:
//   (1) N_G[v] ⊄ N_G[u] — evaluated in h, which agrees with g because h
//       contains the full 1-balls of u and v;
//   (2) >= 2 components of h − {u, v} contain a vertex non-adjacent to u.
bool interesting_conditions(const Graph& h, Vertex v, Vertex u) {
  if (h.closed_neighborhood_contained(v, u)) return false;  // N[v] ⊆ N[u]
  const Vertex removed[] = {u, v};
  const auto comps = graph::components_without(h, removed);
  std::vector<char> has_nonneighbor(static_cast<std::size_t>(comps.count), 0);
  for (Vertex w = 0; w < h.num_vertices(); ++w) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c < 0) continue;
    if (!h.has_edge(w, u)) has_nonneighbor[static_cast<std::size_t>(c)] = 1;
  }
  int count = 0;
  for (int c = 0; c < comps.count; ++c) {
    if (has_nonneighbor[static_cast<std::size_t>(c)]) ++count;
  }
  return count >= 2;
}

bool certifies_globally_interesting(const Graph& g, Vertex v, Vertex u) {
  if (u == v) return false;
  if (!is_minimal_two_cut(g, u, v)) return false;
  return interesting_conditions(g, v, u);
}

bool is_globally_interesting(const Graph& g, Vertex v) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (u == v) continue;
    if (certifies_globally_interesting(g, v, u)) return true;
  }
  return false;
}

}  // namespace

bool is_cut_vertex(const Graph& g, Vertex v) {
  const int before = graph::connected_components(g).count;
  const Vertex removed[] = {v};
  const int after = graph::components_without(g, removed).count;
  return after > before;
}

int full_component_count(const Graph& g, Vertex u, Vertex v) {
  if (u == v || !g.has_vertex(u) || !g.has_vertex(v)) return 0;
  const Vertex removed[] = {u, v};
  const auto comps = graph::components_without(g, removed);
  if (comps.count == 0) return 0;
  std::vector<char> touches_u(static_cast<std::size_t>(comps.count), 0);
  std::vector<char> touches_v(static_cast<std::size_t>(comps.count), 0);
  for (Vertex w : g.neighbors(u)) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c >= 0) touches_u[static_cast<std::size_t>(c)] = 1;
  }
  for (Vertex w : g.neighbors(v)) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c >= 0) touches_v[static_cast<std::size_t>(c)] = 1;
  }
  int full = 0;
  for (int c = 0; c < comps.count; ++c) {
    if (touches_u[static_cast<std::size_t>(c)] && touches_v[static_cast<std::size_t>(c)]) ++full;
  }
  return full;
}

bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v) {
  return full_component_count(g, u, v) >= 2;
}

bool is_local_one_cut(const Graph& g, Vertex v, int r) {
  require_radius(r);
  if (!g.has_vertex(v)) throw std::invalid_argument("is_local_one_cut: bad vertex");
  const auto ball_vertices = graph::ball(g, v, r);
  const auto sub = graph::induced_subgraph(g, ball_vertices);
  return is_cut_vertex(sub.graph, sub.from_parent[static_cast<std::size_t>(v)]);
}

std::vector<Vertex> local_one_cuts(const Graph& g, int r) {
  require_radius(r);
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_local_one_cut(g, v, r)) result.push_back(v);
  }
  return result;
}

bool is_local_two_cut(const Graph& g, Vertex u, Vertex v, int r) {
  require_radius(r);
  if (u == v) return false;
  if (!g.has_vertex(u) || !g.has_vertex(v)) throw std::invalid_argument("is_local_two_cut: bad vertex");
  const int d = graph::distance(g, u, v);
  if (d < 0 || d > r) return false;
  const Vertex sources[] = {u, v};
  const auto ball_vertices = graph::ball_of_set(g, sources, r);
  const auto sub = graph::induced_subgraph(g, ball_vertices);
  return is_minimal_two_cut(sub.graph, sub.from_parent[static_cast<std::size_t>(u)],
                            sub.from_parent[static_cast<std::size_t>(v)]);
}

std::vector<VertexPair> local_two_cuts(const Graph& g, int r) {
  require_radius(r);
  std::vector<VertexPair> result;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v : graph::ball(g, u, r)) {
      if (v <= u) continue;
      if (is_local_two_cut(g, u, v, r)) result.push_back({u, v});
    }
  }
  return result;
}

std::vector<Vertex> vertices_in_local_two_cuts(const Graph& g, int r) {
  std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const VertexPair p : local_two_cuts(g, r)) {
    in[static_cast<std::size_t>(p.u)] = 1;
    in[static_cast<std::size_t>(p.v)] = 1;
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  return result;
}

bool certifies_interesting(const Graph& g, Vertex v, Vertex u, int r) {
  if (u == v) return false;
  const int d = graph::distance(g, u, v);
  if (d < 0 || d > r) return false;
  const Vertex sources[] = {u, v};
  const auto ball_vertices = graph::ball_of_set(g, sources, r);
  const auto sub = graph::induced_subgraph(g, ball_vertices);
  const Vertex su = sub.from_parent[static_cast<std::size_t>(u)];
  const Vertex sv = sub.from_parent[static_cast<std::size_t>(v)];
  if (!is_minimal_two_cut(sub.graph, su, sv)) return false;
  // The 1-balls of u and v lie inside the r-ball of {u, v} (r >= 1), so
  // closed neighbourhoods agree between g and the ball graph.
  return interesting_conditions(sub.graph, sv, su);
}

bool is_interesting(const Graph& g, Vertex v, int r) {
  for (Vertex u : graph::ball(g, v, r)) {
    if (u == v) continue;
    if (certifies_interesting(g, v, u, r)) return true;
  }
  return false;
}

std::vector<Vertex> interesting_vertices(const Graph& g, int r) {
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_interesting(g, v, r)) result.push_back(v);
  }
  return result;
}

std::vector<Vertex> globally_interesting_vertices(const Graph& g) {
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_globally_interesting(g, v)) result.push_back(v);
  }
  return result;
}

bool is_almost_interesting(const Graph& g, Vertex v) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (u == v || !is_minimal_two_cut(g, u, v)) continue;
    const Vertex removed[] = {u, v};
    const auto comps = graph::components_without(g, removed);
    std::vector<char> has_nonneighbor(static_cast<std::size_t>(comps.count), 0);
    for (Vertex w = 0; w < g.num_vertices(); ++w) {
      const int c = comps.component[static_cast<std::size_t>(w)];
      if (c < 0) continue;
      if (!g.has_edge(w, u)) has_nonneighbor[static_cast<std::size_t>(c)] = 1;
    }
    int count = 0;
    for (int c = 0; c < comps.count; ++c) {
      if (has_nonneighbor[static_cast<std::size_t>(c)]) ++count;
    }
    if (count >= 2) return true;
  }
  return false;
}

}  // namespace lmds::cuts::reference
