#include "cuts/local_cuts.hpp"

#include <stdexcept>

namespace lmds::cuts {

namespace {

void require_radius(int r) {
  if (r < 1) throw std::invalid_argument("local cuts: radius must be >= 1");
}

}  // namespace

bool is_local_one_cut(const Graph& g, Vertex v, int r) {
  CutScratch s;
  return is_local_one_cut(g, v, r, s);
}

bool is_local_one_cut(const Graph& g, Vertex v, int r, CutScratch& scratch) {
  require_radius(r);
  if (!g.has_vertex(v)) throw std::invalid_argument("is_local_one_cut: bad vertex");
  // Each component of the ball minus v holds a neighbour of v, so a connected
  // link (one of <= 1 vertex included) leaves a single component.
  return !link_connected(g, v, v, scratch) && pair_counts(g, v, v, r, scratch).full >= 2;
}

std::vector<Vertex> local_one_cuts(const Graph& g, int r) {
  require_radius(r);
  CutScratch s;
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_local_one_cut(g, v, r, s)) result.push_back(v);
  }
  return result;
}

bool is_local_two_cut(const Graph& g, Vertex u, Vertex v, int r) {
  require_radius(r);
  if (u == v) return false;
  if (!g.has_vertex(u) || !g.has_vertex(v)) throw std::invalid_argument("is_local_two_cut: bad vertex");
  CutScratch s;
  const Vertex source[] = {u};
  graph::mark_ball(g, source, r, s.bfs);
  return s.bfs.seen(v) && pair_counts(g, u, v, r, s).full >= 2;
}

std::vector<VertexPair> local_two_cuts(const Graph& g, int r) {
  require_radius(r);
  CutScratch s;
  const BlockIndex blocks = block_index(g);
  std::vector<VertexPair> result;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    any_partner(g, blocks, u, r, s, [&](Vertex v) {
      if (v > u && pair_counts(g, u, v, r, s).full >= 2) result.push_back({u, v});
      return false;
    });
  }
  return result;
}

std::vector<Vertex> vertices_in_local_two_cuts(const Graph& g, int r) {
  return vertices_of(local_two_cuts(g, r));
}

bool in_local_two_cut(const Graph& g, Vertex v, int r, CutScratch& scratch) {
  if (!g.has_vertex(v)) throw std::invalid_argument("in_local_two_cut: bad vertex");
  return r >= 1 && any_partner(g, block_index(g), v, r, scratch, [&](Vertex u) {
           return pair_counts(g, v, u, r, scratch).full >= 2;
         });
}

}  // namespace lmds::cuts
