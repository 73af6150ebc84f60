#include "cuts/interesting.hpp"

#include <stdexcept>

namespace lmds::cuts {

namespace {

// Minimality and condition (2) for v with partner u, from the counts of the
// pair taken with u first. Callers read condition (1), N[v] ⊄ N[u], on g
// before any traversal: the host holds the full 1-balls of u and v.
bool certifies(const PairCounts& c) { return c.full >= 2 && c.nonadj_u >= 2; }

}  // namespace

bool is_interesting(const Graph& g, Vertex v, int r, CutScratch& scratch) {
  if (!g.has_vertex(v)) throw std::invalid_argument("is_interesting: bad vertex");
  return r >= 1 && any_partner(g, block_index(g), v, r, scratch, [&](Vertex u) {
           return !g.closed_neighborhood_contained(v, u) &&
                  certifies(pair_counts(g, u, v, r, scratch));
         });
}

std::vector<Vertex> interesting_vertices(const Graph& g, int r) {
  // Each unordered pair is counted once and answers for both endpoints.
  std::vector<char> hit(static_cast<std::size_t>(g.num_vertices()), 0);
  CutScratch s;
  const BlockIndex blocks = block_index(g);
  for (Vertex v = 0; r >= 1 && v < g.num_vertices(); ++v) {
    any_partner(g, blocks, v, r, s, [&](Vertex u) {
      char& hit_v = hit[static_cast<std::size_t>(v)];
      char& hit_u = hit[static_cast<std::size_t>(u)];
      const bool need_v = u > v && !hit_v && !g.closed_neighborhood_contained(v, u);
      const bool need_u = u > v && !hit_u && !g.closed_neighborhood_contained(u, v);
      if (need_v || need_u) {
        const PairCounts c = pair_counts(g, u, v, r, s);
        hit_v |= need_v && certifies(c);
        hit_u |= need_u && certifies({c.full, c.nonadj_v, c.nonadj_u});
      }
      return false;
    });
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (hit[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  return result;
}

bool certifies_globally_interesting(const Graph& g, Vertex v, Vertex u) {
  CutScratch s;
  return u != v && g.has_vertex(u) && g.has_vertex(v) && !g.closed_neighborhood_contained(v, u) &&
         certifies(pair_counts(g, u, v, -1, s));
}

std::vector<Vertex> globally_interesting_vertices(const Graph& g) {
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    Vertex u = 0;
    while (u < g.num_vertices() && !certifies_globally_interesting(g, v, u)) ++u;
    if (u < g.num_vertices()) result.push_back(v);
  }
  return result;
}

bool is_almost_interesting(const Graph& g, Vertex v) {
  CutScratch s;
  for (Vertex u = 0; g.has_vertex(v) && u < g.num_vertices(); ++u) {
    if (u != v && certifies(pair_counts(g, u, v, -1, s))) return true;
  }
  return false;
}

}  // namespace lmds::cuts
