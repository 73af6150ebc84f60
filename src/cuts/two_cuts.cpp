#include "cuts/two_cuts.hpp"

#include <algorithm>
#include <cstdint>

namespace lmds::cuts {

int full_component_count(const Graph& g, Vertex u, Vertex v) {
  if (u == v || !g.has_vertex(u) || !g.has_vertex(v)) return 0;
  CutScratch s;
  return pair_counts(g, u, v, -1, s).full;
}

bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v) {
  return full_component_count(g, u, v) >= 2;
}

std::vector<VertexPair> minimal_two_cuts(const Graph& g) {
  std::vector<VertexPair> result;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = u + 1; v < g.num_vertices(); ++v) {
      if (is_minimal_two_cut(g, u, v)) result.push_back({u, v});
    }
  }
  return result;
}

std::vector<Vertex> vertices_in_minimal_two_cuts(const Graph& g) {
  return vertices_of(minimal_two_cuts(g));
}

std::vector<Vertex> vertices_of(const std::vector<VertexPair>& pairs) {
  std::vector<Vertex> result;
  for (const VertexPair p : pairs) result.insert(result.end(), {p.u, p.v});
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

bool link_connected(const Graph& g, Vertex v, Vertex skip, CutScratch& s) {
  s.link.resize(std::max(s.link.size(), static_cast<std::size_t>(g.num_vertices())));
  if (s.link_epoch > UINT32_MAX - 2) {  // stamp wrap: one real clear every 2^31 calls
    std::fill(s.link.begin(), s.link.end(), 0);
    s.link_epoch = 0;
  }
  const std::uint32_t member = ++s.link_epoch;
  const std::uint32_t reached = ++s.link_epoch;
  const auto stamp = [&](Vertex x) -> std::uint32_t& {
    return s.link[static_cast<std::size_t>(x)];
  };
  int size = 0;
  for (const Vertex w : g.neighbors(v)) {
    if (w == skip) continue;
    stamp(w) = member;
    if (size++ == 0) s.stack.assign(1, w);
  }
  if (size <= 1) return true;
  stamp(s.stack.back()) = reached;
  int count = 1;
  while (!s.stack.empty() && count < size) {
    const Vertex x = s.stack.back();
    s.stack.pop_back();
    for (const Vertex y : g.neighbors(x)) {
      if (stamp(y) == member) {
        stamp(y) = reached;
        ++count;
        s.stack.push_back(y);
      }
    }
  }
  return count == size;
}

PairCounts pair_counts(const Graph& g, Vertex u, Vertex v, int r, CutScratch& s) {
  // Flags of H's vertices: adjacent to u, to v; u, v or already labelled.
  enum : std::uint8_t { kAdjU = 1, kAdjV = 2, kLabelled = 4 };
  const auto flag = [&](Vertex x) -> std::uint8_t& { return s.flags[static_cast<std::size_t>(x)]; };
  if (r < 0) {  // H = G: every vertex, reachable or not
    s.bfs.begin(g.num_vertices());
    for (Vertex w = 0; w < g.num_vertices(); ++w) s.bfs.mark(w, 0);
  } else {
    const Vertex sources[] = {u, v};
    graph::mark_ball(g, sources, r, s.bfs);
  }
  s.flags.resize(std::max(s.flags.size(), static_cast<std::size_t>(g.num_vertices())));
  for (const Vertex w : s.bfs.visited()) flag(w) = 0;
  for (const Vertex w : g.neighbors(u)) flag(w) |= kAdjU;  // r != 0: N(u), N(v) ⊆ H
  for (const Vertex w : g.neighbors(v)) flag(w) |= kAdjV;
  flag(u) = flag(v) = kLabelled;
  PairCounts c;
  for (const Vertex start : s.bfs.visited()) {  // one component of H − {u, v} per start
    if (flag(start) & kLabelled) continue;
    flag(start) |= kLabelled;
    s.stack.assign(1, start);
    std::uint8_t any = 0;
    std::uint8_t all = kAdjU | kAdjV;
    while (!s.stack.empty()) {
      const Vertex x = s.stack.back();
      s.stack.pop_back();
      any |= flag(x);
      all &= flag(x);
      for (const Vertex y : g.neighbors(x)) {
        if (s.bfs.seen(y) && !(flag(y) & kLabelled)) {
          flag(y) |= kLabelled;
          s.stack.push_back(y);
        }
      }
    }
    c.full += (any & kAdjU) && (any & kAdjV);
    c.nonadj_u += !(all & kAdjU);
    c.nonadj_v += !(all & kAdjV);
  }
  return c;
}

}  // namespace lmds::cuts
