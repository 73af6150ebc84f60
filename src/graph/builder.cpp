#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace lmds::graph {

Vertex GraphBuilder::add_vertex() { return n_++; }

void GraphBuilder::ensure_vertices(int n) { n_ = std::max(n_, n); }

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u < 0 || v < 0) throw std::invalid_argument("GraphBuilder: negative vertex index");
  if (u == v) throw std::invalid_argument("GraphBuilder: self-loop not allowed");
  ensure_vertices(std::max(u, v) + 1);
  edges_.push_back(Edge{u, v});
}

void GraphBuilder::add_path(const std::vector<Vertex>& vertices) {
  for (std::size_t i = 0; i + 1 < vertices.size(); ++i) {
    add_edge(vertices[i], vertices[i + 1]);
  }
}

void GraphBuilder::add_cycle(const std::vector<Vertex>& vertices) {
  if (vertices.size() < 3) throw std::invalid_argument("GraphBuilder: cycle needs >= 3 vertices");
  add_path(vertices);
  add_edge(vertices.back(), vertices.front());
}

Graph GraphBuilder::build() const {
  // Degrees are counted into offsets[v]; their inclusive prefix sum is the
  // end of row v, and filling each row backwards from its end leaves
  // offsets[v] at the row's start. offsets[n] stays the total.
  const auto n = static_cast<std::size_t>(n_);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[static_cast<std::size_t>(e.u)];
    ++offsets[static_cast<std::size_t>(e.v)];
  }
  for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];
  std::vector<Vertex> neighbors(offsets[n]);
  for (const Edge& e : edges_) {
    neighbors[--offsets[static_cast<std::size_t>(e.u)]] = e.v;
    neighbors[--offsets[static_cast<std::size_t>(e.v)]] = e.u;
  }
  // Every edge was entered in both rows and add_edge rejected loops, so the
  // compacted rows are symmetric and loop-free by construction.
  detail::compact_rows(offsets, neighbors);
  return detail::TrustedCsr::build(std::move(offsets), std::move(neighbors));
}

}  // namespace lmds::graph
