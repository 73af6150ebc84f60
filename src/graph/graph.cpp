#include "graph/graph.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace lmds::graph {

namespace detail {

void compact_rows(std::vector<std::size_t>& offsets, std::vector<Vertex>& neighbors) {
  std::size_t out = 0;
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    const auto begin = static_cast<std::ptrdiff_t>(offsets[v]);
    const auto end = static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(neighbors.begin() + begin, neighbors.begin() + end);
    offsets[v] = out;
    for (auto i = begin; i < end; ++i) {
      const Vertex w = neighbors[static_cast<std::size_t>(i)];
      if (out == offsets[v] || neighbors[out - 1] != w) neighbors[out++] = w;
    }
  }
  offsets.back() = out;
  if (out < neighbors.size()) {
    neighbors.resize(out);
    neighbors.shrink_to_fit();
  }
}

}  // namespace detail

Graph::Graph(const std::vector<std::vector<Vertex>>& adjacency) {
  const auto n = adjacency.size();
  offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + adjacency[v].size();
  neighbors_.reserve(offsets_[n]);
  for (const std::vector<Vertex>& row : adjacency) {
    neighbors_.insert(neighbors_.end(), row.begin(), row.end());
  }
  detail::compact_rows(offsets_, neighbors_);

  for (std::size_t v = 0; v < n; ++v) {
    for (Vertex w : neighbors(static_cast<Vertex>(v))) {
      if (w < 0 || static_cast<std::size_t>(w) >= n) {
        throw std::invalid_argument("Graph: neighbor index out of range");
      }
      if (static_cast<std::size_t>(w) == v) {
        throw std::invalid_argument("Graph: self-loop not allowed");
      }
    }
  }

  // Enforce symmetry.
  for (std::size_t v = 0; v < n; ++v) {
    for (Vertex w : neighbors(static_cast<Vertex>(v))) {
      if (!has_edge(w, static_cast<Vertex>(v))) {
        throw std::invalid_argument("Graph: adjacency list is not symmetric");
      }
    }
  }
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (!has_vertex(u) || !has_vertex(v) || u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(static_cast<std::size_t>(num_edges()));
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (Vertex v : neighbors(u)) {
      if (u < v) result.push_back(Edge{u, v});
    }
  }
  return result;
}

std::vector<Vertex> Graph::closed_neighborhood(Vertex v) const {
  const auto nb = neighbors(v);
  std::vector<Vertex> result;
  result.reserve(nb.size() + 1);
  // Insert v in sorted position.
  auto it = std::lower_bound(nb.begin(), nb.end(), v);
  result.insert(result.end(), nb.begin(), it);
  result.push_back(v);
  result.insert(result.end(), it, nb.end());
  return result;
}

bool Graph::closed_neighborhood_contained(Vertex a, Vertex b) const {
  if (a == b) return true;
  // N[a] ⊆ N[b] requires a ∈ N[b], i.e. a and b adjacent.
  if (!has_edge(a, b)) return false;
  for (Vertex w : neighbors(a)) {
    if (w == b) continue;
    if (!has_edge(w, b)) return false;
  }
  return true;
}

bool Graph::true_twins(Vertex a, Vertex b) const {
  if (a == b) return true;
  // a and b adjacent with N(a) \ {b} == N(b) \ {a}: one merge of the sorted rows.
  const std::span<const Vertex> na = neighbors(a);
  const std::span<const Vertex> nb = neighbors(b);
  if (na.size() != nb.size()) return false;
  bool adjacent = false;
  for (auto i = na.begin(), j = nb.begin();; ++i, ++j) {
    if (i != na.end() && *i == b) {
      adjacent = true;
      ++i;
    }
    if (j != nb.end() && *j == a) ++j;
    if (i == na.end() || j == nb.end()) return adjacent && i == na.end() && j == nb.end();
    if (*i != *j) return false;
  }
}

std::string Graph::summary() const {
  return "Graph(n=" + std::to_string(num_vertices()) + ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace lmds::graph
