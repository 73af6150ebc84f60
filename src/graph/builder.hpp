#pragma once
// Mutable builder for Graph. Accumulates a flat edge list (duplicates and
// both orientations are fine), then assembles the immutable CSR Graph
// directly from it.

#include <vector>

#include "graph/graph.hpp"

namespace lmds::graph {

/// Incremental graph construction. Example:
///
///   GraphBuilder b(4);
///   b.add_edge(0, 1);
///   b.add_edge(1, 2);
///   Graph g = b.build();
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-creates n isolated vertices 0..n-1.
  explicit GraphBuilder(int n) : n_(n) {}

  /// Number of vertices currently allocated.
  int num_vertices() const { return n_; }

  /// Adds a new isolated vertex and returns its index.
  Vertex add_vertex();

  /// Ensures vertices 0..n-1 exist.
  void ensure_vertices(int n);

  /// Adds the undirected edge {u, v}. Vertices are created on demand.
  /// Self-loops are rejected (throws std::invalid_argument); duplicate edges
  /// are deduplicated at build time.
  void add_edge(Vertex u, Vertex v);

  /// Convenience: adds a path u0-u1-...-uk along the given vertices.
  void add_path(const std::vector<Vertex>& vertices);

  /// Convenience: adds a cycle along the given vertices (requires >= 3).
  void add_cycle(const std::vector<Vertex>& vertices);

  /// Produces the immutable graph: counts degrees, fills the CSR rows in
  /// one pass over the edges, then sorts and de-duplicates each row in
  /// place. The builder remains usable afterwards.
  Graph build() const;

 private:
  int n_ = 0;
  std::vector<Edge> edges_;  // as added: either orientation, repeats allowed
};

}  // namespace lmds::graph
