#pragma once
// The seed implementations of the local-cut queries, kept verbatim in a
// test-only target as the oracle of the pair-kernel differential suite
// (tests/test_cut_kernel.cpp). Every query builds its host graph for real —
// a whole-graph distance BFS, an allocated ball, an induced-subgraph copy
// and fresh component labellings per pair — so it is slow and obviously
// faithful to the definitions in cuts/local_cuts.hpp and cuts/interesting.hpp.

#include <vector>

#include "cuts/two_cuts.hpp"
#include "graph/graph.hpp"

namespace lmds::cuts::reference {

/// True iff removing v increases the number of connected components.
bool is_cut_vertex(const Graph& g, Vertex v);
int full_component_count(const Graph& g, Vertex u, Vertex v);
bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v);

bool is_local_one_cut(const Graph& g, Vertex v, int r);
std::vector<Vertex> local_one_cuts(const Graph& g, int r);
bool is_local_two_cut(const Graph& g, Vertex u, Vertex v, int r);
std::vector<VertexPair> local_two_cuts(const Graph& g, int r);
std::vector<Vertex> vertices_in_local_two_cuts(const Graph& g, int r);

bool certifies_interesting(const Graph& g, Vertex v, Vertex u, int r);
bool is_interesting(const Graph& g, Vertex v, int r);
std::vector<Vertex> interesting_vertices(const Graph& g, int r);

std::vector<Vertex> globally_interesting_vertices(const Graph& g);
bool is_almost_interesting(const Graph& g, Vertex v);

}  // namespace lmds::cuts::reference
