#pragma once
// r-local cuts (Definition 2.1).
//
// A set C of vertices, pairwise at distance <= r, is an r-local k-cut when C
// is a (minimal) k-cut of G[∪_{v∈C} N^r[v]]. For k = 1 this means v is an
// articulation point of its own r-ball; for k = 2 it means {u, v} is a
// minimal 2-cut of the union of the two r-balls.
//
// Locality: deciding "is v in an r-local 1-cut" needs only N^{r}[v] plus the
// edges among it, i.e. a radius-(r+1) view; deciding "is {u,v} an r-local
// 2-cut" from v's perspective needs N^r[u] ∪ N^r[v] ⊆ N^{2r}[v], i.e. a
// radius-(2r+1) view. The LOCAL runner (local/runner.hpp) uses exactly these
// view radii, which is where the round counts reported by the benches come
// from.

#include <vector>

#include "cuts/two_cuts.hpp"

namespace lmds::cuts {

/// True iff {v} is an r-local (minimal) 1-cut: v is an articulation point of
/// G[N^r[v]]. The scratch overload is the per-thread hot path.
bool is_local_one_cut(const Graph& g, Vertex v, int r);
bool is_local_one_cut(const Graph& g, Vertex v, int r, CutScratch& scratch);

/// Sorted list of all r-local 1-cut vertices of g.
std::vector<Vertex> local_one_cuts(const Graph& g, int r);

/// True iff {u, v} is an r-local minimal 2-cut: d_G(u, v) <= r and {u, v} is
/// a minimal 2-cut of G[N^r[u] ∪ N^r[v]].
bool is_local_two_cut(const Graph& g, Vertex u, Vertex v, int r);

/// All r-local minimal 2-cuts of g (u < v in each pair). Quadratic in ball
/// sizes — meant for analysis benches and moderate instances.
std::vector<VertexPair> local_two_cuts(const Graph& g, int r);

/// Sorted list of vertices appearing in some r-local minimal 2-cut.
std::vector<Vertex> vertices_in_local_two_cuts(const Graph& g, int r);

/// True iff v is in some r-local minimal 2-cut (false for r < 1): one vertex
/// of vertices_in_local_two_cuts, on the caller's scratch. Throws
/// std::invalid_argument for a bad vertex.
bool in_local_two_cut(const Graph& g, Vertex v, int r, CutScratch& scratch);

}  // namespace lmds::cuts
