#pragma once
// "Interesting" vertices of (local) 2-cuts — Section 3.2 / Section 4.
//
// A vertex v is r-interesting when some r-local minimal 2-cut c = {u, v}
// satisfies:
//   (1) N[v] ⊄ N[u]  (taking u instead of v would not be strictly better),
//   (2) at least two connected components of G[N^r[c]] − c contain a vertex
//       non-adjacent to u (u cannot dominate all but one attached component).
//
// The paper also uses the global analogue (r = ∞) where the components are
// those of G − c; that version feeds the SPQR-based analysis of §5.3
// (friends, almost-interesting vertices, Proposition 5.8).

#include <vector>

#include "cuts/two_cuts.hpp"

namespace lmds::cuts {

/// True iff some u makes v r-interesting, on the caller's scratch.
bool is_interesting(const Graph& g, Vertex v, int r, CutScratch& scratch);

/// Sorted list of all r-interesting vertices of g.
std::vector<Vertex> interesting_vertices(const Graph& g, int r);

/// Global variant: {u, v} is a minimal 2-cut of g, N[v] ⊄ N[u], and at least
/// two components of G − {u, v} contain a vertex non-adjacent to u. Then v is
/// "interesting" and u is a "friend" of v (§5.3 wording: v interesting with
/// friend u ⇔ the cut {v, u} is interesting for v).
bool certifies_globally_interesting(const Graph& g, Vertex v, Vertex u);

/// Sorted list of globally interesting vertices.
std::vector<Vertex> globally_interesting_vertices(const Graph& g);

/// "Almost interesting" (§5.3): v satisfies condition (2) only, for some
/// minimal 2-cut {u, v} of g.
bool is_almost_interesting(const Graph& g, Vertex v);

}  // namespace lmds::cuts
