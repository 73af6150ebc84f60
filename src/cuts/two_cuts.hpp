#pragma once
// Minimal 2-cuts (2-separators), and pair_counts: the one kernel behind every
// cut query (rejection rules and proofs: docs/ARCHITECTURE.md, "hot path").
//
// Convention (DESIGN.md §4): {u, v} is a *minimal* 2-cut iff at least two
// connected components of G − {u, v} are adjacent to both u and v ("full"
// components). This matches the standard minimal-separator notion and every
// use in the paper: no proper subset separates the same components, and in a
// 2-connected graph it coincides with "removal disconnects".

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cuts/block_cut.hpp"
#include "graph/bfs.hpp"

namespace lmds::cuts {

/// Unordered vertex pair with u < v.
struct VertexPair {
  Vertex u = graph::kNoVertex;
  Vertex v = graph::kNoVertex;

  friend bool operator==(const VertexPair&, const VertexPair&) = default;
  friend auto operator<=>(const VertexPair&, const VertexPair&) = default;
};

/// Normalises an unordered pair.
inline VertexPair make_pair_sorted(Vertex a, Vertex b) {
  return a < b ? VertexPair{a, b} : VertexPair{b, a};
}

/// True iff {u, v} is a minimal 2-cut of g (>= 2 full components).
bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v);

/// Number of connected components of G − {u, v} adjacent to both u and v.
int full_component_count(const Graph& g, Vertex u, Vertex v);

/// All minimal 2-cuts of g, brute force over pairs. O(n^2 (n + m)) —
/// intended for ball graphs and test instances.
std::vector<VertexPair> minimal_two_cuts(const Graph& g);

/// All vertices appearing in some minimal 2-cut of g.
std::vector<Vertex> vertices_in_minimal_two_cuts(const Graph& g);

/// Sorted distinct endpoints of `pairs`.
std::vector<Vertex> vertices_of(const std::vector<VertexPair>& pairs);

/// Per-thread arena of the cut kernels, under the graph::BfsScratch
/// ownership rule: one thread at a time, reused across queries and graphs.
struct CutScratch {
  graph::BfsScratch bfs;
  std::vector<std::uint8_t> flags;
  std::vector<Vertex> stack;
  std::vector<Vertex> partners;
  std::vector<std::uint32_t> link;  ///< link_connected's epoch stamps
  std::uint32_t link_epoch = 0;
};

/// Component counts of H − {u, v}, with H = G[N^r[{u, v}]] (r < 0: H = G).
struct PairCounts {
  int full = 0;      ///< components adjacent to both u and v
  int nonadj_u = 0;  ///< components holding a vertex not adjacent to u
  int nonadj_v = 0;  ///< components holding a vertex not adjacent to v
};

/// One marking of H and one component pass; u, v valid, r != 0. With
/// u == v, `full` counts the components of G[N^r[v]] − v: in a ball around
/// v each of them holds a neighbour of v.
PairCounts pair_counts(const Graph& g, Vertex u, Vertex v, int r, CutScratch& s);

/// True iff the link of v without `skip`, G[N(v) \ {skip}], is connected (<= 1
/// vertex counts; skip may be kNoVertex or v). One mark-and-search over N(v):
/// O(sum of deg(w) over w in N(v)), at most one pair_counts pass on a host
/// holding N[v]. Link rule: each full component of H − {u, v} holds a
/// neighbour of v other than u, so for r != 0 link_connected(g, v, u) caps
/// pair_counts(g, u, v, r).full at 1, and so does link_connected(g, u, v).
bool link_connected(const Graph& g, Vertex v, Vertex skip, CutScratch& s);

/// Calls fn(u) for each u in N^r[v] \ {v}, ascending, that the block and link
/// rules do not prove to have pair_counts(g, u, v, r).full <= 1, until fn
/// returns true; returns whether it did. r != 0. fn may run pair_counts on
/// the same scratch.
template <typename Fn>
bool any_partner(const Graph& g, const BlockIndex& blocks, Vertex v, int r, CutScratch& s,
                 const Fn& fn) {
  const std::vector<int>& mine = blocks[static_cast<std::size_t>(v)];
  if (mine.empty()) return false;  // v is on no cycle
  const std::span<const Vertex> nv = g.neighbors(v);
  if (link_connected(g, v, graph::kNoVertex, s)) {
    s.partners.assign(nv.begin(), nv.end());  // every non-neighbour is rejected
  } else {
    graph::ball_into(g, v, r, s.bfs, s.partners);
  }
  auto next = nv.begin();  // first neighbour of v not below u
  for (const Vertex u : s.partners) {
    while (next != nv.end() && *next < u) ++next;
    const bool adjacent = next != nv.end() && *next == u;
    const std::vector<int>& other = blocks[static_cast<std::size_t>(u)];
    const bool share =
        std::find_first_of(mine.begin(), mine.end(), other.begin(), other.end()) != mine.end();
    if (u == v || !share) continue;
    // Non-adjacent u reaches here only when v's whole link is disconnected.
    if ((adjacent && link_connected(g, v, u, s)) || link_connected(g, u, v, s)) continue;
    if (fn(u)) return true;
  }
  return false;
}

}  // namespace lmds::cuts
