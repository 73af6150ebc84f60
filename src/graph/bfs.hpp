#pragma once
// Breadth-first-search utilities: distances, balls N^r[·], connected
// components, eccentricities, diameter and weak diameter. These are the
// primitives the LOCAL-model view gathering and the local-cut machinery are
// expressed with.
//
// Two API tiers. The plain free functions allocate their outputs — right for
// one-off queries. The BfsScratch + *_into variants are the hot-path tier:
// one scratch arena holds the n-sized distance/visited buffers and frontier
// vectors, epoch-stamped so consecutive traversals reuse them without an
// O(n) clear — a per-solve allocation, not a per-vertex one.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::graph {

/// Reusable BFS arena. begin(n) sizes the buffers for an n-vertex graph and
/// bumps the visited epoch; marks from earlier traversals become invalid
/// without touching memory. dist[v] is meaningful only where seen(v).
///
/// Ownership rule (docs/ARCHITECTURE.md "hot path"): a scratch is owned by
/// exactly one thread at a time. Parallel per-vertex loops give each worker
/// its own BfsScratch; the arenas grow to the largest graph seen and are
/// reused across every traversal that worker performs.
class BfsScratch {
 public:
  /// Prepares for one traversal of an n-vertex graph: grows buffers, clears
  /// the visit list, invalidates all previous marks (O(1) amortised).
  void begin(int n) {
    const auto sn = static_cast<std::size_t>(n);
    if (stamp_.size() < sn) {
      stamp_.resize(sn, 0);
      dist_.resize(sn);
    }
    if (++epoch_ == 0) {  // stamp wrap: one real clear every 2^32 traversals
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    visited_.clear();
    current_.clear();
    next_.clear();
  }

  bool seen(Vertex v) const { return stamp_[static_cast<std::size_t>(v)] == epoch_; }
  int dist(Vertex v) const { return dist_[static_cast<std::size_t>(v)]; }

  /// Marks v visited at distance d and records it in the visit list.
  void mark(Vertex v, int d) {
    stamp_[static_cast<std::size_t>(v)] = epoch_;
    dist_[static_cast<std::size_t>(v)] = d;
    visited_.push_back(v);
  }

  /// Vertices visited since begin(), in visit order.
  const std::vector<Vertex>& visited() const { return visited_; }

  /// Frontier vectors for level-synchronous expansion (callers swap them).
  std::vector<Vertex>& current() { return current_; }
  std::vector<Vertex>& next() { return next_; }

 private:
  std::vector<int> dist_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<Vertex> visited_;
  std::vector<Vertex> current_;
  std::vector<Vertex> next_;
};

/// Marks the ball N^r[S] in `scratch` without collecting it: afterwards
/// seen/dist answer for exactly its members and visited() lists them in BFS
/// order. r < 0 is unbounded. The engine of ball_into / ball_of_set_into,
/// and of the cut kernels (cuts/two_cuts.hpp), which need no sorted
/// copy.
void mark_ball(const Graph& g, std::span<const Vertex> sources, int r, BfsScratch& scratch);

/// Sorted ball N^r[v] written into `out` (cleared first) using the caller's
/// scratch — the allocation-free variant of ball(). After the call,
/// scratch.seen(u)/scratch.dist(u) answer membership and distance queries
/// for exactly the ball members, until the next begin().
void ball_into(const Graph& g, Vertex v, int r, BfsScratch& scratch, std::vector<Vertex>& out);

/// Sorted ball N^r[S] written into `out`; scratch marks as in ball_into.
void ball_of_set_into(const Graph& g, std::span<const Vertex> sources, int r,
                      BfsScratch& scratch, std::vector<Vertex>& out);

/// Distances from src; -1 for unreachable vertices.
std::vector<int> bfs_distances(const Graph& g, Vertex src);

/// Distances from the nearest of the given sources; -1 for unreachable.
std::vector<int> bfs_distances_multi(const Graph& g, std::span<const Vertex> sources);

/// Sorted ball N^r[v]: all vertices at distance <= r from v.
std::vector<Vertex> ball(const Graph& g, Vertex v, int r);

/// Sorted ball N^r[S] around a set of sources.
std::vector<Vertex> ball_of_set(const Graph& g, std::span<const Vertex> sources, int r);

/// Result of a connected-components labelling.
struct Components {
  std::vector<int> component;  ///< component id per vertex, 0..count-1
  int count = 0;

  /// Vertices of each component, sorted.
  std::vector<std::vector<Vertex>> groups() const;
};

/// Connected components of g.
Components connected_components(const Graph& g);

/// Connected components of g with the given vertices deleted. Removed
/// vertices get component id -1.
Components components_without(const Graph& g, std::span<const Vertex> removed);

/// True iff g is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// Eccentricity of v (max distance to any reachable vertex); -1 if g has
/// unreachable vertices from v.
int eccentricity(const Graph& g, Vertex v);

/// Diameter; -1 if disconnected. O(n·m) — intended for tests and benches on
/// moderate instances.
int diameter(const Graph& g);

/// Weak diameter of the set S: max over u,v in S of d_G(u, v), where
/// distances are measured in the *whole* graph g. Returns -1 if some pair is
/// disconnected in g. This is the notion used by asymptotic dimension (§3).
int weak_diameter(const Graph& g, std::span<const Vertex> s);

/// Distance between two vertices (-1 if disconnected).
int distance(const Graph& g, Vertex u, Vertex v);

}  // namespace lmds::graph
