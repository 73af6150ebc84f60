#include "graph/bfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace lmds::graph {

namespace {

// Shared BFS kernel: distances from all sources, optional radius cap
// (radius < 0 means unbounded), optional vertex mask (mask[v] == false means
// v is treated as deleted; mask may be empty meaning "all alive").
// Level-synchronous frontier vectors instead of a std::queue: no per-push
// heap traffic, and each level is a contiguous scan. Distances are identical
// to the queue version — BFS levels do not depend on intra-level order.
std::vector<int> bfs_kernel(const Graph& g, std::span<const Vertex> sources, int radius,
                            std::span<const char> mask) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> current;
  std::vector<Vertex> next;
  for (Vertex s : sources) {
    if (!g.has_vertex(s)) throw std::invalid_argument("bfs: source out of range");
    if (!mask.empty() && !mask[static_cast<std::size_t>(s)]) continue;
    if (dist[static_cast<std::size_t>(s)] == -1) {
      dist[static_cast<std::size_t>(s)] = 0;
      current.push_back(s);
    }
  }
  for (int d = 0; !current.empty() && (radius < 0 || d < radius); ++d) {
    next.clear();
    for (Vertex u : current) {
      for (Vertex w : g.neighbors(u)) {
        if (!mask.empty() && !mask[static_cast<std::size_t>(w)]) continue;
        if (dist[static_cast<std::size_t>(w)] == -1) {
          dist[static_cast<std::size_t>(w)] = d + 1;
          next.push_back(w);
        }
      }
    }
    std::swap(current, next);
  }
  return dist;
}

// Collects the marked ball, sorted; the shared tail of ball_into /
// ball_of_set_into.
void ball_kernel_into(const Graph& g, std::span<const Vertex> sources, int r,
                      BfsScratch& scratch, std::vector<Vertex>& out) {
  mark_ball(g, sources, r, scratch);
  out.assign(scratch.visited().begin(), scratch.visited().end());
  std::sort(out.begin(), out.end());
}

}  // namespace

void mark_ball(const Graph& g, std::span<const Vertex> sources, int r, BfsScratch& scratch) {
  scratch.begin(g.num_vertices());
  std::vector<Vertex>& current = scratch.current();
  std::vector<Vertex>& next = scratch.next();
  for (Vertex s : sources) {
    if (!g.has_vertex(s)) throw std::invalid_argument("bfs: source out of range");
    if (!scratch.seen(s)) {
      scratch.mark(s, 0);
      current.push_back(s);
    }
  }
  // r < 0 means unbounded, matching the distance kernel's convention.
  for (int d = 0; !current.empty() && (r < 0 || d < r); ++d) {
    next.clear();
    for (Vertex u : current) {
      for (Vertex w : g.neighbors(u)) {
        if (!scratch.seen(w)) {
          scratch.mark(w, d + 1);
          next.push_back(w);
        }
      }
    }
    std::swap(current, next);
  }
}

void ball_into(const Graph& g, Vertex v, int r, BfsScratch& scratch, std::vector<Vertex>& out) {
  const Vertex sources[] = {v};
  ball_kernel_into(g, sources, r, scratch, out);
}

void ball_of_set_into(const Graph& g, std::span<const Vertex> sources, int r,
                      BfsScratch& scratch, std::vector<Vertex>& out) {
  ball_kernel_into(g, sources, r, scratch, out);
}

std::vector<int> bfs_distances(const Graph& g, Vertex src) {
  const Vertex sources[] = {src};
  return bfs_kernel(g, sources, -1, {});
}

std::vector<int> bfs_distances_multi(const Graph& g, std::span<const Vertex> sources) {
  return bfs_kernel(g, sources, -1, {});
}

std::vector<Vertex> ball(const Graph& g, Vertex v, int r) {
  const Vertex sources[] = {v};
  return ball_of_set(g, sources, r);
}

std::vector<Vertex> ball_of_set(const Graph& g, std::span<const Vertex> sources, int r) {
  // Visit-list collection instead of the old all-vertices distance scan: the
  // cost is proportional to the ball, not to n. Output stays sorted.
  BfsScratch scratch;
  std::vector<Vertex> out;
  ball_kernel_into(g, sources, r, scratch, out);
  return out;
}

std::vector<std::vector<Vertex>> Components::groups() const {
  std::vector<std::vector<Vertex>> result(static_cast<std::size_t>(count));
  for (Vertex v = 0; v < static_cast<Vertex>(component.size()); ++v) {
    const int c = component[static_cast<std::size_t>(v)];
    if (c >= 0) result[static_cast<std::size_t>(c)].push_back(v);
  }
  return result;
}

Components connected_components(const Graph& g) { return components_without(g, {}); }

Components components_without(const Graph& g, std::span<const Vertex> removed) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  // Alive mask as bitset words: the mask fits in cache even for 100k-vertex
  // graphs, so the inner-loop membership test stays one shift+and.
  std::vector<std::uint64_t> alive((n + 63) / 64, ~std::uint64_t{0});
  for (Vertex v : removed) {
    if (!g.has_vertex(v)) throw std::invalid_argument("components_without: vertex out of range");
    alive[static_cast<std::size_t>(v) / 64] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(v) % 64));
  }
  const auto is_alive = [&](Vertex v) {
    return (alive[static_cast<std::size_t>(v) / 64] >> (static_cast<std::size_t>(v) % 64)) & 1;
  };
  Components result;
  result.component.assign(n, -1);
  std::vector<Vertex> current;
  std::vector<Vertex> next;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (!is_alive(s) || result.component[static_cast<std::size_t>(s)] != -1) continue;
    const int id = result.count++;
    result.component[static_cast<std::size_t>(s)] = id;
    current.assign(1, s);
    while (!current.empty()) {
      next.clear();
      for (Vertex u : current) {
        for (Vertex w : g.neighbors(u)) {
          if (!is_alive(w)) continue;
          if (result.component[static_cast<std::size_t>(w)] == -1) {
            result.component[static_cast<std::size_t>(w)] = id;
            next.push_back(w);
          }
        }
      }
      std::swap(current, next);
    }
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).count == 1;
}

int eccentricity(const Graph& g, Vertex v) {
  const auto dist = bfs_distances(g, v);
  int ecc = 0;
  for (int d : dist) {
    if (d == -1) return -1;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter(const Graph& g) {
  int diam = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const int ecc = eccentricity(g, v);
    if (ecc == -1) return -1;
    diam = std::max(diam, ecc);
  }
  return diam;
}

int weak_diameter(const Graph& g, std::span<const Vertex> s) {
  int result = 0;
  for (Vertex v : s) {
    const auto dist = bfs_distances(g, v);
    for (Vertex u : s) {
      const int d = dist[static_cast<std::size_t>(u)];
      if (d == -1) return -1;
      result = std::max(result, d);
    }
  }
  return result;
}

int distance(const Graph& g, Vertex u, Vertex v) {
  const auto dist = bfs_distances(g, u);
  return dist[static_cast<std::size_t>(v)];
}

}  // namespace lmds::graph
