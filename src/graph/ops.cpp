#include "graph/ops.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/hash.hpp"

namespace lmds::graph {

std::vector<Vertex> Subgraph::lift(std::span<const Vertex> sub_vertices) const {
  std::vector<Vertex> result;
  result.reserve(sub_vertices.size());
  for (Vertex v : sub_vertices) result.push_back(to_parent[static_cast<std::size_t>(v)]);
  return result;
}

namespace {

// Normalizes one edit list: endpoint checks, u < v orientation, sort,
// duplicate rejection. `what` names the list in error messages.
std::vector<Edge> normalize_edits(const std::vector<Edge>& edits, const char* what) {
  std::vector<Edge> result;
  result.reserve(edits.size());
  for (Edge e : edits) {
    if (e.u < 0 || e.v < 0) {
      throw std::invalid_argument(std::string("apply_patch: negative endpoint in \"") + what +
                                  "\"");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("apply_patch: self-loop {" + std::to_string(e.u) + "," +
                                  std::to_string(e.v) + "} in \"" + what + "\"");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
    result.push_back(e);
  }
  std::sort(result.begin(), result.end());
  const auto dup = std::adjacent_find(result.begin(), result.end());
  if (dup != result.end()) {
    throw std::invalid_argument("apply_patch: duplicate edge {" + std::to_string(dup->u) + "," +
                                std::to_string(dup->v) + "} in \"" + what + "\"");
  }
  return result;
}

}  // namespace

PatchedGraph apply_patch(const Graph& parent, const GraphPatch& patch) {
  PatchedGraph result;
  result.added = normalize_edits(patch.add, "add");
  result.removed = normalize_edits(patch.del, "del");

  std::vector<Edge> overlap;
  std::set_intersection(result.added.begin(), result.added.end(), result.removed.begin(),
                        result.removed.end(), std::back_inserter(overlap));
  if (!overlap.empty()) {
    throw std::invalid_argument("apply_patch: edge {" + std::to_string(overlap.front().u) + "," +
                                std::to_string(overlap.front().v) +
                                "} appears in both \"add\" and \"del\"");
  }

  const int parent_n = parent.num_vertices();
  int n = parent_n;
  for (const Edge& e : result.added) n = std::max(n, e.v + 1);
  for (const Edge& e : result.removed) {
    if (e.v >= parent_n || !parent.has_edge(e.u, e.v)) {
      throw std::invalid_argument("apply_patch: deleted edge {" + std::to_string(e.u) + "," +
                                  std::to_string(e.v) + "} is not in the parent graph");
    }
  }
  for (const Edge& e : result.added) {
    if (e.v < parent_n && parent.has_edge(e.u, e.v)) {
      throw std::invalid_argument("apply_patch: added edge {" + std::to_string(e.u) + "," +
                                  std::to_string(e.v) + "} is already present");
    }
  }
  if (patch.n >= 0) {
    if (patch.n < n) {
      throw std::invalid_argument("apply_patch: \"n\"=" + std::to_string(patch.n) +
                                  " is below the required vertex count " + std::to_string(n) +
                                  " (patches never delete vertices)");
    }
    n = patch.n;
  }

  // Both orientations of every edit as {row, neighbour}, sorted. Rows named
  // by no edit are copied from the parent in whole spans between the touched
  // rows, their offsets shifted by the running degree delta of the rows
  // before them; only touched rows are merged.
  std::vector<Edge> edits;
  edits.reserve(2 * (result.added.size() + result.removed.size()));
  for (const auto* list : {&result.added, &result.removed}) {
    for (const Edge& e : *list) {
      edits.push_back(e);
      edits.push_back({e.v, e.u});
    }
  }
  std::sort(edits.begin(), edits.end());

  // Start of row v in the parent's CSR; rows past the parent are empty.
  const std::size_t old_total = parent.neighbors_.size();
  const auto old_start = [&](Vertex v) {
    return v < parent_n ? parent.offsets_[static_cast<std::size_t>(v)] : old_total;
  };
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<Vertex> neighbors(old_total + 2 * result.added.size() - 2 * result.removed.size());
  std::ptrdiff_t delta = 0;  // new start - old start of the next row
  Vertex next = 0;  // first row not yet written
  // Rows [next, end) are untouched: one bulk copy plus shifted offsets
  // (unsigned wrap-around adds a negative delta exactly).
  const auto copy_untouched = [&](Vertex end) {
    const auto shift = static_cast<std::size_t>(delta);
    std::copy(parent.neighbors_.begin() + static_cast<std::ptrdiff_t>(old_start(next)),
              parent.neighbors_.begin() + static_cast<std::ptrdiff_t>(old_start(end)),
              neighbors.begin() + static_cast<std::ptrdiff_t>(old_start(next) + shift));
    const Vertex split = std::clamp(parent_n, next, end);
    for (Vertex v = next; v < split; ++v) {
      offsets[static_cast<std::size_t>(v)] = parent.offsets_[static_cast<std::size_t>(v)] + shift;
    }
    std::fill(offsets.begin() + split, offsets.begin() + end, old_total + shift);
    next = end;
  };
  for (auto e = edits.begin(); e != edits.end();) {
    const Vertex row = e->u;
    copy_untouched(row);
    const std::size_t start = old_start(row) + static_cast<std::size_t>(delta);
    offsets[static_cast<std::size_t>(row)] = start;
    Vertex* out = neighbors.data() + start;
    // Merge the old row with this row's sorted edits: an edit below the
    // current old neighbour is an add (a del always names an old neighbour),
    // one equal to it is a del (an add never does).
    for (Vertex w : row < parent_n ? parent.neighbors(row) : std::span<const Vertex>{}) {
      for (; e != edits.end() && e->u == row && e->v < w; ++e) *out++ = e->v;
      if (e != edits.end() && e->u == row && e->v == w) {
        ++e;
        continue;
      }
      *out++ = w;
    }
    for (; e != edits.end() && e->u == row; ++e) *out++ = e->v;
    next = row + 1;
    delta = (out - neighbors.data()) - static_cast<std::ptrdiff_t>(old_start(next));
  }
  copy_untouched(n);
  offsets[static_cast<std::size_t>(n)] = neighbors.size();
  result.graph = Graph(std::move(offsets), std::move(neighbors));
  return result;
}

Subgraph induced_subgraph(const Graph& g, std::span<const Vertex> vertices) {
  Subgraph result;
  result.to_parent.assign(vertices.begin(), vertices.end());
  std::sort(result.to_parent.begin(), result.to_parent.end());
  if (std::adjacent_find(result.to_parent.begin(), result.to_parent.end()) !=
      result.to_parent.end()) {
    throw std::invalid_argument("induced_subgraph: duplicate vertices");
  }
  result.from_parent.assign(static_cast<std::size_t>(g.num_vertices()), kNoVertex);
  for (std::size_t i = 0; i < result.to_parent.size(); ++i) {
    const Vertex p = result.to_parent[i];
    if (!g.has_vertex(p)) throw std::invalid_argument("induced_subgraph: vertex out of range");
    result.from_parent[static_cast<std::size_t>(p)] = static_cast<Vertex>(i);
  }
  // CSR-native assembly: to_parent is sorted, so relabelling is monotone and
  // every copied row stays sorted — the trusted constructor's invariants
  // hold by construction, no per-row sort or validating rebuild needed.
  const std::size_t k = result.to_parent.size();
  std::vector<std::size_t> offsets(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t deg = 0;
    for (Vertex w : g.neighbors(result.to_parent[i])) {
      if (result.from_parent[static_cast<std::size_t>(w)] != kNoVertex) ++deg;
    }
    offsets[i + 1] = offsets[i] + deg;
  }
  std::vector<Vertex> neighbors(offsets.back());
  for (std::size_t i = 0; i < k; ++i) {
    Vertex* out = neighbors.data() + offsets[i];
    for (Vertex w : g.neighbors(result.to_parent[i])) {
      const Vertex j = result.from_parent[static_cast<std::size_t>(w)];
      if (j != kNoVertex) *out++ = j;
    }
  }
  result.graph = detail::TrustedCsr::build(std::move(offsets), std::move(neighbors));
  return result;
}

Subgraph remove_vertices(const Graph& g, std::span<const Vertex> vertices) {
  std::vector<char> removed(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v : vertices) {
    if (!g.has_vertex(v)) throw std::invalid_argument("remove_vertices: vertex out of range");
    removed[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (!removed[static_cast<std::size_t>(v)]) keep.push_back(v);
  }
  return induced_subgraph(g, keep);
}

TwinReduction remove_true_twins(const Graph& g) {
  // True twins have equal closed neighbourhoods, so equal fingerprints (the
  // sum of mixed ids over N[v]). Within one fingerprint, in ascending order,
  // a vertex joins the first class whose smallest member has its closed
  // neighbourhood, or opens a class of its own.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::pair<std::uint64_t, Vertex>> order(n);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(v));
    for (const Vertex w : g.neighbors(v)) h += mix64(static_cast<std::uint64_t>(w));
    order[static_cast<std::size_t>(v)] = {h, v};
  }
  std::sort(order.begin(), order.end());
  TwinReduction result;
  result.representative.assign(n, kNoVertex);
  std::vector<Vertex> group_reps;  // class minima of the current fingerprint
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || order[i].first != order[i - 1].first) group_reps.clear();
    const Vertex v = order[i].second;
    const auto rep = std::find_if(group_reps.begin(), group_reps.end(),
                                  [&](Vertex c) { return g.true_twins(c, v); });
    const bool opens = rep == group_reps.end();
    result.representative[static_cast<std::size_t>(v)] = opens ? v : *rep;
    if (opens) group_reps.push_back(v);
  }
  std::vector<Vertex> reps;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (result.representative[static_cast<std::size_t>(v)] == v) reps.push_back(v);
  }
  result.num_classes = static_cast<int>(reps.size());
  result.reduced = induced_subgraph(g, reps);
  return result;
}

std::vector<Vertex> TwinReduction::lift_solution(std::span<const Vertex> reduced_solution) const {
  return reduced.lift(reduced_solution);
}

Graph contract_partition(const Graph& g, const std::vector<std::vector<Vertex>>& parts) {
  std::vector<int> part_of(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) throw std::invalid_argument("contract_partition: empty part");
    for (Vertex v : parts[i]) {
      if (!g.has_vertex(v)) throw std::invalid_argument("contract_partition: vertex out of range");
      if (part_of[static_cast<std::size_t>(v)] != -1) {
        throw std::invalid_argument("contract_partition: parts overlap");
      }
      part_of[static_cast<std::size_t>(v)] = static_cast<int>(i);
    }
  }
  GraphBuilder b(static_cast<int>(parts.size()));
  for (const Edge e : g.edges()) {
    const int pu = part_of[static_cast<std::size_t>(e.u)];
    const int pv = part_of[static_cast<std::size_t>(e.v)];
    if (pu == -1 || pv == -1 || pu == pv) continue;
    b.add_edge(static_cast<Vertex>(pu), static_cast<Vertex>(pv));
  }
  return b.build();
}

Graph power(const Graph& g, int r) {
  if (r < 1) throw std::invalid_argument("power: r must be >= 1");
  std::vector<std::vector<Vertex>> adjacency(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (Vertex w : ball(g, v, r)) {
      if (w != v) adjacency[static_cast<std::size_t>(v)].push_back(w);
    }
  }
  return Graph(adjacency);
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  GraphBuilder builder(a.num_vertices() + b.num_vertices());
  for (const Edge e : a.edges()) builder.add_edge(e.u, e.v);
  const Vertex shift = a.num_vertices();
  for (const Edge e : b.edges()) builder.add_edge(e.u + shift, e.v + shift);
  return builder.build();
}

std::vector<std::vector<Vertex>> r_components(const Graph& g, std::span<const Vertex> s, int r) {
  if (r < 1) throw std::invalid_argument("r_components: r must be >= 1");
  std::vector<char> in_s(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v : s) {
    if (!g.has_vertex(v)) throw std::invalid_argument("r_components: vertex out of range");
    in_s[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<int> comp(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<std::vector<Vertex>> result;
  for (Vertex start : s) {
    if (comp[static_cast<std::size_t>(start)] != -1) continue;
    const int id = static_cast<int>(result.size());
    result.emplace_back();
    std::queue<Vertex> queue;
    queue.push(start);
    comp[static_cast<std::size_t>(start)] = id;
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop();
      result.back().push_back(u);
      // All S-vertices within distance r of u join the same r-component.
      for (Vertex w : ball(g, u, r)) {
        if (w == u || !in_s[static_cast<std::size_t>(w)]) continue;
        if (comp[static_cast<std::size_t>(w)] == -1) {
          comp[static_cast<std::size_t>(w)] = id;
          queue.push(w);
        }
      }
    }
    std::sort(result.back().begin(), result.back().end());
  }
  return result;
}

}  // namespace lmds::graph
