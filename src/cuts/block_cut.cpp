#include "cuts/block_cut.hpp"

#include <algorithm>
#include <stack>

#include "graph/builder.hpp"

namespace lmds::cuts {

namespace {

// Iterative Tarjan lowpoint DFS: the blocks (as vertex sets, via an edge
// stack) and the articulation points of g, with an empty incidence tree.
BlockCutTree tarjan(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto ix = [](Vertex v) { return static_cast<std::size_t>(v); };
  BlockCutTree result;
  std::vector<char> is_articulation(n, 0);
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<Vertex> parent(n, graph::kNoVertex);
  std::vector<std::size_t> next_child(n, 0);
  std::vector<graph::Edge> edge_stack;
  int timer = 0;

  for (Vertex root = 0; root < g.num_vertices(); ++root) {
    if (disc[ix(root)] != -1) continue;
    if (g.degree(root) == 0) {
      // Isolated vertex: its own trivial block.
      result.blocks.push_back({root});
      disc[ix(root)] = timer++;
      continue;
    }
    int root_children = 0;
    std::stack<Vertex> stack;
    stack.push(root);
    disc[ix(root)] = low[ix(root)] = timer++;
    while (!stack.empty()) {
      const Vertex u = stack.top();
      const auto nb = g.neighbors(u);
      if (next_child[ix(u)] < nb.size()) {
        const Vertex w = nb[next_child[ix(u)]++];
        if (disc[ix(w)] == -1) {
          parent[ix(w)] = u;
          edge_stack.push_back({u, w});
          disc[ix(w)] = low[ix(w)] = timer++;
          stack.push(w);
          if (u == root) ++root_children;
        } else if (w != parent[ix(u)] && disc[ix(w)] < disc[ix(u)]) {
          edge_stack.push_back({u, w});
          low[ix(u)] = std::min(low[ix(u)], disc[ix(w)]);
        }
      } else {
        stack.pop();
        if (stack.empty()) break;
        const Vertex p = stack.top();
        low[ix(p)] = std::min(low[ix(p)], low[ix(u)]);
        if (low[ix(u)] >= disc[ix(p)]) {
          // p closes a biconnected component: pop edges up to and incl. (p,u).
          std::vector<Vertex> block;
          while (!edge_stack.empty()) {
            const graph::Edge e = edge_stack.back();
            edge_stack.pop_back();
            block.push_back(e.u);
            block.push_back(e.v);
            if ((e.u == p && e.v == u) || (e.u == u && e.v == p)) break;
          }
          std::sort(block.begin(), block.end());
          block.erase(std::unique(block.begin(), block.end()), block.end());
          result.blocks.push_back(std::move(block));
          if (p != root) is_articulation[ix(p)] = 1;
        }
      }
    }
    if (root_children >= 2) is_articulation[ix(root)] = 1;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_articulation[ix(v)]) result.cut_vertices.push_back(v);
  }
  return result;
}

}  // namespace

std::vector<Vertex> articulation_points(const Graph& g) { return tarjan(g).cut_vertices; }

int BlockCutTree::cut_index(Vertex v) const {
  const auto it = std::lower_bound(cut_vertices.begin(), cut_vertices.end(), v);
  if (it == cut_vertices.end() || *it != v) return -1;
  return static_cast<int>(it - cut_vertices.begin());
}

std::vector<int> BlockCutTree::blocks_of(Vertex v) const {
  std::vector<int> result;
  for (int b = 0; b < num_blocks(); ++b) {
    const std::vector<Vertex>& block = blocks[static_cast<std::size_t>(b)];
    if (std::binary_search(block.begin(), block.end(), v)) result.push_back(b);
  }
  return result;
}

BlockCutTree block_cut_tree(const Graph& g) {
  BlockCutTree result = tarjan(g);
  graph::GraphBuilder builder(result.num_blocks() + result.num_cut_vertices());
  for (int b = 0; b < result.num_blocks(); ++b) {
    for (Vertex v : result.blocks[static_cast<std::size_t>(b)]) {
      const int j = result.cut_index(v);
      if (j != -1) builder.add_edge(static_cast<Vertex>(b), result.cut_node(j));
    }
  }
  result.tree = builder.build();
  return result;
}

BlockIndex block_index(const Graph& g) {
  BlockIndex index(static_cast<std::size_t>(g.num_vertices()));
  const BlockCutTree blocks = tarjan(g);
  for (int b = 0; b < blocks.num_blocks(); ++b) {
    const std::vector<Vertex>& block = blocks.blocks[static_cast<std::size_t>(b)];
    if (block.size() < 3) continue;
    for (const Vertex x : block) index[static_cast<std::size_t>(x)].push_back(b);
  }
  return index;
}

}  // namespace lmds::cuts
