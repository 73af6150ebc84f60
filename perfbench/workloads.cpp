// Workload table, deterministic request streams and the statistics helpers.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <random>
#include <set>

#include "api/graph_store.hpp"
#include "bench.hpp"
#include "ding/generators.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "server/protocol.hpp"

namespace perfbench {

using lmds::graph::Vertex;

namespace {

std::vector<std::string> server_flags(std::initializer_list<const char*> extra) {
  // Every server: batches run on their connection's thread (concurrency comes
  // from the clients; with --threads 4 each multi-shard batch spawned its own
  // threads, which made routed-inline's figures swing several times more
  // from run to run), snapshot verbs off, admission control on (so a leaked
  // in-flight slot would show as busy rejects), and stats that list every
  // session's pins for the drain check.
  std::vector<std::string> args = {"--threads", "1", "--no-snapshot-verbs",
                                   "--max-namespace-inflight", "64",
                                   "--stats-all-namespaces"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

std::string handle_of(const Graph& g) {
  return lmds::api::GraphStore::handle_for(lmds::graph::graph_hash(g));
}

Graph relabel(const Graph& g, std::uint64_t seed) {
  const int n = g.num_vertices();
  std::vector<Vertex> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<std::vector<Vertex>> adj(static_cast<std::size_t>(n));
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex w : g.neighbors(u)) {
      adj[static_cast<std::size_t>(perm[static_cast<std::size_t>(u)])].push_back(
          perm[static_cast<std::size_t>(w)]);
    }
  }
  return Graph(adj);
}

std::string inline_graphs(const std::vector<std::shared_ptr<const Graph>>& graphs) {
  std::string out = "[";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (i) out += ',';
    out += lmds::server::encode_graph_json(*graphs[i]);
  }
  return out + "]";
}

/// Stream ids: connection and op index in the high bits, sub-draw low.
std::uint64_t stream(int conn, std::uint64_t index, std::uint64_t sub) {
  return (static_cast<std::uint64_t>(conn + 1) << 48) ^ (index << 8) ^ sub;
}

/// Clustered deletions: BFS out from a seeded centre, delete the first
/// `count` edges met (a failing region, not uniform noise).
std::vector<lmds::graph::Edge> hotspot_deletions(const Graph& g, std::uint64_t seed, int count) {
  const int n = g.num_vertices();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<Vertex> frontier;
  const auto centre = static_cast<Vertex>(seed % static_cast<std::uint64_t>(n));
  seen[static_cast<std::size_t>(centre)] = 1;
  frontier.push(centre);
  std::set<lmds::graph::Edge> edits;
  while (!frontier.empty() && static_cast<int>(edits.size()) < count) {
    const Vertex u = frontier.front();
    frontier.pop();
    for (Vertex w : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        frontier.push(w);
      }
      edits.insert(u < w ? lmds::graph::Edge{u, w} : lmds::graph::Edge{w, u});
      if (static_cast<int>(edits.size()) >= count) break;
    }
  }
  return {edits.begin(), edits.end()};
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"solve-cold", Kind::SolveCold,
       "the paper's Algorithm 1 on never-repeating in-class graphs: solver stages and "
       "executor do the work, every cache lookup misses",
       1, 0, 0, 6, server_flags({})},
      {"handle-hot", Kind::HandleHot,
       "solve-by-handle cache hits on a few 10k-vertex graphs over line and HTTP: only "
       "framing, parse, store/cache lookup and encode run",
       2, 1, 0, 3, server_flags({})},
      {"patch-churn", Kind::PatchChurn,
       "patch a 100k grid at 0.1-1% clustered churn, solve the child incrementally "
       "with ksv, drop it: writes beside reads on store and cache",
       1, 0, 0, 1, server_flags({"--store-capacity", "16", "--cache-capacity", "64"})},
      {"routed-inline", Kind::RoutedInline,
       "64-graph theorem44 batches through a router over 2 workers: partition, "
       "re-dump, per-peer exchange and splice show",
       1, 0, 2, 2, server_flags({})},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

InClassGraph in_class_graph(int family, int target_vertices, std::uint64_t seed) {
  namespace gen = lmds::graph::gen;
  InClassGraph c;
  const int n = std::max(target_vertices, 8);
  switch (family % 4) {
    case 0:
      c.family = "tree";
      c.graph = gen::random_tree(n, seed);
      c.certified_t = 2;  // acyclic: no K_{2,2} minor
      break;
    case 1:
      c.family = "outerplanar";
      c.graph = gen::random_maximal_outerplanar(n, seed);
      c.certified_t = 3;  // outerplanar: K_{2,3}-minor-free
      break;
    case 2: {
      c.family = "theta";
      const int parallel = 2 + n % 3;  // theta chains are fixed by (n, parallel)
      c.graph = gen::theta_chain(std::max(1, (n - 1) / (parallel + 1)), parallel);
      c.certified_t = parallel + 1;
      break;
    }
    default: {
      c.family = "cactus";
      lmds::ding::CactusConfig cfg;
      cfg.pieces = std::max(2, n / 5);
      cfg.max_piece_size = 8;
      cfg.t = 5;
      c.graph = lmds::ding::random_cactus_of_structures(cfg, seed);
      c.certified_t = cfg.t;
      break;
    }
  }
  c.graph = relabel(c.graph, mix(seed, 0x5eed));
  return c;
}

SetupData make_setup(const Workload& w, std::uint64_t seed) {
  SetupData s;
  if (w.kind == Kind::HandleHot) {
    for (const int family : {0, 1, 3}) {  // tree, outerplanar, cactus
      s.graphs.push_back(std::make_shared<const Graph>(
          in_class_graph(family, 10000, mix(seed, 0x40 + static_cast<unsigned>(family))).graph));
    }
    s.solvers = {"theorem44", "ksv", "greedy"};
  } else if (w.kind == Kind::PatchChurn) {
    s.graphs.push_back(std::make_shared<const Graph>(lmds::graph::gen::grid(316, 316)));
    s.solvers = {"ksv"};
  }
  for (const auto& g : s.graphs) s.handles.push_back(handle_of(*g));
  return s;
}

Op make_op(const Workload& w, const SetupData& setup, std::uint64_t seed, int conn,
           std::uint64_t index) {
  Op op;
  const std::uint64_t r = mix(seed, stream(conn, index, 0));
  switch (w.kind) {
    case Kind::SolveCold:
    case Kind::RoutedInline: {
      const bool cold = w.kind == Kind::SolveCold;
      const int count = cold ? 4 : 64;
      op.solver = cold ? "algorithm1" : "theorem44";
      for (int k = 0; k < count; ++k) {
        // Sizes follow a fixed golden-ratio sequence over the range and only
        // the graphs themselves come from the seed: every seed asks for the
        // same amount of work, so runs on different seeds compare.
        const std::uint64_t slot = (index * static_cast<std::uint64_t>(count) +
                                    static_cast<std::uint64_t>(k)) * 8 +
                                   static_cast<std::uint64_t>(conn);
        const double u = static_cast<double>(slot) * 0.6180339887498949;
        const int n = cold ? 50 + static_cast<int>((u - std::floor(u)) * 201)
                           : 180 + static_cast<int>((u - std::floor(u)) * 41);
        const std::uint64_t gs = mix(seed, stream(conn, index, 1 + static_cast<unsigned>(k)));
        op.graphs.push_back(std::make_shared<const Graph>(in_class_graph(k, n, gs).graph));
      }
      op.steps.push_back(
          {"solve", "\"solver\":\"" + op.solver + "\",\"graphs\":" + inline_graphs(op.graphs)});
      break;
    }
    case Kind::HandleHot: {
      // The verification prefix walks the (graph, solver) pairs in a fixed
      // order, so approx_ratio averages the same solver mix on every seed.
      const std::uint64_t verify = static_cast<std::uint64_t>(w.verify_ops);
      const std::uint64_t pick =
          index < verify ? static_cast<std::uint64_t>(conn) * verify + index : r;
      const std::size_t g = (pick / setup.solvers.size()) % setup.graphs.size();
      op.solver = setup.solvers[pick % setup.solvers.size()];
      op.graphs.push_back(setup.graphs[g]);
      op.steps.push_back(
          {"solve", "\"solver\":\"" + op.solver + "\",\"graphs\":[\"" + setup.handles[g] + "\"]"});
      break;
    }
    case Kind::PatchChurn: {
      const Graph& parent = *setup.graphs[0];
      // Churn log-uniform in [0.1%, 1%] of the edges.
      const double u = static_cast<double>(r >> 11) / static_cast<double>(1ULL << 53);
      const int count =
          std::max(1, static_cast<int>(parent.num_edges() * 0.001 * std::pow(10.0, u)));
      lmds::graph::GraphPatch patch;
      patch.del = hotspot_deletions(parent, mix(r, 1), count);
      auto child = std::make_shared<const Graph>(lmds::graph::apply_patch(parent, patch).graph);
      op.child_handle = handle_of(*child);
      op.solver = setup.solvers[0];
      op.graphs.push_back(std::move(child));
      op.steps.push_back({"patch_graph", "\"handle\":\"" + setup.handles[0] + "\"," +
                                             lmds::server::encode_patch_members(patch)});
      op.steps.push_back({"solve", "\"solver\":\"" + op.solver + "\",\"graphs\":[\"" +
                                       op.child_handle + "\"]"});
      op.steps.push_back({"drop_graph", "\"handle\":\"" + op.child_handle + "\""});
      op.solve_step = 1;
      break;
    }
  }
  return op;
}

Request with_batch(const Request& solve, std::string_view batch_members) {
  return {solve.op, solve.members + ",\"batch\":{" + std::string(batch_members) + "}"};
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

int tail_percentile(std::size_t n, std::size_t beyond) {
  for (int p = 99; p > 0; --p) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;  // ceil(p n / 100)
    if (n - rank >= beyond) return p;
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

}  // namespace perfbench
