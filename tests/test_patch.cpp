// Differential test layer for the dynamic-graph serving path: graph patches
// (graph::apply_patch), the GraphStore's derived handles + lineage records +
// the eviction protection of shared parents, the executor's ball-granular
// incremental re-solve, the patch_graph protocol verb over both transports,
// and the soak workload's patch generator / malformed-patch fuzz kind.
//
// The load-bearing suite is IncrementalDifferential: for EVERY registered
// solver and every workload family, a solve against a patched handle must be
// field-for-field identical to a fresh full solve of the patched graph —
// solvers with a locality radius through the incremental splice, everything
// else through the (counted) full fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/graph_store.hpp"
#include "api/registry.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/hash.hpp"
#include "graph/ops.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"
#include "soak/fuzz.hpp"
#include "soak/workload.hpp"

namespace lmds {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphPatch;
using graph::Vertex;

// ---------------------------------------------------------------------------
// graph::apply_patch

TEST(ApplyPatch, AddsDeletesAndGrows) {
  const Graph parent = graph::gen::path(4);  // 0-1-2-3
  GraphPatch p;
  p.add = {{3, 0}, {5, 4}};  // unordered endpoints on purpose
  p.del = {{1, 2}};
  p.n = 7;
  const graph::PatchedGraph out = graph::apply_patch(parent, p);
  EXPECT_EQ(out.graph.num_vertices(), 7);
  EXPECT_TRUE(out.graph.has_edge(0, 3));
  EXPECT_TRUE(out.graph.has_edge(4, 5));
  EXPECT_FALSE(out.graph.has_edge(1, 2));
  EXPECT_TRUE(out.graph.has_edge(0, 1));  // untouched edges survive
  EXPECT_TRUE(out.graph.has_edge(2, 3));
  EXPECT_EQ(out.graph.degree(6), 0);  // n-growth allocates isolated vertices
  // The recorded lineage lists are normalized: u < v, sorted.
  EXPECT_EQ(out.added, (std::vector<Edge>{{0, 3}, {4, 5}}));
  EXPECT_EQ(out.removed, (std::vector<Edge>{{1, 2}}));
}

TEST(ApplyPatch, MatchesFromScratchRebuild) {
  // The row-splicing construction must equal the naive "edit an adjacency
  // list, rebuild" reference on a graph with touched and untouched rows.
  const Graph parent = graph::gen::grid(5, 5);
  GraphPatch p;
  p.add = {{0, 7}, {13, 21}};
  p.del = {{0, 1}, {12, 13}};
  const Graph patched = graph::apply_patch(parent, p).graph;

  std::vector<std::vector<graph::Vertex>> adj(static_cast<std::size_t>(parent.num_vertices()));
  for (const Edge& e : parent.edges()) {
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (const Edge& e : p.add) {
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (const Edge& e : p.del) {
    std::erase(adj[static_cast<std::size_t>(e.u)], e.v);
    std::erase(adj[static_cast<std::size_t>(e.v)], e.u);
  }
  EXPECT_EQ(patched, Graph(adj));
  EXPECT_EQ(graph::graph_hash(patched), graph::graph_hash(Graph(adj)));
}

// Every malformed shape RejectsInconsistentEdits checks, against path(4).
const std::vector<GraphPatch>& malformed_patches() {
  static const std::vector<GraphPatch> patches = {
      {.add = {{2, 2}}, .del = {}, .n = -1},          // self-loop
      {.add = {{0, 2}, {2, 0}}, .del = {}, .n = -1},  // duplicate (orientation-blind)
      {.add = {{0, 1}}, .del = {}, .n = -1},          // add of a present edge
      {.add = {}, .del = {{0, 2}}, .n = -1},          // del of an absent edge
      {.add = {{0, 2}}, .del = {{0, 2}}, .n = -1},    // add ∩ del
      {.add = {{-1, 2}}, .del = {}, .n = -1},         // negative endpoint
      {.add = {}, .del = {}, .n = 2},                 // n may only grow
      {.add = {}, .del = {{0, 9}}, .n = -1},          // del endpoint out of range
  };
  return patches;
}

TEST(ApplyPatch, RejectsInconsistentEdits) {
  const Graph parent = graph::gen::path(4);
  for (const GraphPatch& p : malformed_patches()) {
    EXPECT_THROW((void)graph::apply_patch(parent, p), std::invalid_argument);
  }
}

// The seed apply_patch: per-vertex std::map lookups over all n rows. Kept as
// the reference the span-copying version must match, graphs and errors.
std::vector<Edge> reference_normalize_edits(const std::vector<Edge>& edits, const char* what) {
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

graph::PatchedGraph reference_apply_patch(const Graph& parent, const GraphPatch& patch) {
  graph::PatchedGraph result;
  result.added = reference_normalize_edits(patch.add, "add");
  result.removed = reference_normalize_edits(patch.del, "del");

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

  std::map<Vertex, std::vector<Vertex>> add_at;
  std::map<Vertex, std::vector<Vertex>> del_at;
  for (const Edge& e : result.added) {
    add_at[e.u].push_back(e.v);
    add_at[e.v].push_back(e.u);
  }
  for (const Edge& e : result.removed) {
    del_at[e.u].push_back(e.v);
    del_at[e.v].push_back(e.u);
  }

  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    std::size_t deg = v < parent_n ? static_cast<std::size_t>(parent.degree(v)) : 0;
    if (const auto it = add_at.find(v); it != add_at.end()) deg += it->second.size();
    if (const auto it = del_at.find(v); it != del_at.end()) deg -= it->second.size();
    offsets[static_cast<std::size_t>(v) + 1] = offsets[static_cast<std::size_t>(v)] + deg;
  }
  std::vector<Vertex> neighbors(offsets.back());
  for (Vertex v = 0; v < n; ++v) {
    Vertex* out = neighbors.data() + offsets[static_cast<std::size_t>(v)];
    const std::span<const Vertex> old =
        v < parent_n ? parent.neighbors(v) : std::span<const Vertex>{};
    const auto add_it = add_at.find(v);
    const auto del_it = del_at.find(v);
    if (add_it == add_at.end() && del_it == del_at.end()) {
      out = std::copy(old.begin(), old.end(), out);
      continue;
    }
    std::vector<Vertex>* adds = add_it != add_at.end() ? &add_it->second : nullptr;
    if (adds) std::sort(adds->begin(), adds->end());
    std::vector<char> drop;
    if (del_it != del_at.end()) {
      drop.assign(old.size(), 0);
      for (Vertex w : del_it->second) {
        const auto pos = std::lower_bound(old.begin(), old.end(), w);
        drop[static_cast<std::size_t>(pos - old.begin())] = 1;
      }
    }
    std::size_t ai = 0;
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (!drop.empty() && drop[i]) continue;
      while (adds && ai < adds->size() && (*adds)[ai] < old[i]) *out++ = (*adds)[ai++];
      *out++ = old[i];
    }
    while (adds && ai < adds->size()) *out++ = (*adds)[ai++];
  }
  result.graph = graph::detail::TrustedCsr::build(std::move(offsets), std::move(neighbors));
  return result;
}

// Runs both versions; they must agree on the graph and lineage lists, or
// throw std::invalid_argument with the same message.
void expect_patch_matches_reference(const Graph& parent, const GraphPatch& p) {
  std::string want_error;
  graph::PatchedGraph want;
  try {
    want = reference_apply_patch(parent, p);
  } catch (const std::invalid_argument& e) {
    want_error = e.what();
  }
  try {
    const graph::PatchedGraph got = graph::apply_patch(parent, p);
    ASSERT_EQ(want_error, "") << "the reference rejected what apply_patch accepted";
    EXPECT_EQ(got.graph, want.graph);
    EXPECT_EQ(got.added, want.added);
    EXPECT_EQ(got.removed, want.removed);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), want_error);
  }
}

TEST(ApplyPatch, MatchesMapReferenceOnRandomPatches) {
  std::mt19937_64 rng(1801);
  const std::vector<Graph> parents = {Graph(), graph::gen::path(1), graph::gen::grid(12, 12),
                                      graph::gen::random_connected(80, 60, rng),
                                      graph::gen::star(70)};
  for (const Graph& parent : parents) {
    const int pn = parent.num_vertices();
    const std::vector<Edge> edges = parent.edges();
    for (int trial = 0; trial < 60; ++trial) {
      GraphPatch p;
      const int grow = static_cast<int>(rng() % 4);
      const int span = pn + grow + 1;
      std::set<Edge> add;
      std::set<Edge> del;
      const int dels = edges.empty() ? 0 : static_cast<int>(rng() % 8);
      for (int i = 0; i < dels; ++i) del.insert(edges[rng() % edges.size()]);
      const int adds = static_cast<int>(rng() % 8);
      for (int i = 0; i < adds; ++i) {
        const auto u = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(span));
        const auto w = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(span));
        if (u == w) continue;
        const Edge e{std::min(u, w), std::max(u, w)};
        if (e.v < pn && parent.has_edge(e.u, e.v)) continue;
        add.insert(e);
      }
      for (const Edge& e : add) p.add.push_back(rng() % 2 ? e : Edge{e.v, e.u});
      for (const Edge& e : del) p.del.push_back(rng() % 2 ? e : Edge{e.v, e.u});
      std::shuffle(p.add.begin(), p.add.end(), rng);
      std::shuffle(p.del.begin(), p.del.end(), rng);
      if (rng() % 3 == 0) p.n = span + static_cast<int>(rng() % 3);
      expect_patch_matches_reference(parent, p);
      // One corrupted copy per trial: each malformation the validator names.
      GraphPatch bad = p;
      switch (rng() % 5) {
        case 0: bad.add.push_back({3, 3}); break;
        case 1: if (!bad.add.empty()) bad.add.push_back(bad.add.front()); break;
        case 2: if (!edges.empty()) bad.add.push_back(edges[rng() % edges.size()]); break;
        case 3: if (!bad.add.empty()) bad.del.push_back(bad.add.back()); break;
        default: bad.n = std::max(0, pn - 1); break;
      }
      expect_patch_matches_reference(parent, bad);
    }
  }
}

TEST(ApplyPatch, MatchesMapReferenceOnEveryMalformedShape) {
  const Graph parent = graph::gen::path(4);
  for (const GraphPatch& p : malformed_patches()) expect_patch_matches_reference(parent, p);
}


// ---------------------------------------------------------------------------
// GraphStore: patch handles, lineage, eviction protection

TEST(GraphStorePatch, DerivesContentAddressedChild) {
  api::GraphStore store(8);
  const auto parent = store.put(graph::gen::path(6));
  GraphPatch p;
  p.add = {{0, 5}};
  const auto child = store.patch(parent.handle, p);
  EXPECT_TRUE(child.put.inserted);
  EXPECT_EQ(child.parent, parent.handle);
  EXPECT_EQ(child.put.handle,
            api::GraphStore::handle_for(graph::graph_hash(graph::gen::cycle(6))));
  // Content-addressed: the same patch again re-pins the same entry.
  const auto again = store.patch(parent.handle, p);
  EXPECT_FALSE(again.put.inserted);
  EXPECT_EQ(again.put.handle, child.put.handle);

  const auto lineage = store.lineage(child.put.handle);
  ASSERT_NE(lineage, nullptr);
  EXPECT_EQ(lineage->parent_hash, parent.hash);
  EXPECT_EQ(lineage->added, (std::vector<Edge>{{0, 5}}));
  EXPECT_TRUE(lineage->removed.empty());
  ASSERT_NE(lineage->parent, nullptr);
  EXPECT_EQ(*lineage->parent, graph::gen::path(6));
  // put() handles carry no lineage; unknown handles resolve to none.
  EXPECT_EQ(store.lineage(parent.handle), nullptr);
  EXPECT_EQ(store.lineage("gdeadbeefdeadbeef"), nullptr);

  const auto stats = store.stats();
  EXPECT_EQ(stats.patches, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(GraphStorePatch, UnknownParentThrows) {
  api::GraphStore store(4);
  GraphPatch p;
  p.add = {{0, 2}};
  EXPECT_THROW((void)store.patch("gdeadbeefdeadbeef", p), api::UnknownGraphHandle);
  // Inconsistent edits surface as apply_patch's invalid_argument.
  const auto parent = store.put(graph::gen::path(4));
  GraphPatch bad;
  bad.del = {{0, 3}};  // not an edge of the path
  EXPECT_THROW((void)store.patch(parent.handle, bad), std::invalid_argument);
}

TEST(GraphStoreEviction, ParentOfDerivedHandleIsNotEvicted) {
  // Regression: LRU eviction used to treat an unpinned parent like any other
  // entry, severing a live child's lineage (and with it the incremental
  // path). A parent with stored children must survive until the last child
  // leaves the store.
  api::GraphStore store(2);
  const auto a = store.put(graph::gen::path(8));
  GraphPatch p;
  p.add = {{0, 7}};
  const auto b = store.patch(a.handle, p);
  ASSERT_TRUE(b.put.inserted);
  ASSERT_TRUE(store.drop(a.handle));  // A unpinned, but B still derives from it

  // At capacity: A is eviction-protected (child B), B is pinned -> full.
  EXPECT_THROW((void)store.put(graph::gen::cycle(5)), api::GraphStoreFull);
  EXPECT_NE(store.get(a.handle), nullptr);

  // Dropping B makes B evictable; A stays protected until B is *evicted*.
  ASSERT_TRUE(store.drop(b.put.handle));
  const auto c = store.put(graph::gen::cycle(5));  // evicts B, releases A
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(store.get(b.put.handle), nullptr);
  EXPECT_NE(store.get(a.handle), nullptr);

  // With its last child gone, A is ordinary unpinned prey again.
  const auto d = store.put(graph::gen::grid(3, 3));
  EXPECT_TRUE(d.inserted);
  EXPECT_EQ(store.get(a.handle), nullptr);
  EXPECT_EQ(store.stats().evictions, 2u);
}

// ---------------------------------------------------------------------------
// Executor: ball-granular incremental re-solve, differential against full

struct PatchedFixture {
  api::GraphStore store{64};
  std::shared_ptr<const Graph> parent;
  std::shared_ptr<const Graph> child;
  std::shared_ptr<const api::PatchLineage> lineage;

  explicit PatchedFixture(Graph g, const GraphPatch& p) {
    const auto put = store.put(std::move(g));
    parent = store.get(put.handle);
    const auto patched = store.patch(put.handle, p);
    child = store.get(patched.put.handle);
    lineage = store.lineage(patched.put.handle);
  }
};

// Solves parent (priming the cache), then child with lineage attached, and
// checks the child response equals a fresh full solve — field for field,
// diagnostics included. Returns the child batch's diagnostics.
api::BatchDiagnostics check_differential(api::BatchExecutor& ex, const PatchedFixture& fx,
                                         const std::string& solver, const api::Request& req,
                                         const api::Registry& reg = api::Registry::instance(),
                                         api::Response* child = nullptr) {
  const api::BatchOverrides over;
  const Graph* pg = fx.parent.get();
  (void)ex.run_batch(solver, std::span<const Graph* const>(&pg, 1), req, over);

  const Graph* cg = fx.child.get();
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {fx.lineage};
  api::BatchDiagnostics diag;
  const std::vector<api::Response> got =
      ex.run_batch(solver, std::span<const Graph* const>(&cg, 1), req, over, &diag, {},
                   {lineages.data(), lineages.size()});

  api::Request full = req;
  full.graph = cg;
  const api::Response want = reg.run(solver, full);
  EXPECT_EQ(got.at(0), want) << solver << ": incremental result diverged from full solve";
  if (child) *child = got.at(0);
  return diag;
}

TEST(IncrementalDifferential, EverySolverEveryFamilyMatchesFullSolve) {
  const api::Registry& reg = api::Registry::instance();
  for (const std::string& solver : reg.names()) {
    const int locality = reg.at(solver).locality_radius;
    for (std::uint64_t family = 0; family < soak::kFamilies; ++family) {
      const soak::GraphCase c = soak::make_case(/*run_seed=*/7, family);
      const GraphPatch p = soak::make_patch(c.graph, soak::mix_seed(7, family ^ 0xED17ULL), 3);
      if (p.add.empty() && p.del.empty()) continue;
      PatchedFixture fx(c.graph, p);
      api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 256}, reg);
      api::Request req;  // defaults for every declared option
      const api::BatchDiagnostics diag = check_differential(ex, fx, solver, req);
      if (locality >= 0) {
        EXPECT_EQ(diag.incremental_solves, 1u) << solver << " family " << c.family;
        EXPECT_GT(diag.incremental_dirty, 0u) << solver << " family " << c.family;
      } else {
        EXPECT_EQ(diag.incremental_solves, 0u) << solver << " family " << c.family;
        EXPECT_EQ(diag.incremental_fallbacks, 1u) << solver << " family " << c.family;
      }
    }
  }
}

TEST(IncrementalDifferential, ValidityOverDirtyNeighbourhoodMatchesFullCheck) {
  // "deg3" joins iff deg(v) >= 3: radius-1 local, and not always a valid
  // answer. On grid(6,6) the corner 0 is dominated (and its edges covered)
  // through 1 and 6 only, so deleting {1,2} and {6,12} breaks the answer and
  // adding {0,14} mends it; {14,21} and {28,35} are edits far from corner 0.
  // The incremental `valid` must equal a full check in all four
  // parent/child combinations, for MDS and MVC.
  GraphPatch cut_corner;
  cut_corner.del = {{1, 2}, {6, 12}};
  const Graph valid_parent = graph::gen::grid(6, 6);
  const Graph invalid_parent = graph::apply_patch(valid_parent, cut_corner).graph;
  struct Case {
    const Graph* parent;
    GraphPatch patch;
    bool parent_valid;
    bool child_valid;
  };
  const std::vector<Case> cases = {
      {&valid_parent, {.add = {{14, 21}}, .del = {}, .n = -1}, true, true},
      {&valid_parent, cut_corner, true, false},
      {&invalid_parent, {.add = {{0, 14}}, .del = {}, .n = -1}, false, true},
      {&invalid_parent, {.add = {{28, 35}}, .del = {}, .n = -1}, false, false},
  };
  for (const api::Problem problem : {api::Problem::Mds, api::Problem::Mvc}) {
    api::Registry reg;
    reg.add({.name = "deg3",
             .problem = problem,
             .summary = "degree >= 3 joins",
             .params = {},
             .locality_radius = 1},
            [](const api::SolveContext& ctx) {
              api::SolverOutput out;
              for (Vertex v = 0; v < ctx.graph.num_vertices(); ++v) {
                if (ctx.graph.degree(v) >= 3) out.solution.push_back(v);
              }
              return out;
            });
    for (const Case& c : cases) {
      PatchedFixture fx(*c.parent, c.patch);
      api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64}, reg);
      api::Request parent_req;
      parent_req.graph = fx.parent.get();
      ASSERT_EQ(reg.run("deg3", parent_req).valid, c.parent_valid);
      api::Response child;
      const api::BatchDiagnostics diag =
          check_differential(ex, fx, "deg3", api::Request{}, reg, &child);
      EXPECT_EQ(diag.incremental_solves, 1u);
      EXPECT_EQ(child.valid, c.child_valid)
          << to_string(problem) << " parent_valid=" << c.parent_valid;
    }
  }
}

TEST(IncrementalDifferential, VertexGrowthIsReDecided) {
  // New vertices have no parent decision to inherit — they are dirty by
  // definition, even when no edit touches the old vertex range.
  GraphPatch p;
  p.add = {{5, 8}};
  p.n = 10;  // vertex 9 is isolated in the child
  PatchedFixture fx(graph::gen::path(6), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  const api::BatchDiagnostics diag = check_differential(ex, fx, "theorem44", req);
  EXPECT_EQ(diag.incremental_solves, 1u);
  EXPECT_GE(diag.incremental_dirty, 4u);  // 8, 9 and the ball around {5,8}
}

TEST(IncrementalDifferential, ChainedPatchesStayIncremental) {
  // grandparent -> parent -> child: each hop carries its own lineage, so the
  // second solve splices from the first's cached response, and so on.
  api::GraphStore store(16);
  const auto g0 = store.put(graph::gen::grid(6, 6));
  GraphPatch p1;
  p1.add = {{0, 7}};
  const auto g1 = store.patch(g0.handle, p1);
  GraphPatch p2;
  p2.del = {{14, 15}};
  const auto g2 = store.patch(g1.put.handle, p2);

  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  const api::BatchOverrides over;
  for (const std::string& handle : {g0.handle, g1.put.handle, g2.put.handle}) {
    const std::shared_ptr<const Graph> g = store.get(handle);
    const Graph* ptr = g.get();
    std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {store.lineage(handle)};
    api::BatchDiagnostics diag;
    const auto got = ex.run_batch("theorem44", std::span<const Graph* const>(&ptr, 1), req,
                                  over, &diag, {}, {lineages.data(), 1});
    api::Request full = req;
    full.graph = ptr;
    EXPECT_EQ(got.at(0), api::Registry::instance().run("theorem44", full));
    if (handle != g0.handle) {
      EXPECT_EQ(diag.incremental_solves, 1u) << handle;
    }
  }
}

TEST(IncrementalDifferential, BallSignatureSubSolveIsShared) {
  // Two patches applying "the same" edit far apart on a long path produce
  // isomorphic, identically-relabelled support subgraphs — the second child
  // solve must reuse the first's memoized sub-solve (ball-signature key)
  // instead of running the solver again.
  api::GraphStore store(16);
  const auto parent = store.put(graph::gen::path(100));
  GraphPatch pa;
  pa.add = {{10, 12}};
  GraphPatch pb;
  pb.add = {{50, 52}};
  const auto ca = store.patch(parent.handle, pa);
  const auto cb = store.patch(parent.handle, pb);

  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  const api::BatchOverrides over;
  const std::shared_ptr<const Graph> pg = store.get(parent.handle);
  const Graph* ptr = pg.get();
  (void)ex.run_batch("theorem44", std::span<const Graph* const>(&ptr, 1), req, over);

  const auto solve_child = [&](const std::string& handle) {
    const std::shared_ptr<const Graph> g = store.get(handle);
    const Graph* cp = g.get();
    std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {store.lineage(handle)};
    api::BatchDiagnostics diag;
    const auto got = ex.run_batch("theorem44", std::span<const Graph* const>(&cp, 1), req,
                                  over, &diag, {}, {lineages.data(), 1});
    EXPECT_EQ(diag.incremental_solves, 1u);
    api::Request full = req;
    full.graph = cp;
    EXPECT_EQ(got.at(0), api::Registry::instance().run("theorem44", full));
  };

  solve_child(ca.put.handle);
  const api::CacheStats before = ex.cache_stats();
  solve_child(cb.put.handle);
  const api::CacheStats after = ex.cache_stats();
  // Child B: top-level key misses, then parent response + memoized sub-solve
  // both hit — no solver run needed beyond the splice.
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
}

TEST(IncrementalDifferential, RatioAndTrafficRequestsSkipTheIncrementalPath) {
  // measure_ratio / measure_traffic are whole-graph measurements no splice
  // can reconstruct: the lineage must be ignored entirely (not even counted
  // as a fallback), and the result must still match the full solve.
  GraphPatch p;
  p.add = {{0, 7}};
  PatchedFixture fx(graph::gen::grid(5, 5), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  api::Request req;
  req.measure_ratio = true;
  const api::BatchDiagnostics diag = check_differential(ex, fx, "theorem44", req);
  EXPECT_EQ(diag.incremental_solves, 0u);
  EXPECT_EQ(diag.incremental_fallbacks, 0u);
}

TEST(IncrementalDifferential, CacheBypassFallsBackToFullSolve) {
  GraphPatch p;
  p.add = {{0, 7}};
  PatchedFixture fx(graph::gen::grid(5, 5), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  api::BatchOverrides over;
  over.bypass_cache = true;
  const Graph* cg = fx.child.get();
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {fx.lineage};
  api::BatchDiagnostics diag;
  const auto got = ex.run_batch("theorem44", std::span<const Graph* const>(&cg, 1), req, over,
                                &diag, {}, {lineages.data(), 1});
  EXPECT_EQ(diag.incremental_solves, 0u);
  api::Request full = req;
  full.graph = cg;
  EXPECT_EQ(got.at(0), api::Registry::instance().run("theorem44", full));
}

// ---------------------------------------------------------------------------
// Protocol: decode_patch / encode_patch_members

TEST(PatchProtocol, DecodeAcceptsAndRoundTrips) {
  const server::ServerLimits limits;
  const GraphPatch p = server::decode_patch(
      server::json_parse(R"({"op":"patch_graph","add":[[3,0]],"del":[[1,2]],"n":9})"), limits);
  EXPECT_EQ(p.add, (std::vector<Edge>{{0, 3}}));  // decode orients each pair u < v
  EXPECT_EQ(p.del, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(p.n, 9);

  GraphPatch original;
  original.add = {{0, 3}, {4, 5}};
  original.n = 8;
  const std::string members = server::encode_patch_members(original);
  const GraphPatch round =
      server::decode_patch(server::json_parse("{" + members + "}"), limits);
  EXPECT_EQ(round.add, original.add);
  EXPECT_EQ(round.del, original.del);
  EXPECT_EQ(round.n, original.n);
}

TEST(PatchProtocol, DecodeRejectsMalformedShapes) {
  const server::ServerLimits limits;
  for (const char* bad : {
           R"({"op":"patch_graph"})",                       // no edit field at all
           R"({"add":[[0]]})",                              // not a pair
           R"({"add":[[0,1,2]]})",                          // not a pair
           R"({"add":[[0,0]]})",                            // self-loop
           R"({"add":[[0,-1]]})",                           // negative endpoint
           R"({"add":[[0,1.5]]})",                          // non-integer endpoint
           R"({"add":7})",                                  // list is not an array
           R"({"n":-3})",                                   // negative n
           R"({"n":2000000})",                              // n beyond max_graph_vertices
           R"({"add":[[0,2000000]]})",                      // endpoint beyond the limit
       }) {
    EXPECT_THROW((void)server::decode_patch(server::json_parse(bad), limits),
                 server::ProtocolError)
        << "accepted: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Session + HTTP front-end

TEST(PatchSession, PutPatchSolveFlow) {
  server::CoreOptions opts;
  opts.batch = {.threads = 1, .shard_size = 4, .cache_capacity = 128};
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);

  const server::JsonValue put = server::json_parse(session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" +
      server::encode_graph_json(graph::gen::grid(6, 6)) + "}"));
  ASSERT_TRUE(put.find("ok")->as_bool());
  const std::string parent = put.find("handle")->as_string();

  // Prime the parent's cached response (no ratio/traffic, default options).
  const std::string solve_parent = "{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":[\"" +
                                   parent + "\"]}";
  ASSERT_TRUE(server::json_parse(session.handle_line(solve_parent)).find("ok")->as_bool());

  const server::JsonValue patched = server::json_parse(session.handle_line(
      "{\"op\":\"patch_graph\",\"handle\":\"" + parent +
      "\",\"add\":[[0,7],[14,21]],\"del\":[[0,1]]}"));
  ASSERT_TRUE(patched.find("ok")->as_bool());
  EXPECT_TRUE(patched.find("new")->as_bool());
  EXPECT_EQ(patched.find("parent")->as_string(), parent);
  const std::string child = patched.find("handle")->as_string();
  EXPECT_NE(child, parent);

  const server::JsonValue solved = server::json_parse(session.handle_line(
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":[\"" + child + "\"]}"));
  ASSERT_TRUE(solved.find("ok")->as_bool());
  EXPECT_TRUE(solved.find("responses")->as_array().at(0).find("valid")->as_bool());
  const server::JsonValue* diag = solved.find("diag");
  ASSERT_NE(diag->find("incremental_solves"), nullptr);
  EXPECT_EQ(diag->find("incremental_solves")->as_int(), 1);
  EXPECT_GT(diag->find("incremental_dirty")->as_int(), 0);

  // Same patch again: content-addressed re-pin, "new": false.
  const server::JsonValue again = server::json_parse(session.handle_line(
      "{\"op\":\"patch_graph\",\"handle\":\"" + parent +
      "\",\"add\":[[0,7],[14,21]],\"del\":[[0,1]]}"));
  ASSERT_TRUE(again.find("ok")->as_bool());
  EXPECT_FALSE(again.find("new")->as_bool());

  // Stats surface the patch counter.
  const server::JsonValue stats = server::json_parse(session.handle_line("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.find("store")->find("patches")->as_int(), 1);
}

TEST(PatchSession, ErrorClasses) {
  server::CoreOptions opts;
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);

  const auto code_of = [&](const std::string& line) {
    const server::JsonValue v = server::json_parse(session.handle_line(line));
    EXPECT_FALSE(v.find("ok")->as_bool());
    return v.find("code")->as_string();
  };
  // Well-formed handle that resolves to nothing: unknown_handle (retryable).
  EXPECT_EQ(code_of(R"({"op":"patch_graph","handle":"gdeadbeefdeadbeef","add":[[0,2]]})"),
            "unknown_handle");
  // Handle of the wrong shape: the request's fault.
  EXPECT_EQ(code_of(R"({"op":"patch_graph","handle":"nope","add":[[0,2]]})"), "bad_request");
  // Missing handle / missing edit fields.
  EXPECT_EQ(code_of(R"({"op":"patch_graph","add":[[0,2]]})"), "bad_request");
  // Edits inconsistent with the actual parent.
  const server::JsonValue put = server::json_parse(session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + server::encode_graph_json(graph::gen::path(4)) +
      "}"));
  const std::string parent = put.find("handle")->as_string();
  EXPECT_EQ(code_of("{\"op\":\"patch_graph\",\"handle\":\"" + parent +
                    "\",\"del\":[[0,3]]}"),
            "bad_request");

  // A zero-capacity store can never patch: configuration error, not busy.
  server::CoreOptions disabled;
  disabled.store_capacity = 0;
  server::ServerCore core0(disabled, api::Registry::instance());
  server::Session session0(core0);
  const server::JsonValue v = server::json_parse(session0.handle_line(
      R"({"op":"patch_graph","handle":"gdeadbeefdeadbeef","add":[[0,2]]})"));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("code")->as_string(), "bad_request");
}

TEST(PatchHttp, RouteCreatesAndReusesDerivedHandles) {
  server::CoreOptions opts;
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);

  server::HttpRequest put;
  put.method = "PUT";
  put.target = "/v2/graphs";
  put.body = server::encode_graph_json(graph::gen::grid(4, 4));
  const std::string put_response = server::handle_http_request(put, session);
  ASSERT_NE(put_response.find("201 Created"), std::string::npos);
  const std::size_t body_at = put_response.find("\r\n\r\n");
  const server::JsonValue put_body = server::json_parse(put_response.substr(body_at + 4));
  const std::string parent = put_body.find("handle")->as_string();

  server::HttpRequest patch;
  patch.method = "POST";
  patch.target = "/v2/graphs/" + parent + "/patch";
  patch.body = R"({"add":[[0,5]]})";
  const std::string first = server::handle_http_request(patch, session);
  EXPECT_NE(first.find("201 Created"), std::string::npos);
  const server::JsonValue first_body =
      server::json_parse(first.substr(first.find("\r\n\r\n") + 4));
  EXPECT_TRUE(first_body.find("new")->as_bool());
  EXPECT_EQ(first_body.find("parent")->as_string(), parent);

  // Replaying the identical patch reuses the child: 200, "new": false.
  const std::string second = server::handle_http_request(patch, session);
  EXPECT_NE(second.find("200 OK"), std::string::npos);

  // Unknown parent -> 404; non-object body -> 400.
  server::HttpRequest unknown = patch;
  unknown.target = "/v2/graphs/gdeadbeefdeadbeef/patch";
  EXPECT_NE(server::handle_http_request(unknown, session).find("404 Not Found"),
            std::string::npos);
  server::HttpRequest bad = patch;
  bad.body = "[1,2,3]";
  EXPECT_NE(server::handle_http_request(bad, session).find("400 Bad Request"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Soak workload + fuzz integration

TEST(SoakPatch, MakePatchIsDeterministicAndConsistent) {
  for (std::uint64_t index = 0; index < 10; ++index) {
    const soak::GraphCase c = soak::make_case(99, index);
    const std::uint64_t seed = soak::mix_seed(99, index ^ 0xED17ULL);
    const GraphPatch a = soak::make_patch(c.graph, seed, 3);
    const GraphPatch b = soak::make_patch(c.graph, seed, 3);
    EXPECT_EQ(a.add, b.add);
    EXPECT_EQ(a.del, b.del);
    EXPECT_LE(a.add.size() + a.del.size(), 3u);
    // Consistent by construction: apply_patch accepts it as-is.
    EXPECT_NO_THROW((void)graph::apply_patch(c.graph, a));
  }
}

TEST(SoakPatch, MalformedPatchMutationAlwaysRejected) {
  EXPECT_EQ(soak::to_string(soak::MutationKind::MalformedPatch), "malformed_patch");
  server::CoreOptions opts;
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);
  std::mt19937_64 rng(0xF00D);
  std::set<std::string> distinct;
  for (int i = 0; i < 64; ++i) {
    const std::string line = soak::mutate_line("{}", soak::MutationKind::MalformedPatch, rng);
    distinct.insert(line);
    const server::JsonValue response = server::json_parse(session.handle_line(line));
    EXPECT_FALSE(response.find("ok")->as_bool()) << line;
    const std::string code = response.find("code")->as_string();
    EXPECT_TRUE(code == "bad_request" || code == "unknown_handle") << line << " -> " << code;
  }
  EXPECT_GT(distinct.size(), 4u);  // the generator cycles through its variants
}

}  // namespace
}  // namespace lmds
