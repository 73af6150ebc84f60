// The traced run: one closed-loop client against the same servers, and for
// every request an in-process replay of what the server does with it, made
// of calls into each module's public entry points in the order
// Session::do_solve (and the router's route_solve) makes them, each wrapped
// in a span; a child longer than its parent is counted as a violation.
// Calls the server makes but whose cost a request span cannot isolate are
// re-run outside it, on traced ops only: ResponseCache::lookup before the
// request, graph::apply_patch after a patch, and on every graph the cache
// missed, Algorithm 1 whole and its stages alone, and the validity check.
//
// In each connection's stream, traced and untraced ops alternate; the
// untraced ones replay with spans off and no re-runs, and the two replay
// rates give the tracing overhead.

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "api/registry.hpp"
#include "bench.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "core/algorithm1.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/hash.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "solve/validate.hpp"

namespace perfbench {

namespace {

namespace api = lmds::api;
namespace srv = lmds::server;

class Tracer {
 public:
  bool enabled = true;
  std::map<std::string, double> total_us;
  std::uint64_t violations = 0;

  void open(const char* name) {
    if (enabled) stack_.push_back({name, Clock::now(), 0});
  }
  /// Closes the innermost span.
  void close() {
    if (!enabled) return;
    const Frame f = stack_.back();
    stack_.pop_back();
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - f.start).count();
    total_us[f.name] += us;
    if (f.child_us > us) ++violations;
    if (!stack_.empty()) stack_.back().child_us += us;
  }
  /// Adds a duration measured outside any span (a re-run's best time).
  void add(const char* name, double us) {
    if (enabled) total_us[name] += us;
  }
  void reset() { stack_.clear(); }

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    double child_us;
  };
  std::vector<Frame> stack_;
};

class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t) { t_.open(name); }
  ~Span() { t_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

int flag(const std::vector<std::string>& args, std::string_view name, int fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return std::stoi(args[i + 1]);
  }
  return fallback;
}

/// The server state a replay runs against, configured like lmds_serve.
struct Replica {
  srv::ServerLimits limits;
  api::BatchExecutor executor;
  api::GraphStore store;
  explicit Replica(const Workload& w)
      : executor(api::BatchOptions{.threads = flag(w.server_args, "--threads", 1),
                                   .shard_size = 4,
                                   .cache_capacity = static_cast<std::size_t>(
                                       flag(w.server_args, "--cache-capacity", 4096))},
                 api::Registry::instance()),
        store(static_cast<std::size_t>(flag(w.server_args, "--store-capacity", 1024))) {}
};
constexpr api::SessionId kSession = 1;

/// What the replays counted, beyond span times.
struct Counts {
  std::uint64_t lookups = 0, hits = 0;
  std::uint64_t derived = 0, incremental = 0, dirty = 0, derived_vertices = 0;
  std::uint64_t stage_graphs = 0, residual_components = 0;
  double whole_jitter_us = 0;  ///< sum of |run 1 - run 2| of the whole algorithm1 call
  int max_residual_diameter = 0;
  std::vector<std::uint64_t> per_peer;  ///< routed graphs per worker
};

/// A graph the cache missed, kept alive for the stage re-runs.
struct Missed {
  std::shared_ptr<const lmds::graph::Graph> graph;
  api::Response response;
  std::string solver;
  api::Options resolved;
};

/// A replayed request: the response line, the request span's wall time, and
/// the handling time a client would wait for (for a routed request, the
/// workers' share counts only for the slowest, as they run in parallel).
struct Replayed {
  std::string line;
  double span_us = 0;
  double handled_us = 0;
};

double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// ResponseCache::lookup re-run on each graph of a solve request before the
/// request is replayed, so it meets the cache as run_batch's own lookup will
/// (a hit only moves the entry in LRU order, as run_batch's hit does next).
/// Returns, per graph, whether it hit.
std::vector<bool> rerun_lookups(Replica& rep, Tracer& tr, std::string_view body) {
  srv::SolveRequest req =
      srv::decode_solve(srv::json_parse(body), api::Registry::instance(), rep.limits);
  std::vector<bool> hit(req.graphs.size(), false);
  if (!rep.executor.cache().enabled() || req.overrides.bypass_cache) return hit;
  const std::string key_options = api::canonical_options(
      api::Registry::instance().resolve_options(req.solver, req.request),
      req.request.measure_traffic, req.request.measure_ratio);
  for (std::size_t i = 0; i < hit.size(); ++i) {
    const auto* handle = std::get_if<std::string>(&req.graphs[i]);
    const std::uint64_t hash =
        handle ? api::GraphStore::parse_handle(*handle).value_or(0)
               : lmds::graph::graph_hash(std::get<lmds::graph::Graph>(req.graphs[i]));
    Span s(tr, "api.cache_lookup");
    hit[i] = rep.executor.cache()
                 .lookup({hash, req.solver, key_options, req.ns.value_or("")})
                 .has_value();
  }
  return hit;
}

/// Session::do_solve replayed. `hit` (from rerun_lookups, traced ops only)
/// names the graphs the cache answers; the others go to `missed`.
Replayed replay_solve(Replica& rep, Tracer& tr, std::string_view body, Counts& k,
                      std::vector<Missed>& missed, const std::vector<bool>& hit,
                      const char* span = "request") {
  const Clock::time_point t0 = Clock::now();
  tr.open(span);
  srv::JsonValue root;
  {
    Span s(tr, "server.parse");
    root = srv::json_parse(body);
  }
  srv::SolveRequest req;
  {
    Span s(tr, "server.decode");
    req = srv::decode_solve(root, api::Registry::instance(), rep.limits);
  }
  req.overrides.cache_namespace = req.ns.value_or("");
  const std::size_t n = req.graphs.size();
  std::vector<std::shared_ptr<const lmds::graph::Graph>> held;
  std::vector<const lmds::graph::Graph*> ptrs;
  std::vector<std::uint64_t> hashes(n, 0);
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages(n);
  for (srv::GraphRef& ref : req.graphs) {
    if (const auto* handle = std::get_if<std::string>(&ref)) {
      Span s(tr, "api.store_get");
      held.push_back(rep.store.get(*handle, kSession));
      if (!held.back()) throw std::runtime_error("replay: unknown handle " + *handle);
      hashes[ptrs.size()] = api::GraphStore::parse_handle(*handle).value_or(0);
      lineages[ptrs.size()] = rep.store.lineage(*handle);
    } else {
      held.push_back(std::make_shared<const lmds::graph::Graph>(
          std::move(std::get<lmds::graph::Graph>(ref))));
      Span s(tr, "graph.hash");
      hashes[ptrs.size()] = lmds::graph::graph_hash(*held.back());
    }
    ptrs.push_back(held.back().get());
  }
  std::vector<api::Response> responses;
  api::BatchDiagnostics diag;
  {
    Span s(tr, "api.executor");
    responses = rep.executor.run_batch(req.solver, {ptrs.data(), ptrs.size()}, req.request,
                                       req.overrides, &diag, {hashes.data(), n},
                                       {lineages.data(), n});
  }
  std::string line;
  {
    Span s(tr, "server.encode");
    line = srv::encode_solve_result({responses.data(), n}, diag, req.overrides.cache_namespace);
  }
  tr.close();
  const double us = us_since(t0);

  if (tr.enabled) {
    k.lookups += diag.cache_hits + diag.cache_misses;
    k.hits += diag.cache_hits;
    k.incremental += diag.incremental_solves;
    k.dirty += diag.incremental_dirty;
    const api::Options resolved =
        api::Registry::instance().resolve_options(req.solver, req.request);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < hit.size() && hit[i]) continue;
      if (lineages[i]) {
        ++k.derived;
        k.derived_vertices += static_cast<std::uint64_t>(ptrs[i]->num_vertices());
      }
      missed.push_back({held[i], responses[i], req.solver, resolved});
    }
  }
  return {std::move(line), us, us};
}

/// Algorithm 1 on a graph the cache missed, re-run outside the request: the
/// whole core::algorithm1 call, then its first three stages alone, in its
/// order (twin removal, then X and I on the twin-reduced graph). Step 3 is
/// the whole call minus the three. Both are run twice in turn and each keeps
/// its faster run, so a pause of the host in one run does not make the
/// stages look longer than the call that contains them.
void rerun_algorithm1(Tracer& tr, const lmds::graph::Graph& g, const api::Options& resolved,
                      Counts& k) {
  lmds::core::Algorithm1Config cfg;
  cfg.t = resolved.at("t").as_int();
  cfg.radius1 = resolved.at("radius1").as_int();
  cfg.radius2 = resolved.at("radius2").as_int();
  cfg.twin_removal = resolved.at("twin_removal").as_bool();

  constexpr double kUnset = 1e300;
  double twins_us = kUnset, one_cuts_us = kUnset, interesting_us = kUnset;
  double whole_us[2];
  for (int round = 0; round < 2; ++round) {
    Clock::time_point t0 = Clock::now();
    const lmds::core::Algorithm1Result whole = lmds::core::algorithm1(g, cfg);
    whole_us[round] = us_since(t0);
    if (round == 0) {
      ++k.stage_graphs;
      k.residual_components += static_cast<std::uint64_t>(whole.diag.residual_components);
      k.max_residual_diameter =
          std::max(k.max_residual_diameter, whole.diag.max_residual_diameter);
    }
    lmds::graph::TwinReduction reduction;
    const lmds::graph::Graph* reduced = &g;
    t0 = Clock::now();
    if (cfg.twin_removal) {
      reduction = lmds::graph::remove_true_twins(g);
      reduced = &reduction.reduced.graph;
    }
    twins_us = std::min(twins_us, us_since(t0));
    t0 = Clock::now();
    lmds::cuts::local_one_cuts(*reduced, cfg.effective_radius1());
    one_cuts_us = std::min(one_cuts_us, us_since(t0));
    t0 = Clock::now();
    lmds::cuts::interesting_vertices(*reduced, cfg.effective_radius2());
    interesting_us = std::min(interesting_us, us_since(t0));
  }
  tr.add("solve.algorithm1", std::min(whole_us[0], whole_us[1]));
  k.whole_jitter_us += std::abs(whole_us[0] - whole_us[1]);
  tr.add("core.twins", twins_us);
  tr.add("cuts.one_cuts", one_cuts_us);
  tr.add("cuts.interesting", interesting_us);
}

/// The router's decode + graph_hash + HashRing::owner_index + re-dump:
/// per worker, its slots and its sub-batch line ("" when it gets none).
struct Partition {
  std::vector<std::vector<std::size_t>> slots_of;
  std::vector<std::string> lines;
};
Partition partition(const srv::JsonValue& root, const lmds::cluster::HashRing& ring,
                    const srv::ServerLimits& limits) {
  const srv::JsonValue::Array& slots = root.find("graphs")->as_array();
  Partition part{std::vector<std::vector<std::size_t>>(ring.size()),
                 std::vector<std::string>(ring.size())};
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    const std::uint64_t hash = lmds::graph::graph_hash(srv::decode_graph(slots[slot], limits));
    part.slots_of[ring.owner_index(hash)].push_back(slot);
  }
  for (std::size_t p = 0; p < ring.size(); ++p) {
    if (part.slots_of[p].empty()) continue;
    srv::JsonValue::Object obj = root.as_object();
    srv::JsonValue::Array mine;
    for (std::size_t slot : part.slots_of[p]) mine.push_back(slots[slot]);
    obj.insert_or_assign("graphs", srv::JsonValue(std::move(mine)));
    part.lines[p] = srv::json_dump(srv::JsonValue(std::move(obj)));
  }
  return part;
}

/// The router's route_solve, replayed over in-process worker replicas.
Replayed replay_route(std::vector<std::unique_ptr<Replica>>& workers,
                      const lmds::cluster::HashRing& ring, Tracer& tr, std::string_view body,
                      Counts& k, std::vector<Missed>& missed) {
  // Each worker's cache lookups, re-run before the request (see rerun_lookups).
  std::vector<std::vector<bool>> hits(ring.size());
  if (tr.enabled) {
    const Partition pre = partition(srv::json_parse(body), ring, workers[0]->limits);
    for (std::size_t p = 0; p < ring.size(); ++p) {
      if (!pre.slots_of[p].empty()) hits[p] = rerun_lookups(*workers[p], tr, pre.lines[p]);
    }
  }
  const Clock::time_point t0 = Clock::now();
  tr.open("request");
  srv::JsonValue root;
  {
    Span s(tr, "server.parse");
    root = srv::json_parse(body);
  }
  Partition part;
  {
    Span s(tr, "cluster.partition");
    part = partition(root, ring, workers[0]->limits);
  }
  // The router exchanges with its workers in parallel; the replay runs them
  // one after another, so only the slowest counts towards handling time.
  std::vector<std::string> raw(ring.size());
  double workers_us = 0, slowest_us = 0;
  for (std::size_t p = 0; p < ring.size(); ++p) {
    if (part.slots_of[p].empty()) continue;
    if (tr.enabled) k.per_peer[p] += part.slots_of[p].size();
    Replayed sub =
        replay_solve(*workers[p], tr, part.lines[p], k, missed, hits[p], "cluster.worker");
    raw[p] = std::move(sub.line);
    workers_us += sub.span_us;
    slowest_us = std::max(slowest_us, sub.span_us);
  }
  std::vector<std::string_view> ordered(root.find("graphs")->as_array().size());
  {
    Span s(tr, "cluster.split");
    for (std::size_t p = 0; p < ring.size(); ++p) {
      if (part.slots_of[p].empty()) continue;
      const auto pieces = lmds::cluster::split_raw_responses(raw[p]);
      if (!pieces || pieces->size() != part.slots_of[p].size()) {
        throw std::runtime_error("replay: worker answer does not split");
      }
      for (std::size_t j = 0; j < pieces->size(); ++j) ordered[part.slots_of[p][j]] = (*pieces)[j];
    }
  }
  std::string line;
  {
    Span s(tr, "cluster.splice");
    for (std::size_t p = 0; p < ring.size(); ++p) {
      if (!part.slots_of[p].empty()) srv::json_parse(raw[p]);  // the router's diag merge
    }
    line = srv::encode_solve_result_raw({ordered.data(), ordered.size()}, {});
  }
  tr.close();
  const double us = us_since(t0);
  return {std::move(line), us, us - workers_us + slowest_us};
}

/// Patch and drop, replayed like Session::do_patch_graph / do_drop_graph.
Replayed replay_store_op(Replica& rep, Tracer& tr, const Request& r) {
  const Clock::time_point t0 = Clock::now();
  tr.open("request");
  srv::JsonValue root;
  {
    Span s(tr, "server.parse");
    root = srv::json_parse("{\"op\":\"" + r.op + "\"," + r.members + "}");
  }
  const std::string handle = root.find("handle")->as_string();
  std::string extra = "\"handle\":";
  if (r.op == "patch_graph") {
    lmds::graph::GraphPatch patch;
    {
      Span s(tr, "server.decode");
      patch = srv::decode_patch(root, rep.limits);
    }
    api::GraphStore::PatchResult result;
    {
      Span s(tr, "api.store_patch");
      result = rep.store.patch(handle, patch, kSession);
    }
    srv::json_append_string(extra, result.put.handle);
  } else {
    bool dropped = false;
    {
      Span s(tr, "api.store_drop");
      dropped = rep.store.drop(handle, kSession);
    }
    if (!dropped) throw std::runtime_error("replay: drop_graph failed");
    srv::json_append_string(extra, handle);
  }
  tr.close();
  const double us = us_since(t0);
  return {srv::encode_ok(r.op, extra), us, us};
}

/// graph::apply_patch of a patch_graph request, re-run outside the request:
/// the store's share of the patch.
void rerun_apply_patch(Replica& rep, Tracer& tr, const Request& r) {
  const srv::JsonValue root = srv::json_parse("{\"op\":\"" + r.op + "\"," + r.members + "}");
  const lmds::graph::GraphPatch patch = srv::decode_patch(root, rep.limits);
  const auto parent = rep.store.get(root.find("handle")->as_string(), kSession);
  Span s(tr, "graph.apply_patch");
  lmds::graph::apply_patch(*parent, patch);
}

}  // namespace

RunResult run_traced(const Workload& w, const Config& cfg) {
  RunResult out;
  std::vector<std::string> problems;
  const SetupData setup = make_setup(w, cfg.seed);
  Cluster live = start_cluster(w, setup, cfg, 0);
  const bool routed = w.workers > 0;

  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < std::max(1, w.workers); ++i) replicas.push_back(std::make_unique<Replica>(w));
  for (std::size_t i = 0; i < setup.graphs.size(); ++i) {
    Replica& rep = *replicas[0];
    rep.store.put(*setup.graphs[i], kSession);
    const lmds::graph::Graph* g = setup.graphs[i].get();
    const std::uint64_t hash = lmds::graph::graph_hash(*g);
    api::BatchOverrides prime;
    prime.intra_graph_threads = 4;
    for (const std::string& solver : setup.solvers) {
      rep.executor.run_batch(solver, {&g, 1}, {}, prime, nullptr, {&hash, 1});
    }
  }
  std::unique_ptr<lmds::cluster::HashRing> ring;
  std::vector<std::unique_ptr<Conn>> direct;
  if (routed) {
    ring = std::make_unique<lmds::cluster::HashRing>(live.peers);
    for (int i = 0; i < w.workers; ++i) {
      direct.push_back(std::make_unique<Conn>(live.servers[static_cast<std::size_t>(i)]->port(), false));
    }
  }
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < w.connections; ++c) {
    const bool http = c >= w.connections - w.http_connections;
    conns.push_back(std::make_unique<Conn>(http ? live.entry().http_port() : live.entry().port(), http));
  }

  Tracer tr;
  Counts k;
  k.per_peer.assign(ring ? ring->size() : 0, 0);
  std::uint64_t traced_ops = 0, untraced_ops = 0, errors = 0, busy = 0;
  double traced_s = 0, untraced_s = 0;
  std::vector<double> transport_us, hop_us;  // per traced request / routed op
  std::uint64_t bytes_in = 0, bytes_out = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; seconds_since(start) < cfg.seconds; ++i) {
    const int c = static_cast<int>(i % static_cast<std::uint64_t>(w.connections));
    const Op op = make_op(w, setup, cfg.seed, c, i / static_cast<std::uint64_t>(w.connections));
    // Each connection's stream alternates traced and untraced ops, so both
    // rates replay the same mix.
    const bool traced = (i / static_cast<std::uint64_t>(w.connections)) % 2 == 0;
    tr.enabled = traced;
    ++out.attempted;
    Conn& conn = *conns[static_cast<std::size_t>(c)];
    const std::uint64_t in0 = conn.bytes_out, out0 = conn.bytes_in;
    std::vector<Missed> missed;
    std::string answer;
    std::string bad;
    double replay_s = 0;
    try {
      for (std::size_t s = 0; s < op.steps.size() && bad.empty(); ++s) {
        const Request& step = op.steps[s];
        double direct_us = 0;
        if (routed && traced) {
          // The slowest direct sub-batch, fresh (no cache), as the router would split it.
          std::vector<std::vector<std::size_t>> mine(ring->size());
          for (std::size_t g = 0; g < op.graphs.size(); ++g) {
            mine[ring->owner_index(lmds::graph::graph_hash(*op.graphs[g]))].push_back(g);
          }
          for (std::size_t p = 0; p < mine.size(); ++p) {
            if (mine[p].empty()) continue;
            std::string graphs;
            for (std::size_t g : mine[p]) {
              graphs += (graphs.empty() ? "[" : ",") + srv::encode_graph_json(*op.graphs[g]);
            }
            const Clock::time_point t0 = Clock::now();
            const std::string sub = direct[p]->call(
                {"solve", "\"solver\":\"" + op.solver + "\",\"graphs\":" + graphs +
                              "],\"batch\":{\"no_cache\":true}"});
            direct_us = std::max(direct_us, seconds_since(t0) * 1e6);
            if (!response_ok(sub)) throw std::runtime_error("direct sub-batch failed: " + sub);
          }
        }
        const Clock::time_point t0 = Clock::now();
        std::string raw = conn.call(step);
        const double rtt_us = seconds_since(t0) * 1e6;
        if (!response_ok(raw)) {
          ++errors;
          if (error_code(raw) == "server_busy") ++busy;
          bad = step.op + " answered " + raw.substr(0, 160);
          break;
        }
        const std::string line = "{\"op\":\"" + step.op + "\"," + step.members + "}";
        Replayed replayed;
        if (step.op != "solve") {
          replayed = replay_store_op(*replicas[0], tr, step);
          if (find_string(replayed.line, "handle") != find_string(raw, "handle")) {
            bad = "replay diverged";
          }
        } else if (routed) {
          replayed = replay_route(replicas, *ring, tr, line, k, missed);
        } else {
          const std::vector<bool> hit =
              traced ? rerun_lookups(*replicas[0], tr, line) : std::vector<bool>{};
          replayed = replay_solve(*replicas[0], tr, line, k, missed, hit);
        }
        replay_s += replayed.span_us * 1e-6;
        if (step.op == "solve") {
          if (lmds::cluster::split_raw_responses(replayed.line) !=
              lmds::cluster::split_raw_responses(raw)) {
            bad = "in-process replay answered differently from the server";
          }
          answer = std::move(raw);
        }
        if (traced) {
          transport_us.push_back(rtt_us - replayed.handled_us);
          if (routed) hop_us.push_back(rtt_us - direct_us);
          if (step.op == "patch_graph") rerun_apply_patch(*replicas[0], tr, step);
        }
      }
      if (bad.empty()) bad = check_solve(op, answer);
      if (traced && bad.empty()) {
        for (const Missed& m : missed) {
          if (m.solver == "algorithm1") rerun_algorithm1(tr, *m.graph, m.resolved, k);
          Span s(tr, "solve.validate");
          if (!lmds::solve::is_dominating_set(*m.graph, m.response.solution)) bad = "invalid solution";
        }
      }
    } catch (const std::exception& e) {
      tr.reset();
      bad = e.what();
    }
    if (!bad.empty()) {
      ++out.failed;
      if (problems.size() < 5) problems.push_back(bad);
      continue;
    }
    (traced ? traced_s : untraced_s) += replay_s;
    ++(traced ? traced_ops : untraced_ops);
    if (traced) {
      bytes_in += conn.bytes_out - in0;
      bytes_out += conn.bytes_in - out0;
    }
  }

  // Lifetime counters, straight from each server's stats.
  double hits = 0, misses = 0, evictions = 0, forwards = 0;
  double store_graphs = 0, store_patches = 0;
  for (std::size_t i = 0; i < live.servers.size(); ++i) {
    const srv::JsonValue stats = srv::json_parse(live.control[i]->call({"stats", ""}));
    const auto num = [&](const char* a, const char* b) {
      const srv::JsonValue* o = stats.find(a);
      const srv::JsonValue* v = o ? o->find(b) : nullptr;
      return v ? static_cast<double>(v->as_int()) : 0.0;
    };
    hits += num("cache", "hits");
    misses += num("cache", "misses");
    evictions += num("cache", "evictions");
    store_graphs += num("store", "graphs");
    store_patches += num("store", "patches");
    if (const srv::JsonValue* r = stats.find("router")) {
      for (const auto& [peer, n] : r->find("forwards")->as_object()) forwards += static_cast<double>(n.as_int());
    }
  }
  conns.clear();
  direct.clear();
  stop_cluster(live, problems);

  const double n = std::max<double>(1, static_cast<double>(traced_ops));
  const auto per_op = [&](const char* span) { return tr.total_us[span] / n; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Metrics& m = out.metrics;
  m.set("server.transport_us", median(transport_us), "us");
  m.set("server.parse_us", per_op("server.parse"), "us");
  m.set("server.decode_us", per_op("server.decode"), "us");
  m.set("server.encode_us", per_op("server.encode"), "us");
  m.set("server.bytes_in", static_cast<double>(bytes_in) / n, "bytes");
  m.set("server.bytes_out", static_cast<double>(bytes_out) / n, "bytes");
  m.set("api.cache_lookup_us", per_op("api.cache_lookup"), "us");
  m.set("api.cache_hit_ratio", ratio(static_cast<double>(k.hits), static_cast<double>(k.lookups)), "ratio");
  m.set("api.store_get_us", per_op("api.store_get"), "us");
  m.set("api.store_patch_us", per_op("api.store_patch"), "us");
  m.set("api.store_drop_us", per_op("api.store_drop"), "us");
  m.set("graph.apply_patch_us", per_op("graph.apply_patch"), "us");
  m.set("api.incremental_ratio", ratio(static_cast<double>(k.incremental), static_cast<double>(k.derived)), "ratio");
  m.set("api.dirty_frac", ratio(static_cast<double>(k.dirty), static_cast<double>(k.derived_vertices)), "ratio");
  m.set("api.executor_us", per_op("api.executor"), "us");
  m.set("graph.hash_us", per_op("graph.hash"), "us");
  m.set("core.twins_us", per_op("core.twins"), "us");
  m.set("cuts.one_cuts_us", per_op("cuts.one_cuts"), "us");
  m.set("cuts.interesting_us", per_op("cuts.interesting"), "us");
  // Step 3: the whole algorithm1 call minus its three stages run alone. The
  // stages are children of the call in all but timing, so their sum must not
  // exceed it by more than the call's own run-to-run difference (step 3 is
  // nearly free on the in-class families, so the two are close).
  const double whole_us = tr.total_us["solve.algorithm1"];
  const double stages_us =
      tr.total_us["core.twins"] + tr.total_us["cuts.one_cuts"] + tr.total_us["cuts.interesting"];
  if (stages_us > whole_us + k.whole_jitter_us) ++tr.violations;
  m.set("solve.residual_us", (whole_us - stages_us) / n, "us");
  m.set("core.residual_components",
        ratio(static_cast<double>(k.residual_components), static_cast<double>(k.stage_graphs)), "count");
  m.set("core.max_residual_diameter", k.max_residual_diameter, "count");
  m.set("solve.validate_us", per_op("solve.validate"), "us");
  m.set("cluster.partition_us", per_op("cluster.partition"), "us");
  m.set("cluster.split_us", per_op("cluster.split"), "us");
  m.set("cluster.splice_us", per_op("cluster.splice"), "us");
  m.set("cluster.hop_us", median(hop_us), "us");
  double balance = 0;
  if (!k.per_peer.empty()) {
    const auto [lo, hi] = std::minmax_element(k.per_peer.begin(), k.per_peer.end());
    balance = ratio(static_cast<double>(*lo), static_cast<double>(*hi));
  }
  m.set("cluster.peer_balance", balance, "ratio");
  m.set("server.errors", static_cast<double>(errors), "count");
  m.set("api.busy_rejects", static_cast<double>(busy), "count");
  m.set("api.cache_hits", hits, "count");
  m.set("api.cache_misses", misses, "count");
  m.set("api.cache_evictions", evictions, "count");
  m.set("api.store_graphs", store_graphs, "count");
  m.set("api.store_patches", store_patches, "count");
  m.set("cluster.forwards", forwards, "count");
  const double traced_rate = ratio(static_cast<double>(traced_ops), traced_s);
  const double untraced_rate = ratio(static_cast<double>(untraced_ops), untraced_s);
  m.set("trace.ops_per_s", traced_rate, "1/s");
  m.set("trace.untraced_ops_per_s", untraced_rate, "1/s");
  m.set("trace.overhead", ratio(untraced_rate, traced_rate), "ratio");
  m.set("trace.span_violations", static_cast<double>(tr.violations), "count");

  out.notes.push_back("traced " + std::to_string(traced_ops) + " ops, untraced " +
                      std::to_string(untraced_ops) + "; per-layer values are per traced op");
  if (k.stage_graphs > 0) {
    out.notes.push_back("Algorithm 1 re-run on " + std::to_string(k.stage_graphs) + " graphs: " +
                        std::to_string(whole_us / 1e3) + " ms whole, " +
                        std::to_string(stages_us / 1e3) + " ms in its three stages; its two " +
                        "runs differ by " + std::to_string(k.whole_jitter_us / 1e3) + " ms");
  }
  if (tr.violations) problems.push_back("a child span (or Algorithm 1's stages) exceeded its parent");
  for (const std::string& p : problems) out.notes.push_back("FAIL " + p);
  out.correct = out.failed == 0 && problems.empty();
  if (out.attempted == 0) out.attempted = 1, out.failed = 1, out.correct = false;
  return out;
}

}  // namespace perfbench
