#include "server/protocol.hpp"

#include <charconv>
#include <limits>

#include "graph/builder.hpp"

namespace lmds::server {

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::UnknownSolver: return "unknown_solver";
    case ErrorCode::UnknownHandle: return "unknown_handle";
    case ErrorCode::SolverFailure: return "solver_failure";
    case ErrorCode::IoError: return "io_error";
    case ErrorCode::ServerBusy: return "server_busy";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw ProtocolError(ErrorCode::BadRequest, what);
}

int int_field(const JsonValue& v, std::string_view what) {
  std::int64_t value = 0;
  try {
    value = v.as_int();
  } catch (const JsonError& e) {
    bad_request(std::string(what) + ": " + e.what());
  }
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    bad_request(std::string(what) + ": " + std::to_string(value) + " out of int range");
  }
  return static_cast<int>(value);
}

}  // namespace

graph::Graph decode_graph(const JsonValue& v, const ServerLimits& limits) {
  if (v.type() != JsonValue::Type::Object) bad_request("graph must be an object");
  const JsonValue* edges = v.find("edges");
  if (!edges) bad_request("graph has no \"edges\" array");
  if (edges->type() != JsonValue::Type::Array) bad_request("\"edges\" must be an array");

  int declared_n = -1;
  if (const JsonValue* n = v.find("n")) {
    declared_n = int_field(*n, "graph \"n\"");
    if (declared_n < 0) bad_request("graph \"n\" must be >= 0");
    if (declared_n > limits.max_graph_vertices) {
      bad_request("graph too large: n=" + std::to_string(declared_n) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
  }

  graph::GraphBuilder builder(declared_n >= 0 ? declared_n : 0);
  for (const JsonValue& e : edges->as_array()) {
    if (e.type() != JsonValue::Type::Array || e.as_array().size() != 2) {
      bad_request("each edge must be a [u, v] pair");
    }
    const int u = int_field(e.as_array()[0], "edge endpoint");
    const int w = int_field(e.as_array()[1], "edge endpoint");
    if (u < 0 || w < 0) bad_request("edge endpoints must be >= 0");
    const int hi = std::max(u, w);
    if (declared_n >= 0 && hi >= declared_n) {
      bad_request("edge endpoint " + std::to_string(hi) + " outside [0, n=" +
                  std::to_string(declared_n) + ")");
    }
    if (hi >= limits.max_graph_vertices) {
      bad_request("graph too large: endpoint " + std::to_string(hi) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
    if (u == w) bad_request("self-loop at vertex " + std::to_string(u));
    builder.add_edge(u, w);
  }
  return builder.build();
}

graph::GraphPatch decode_patch(const JsonValue& root, const ServerLimits& limits) {
  graph::GraphPatch patch;
  const auto decode_edits = [&](const char* field, std::vector<graph::Edge>& out_edges) {
    const JsonValue* list = root.find(field);
    if (!list) return false;
    if (list->type() != JsonValue::Type::Array) {
      bad_request("patch \"" + std::string(field) + "\" must be an array of [u, v] pairs");
    }
    for (const JsonValue& e : list->as_array()) {
      if (e.type() != JsonValue::Type::Array || e.as_array().size() != 2) {
        bad_request("each patch edge must be a [u, v] pair");
      }
      const int u = int_field(e.as_array()[0], "patch edge endpoint");
      const int w = int_field(e.as_array()[1], "patch edge endpoint");
      if (u < 0 || w < 0) bad_request("patch edge endpoints must be >= 0");
      if (u == w) {
        bad_request("patch self-loop at vertex " + std::to_string(u) + " in \"" +
                    std::string(field) + "\"");
      }
      if (std::max(u, w) >= limits.max_graph_vertices) {
        bad_request("patch too large: endpoint " + std::to_string(std::max(u, w)) +
                    " exceeds limit " + std::to_string(limits.max_graph_vertices));
      }
      out_edges.push_back({std::min(u, w), std::max(u, w)});
    }
    return true;
  };
  bool any = decode_edits("add", patch.add);
  any = decode_edits("del", patch.del) || any;
  if (const JsonValue* n = root.find("n")) {
    any = true;
    patch.n = int_field(*n, "patch \"n\"");
    if (patch.n < 0) bad_request("patch \"n\" must be >= 0");
    if (patch.n > limits.max_graph_vertices) {
      bad_request("patch too large: n=" + std::to_string(patch.n) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
  }
  if (!any) bad_request("patch_graph needs at least one of \"add\", \"del\", \"n\"");
  return patch;
}

std::string decode_namespace(const JsonValue& v, const ServerLimits& limits) {
  if (v.type() != JsonValue::Type::String) bad_request("\"namespace\" must be a string");
  const std::string& ns = v.as_string();
  if (ns.size() > limits.max_namespace_bytes) {
    bad_request("namespace too long: " + std::to_string(ns.size()) + " bytes exceeds limit " +
                std::to_string(limits.max_namespace_bytes));
  }
  for (const char c : ns) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7F) {
      bad_request("namespace must not contain control characters");
    }
  }
  return ns;
}

SolveRequest decode_solve(const JsonValue& root, const api::Registry& registry,
                          const ServerLimits& limits) {
  SolveRequest out;
  const JsonValue* solver = root.find("solver");
  if (!solver || solver->type() != JsonValue::Type::String) {
    bad_request("solve request needs a string \"solver\" field");
  }
  out.solver = solver->as_string();
  if (!registry.find(out.solver)) {
    throw ProtocolError(ErrorCode::UnknownSolver,
                        "unknown solver '" + out.solver + "' (try {\"op\":\"solvers\"})");
  }

  if (const JsonValue* options = root.find("options")) {
    if (options->type() != JsonValue::Type::Object) {
      bad_request("\"options\" must be an object");
    }
    for (const auto& [name, value] : options->as_object()) {
      switch (value.type()) {
        case JsonValue::Type::Bool: out.request.options[name] = value.as_bool(); break;
        case JsonValue::Type::Int:
          out.request.options[name] = int_field(value, "option \"" + name + "\"");
          break;
        case JsonValue::Type::Double: out.request.options[name] = value.as_double(); break;
        default:
          bad_request("option \"" + name + "\" must be a number or bool, got " +
                      std::string(to_string(value.type())));
      }
    }
  }
  if (const JsonValue* flag = root.find("measure_traffic")) {
    if (flag->type() != JsonValue::Type::Bool) bad_request("\"measure_traffic\" must be a bool");
    out.request.measure_traffic = flag->as_bool();
  }
  if (const JsonValue* flag = root.find("measure_ratio")) {
    if (flag->type() != JsonValue::Type::Bool) bad_request("\"measure_ratio\" must be a bool");
    out.request.measure_ratio = flag->as_bool();
  }

  // Per-request executor overrides (protocol v2). Limits are enforced here,
  // at decode time, so a rejected override never reaches the worker pool.
  if (const JsonValue* batch = root.find("batch")) {
    if (batch->type() != JsonValue::Type::Object) bad_request("\"batch\" must be an object");
    for (const auto& [name, value] : batch->as_object()) {
      if (name == "threads") {
        const int threads = int_field(value, "batch \"threads\"");
        if (threads < 1 || threads > limits.max_request_threads) {
          bad_request("batch \"threads\" must be in [1, " +
                      std::to_string(limits.max_request_threads) + "]");
        }
        out.overrides.threads = threads;
      } else if (name == "intra_threads") {
        const int intra = int_field(value, "batch \"intra_threads\"");
        if (intra < 1 || intra > limits.max_request_threads) {
          bad_request("batch \"intra_threads\" must be in [1, " +
                      std::to_string(limits.max_request_threads) + "]");
        }
        out.overrides.intra_graph_threads = intra;
      } else if (name == "shard_size") {
        const int shard = int_field(value, "batch \"shard_size\"");
        if (shard < 1 || shard > (1 << 20)) {
          bad_request("batch \"shard_size\" must be in [1, 1048576]");
        }
        out.overrides.shard_size = shard;
      } else if (name == "no_cache") {
        if (value.type() != JsonValue::Type::Bool) {
          bad_request("batch \"no_cache\" must be a bool");
        }
        out.overrides.bypass_cache = value.as_bool();
      } else {
        bad_request("unknown batch override \"" + name +
                    "\" (expected threads, intra_threads, shard_size, no_cache)");
      }
    }
  }
  if (const JsonValue* ns = root.find("namespace")) {
    out.ns = decode_namespace(*ns, limits);
  }

  const JsonValue* graphs = root.find("graphs");
  if (!graphs || graphs->type() != JsonValue::Type::Array) {
    bad_request("solve request needs a \"graphs\" array");
  }
  if (graphs->as_array().size() > limits.max_batch_graphs) {
    bad_request("batch too large: " + std::to_string(graphs->as_array().size()) +
                " graphs exceeds limit " + std::to_string(limits.max_batch_graphs));
  }
  out.graphs.reserve(graphs->as_array().size());
  for (const JsonValue& g : graphs->as_array()) {
    if (g.type() == JsonValue::Type::String) {
      // v2: a graph-store handle. Shape-check now so an obvious typo fails
      // as bad_request, not as a handle that could never exist.
      const std::string& handle = g.as_string();
      if (!api::GraphStore::parse_handle(handle)) {
        bad_request("\"" + handle +
                    "\" is not a graph handle (expected \"g\" + 16 hex digits)");
      }
      out.graphs.emplace_back(handle);
    } else {
      out.graphs.emplace_back(decode_graph(g, limits));
    }
  }
  return out;
}

std::string encode_graph_json(const graph::Graph& g) {
  std::string out = "{\"n\":" + std::to_string(g.num_vertices()) + ",\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
  }
  out += "]}";
  return out;
}

std::string encode_patch_members(const graph::GraphPatch& patch) {
  const auto append_edges = [](std::string& out, const std::vector<graph::Edge>& edges) {
    out += '[';
    bool first = true;
    for (const auto& [u, v] : edges) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
    }
    out += ']';
  };
  std::string out = "\"add\":";
  append_edges(out, patch.add);
  out += ",\"del\":";
  append_edges(out, patch.del);
  if (patch.n >= 0) out += ",\"n\":" + std::to_string(patch.n);
  return out;
}

std::string encode_error(ErrorCode code, std::string_view message) {
  std::string out = "{\"ok\":false,\"code\":";
  json_append_string(out, to_string(code));
  out += ",\"error\":";
  json_append_string(out, message);
  out += '}';
  return out;
}

namespace {

void append_vertices(std::string& out, const std::vector<api::Vertex>& vs) {
  // Reserved once for the longest case (11 characters and a comma per id);
  // the digits go through a stack buffer, so only what is written is
  // touched and the unused tail of the reservation never becomes resident.
  out.reserve(out.size() + 2 + 12 * vs.size());
  out += '[';
  char buf[4096];
  char* p = buf;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (buf + sizeof buf - p < 12) {
      out.append(buf, p);
      p = buf;
    }
    if (i) *p++ = ',';
    p = std::to_chars(p, buf + sizeof buf, vs[i]).ptr;
  }
  out.append(buf, p);
  out += ']';
}

void append_response(std::string& out, const api::Response& r) {
  out += "{\"solver\":";
  json_append_string(out, r.solver);
  out += ",\"problem\":";
  json_append_string(out, to_string(r.problem));
  out += ",\"solution\":";
  append_vertices(out, r.solution);
  out += ",\"valid\":";
  out += r.valid ? "true" : "false";
  out += ",\"rounds\":";
  out += std::to_string(r.diag.rounds);
  if (r.diag.traffic_measured) {
    out += ",\"traffic\":{\"rounds\":" + std::to_string(r.diag.traffic.rounds) +
           ",\"messages\":" + std::to_string(r.diag.traffic.messages) +
           ",\"bytes\":" + std::to_string(r.diag.traffic.bytes) + '}';
  }
  if (r.ratio_measured) {
    out += ",\"ratio\":{\"solution_size\":" + std::to_string(r.ratio.solution_size) +
           ",\"reference\":" + std::to_string(r.ratio.reference) + ",\"exact\":";
    out += r.ratio.exact ? "true" : "false";
    out += ",\"ratio\":";
    json_append_double(out, r.ratio.ratio);
    out += '}';
  }
  out += '}';
}

// Everything after the "responses" array — shared by the local and the
// routed (raw-splice) encoder so the two cannot drift: a routed line's tail
// is byte-for-byte the tail a single server would emit for the same merged
// diagnostics.
void append_solve_tail(std::string& out, const api::BatchDiagnostics& diag,
                       std::string_view ns) {
  out += "],";
  if (!ns.empty()) {
    // Echoed so a client multiplexing namespaces can match responses; absent
    // for the default namespace, keeping v1 responses byte-identical.
    out += "\"namespace\":";
    json_append_string(out, ns);
    out += ',';
  }
  out += "\"diag\":{\"threads\":" + std::to_string(diag.threads);
  if (diag.intra_threads > 1) {
    // Emitted only when intra-graph sharding was actually on — keeps every
    // single-threaded response line byte-identical to pre-intra clients.
    out += ",\"intra_threads\":" + std::to_string(diag.intra_threads);
  }
  out += ",\"shards\":" + std::to_string(diag.shards) +
         ",\"stolen_shards\":" + std::to_string(diag.stolen_shards) +
         ",\"cache_hits\":" + std::to_string(diag.cache_hits) +
         ",\"cache_misses\":" + std::to_string(diag.cache_misses) +
         ",\"cache_evictions\":" + std::to_string(diag.cache_evictions);
  if (diag.incremental_solves || diag.incremental_fallbacks) {
    // Only for batches that actually carried lineage — keeps every pre-v2.1
    // response line byte-identical.
    out += ",\"incremental_solves\":" + std::to_string(diag.incremental_solves) +
           ",\"incremental_fallbacks\":" + std::to_string(diag.incremental_fallbacks) +
           ",\"incremental_dirty\":" + std::to_string(diag.incremental_dirty);
  }
  out += "}}";
}

}  // namespace

std::string encode_solve_result(std::span<const api::Response> responses,
                                const api::BatchDiagnostics& diag, std::string_view ns) {
  std::string out = "{\"ok\":true,\"op\":\"solve\",\"responses\":[";
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (i) out += ',';
    append_response(out, responses[i]);
  }
  append_solve_tail(out, diag, ns);
  return out;
}

std::string encode_solve_result_raw(std::span<const std::string_view> raw_responses,
                                    const api::BatchDiagnostics& diag,
                                    std::string_view ns) {
  std::string out = "{\"ok\":true,\"op\":\"solve\",\"responses\":[";
  for (std::size_t i = 0; i < raw_responses.size(); ++i) {
    if (i) out += ',';
    out += raw_responses[i];
  }
  append_solve_tail(out, diag, ns);
  return out;
}

std::string encode_solvers(const api::Registry& registry) {
  std::string out = "{\"ok\":true,\"op\":\"solvers\",\"solvers\":[";
  bool first_spec = true;
  for (const api::SolverSpec* spec : registry.specs()) {
    if (!first_spec) out += ',';
    first_spec = false;
    out += "{\"name\":";
    json_append_string(out, spec->name);
    out += ",\"problem\":";
    json_append_string(out, to_string(spec->problem));
    out += ",\"modes\":[";
    for (std::size_t i = 0; i < spec->modes.size(); ++i) {
      if (i) out += ',';
      json_append_string(out, to_string(spec->modes[i]));
    }
    out += "],\"summary\":";
    json_append_string(out, spec->summary);
    out += ",\"params\":[";
    for (std::size_t i = 0; i < spec->params.size(); ++i) {
      const api::ParamSpec& p = spec->params[i];
      if (i) out += ',';
      out += "{\"name\":";
      json_append_string(out, p.name);
      out += ",\"type\":";
      json_append_string(out, to_string(p.type()));
      out += ",\"default\":";
      switch (p.type()) {
        case api::ParamValue::Type::Int:
          out += std::to_string(p.default_value.as_int());
          break;
        case api::ParamValue::Type::Bool:
          out += p.default_value.as_bool() ? "true" : "false";
          break;
        case api::ParamValue::Type::Double:
          json_append_double(out, p.default_value.as_double());
          break;
      }
      out += ",\"description\":";
      json_append_string(out, p.description);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string encode_stats(const api::CacheStats& cache,
                         const std::map<std::string, api::NamespaceStats>& namespaces,
                         const api::GraphStoreStats& store,
                         const api::ExecutorHealth& executor, const ServerCounters& server,
                         double uptime_seconds) {
  std::string out = "{\"ok\":true,\"op\":\"stats\",\"cache\":{\"hits\":" +
                    std::to_string(cache.hits) + ",\"misses\":" + std::to_string(cache.misses) +
                    ",\"evictions\":" + std::to_string(cache.evictions) +
                    ",\"size\":" + std::to_string(cache.size) +
                    ",\"capacity\":" + std::to_string(cache.capacity) + "}";
  out += ",\"namespaces\":{";
  bool first = true;
  for (const auto& [ns, s] : namespaces) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, ns);  // "" is the default namespace
    out += ":{\"hits\":" + std::to_string(s.hits) + ",\"misses\":" + std::to_string(s.misses) +
           ",\"evictions\":" + std::to_string(s.evictions) +
           ",\"size\":" + std::to_string(s.size) + "}";
  }
  out += "},\"store\":{\"graphs\":" + std::to_string(store.size) +
         ",\"pinned\":" + std::to_string(store.pinned) +
         ",\"capacity\":" + std::to_string(store.capacity) +
         ",\"puts\":" + std::to_string(store.puts) +
         ",\"patches\":" + std::to_string(store.patches) +
         ",\"reuses\":" + std::to_string(store.reuses) +
         ",\"drops\":" + std::to_string(store.drops) +
         ",\"evictions\":" + std::to_string(store.evictions);
  // Multi-tenancy visibility (pin leases + namespace byte accounting).
  // Emitted only when the feature left a trace, so every stats line from a
  // server not using leases/quotas stays byte-identical to before.
  if (store.lease_expiries) {
    out += ",\"lease_expiries\":" + std::to_string(store.lease_expiries);
  }
  if (store.quota_rejections) {
    out += ",\"quota_rejections\":" + std::to_string(store.quota_rejections);
  }
  if (!store.namespace_bytes.empty()) {
    out += ",\"namespace_bytes\":{";
    bool first_ns = true;
    for (const auto& [ns, bytes] : store.namespace_bytes) {
      if (!first_ns) out += ',';
      first_ns = false;
      json_append_string(out, ns);
      out += ':' + std::to_string(bytes);
    }
    out += '}';
  }
  if (!store.session_pins.empty()) {
    out += ",\"session_pins\":{";
    bool first_session = true;
    for (const auto& [session, pins] : store.session_pins) {
      if (!first_session) out += ',';
      first_session = false;
      // Session ids are numeric but JSON keys are strings; 0 is the shared
      // (anonymous, legacy) session.
      json_append_string(out, std::to_string(session));
      out += ':' + std::to_string(pins);
    }
    out += '}';
  }
  out += "}";
  out += ",\"executor\":{\"batches_started\":" + std::to_string(executor.batches_started) +
         ",\"batches_in_flight\":" + std::to_string(executor.batches_in_flight) +
         ",\"shards_executed\":" + std::to_string(executor.shards_executed) +
         ",\"solves_served\":" + std::to_string(executor.solves_served) + "}";
  out += ",\"server\":{\"connections\":" + std::to_string(server.connections) +
         ",\"rejected_connections\":" + std::to_string(server.rejected) +
         ",\"requests\":" + std::to_string(server.requests) +
         ",\"graphs_solved\":" + std::to_string(server.graphs_solved) +
         ",\"uptime_seconds\":";
  json_append_double(out, uptime_seconds);
  out += "}}";
  return out;
}

std::string encode_ok(std::string_view op, std::string_view extra_members) {
  std::string out = "{\"ok\":true,\"op\":";
  json_append_string(out, op);
  if (!extra_members.empty()) {
    out += ',';
    out += extra_members;
  }
  out += '}';
  return out;
}

}  // namespace lmds::server
