// The served run: real lmds_serve processes, one closed-loop client,
// end-to-end metrics, and the correctness and drain checks.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "graph/hash.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "solve/bounds.hpp"
#include "solve/validate.hpp"

namespace perfbench {

namespace {

using lmds::server::JsonValue;

std::string require_ok(Conn& conn, const Request& r, const std::string& what) {
  std::string raw = conn.call(r);
  if (!response_ok(raw)) throw std::runtime_error(what + " failed: " + raw.substr(0, 200));
  return raw;
}

/// The verbatim response objects of a solve line ("responses" array).
std::vector<std::string> response_objects(const std::string& raw) {
  const auto pieces = lmds::cluster::split_raw_responses(raw);
  if (!pieces) return {};
  return {pieces->begin(), pieces->end()};
}

const JsonValue* path(const JsonValue& v, std::initializer_list<const char*> keys) {
  const JsonValue* at = &v;
  for (const char* k : keys) {
    if (!at || at->type() != JsonValue::Type::Object) return nullptr;
    at = at->find(k);
  }
  return at;
}

bool port_free(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);  // as lmds_serve binds
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const bool ok = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  ::close(fd);
  return ok;
}

/// Worker ports for a router. The ring is keyed on "127.0.0.1:<port>", so
/// ephemeral ports would give each run another split of the graphs between
/// the workers. Instead take the first free ports from a fixed list (below
/// the kernel's ephemeral range) whose ring, at the router's default vnodes,
/// splits the key space evenly: every run gets the same split, and a busy
/// port only swaps in another even one. The list is worked out on the first
/// call (one workload, so one worker count, per process).
std::vector<int> worker_ports(int workers) {
  static const std::vector<std::vector<int>> lists = [workers] {
    constexpr int kBase = 27200;
    std::vector<std::vector<int>> even;
    for (int k = 0; even.size() < 8 && k < 1000; ++k) {
      std::vector<int> ports;
      std::vector<std::string> peers;
      for (int i = 0; i < workers; ++i) {
        ports.push_back(kBase + k * workers + i);
        peers.push_back("127.0.0.1:" + std::to_string(ports.back()));
      }
      const lmds::cluster::HashRing ring(peers, lmds::cluster::RouterOptions{}.vnodes);
      std::vector<std::uint64_t> owned(peers.size(), 0);
      for (std::uint64_t key = 0; key < (1 << 14); ++key) {
        ++owned[ring.owner_index(lmds::graph::mix64(key))];
      }
      const auto [lo, hi] = std::minmax_element(owned.begin(), owned.end());
      if (static_cast<double>(*lo) >= 0.97 * static_cast<double>(*hi)) even.push_back(ports);
    }
    return even;
  }();
  for (const std::vector<int>& ports : lists) {
    if (std::all_of(ports.begin(), ports.end(), port_free)) return ports;
  }
  throw std::runtime_error("no free worker ports with an even ring split");
}

}  // namespace

std::string check_solve(const Op& op, const std::string& raw) {
  if (!response_ok(raw)) return "solve answered " + raw.substr(0, 160);
  const std::vector<std::vector<int>> sols = solutions(raw);
  if (sols.size() != op.graphs.size()) return "solve answered the wrong number of responses";
  if (raw.find("\"valid\":false") != std::string::npos) return "server flagged a solution invalid";
  for (std::size_t i = 0; i < sols.size(); ++i) {
    const Graph& g = *op.graphs[i];
    for (int v : sols[i]) {
      if (v < 0 || v >= g.num_vertices()) return "solution vertex out of range";
    }
    if (!lmds::solve::is_dominating_set(g, sols[i])) return "solution does not dominate";
  }
  return {};
}

Cluster start_cluster(const Workload& w, const SetupData& setup, const Config& cfg, int index) {
  Cluster c;
  const std::string tag = "s" + std::to_string(index);
  const std::vector<int> ports = w.workers > 0 ? worker_ports(w.workers) : std::vector<int>{};
  for (int i = 0; i < w.workers; ++i) {
    c.servers.push_back(std::make_unique<ServerProc>(cfg.serve_binary, cfg.work_dir,
                                                     tag + "w" + std::to_string(i),
                                                     w.server_args, false,
                                                     ports[static_cast<std::size_t>(i)]));
    c.peers.push_back("127.0.0.1:" + std::to_string(c.servers.back()->port()));
  }
  std::vector<std::string> args = w.server_args;
  if (w.workers > 0) {
    args.push_back("--router");
    for (const std::string& p : c.peers) args.insert(args.end(), {"--peer", p});
  }
  c.servers.push_back(std::make_unique<ServerProc>(cfg.serve_binary, cfg.work_dir, tag + "e",
                                                   args, w.http_connections > 0));
  for (const auto& s : c.servers) c.control.push_back(std::make_unique<Conn>(s->port(), false));

  Conn& control = *c.control.back();
  for (std::size_t i = 0; i < setup.graphs.size(); ++i) {
    const std::string raw = require_ok(
        control, {"put_graph", "\"graph\":" + lmds::server::encode_graph_json(*setup.graphs[i])},
        "put_graph");
    if (find_string(raw, "handle") != setup.handles[i]) {
      throw std::runtime_error("put_graph returned an unexpected handle");
    }
    ++c.setup_pins;
    for (const std::string& solver : setup.solvers) {
      Op prime;
      prime.graphs = {setup.graphs[i]};
      const std::string solve = require_ok(
          control,
          {"solve", "\"solver\":\"" + solver + "\",\"graphs\":[\"" + setup.handles[i] +
                        "\"]"},
          "priming solve");
      if (const std::string bad = check_solve(prime, solve); !bad.empty()) {
        throw std::runtime_error("priming " + solver + ": " + bad);
      }
    }
  }
  return c;
}

void stop_cluster(Cluster& c, std::vector<std::string>& why) {
  // Drain: no batch in flight, and exactly the setup's pins left (on the
  // entry server, held by its control session). Closed client connections
  // release their sessions asynchronously, so poll briefly.
  for (std::size_t i = 0; i < c.servers.size(); ++i) {
    const bool entry = i + 1 == c.servers.size();
    const std::uint64_t want = entry ? c.setup_pins : 0;
    std::string last;
    bool drained = false;
    for (int attempt = 0; attempt < 100 && !drained; ++attempt) {
      if (attempt) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const JsonValue stats = lmds::server::json_parse(c.control[i]->call({"stats", ""}));
      const JsonValue* inflight = path(stats, {"executor", "batches_in_flight"});
      const JsonValue* pinned = path(stats, {"store", "pinned"});
      std::uint64_t pins = 0;
      if (const JsonValue* sp = path(stats, {"store", "session_pins"})) {
        for (const auto& [sid, n] : sp->as_object()) pins += static_cast<std::uint64_t>(n.as_int());
      }
      drained = inflight && inflight->as_int() == 0 && pinned &&
                static_cast<std::uint64_t>(pinned->as_int()) == want && pins == want;
      last = "in flight " + std::to_string(inflight ? inflight->as_int() : -1) + ", pinned " +
             std::to_string(pinned ? pinned->as_int() : -1) + ", session pins " +
             std::to_string(pins) + ", expected " + std::to_string(want);
    }
    if (!drained) why.push_back("drain check failed on server " + std::to_string(i) + ": " + last);
  }
  c.control.clear();
  for (auto it = c.servers.rbegin(); it != c.servers.rend(); ++it) {  // router first
    if (!(*it)->shutdown(20000)) why.push_back("a server did not exit 0 on shutdown");
  }
  c.servers.clear();
}

namespace {

/// One measured op: when it completed (seconds from the start) and how long it took.
struct Sample {
  double done_s;
  double ms;
};

/// The verification-prefix extras: bit-identity invariants for this shape.
std::string verify(const Workload& w, const Op& op, Conn& conn, int worker_port,
                   const std::string& answer) {
  const Request& solve = op.steps[op.solve_step];
  const std::vector<std::string> got = response_objects(answer);
  std::vector<std::pair<std::string, std::string>> pairs;  // (invariant, raw)
  switch (w.kind) {
    case Kind::SolveCold:
      pairs.push_back({"cache hit == first solve", conn.call(solve)});
      pairs.push_back({"fresh solve == first solve", conn.call(with_batch(solve, "\"no_cache\":true"))});
      if (find_int(pairs[0].second, "cache_hits") != static_cast<long long>(op.graphs.size())) {
        return "repeated solve was not answered from cache";
      }
      break;
    case Kind::HandleHot:
      if (find_int(answer, "cache_hits") != 1) return "primed handle solve missed the cache";
      pairs.push_back({"cache hit == fresh solve", conn.call(with_batch(solve, "\"no_cache\":true"))});
      break;
    case Kind::PatchChurn:
      if (find_int(answer, "incremental_solves") != 1) return "child solve was not incremental";
      pairs.push_back({"incremental == full solve",
                       conn.call(with_batch(solve, "\"no_cache\":true"))});
      break;
    case Kind::RoutedInline: {
      Conn direct(worker_port, false);
      pairs.push_back({"routed == single-server batch",
                       direct.call(with_batch(solve, "\"no_cache\":true"))});
      pairs.push_back({"routed fresh == routed first", conn.call(with_batch(solve, "\"no_cache\":true"))});
      break;
    }
  }
  for (const auto& [invariant, raw] : pairs) {
    if (!response_ok(raw)) return invariant + ": " + raw.substr(0, 160);
    if (response_objects(raw) != got) return "bit-identity broken: " + invariant;
  }
  return {};
}

/// The served router's partition: sub-batches it forwarded to each worker
/// (router stats) and graphs each worker solved (its executor stats; set-up
/// and verification included).
std::string router_balance(Cluster& c) {
  const JsonValue router = lmds::server::json_parse(c.control.back()->call({"stats", ""}));
  std::string note = "router forwards per worker:";
  if (const JsonValue* f = path(router, {"router", "forwards"})) {
    for (const auto& [peer, n] : f->as_object()) note += " " + std::to_string(n.as_int());
  }
  note += "; graphs solved per worker:";
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i + 1 < c.servers.size(); ++i) {
    const JsonValue stats = lmds::server::json_parse(c.control[i]->call({"stats", ""}));
    const JsonValue* n = path(stats, {"executor", "solves_served"});
    const double v = n ? static_cast<double>(n->as_int()) : 0;
    lo = i == 0 ? v : std::min(lo, v);
    hi = std::max(hi, v);
    note += " " + std::to_string(n ? n->as_int() : 0);
  }
  return note + " (balance " + std::to_string(hi > 0 ? lo / hi : 0) + ")";
}

}  // namespace

RunResult run_served(const Workload& w, const Config& cfg) {
  RunResult out;
  const SetupData setup = make_setup(w, cfg.seed);
  std::vector<std::string> problems;

  // Set up three times, and keep repeating a cheap set-up (up to 25 times
  // within about a second) so its median is not one scheduler hiccup.
  std::vector<double> setup_s;
  double setup_total = 0;
  Cluster live;
  if (w.workers > 0) worker_ports(w.workers);  // works out the port list before timing

  for (int k = 0;; ++k) {
    const Clock::time_point t0 = Clock::now();
    Cluster c = start_cluster(w, setup, cfg, k);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
    if (k + 1 >= 3 && (k + 1 >= 25 || setup_total > 1.0)) {
      live = std::move(c);
      break;
    }
    stop_cluster(c, problems);
  }

  const int entry_port = live.entry().port();
  const int http_port = live.entry().http_port();
  const int worker_port = w.workers > 0 ? live.servers.front()->port() : -1;

  // One client thread drives every connection in turn: op i goes out on
  // connection i % connections as that connection's op i / connections (the
  // order the traced run replays). The first verify_ops ops of each
  // connection are the verification prefix; the timed window follows them.
  const auto conns = static_cast<std::uint64_t>(w.connections);
  const std::uint64_t prefix_ops = conns * static_cast<std::uint64_t>(w.verify_ops);
  std::vector<Sample> samples;
  std::vector<double> ratios;
  std::uint64_t busy = 0;
  std::vector<std::string> failures;
  const auto fail = [&](std::uint64_t c, const std::string& why) {
    ++out.failed;
    if (failures.size() < 3) failures.push_back("client " + std::to_string(c) + ": " + why);
  };
  std::map<std::string, std::string> validated;  // connection + request members -> answer
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start;
  try {
    std::vector<std::unique_ptr<Conn>> clients;
    for (int c = 0; c < w.connections; ++c) {
      const bool http = c >= w.connections - w.http_connections;
      clients.push_back(std::make_unique<Conn>(http ? http_port : entry_port, http));
    }
    for (std::uint64_t i = 0;; ++i) {
      const bool prefix = i < prefix_ops;
      if (i == prefix_ops) {
        start = Clock::now();
        deadline = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));
      }
      const std::uint64_t c = i % conns;
      Conn& conn = *clients[c];
      const Op op = make_op(w, setup, cfg.seed, static_cast<int>(c), i / conns);
      if (!prefix && Clock::now() >= deadline) break;
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      std::string answer;
      std::string bad;
      for (std::size_t s = 0; s < op.steps.size() && bad.empty(); ++s) {
        std::string raw = conn.call(op.steps[s]);
        if (!response_ok(raw)) {
          if (error_code(raw) == "server_busy") ++busy;
          bad = op.steps[s].op + " answered " + raw.substr(0, 160);
        } else if (op.steps[s].op == "patch_graph" &&
                   find_string(raw, "handle") != op.child_handle) {
          bad = "patch_graph returned an unexpected child handle";
        } else if (s == op.solve_step) {
          answer = std::move(raw);
          if (prefix) bad = verify(w, op, conn, worker_port, answer);
        }
      }
      const double ms = seconds_since(t0) * 1000;
      const double done = prefix ? 0 : std::chrono::duration<double>(Clock::now() - start).count();
      if (bad.empty()) {
        // handle-hot answers are cache hits: a byte-identical repeat of an
        // answer already checked for the same request is valid too, so the
        // client spends a compare, not a domination check, per op.
        const std::string key = std::to_string(c) + op.steps[0].members;
        const auto seen = validated.find(key);
        if (seen == validated.end() || seen->second != answer) {
          bad = check_solve(op, answer);
          if (bad.empty() && w.kind == Kind::HandleHot) validated.insert_or_assign(key, answer);
        }
      }
      if (!bad.empty()) {
        fail(c, bad);
        continue;
      }
      if (prefix) {
        const std::vector<std::vector<int>> sols = solutions(answer);
        for (std::size_t g = 0; g < sols.size(); ++g) {
          const int lb = lmds::solve::mds_lower_bound(*op.graphs[g]);
          ratios.push_back(static_cast<double>(sols[g].size()) / std::max(lb, 1));
        }
      } else {
        samples.push_back({done, ms});
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    failures.push_back(std::string("client aborted: ") + e.what());
  }
  problems.insert(problems.end(), failures.begin(), failures.end());
  double rss = 0;
  for (const auto& s : live.servers) rss += s->peak_rss_mb();
  if (w.workers > 0) out.notes.push_back(router_balance(live));
  stop_cluster(live, problems);

  // Whole run: completed ops over the time until the last one completed,
  // and the latency percentiles of all of them.
  double elapsed = cfg.seconds;
  std::vector<double> ms;
  for (const Sample& x : samples) {
    elapsed = std::max(elapsed, x.done_s);
    ms.push_back(x.ms);
  }
  std::sort(ms.begin(), ms.end());
  const int tail = tail_percentile(ms.size());
  double ratio_sum = 0;
  for (double r : ratios) ratio_sum += r;
  out.metrics.set("ops_per_s", static_cast<double>(ms.size()) / elapsed, "1/s");
  out.metrics.set("latency_p50_ms", ms.empty() ? 0 : percentile(ms, 50), "ms");
  out.metrics.set("latency_p99_ms", ms.empty() ? 0 : percentile(ms, tail), "ms");
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("server_rss_mb", rss, "MiB");
  out.metrics.set("approx_ratio", ratios.empty() ? 0 : ratio_sum / static_cast<double>(ratios.size()), "ratio");

  out.notes.push_back("latency_p99_ms is p" + std::to_string(tail) + " of n=" +
                      std::to_string(ms.size()) + " op latencies; ops_per_s over " +
                      std::to_string(elapsed) + " s");
  out.notes.push_back("failed_frac " +
                      std::to_string(out.attempted ? static_cast<double>(out.failed) /
                                                         static_cast<double>(out.attempted)
                                                   : 1.0) +
                      " (" + std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
                      " ops; " + std::to_string(busy) + " server_busy)");
  out.notes.push_back("approx_ratio over " + std::to_string(ratios.size()) +
                      " verification-prefix graphs; setup_s median of " +
                      std::to_string(setup_s.size()) + " set-ups");
  for (const std::string& p : problems) out.notes.push_back("FAIL " + p);
  out.correct = out.failed == 0 && problems.empty();
  if (out.attempted == 0) out.attempted = 1, out.failed = 1, out.correct = false;
  return out;
}

}  // namespace perfbench
