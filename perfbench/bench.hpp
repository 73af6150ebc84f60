#pragma once
// perfbench — the served benchmark of lmds_serve. Two runs per workload:
//
//  * served (--trace 0): real lmds_serve processes over TCP, driven by one
//    closed-loop client; end-to-end metrics.
//  * traced (--trace 1): the same seed, one client, and beside every request
//    an in-process replay of what the server does with it, timed per module
//    (server / api / graph / core / cuts / solve / cluster); per-layer metrics.
//
// Everything a workload sends is a pure function of (workload, seed,
// connection, op index), so a seed reproduces the exact byte stream.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "server/net.hpp"

namespace perfbench {

using lmds::graph::Graph;

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)

enum class Kind { SolveCold, HandleHot, PatchChurn, RoutedInline };

struct Workload {
  std::string_view name;
  Kind kind;
  std::string_view why;
  int connections;       ///< connections, driven in turn by one closed-loop client
  int http_connections;  ///< the last this-many clients speak HTTP
  int workers;           ///< 0 = one server; >0 = that many workers + a router
  int verify_ops;        ///< verification prefix per connection
  std::vector<std::string> server_args;  ///< extra lmds_serve flags
};

/// The workload table, in --list order.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// splitmix64 of (seed, stream) — every random choice derives from it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// One in-class graph: a certified K_{2,t}-minor-free family member with
/// its vertices relabelled by a seeded permutation, so no two draws repeat.
struct InClassGraph {
  std::string family;  ///< tree | outerplanar | theta | cactus
  Graph graph;
  int certified_t = 0;
};
InClassGraph in_class_graph(int family, int target_vertices, std::uint64_t seed);

/// One request: the protocol verb plus the request object's other members.
struct Request {
  std::string op;
  std::string members;
};

/// What a workload's setup stores, plus which (handle, solver) pairs it primes.
struct SetupData {
  std::vector<std::shared_ptr<const Graph>> graphs;
  std::vector<std::string> handles;  ///< handles[i] answers graphs[i]
  std::vector<std::string> solvers;  ///< primed on every stored graph
};
SetupData make_setup(const Workload& w, std::uint64_t seed);

/// One client operation: the requests it sends in order and, for its solve
/// step, the graphs the answer must dominate.
struct Op {
  std::vector<Request> steps;
  std::size_t solve_step = 0;
  std::string solver;
  std::vector<std::shared_ptr<const Graph>> graphs;
  std::string child_handle;  ///< patch-churn: the handle patch_graph must return
};
Op make_op(const Workload& w, const SetupData& setup, std::uint64_t seed, int conn,
           std::uint64_t index);

/// The solve request with "batch" overrides spliced in (verification only).
Request with_batch(const Request& solve, std::string_view batch_members);

// ---------------------------------------------------------------------------
// Statistics (workloads.cpp)

/// Percentile p of `sorted` by nearest rank.
double percentile(const std::vector<double>& sorted, double p);
/// The highest whole percentile with at least `beyond` samples above it for
/// n samples (99 once n >= 100 * beyond); 0 when n <= beyond.
int tail_percentile(std::size_t n, std::size_t beyond = 10);
double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Wire and processes (wire.cpp)

/// Scanners over a raw solve response line; they never re-encode.
bool response_ok(std::string_view raw);
std::string error_code(std::string_view raw);  ///< "" for ok lines
long long find_int(std::string_view raw, std::string_view key);  ///< -1 when absent
std::string find_string(std::string_view raw, std::string_view key);
/// The "solution" arrays of a solve line, in response order.
std::vector<std::vector<int>> solutions(std::string_view raw);

/// One client connection (line protocol or HTTP) returning raw bodies.
class Conn {
 public:
  Conn(int port, bool http);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one request, returns the raw response body. Throws on I/O error.
  std::string call(const Request& r);
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;

 private:
  int fd_;
  bool http_;
  lmds::server::LineReader reader_;
};

/// One lmds_serve child process.
class ServerProc {
 public:
  /// Listens on `port` (0: one the kernel picks) and, with `http`, on an
  /// ephemeral HTTP port too.
  ServerProc(const std::string& binary, const std::string& dir, const std::string& tag,
             const std::vector<std::string>& args, bool http, int port = 0);
  ~ServerProc();  ///< kills and reaps a process still running
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  int port() const { return port_; }
  int http_port() const { return http_port_; }
  /// VmHWM of the process in MiB (0 when unreadable).
  double peak_rss_mb() const;
  /// Sends shutdown and reaps the process. True iff it exited 0 in time.
  bool shutdown(int timeout_ms);

 private:
  int pid_ = -1;
  int port_ = -1;
  int http_port_ = -1;
};

// ---------------------------------------------------------------------------
// Runs (served.cpp, traced.cpp)

struct Config {
  std::string serve_binary;
  std::string work_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
};

/// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the JSON
};

/// A started workload: its servers, set up and primed, with one control
/// connection per server that holds the setup's pins.
struct Cluster {
  std::vector<std::unique_ptr<ServerProc>> servers;  ///< workers first, entry last
  std::vector<std::unique_ptr<Conn>> control;        ///< parallels servers
  std::vector<std::string> peers;                    ///< "127.0.0.1:port" of workers
  ServerProc& entry() { return *servers.back(); }
  std::uint64_t setup_pins = 0;
};
/// Spawns and sets up the workload's servers; throws on any failed step.
Cluster start_cluster(const Workload& w, const SetupData& setup, const Config& cfg, int index);
/// Drain checks, then shutdown of every server. Appends each failure to `why`.
void stop_cluster(Cluster& c, std::vector<std::string>& why);

/// "" when `raw` answers op's solve with a dominating set per graph; else why not.
std::string check_solve(const Op& op, const std::string& raw);

RunResult run_served(const Workload& w, const Config& cfg);
RunResult run_traced(const Workload& w, const Config& cfg);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace perfbench
