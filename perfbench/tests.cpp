// perfbench's own tests: a named table, listed and run by name:
//
//   perfbench_tests            run every test
//   perfbench_tests --list     list the names
//   perfbench_tests NAME...    run the named tests
//
// Exit 0 when every selected test passed.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "api/executor.hpp"
#include "bench.hpp"
#include "graph/hash.hpp"
#include "minor/k2t.hpp"
#include "server/protocol.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "  FAILED: %s\n", what.c_str());
  }
}

/// The first few ops of every connection, as the bytes they put on the wire.
std::string stream_bytes(const Workload& w, std::uint64_t seed) {
  const SetupData setup = make_setup(w, seed);
  std::string out;
  for (const std::string& h : setup.handles) out += h + "\n";
  for (int c = 0; c < w.connections; ++c) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      for (const Request& r : make_op(w, setup, seed, c, i).steps) out += r.op + r.members + "\n";
    }
  }
  return out;
}

void test_stream_determinism() {
  for (const Workload& w : workloads()) {
    const std::string a = stream_bytes(w, 7);
    expect(a == stream_bytes(w, 7), std::string(w.name) + ": same seed, same bytes");
    expect(a != stream_bytes(w, 8), std::string(w.name) + ": other seed, other bytes");
  }
}

void test_cold_graphs_never_repeat() {
  for (const char* name : {"solve-cold", "routed-inline"}) {
    const Workload& w = *find_workload(name);
    std::set<std::uint64_t> seen;
    std::size_t drawn = 0;
    for (int c = 0; c < w.connections; ++c) {
      for (std::uint64_t i = 0; i < 25; ++i) {
        for (const auto& g : make_op(w, {}, 3, c, i).graphs) {
          seen.insert(lmds::graph::graph_hash(*g));
          ++drawn;
        }
      }
    }
    expect(seen.size() == drawn, std::string(name) + ": a graph repeated");
  }
}

void test_tail_percentile() {
  expect(tail_percentile(1000) == 99, "n=1000 reports p99");
  expect(tail_percentile(999) == 98, "n=999 falls back to p98");
  expect(tail_percentile(100) == 90, "n=100 reports p90");
  expect(tail_percentile(20) == 50, "n=20 reports p50");
  expect(tail_percentile(10) == 0, "n=10 has no percentile with ten beyond");
  // In general: at least ten samples beyond p, fewer than ten beyond p+1.
  for (std::size_t n = 11; n < 3000; ++n) {
    const auto beyond = [n](int p) { return n - (static_cast<std::size_t>(p) * n + 99) / 100; };
    const int p = tail_percentile(n);
    expect(beyond(p) >= 10 && (p == 99 || beyond(p + 1) < 10),
           "tail percentile is the highest with ten beyond, n=" + std::to_string(n));
  }
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 50) == 50 && percentile(v, 99) == 99 && percentile(v, 100) == 100,
         "nearest-rank percentile");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_in_class_certified() {
  // Every family the in-class workloads draw from stays within its
  // certified t (K_{2,t}-minor-free). The minor search grows steeply with n,
  // so this checks the low end of the benchmark's 50-250 vertex range.
  for (int family = 0; family < 4; ++family) {
    for (int n : {50, 80}) {
      for (std::uint64_t s = 0; s < 2; ++s) {
        const InClassGraph c = in_class_graph(family, n, mix(11, s * 7 + static_cast<unsigned>(n)));
        expect(c.certified_t >= 2 && c.certified_t <= 5, c.family + ": t within the class");
        expect(lmds::minor::is_k2t_minor_free(c.graph, c.certified_t),
               c.family + " n=" + std::to_string(n) + ": K_{2," + std::to_string(c.certified_t) +
                   "} minor found");
      }
    }
  }
}

void test_scanners() {
  lmds::api::Response r;
  r.solver = "greedy";
  r.solution = {0, 4, 17};
  r.valid = true;
  const std::vector<lmds::api::Response> rs = {r, r};
  lmds::api::BatchDiagnostics diag;
  diag.cache_hits = 2;
  const std::string line = lmds::server::encode_solve_result(rs, diag);
  expect(response_ok(line) && error_code(line).empty(), "ok line");
  expect(solutions(line) == std::vector<std::vector<int>>{{0, 4, 17}, {0, 4, 17}}, "solutions");
  expect(find_int(line, "cache_hits") == 2, "diag int");
  const std::string err = lmds::server::encode_error(lmds::server::ErrorCode::ServerBusy, "x");
  expect(!response_ok(err) && error_code(err) == "server_busy", "error code");
}

struct TestItem {
  const char* name;
  void (*function)();
};

const TestItem tests[] = {
    {"stream_determinism", test_stream_determinism},
    {"cold_graphs_never_repeat", test_cold_graphs_never_repeat},
    {"tail_percentile", test_tail_percentile},
    {"in_class_certified", test_in_class_certified},
    {"scanners", test_scanners},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const TestItem& t : tests) std::printf("%s\n", t.name);
    return 0;
  }
  int ran = 0;
  for (const TestItem& t : tests) {
    bool selected = argc == 1;
    for (int i = 1; i < argc; ++i) selected = selected || std::strcmp(argv[i], t.name) == 0;
    if (!selected) continue;
    const int before = failures;
    t.function();
    ++ran;
    std::printf("%s %s\n", failures == before ? "PASS" : "FAIL", t.name);
  }
  if (ran == 0) {
    std::fprintf(stderr, "no test matched (see --list)\n");
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
