// perfbench — one workload per invocation:
//
//   perfbench --list
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR [--commit SHA] [--source DIGEST]
//
// Prints notes, a host line, and as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
// Exits 0 only when every correctness, drain and span check passed.

#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "server/json.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --list\n"
               "       perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 --serve-bin PATH --work-dir DIR\n"
               "                 [--commit SHA] [--source DIGEST]\n");
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("model name")) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

/// Debug and sanitizer builds time something else than what users run.
const char* build_refusal() {
  const std::string type = PB_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "not an optimized build";
  if (std::string(PB_SANITIZE).size() > 0) return "a sanitizer build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#endif
  return nullptr;
}

/// Pins this process, and so every thread and server it starts, to the last
/// CPU it may run on. A closed-loop client and its servers then hand each
/// request back and forth on one CPU that never idles during the run. Left to
/// the scheduler (or on one CPU for the clients and one for the servers), each
/// hand-over woke an idle CPU, and on a shared virtual machine the time that
/// took moved the figures of identical runs by tens of percent.
std::string pin_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "not pinned (no CPU mask)";
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return "not pinned (empty CPU mask)";
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return "not pinned (sched_setaffinity failed)";
  return "client and servers pinned to CPU " + std::to_string(last);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string name, commit = "unknown", source = "unknown";
  int trace = -1;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--list") {
      list = true;
      continue;
    }
    if (!value) return usage();
    ++i;
    try {
      if (arg == "--workload") name = value;
      else if (arg == "--seed") cfg.seed = std::stoull(value);
      else if (arg == "--seconds") cfg.seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value);
      else if (arg == "--serve-bin") cfg.serve_binary = value;
      else if (arg == "--work-dir") cfg.work_dir = value;
      else if (arg == "--commit") commit = value;
      else if (arg == "--source") source = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (list) {
    for (const Workload& w : workloads()) {
      std::printf("%-14s %s\n", std::string(w.name).c_str(), std::string(w.why).c_str());
    }
    return 0;
  }
  const Workload* w = find_workload(name);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (see --list)\n", name.c_str());
    return 2;
  }
  if ((trace != 0 && trace != 1) || cfg.serve_binary.empty() || cfg.work_dir.empty() ||
      cfg.seconds <= 0) {
    return usage();
  }
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure %s (%s)\n", why, PB_BUILD_TYPE);
    return 2;
  }

  const std::string pinning = pin_cpu();
  RunResult r;
  try {
    r = trace ? run_traced(*w, cfg) : run_served(*w, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", std::string(w->name).c_str(), e.what());
    return 1;
  }

  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("# %s\n", pinning.c_str());
  std::string host = "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                     ",\"cpu\":";
  lmds::server::json_append_string(host, cpu_model());
  host += ",\"compiler\":";
  lmds::server::json_append_string(host, __VERSION__);
  host += ",\"build_type\":";
  lmds::server::json_append_string(host, PB_BUILD_TYPE);
  host += ",\"commit\":";
  lmds::server::json_append_string(host, commit);
  host += ",\"source\":";
  lmds::server::json_append_string(host, source);
  host += ",\"workload\":";
  lmds::server::json_append_string(host, w->name);
  host += ",\"seed\":" + std::to_string(cfg.seed) + ",\"trace\":" + std::to_string(trace) + "}";
  std::printf("# host %s\n", host.c_str());

  std::string json = std::string("{\"correct\":") + (r.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [metric, vu] : r.metrics.items) {
    if (!first) json += ",";
    first = false;
    lmds::server::json_append_string(json, metric);
    json += ":{\"value\":" + number(vu.first) + ",\"unit\":";
    lmds::server::json_append_string(json, vu.second);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
