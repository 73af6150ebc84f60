// Client connections that keep raw response bytes, response scanners, and
// the lmds_serve child processes.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::size_t value_pos(std::string_view raw, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = raw.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

}  // namespace

bool response_ok(std::string_view raw) { return raw.starts_with("{\"ok\":true"); }

std::string error_code(std::string_view raw) {
  return response_ok(raw) ? std::string() : find_string(raw, "code");
}

long long find_int(std::string_view raw, std::string_view key) {
  const std::size_t at = value_pos(raw, key);
  if (at == std::string_view::npos) return -1;
  long long v = -1;
  std::from_chars(raw.data() + at, raw.data() + raw.size(), v);
  return v;
}

std::string find_string(std::string_view raw, std::string_view key) {
  const std::size_t at = value_pos(raw, key);
  if (at == std::string_view::npos || at >= raw.size() || raw[at] != '"') return {};
  const std::size_t end = raw.find('"', at + 1);
  return end == std::string_view::npos ? std::string() : std::string(raw.substr(at + 1, end - at - 1));
}

std::vector<std::vector<int>> solutions(std::string_view raw) {
  static constexpr std::string_view kKey = "\"solution\":[";
  std::vector<std::vector<int>> out;
  for (std::size_t at = raw.find(kKey); at != std::string_view::npos;
       at = raw.find(kKey, at)) {
    at += kKey.size();
    std::vector<int>& sol = out.emplace_back();
    while (at < raw.size() && raw[at] != ']') {
      if (raw[at] == ',') ++at;
      int v = 0;
      const auto [next, ec] = std::from_chars(raw.data() + at, raw.data() + raw.size(), v);
      if (ec != std::errc()) return {};
      sol.push_back(v);
      at = static_cast<std::size_t>(next - raw.data());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

Conn::Conn(int port, bool http)
    : fd_(lmds::server::tcp_connect("127.0.0.1", port, 5000)), http_(http), reader_(fd_) {
  if (fd_ < 0) throw std::runtime_error("connect to port " + std::to_string(port) + " failed");
  // A wedged server fails the run instead of hanging past the time limit.
  lmds::server::set_io_timeout(fd_, 60000);
}

Conn::~Conn() { lmds::server::close_fd(fd_); }

std::string Conn::call(const Request& r) {
  std::string wire;
  if (!http_) {
    wire = "{\"op\":\"" + r.op + "\"" + (r.members.empty() ? "" : ",") + r.members + "}\n";
  } else {
    std::string method = "GET";
    std::string target;
    std::string body;
    if (r.op == "solve") {
      method = "POST";
      target = "/v2/solve";
      body = "{" + r.members + "}";
    } else if (r.op == "stats") {
      target = "/v2/stats";
    } else {
      throw std::logic_error("no HTTP route for " + r.op);
    }
    wire = method + " " + target + " HTTP/1.1\r\nHost: lmds\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }
  if (!lmds::server::send_all(fd_, wire)) throw std::runtime_error("send failed");
  bytes_out += wire.size();
  std::optional<std::string> line = reader_.next_line(1u << 30);
  if (!line) throw std::runtime_error("connection closed or timed out");
  if (!http_) {
    bytes_in += line->size() + 1;
    return *std::move(line);
  }
  std::uint64_t header_bytes = line->size() + 2;
  std::size_t length = 0;
  while (true) {
    std::optional<std::string> header = reader_.next_line(1u << 16);
    if (!header) throw std::runtime_error("connection closed inside HTTP headers");
    header_bytes += header->size() + 2;
    if (header->empty()) break;
    for (char& c : *header) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (header->starts_with("content-length:")) {
      length = std::stoull(header->substr(15));
    }
  }
  std::optional<std::string> body = reader_.read_exact(length);
  if (!body) throw std::runtime_error("connection closed inside HTTP body");
  bytes_in += header_bytes + body->size();
  return *std::move(body);
}

// ---------------------------------------------------------------------------

namespace {

int read_port_file(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return -1;  // not yet (fully) written
  return std::stoi(text);
}

}  // namespace

ServerProc::ServerProc(const std::string& binary, const std::string& dir, const std::string& tag,
                       const std::vector<std::string>& args, bool http, int port) {
  const std::string base = dir + "/" + tag;
  ::unlink((base + ".port").c_str());  // never read a previous run's port
  ::unlink((base + ".http").c_str());
  std::vector<std::string> argv = {binary, "--port", std::to_string(port), "--port-file",
                                   base + ".port"};
  if (http) argv.insert(argv.end(), {"--http-port", "0", "--http-port-file", base + ".http"});
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string log = base + ".log";
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
  pid_ = pid;

  const Clock::time_point t0 = Clock::now();
  try {
    while (port_ < 0 || (http && http_port_ < 0)) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("lmds_serve exited during start-up (see " + log + ")");
      }
      if (seconds_since(t0) > 30) throw std::runtime_error("lmds_serve did not start in 30 s");
      port_ = read_port_file(base + ".port");
      if (http) http_port_ = read_port_file(base + ".http");
      if (port_ < 0 || (http && http_port_ < 0)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  } catch (...) {
    // A constructor that throws runs no destructor: reap the child here.
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    throw;
  }
}

ServerProc::~ServerProc() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

double ServerProc::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

bool ServerProc::shutdown(int timeout_ms) {
  if (pid_ <= 0) return false;
  bool acknowledged = false;
  try {
    Conn conn(port_, false);
    acknowledged = response_ok(conn.call({"shutdown", ""}));
  } catch (const std::exception&) {
  }
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) != pid_) {
    if (seconds_since(t0) * 1000 > timeout_ms) return false;  // the destructor kills it
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return acknowledged && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
