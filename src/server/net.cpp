#include "server/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace lmds::server {

int tcp_connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_fd(fd);
    errno = EINVAL;
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int tcp_connect(const std::string& host, int port, int timeout_ms) {
  if (timeout_ms <= 0) return tcp_connect(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_fd(fd);
    errno = EINVAL;
    return -1;
  }
  // Non-blocking connect + poll-for-writable is the portable way to put a
  // deadline on the three-way handshake; SO_SNDTIMEO does not apply to
  // connect(2) on Linux.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  int rc;
  while ((rc = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
  }
  if (rc == 0) {
    close_fd(fd);
    errno = ETIMEDOUT;
    return -1;
  }
  int err = 0;
  socklen_t len = sizeof err;
  if (rc < 0 ||
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    const int saved = err != 0 ? err : errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {  // back to blocking
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

bool set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  }
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0 &&
         ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) == 0;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::optional<std::string> LineReader::next_line(std::size_t max_bytes) {
  if (oversized_) return std::nullopt;
  while (true) {
    const std::size_t nl = buffer_.find('\n', pos_ + scanned_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      scanned_ = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    scanned_ = buffer_.size() - pos_;  // no '\n' there: search only new bytes
    if (scanned_ > max_bytes) {
      oversized_ = true;
      return std::nullopt;
    }
    if (eof_) {
      // Trailing data without a final newline still counts as a line.
      if (scanned_ == 0) return std::nullopt;
      std::string line = buffer_.substr(pos_);
      buffer_.clear();
      pos_ = scanned_ = 0;
      return line;
    }
    if (!fill()) return std::nullopt;
  }
}

std::optional<std::string> LineReader::read_exact(std::size_t n) {
  while (buffer_.size() - pos_ < n && !eof_) {
    if (!fill()) return std::nullopt;
  }
  if (buffer_.size() - pos_ < n) return std::nullopt;  // peer closed mid-body
  std::string out = buffer_.substr(pos_, n);
  pos_ += n;
  scanned_ = 0;
  return out;
}

bool LineReader::fill() {
  char chunk[65536];
  ssize_t n = 0;
  do {
    n = ::recv(fd_, chunk, sizeof chunk, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    // SO_RCVTIMEO expired: the fd is still usable, report "no line" but
    // remember why so the caller can tell silence from a closed peer.
    timed_out_ = true;
    return false;
  }
  if (n <= 0) {
    eof_ = true;  // a connection error counts as EOF
    return true;
  }
  timed_out_ = false;
  // Drop the consumed prefix once it is at least as long as the unread
  // rest: each compaction moves no more bytes than it discards, so the
  // bytes ever moved never exceed the bytes ever consumed.
  if (pos_ > 0 && pos_ >= buffer_.size() - pos_) {
    bytes_moved_ += buffer_.size() - pos_;
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

namespace {
// strerror_r comes in two flavors; glibc with _GNU_SOURCE (the g++ default)
// returns char*, POSIX returns int and fills the buffer. Overloading on the
// result type handles both without a feature-test-macro dance.
// [[maybe_unused]]: exactly one overload is instantiated per libc.
[[maybe_unused]] std::string strerror_result(const char* msg, const char* /*buf*/) {
  return msg;
}
[[maybe_unused]] std::string strerror_result(int rc, const char* buf) {
  return rc == 0 ? std::string(buf) : std::string("unknown error");
}
}  // namespace

std::string errno_string(int err) {
  char buf[256] = {};
  return strerror_result(::strerror_r(err, buf, sizeof buf), buf);
}

}  // namespace lmds::server
