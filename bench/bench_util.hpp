#pragma once
// Helpers shared by the gated benches that write BENCH_*.json artifacts.

#include <charconv>
#include <chrono>
#include <string>
#include <system_error>

namespace lmds::bench {

/// Wall-clock seconds elapsed since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Locale-independent fixed-point formatting for the JSON artifacts:
/// fprintf's "%f" obeys LC_NUMERIC, so under e.g. de_DE it writes "0,125"
/// and corrupts BENCH_*.json; std::to_chars always emits '.'.
inline std::string json_num(double v, int precision) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

}  // namespace lmds::bench
