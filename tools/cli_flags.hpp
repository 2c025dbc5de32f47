// Strict numeric flags for mss-server and mss-client: the whole argument
// must be a decimal integer in range, else the tool says why and exits 2.
// A typo never becomes 0, which several flags read as "unlimited"/"never".
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace mss::tools {

template <typename T>
[[nodiscard]] T parse_number(const char* flag, const char* text,
                             T lo = std::numeric_limits<T>::min(),
                             T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text + std::strlen(text);
  if (const auto r = std::from_chars(text, end, v);
      r.ec != std::errc() || r.ptr != end || v < lo || v > hi) {
    std::fprintf(stderr, "%s: expected an integer in [%s, %s], got '%s'\n",
                 flag, std::to_string(lo).c_str(), std::to_string(hi).c_str(),
                 text);
    std::exit(2);
  }
  return v;
}

/// A SEC flag in milliseconds; the range keeps `* 1000` inside an int.
[[nodiscard]] inline int parse_seconds_ms(const char* flag, const char* text) {
  return parse_number(flag, text, 0, std::numeric_limits<int>::max() / 1000) *
         1000;
}

} // namespace mss::tools
