// Whole-token number parsing for the command-line tools (dpcluster_cli,
// dpcluster_serve): a flag value or CSV cell is a number only if all of it
// is one, so "4x", "0x", "1e999" or "abc" never turn into a misread value.

#ifndef DPCLUSTER_TOOLS_PARSE_NUMBER_H_
#define DPCLUSTER_TOOLS_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dpcluster::tools {

/// Parses the whole of `text` as a T: no trailing characters, no sign on an
/// unsigned T, no overflow, and a finite value for a floating-point T.
template <typename T>
bool ParseNumber(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

}  // namespace dpcluster::tools

#endif  // DPCLUSTER_TOOLS_PARSE_NUMBER_H_
