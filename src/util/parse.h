// Strict number parsing for command-line values: the CLI tools share one
// rule, so a malformed flag is rejected the same way everywhere.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace nampc {

/// Parses all of `text` as a base-10 integer of out's type. Returns false,
/// leaving `out` unspecified, when the token is empty, has any character
/// left over ("12x"), or does not fit (including "-1" for unsigned types).
template <typename T>
[[nodiscard]] bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace nampc
