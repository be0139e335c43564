// Strict numeric field parsers for text from outside the program: trace CSV
// rows, INI config values and DGSCHED_* environment variables.
//
// std::stoull and std::stod skip leading whitespace, accept a sign (stoull
// wraps "-1" to 2^64 - 1), stop at trailing junk ("1x" reads as 1) and read
// "nan" and "inf". These parse the whole field or nothing.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace dg::util {

/// Decimal digits only (no sign, no whitespace), with value <= `max`.
[[nodiscard]] inline std::optional<std::uint64_t> parse_digits(std::string_view text,
                                                               std::uint64_t max) noexcept {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value > max) return std::nullopt;
  return value;
}

/// A finite decimal number spanning the whole field (a leading '-' is
/// allowed; whitespace, '+', hex, "nan" and "inf" are not).
[[nodiscard]] inline std::optional<double> parse_finite(std::string_view text) noexcept {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace dg::util
