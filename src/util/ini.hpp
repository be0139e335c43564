// Minimal INI parsing for experiment configuration files.
//
// Grammar: `[section]` headers, `key = value` pairs, `#`/`;` comments (full
// line or trailing), blank lines ignored, whitespace trimmed. Keys are unique
// per section (duplicates are an error, catching typos early). Line numbers
// are carried into every error message.
#pragma once

#include <cstdint>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dg::util {

class IniFile {
 public:
  /// Parses the stream; throws std::runtime_error with a line number on
  /// malformed input.
  [[nodiscard]] static IniFile parse(std::istream& is);
  [[nodiscard]] static IniFile parse_string(std::string_view text);

  [[nodiscard]] bool has_section(std::string_view section) const;
  [[nodiscard]] std::vector<std::string> sections() const;
  [[nodiscard]] std::vector<std::string> keys(std::string_view section) const;

  [[nodiscard]] std::optional<std::string> get(std::string_view section,
                                               std::string_view key) const;
  /// Typed getters; throw std::runtime_error naming the key when present
  /// but unparsable. Numbers must span the whole value (util/parse.hpp): a
  /// double is finite, an unsigned is decimal digits only, at most `max`.
  [[nodiscard]] std::optional<double> get_double(std::string_view section,
                                                 std::string_view key) const;
  [[nodiscard]] std::optional<std::uint64_t> get_unsigned(
      std::string_view section, std::string_view key,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] std::optional<bool> get_bool(std::string_view section,
                                             std::string_view key) const;

  /// Fallback-aware string getter.
  [[nodiscard]] std::string get_or(std::string_view section, std::string_view key,
                                   std::string_view fallback) const;

  void set(std::string section, std::string key, std::string value);

  /// Serializes back to INI text (sections sorted, keys sorted).
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::map<std::string, std::string, std::less<>>, std::less<>>
      sections_;
};

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

}  // namespace dg::util
