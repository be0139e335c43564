// Small command-line argument parser for the examples and bench harnesses.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` options plus
// positional arguments. Unknown options are an error (reported with usage).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dg::util {

class ArgParser {
 public:
  ArgParser(std::string program_name, std::string description);

  /// Declares an option taking a value; `default_value` is used when absent.
  void add_option(std::string name, std::string default_value, std::string help);
  /// Declares a boolean flag (present => true).
  void add_flag(std::string name, std::string help);

  /// Parses argv. Returns false (and prints usage + error to stderr) on error
  /// or when `--help` was requested (usage goes to stdout in that case).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(std::string_view name) const;
  /// The value as a finite number (util::parse_finite). Throws
  /// std::invalid_argument naming the option and the value otherwise.
  [[nodiscard]] double get_double(std::string_view name) const;
  /// get_double, and the value must be > 0.
  [[nodiscard]] double get_positive(std::string_view name) const;
  /// The value as decimal digits <= `max` (util::parse_digits): no sign, no
  /// junk suffix. Throws std::invalid_argument naming the option and the
  /// value otherwise.
  [[nodiscard]] std::uint64_t get_unsigned(
      std::string_view name,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] bool get_flag(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
    std::optional<std::string> value;
  };

  std::string program_name_;
  std::string description_;
  std::map<std::string, Option, std::less<>> options_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace dg::util
