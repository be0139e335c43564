#include "util/arg_parser.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace dg::util {

ArgParser::ArgParser(std::string program_name, std::string description)
    : program_name_(std::move(program_name)), description_(std::move(description)) {}

void ArgParser::add_option(std::string name, std::string default_value, std::string help) {
  order_.push_back(name);
  options_[std::move(name)] = Option{std::move(default_value), std::move(help), false, {}};
}

void ArgParser::add_flag(std::string name, std::string help) {
  order_.push_back(name);
  options_[std::move(name)] = Option{"false", std::move(help), true, {}};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> inline_value;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      inline_value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      std::fprintf(stderr, "%s: unknown option --%s\n%s", program_name_.c_str(), name.c_str(),
                   usage().c_str());
      return false;
    }
    Option& opt = it->second;
    if (opt.is_flag) {
      if (inline_value.has_value()) {
        opt.value = *inline_value;
      } else {
        opt.value = "true";
      }
    } else if (inline_value.has_value()) {
      opt.value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option --%s requires a value\n%s", program_name_.c_str(),
                     name.c_str(), usage().c_str());
        return false;
      }
      opt.value = argv[++i];
    }
  }
  return true;
}

std::string ArgParser::get(std::string_view name) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::invalid_argument("ArgParser: undeclared option: " + std::string(name));
  }
  return it->second.value.value_or(it->second.default_value);
}

double ArgParser::get_double(std::string_view name) const {
  const std::string value = get(name);
  if (const auto parsed = parse_finite(value)) return *parsed;
  throw std::invalid_argument("--" + std::string(name) + " '" + value +
                              "' is not a finite number");
}

double ArgParser::get_positive(std::string_view name) const {
  const double value = get_double(name);
  if (value > 0.0) return value;
  throw std::invalid_argument("--" + std::string(name) + " '" + get(name) +
                              "' is not positive");
}

std::uint64_t ArgParser::get_unsigned(std::string_view name, std::uint64_t max) const {
  const std::string value = get(name);
  if (const auto parsed = parse_digits(value, max)) return *parsed;
  throw std::invalid_argument("--" + std::string(name) + " '" + value +
                              "' is not an integer in [0, " + std::to_string(max) + "]");
}

bool ArgParser::get_flag(std::string_view name) const {
  std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string ArgParser::usage() const {
  std::ostringstream oss;
  oss << program_name_ << " — " << description_ << "\n\nOptions:\n";
  for (const std::string& name : order_) {
    const Option& opt = options_.at(name);
    oss << "  --" << name;
    if (!opt.is_flag) oss << " <value>";
    oss << "\n      " << opt.help;
    if (!opt.is_flag) oss << " (default: " << opt.default_value << ")";
    oss << "\n";
  }
  oss << "  --help\n      Show this message.\n";
  return oss.str();
}

}  // namespace dg::util
