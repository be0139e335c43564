#include "util/ini.hpp"

#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace dg::util {

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

IniFile IniFile::parse(std::istream& is) {
  IniFile ini;
  std::string line;
  std::string section;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    // Strip trailing comments (naive: no quoting in this format).
    if (auto pos = line.find_first_of("#;"); pos != std::string::npos) {
      line.erase(pos);
    }
    const std::string_view content = trim(line);
    if (content.empty()) continue;
    if (content.front() == '[') {
      if (content.back() != ']' || content.size() < 3) {
        throw std::runtime_error("ini: malformed section header at line " +
                                 std::to_string(line_number));
      }
      section = std::string(trim(content.substr(1, content.size() - 2)));
      ini.sections_[section];  // register even if empty
      continue;
    }
    const auto eq = content.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("ini: expected 'key = value' at line " +
                               std::to_string(line_number));
    }
    const std::string key(trim(content.substr(0, eq)));
    const std::string value(trim(content.substr(eq + 1)));
    if (key.empty()) {
      throw std::runtime_error("ini: empty key at line " + std::to_string(line_number));
    }
    auto& sec = ini.sections_[section];
    if (!sec.emplace(key, value).second) {
      throw std::runtime_error("ini: duplicate key '" + key + "' at line " +
                               std::to_string(line_number));
    }
  }
  return ini;
}

IniFile IniFile::parse_string(std::string_view text) {
  std::istringstream iss{std::string(text)};
  return parse(iss);
}

bool IniFile::has_section(std::string_view section) const {
  return sections_.find(section) != sections_.end();
}

std::vector<std::string> IniFile::sections() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, keys] : sections_) names.push_back(name);
  return names;
}

std::vector<std::string> IniFile::keys(std::string_view section) const {
  std::vector<std::string> names;
  auto it = sections_.find(section);
  if (it == sections_.end()) return names;
  for (const auto& [key, value] : it->second) names.push_back(key);
  return names;
}

std::optional<std::string> IniFile::get(std::string_view section,
                                        std::string_view key) const {
  auto sec = sections_.find(section);
  if (sec == sections_.end()) return std::nullopt;
  auto it = sec->second.find(key);
  if (it == sec->second.end()) return std::nullopt;
  return it->second;
}

std::optional<double> IniFile::get_double(std::string_view section,
                                          std::string_view key) const {
  auto value = get(section, key);
  if (!value) return std::nullopt;
  if (auto parsed = parse_finite(*value)) return parsed;
  throw std::runtime_error("ini: [" + std::string(section) + "] " + std::string(key) +
                           " = '" + *value + "' is not a finite number");
}

std::optional<std::uint64_t> IniFile::get_unsigned(std::string_view section,
                                                   std::string_view key,
                                                   std::uint64_t max) const {
  auto value = get(section, key);
  if (!value) return std::nullopt;
  if (auto parsed = parse_digits(*value, max)) return parsed;
  throw std::runtime_error("ini: [" + std::string(section) + "] " + std::string(key) +
                           " = '" + *value + "' is not an integer in [0, " +
                           std::to_string(max) + "]");
}

std::optional<bool> IniFile::get_bool(std::string_view section, std::string_view key) const {
  auto value = get(section, key);
  if (!value) return std::nullopt;
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on") return true;
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off") return false;
  throw std::runtime_error("ini: [" + std::string(section) + "] " + std::string(key) + " = '" +
                           *value + "' is not a boolean");
}

std::string IniFile::get_or(std::string_view section, std::string_view key,
                            std::string_view fallback) const {
  auto value = get(section, key);
  return value ? *value : std::string(fallback);
}

void IniFile::set(std::string section, std::string key, std::string value) {
  sections_[std::move(section)][std::move(key)] = std::move(value);
}

std::string IniFile::to_string() const {
  std::ostringstream oss;
  for (const auto& [section, keys] : sections_) {
    if (!section.empty()) oss << '[' << section << "]\n";
    for (const auto& [key, value] : keys) oss << key << " = " << value << '\n';
    oss << '\n';
  }
  return oss.str();
}

}  // namespace dg::util
