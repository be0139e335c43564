#include "workload/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/parse.hpp"

namespace dg::workload {

void save_workload_csv(std::ostream& os, const std::vector<BotSpec>& bots) {
  const auto saved_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << "bot,arrival,granularity,task,work\n";
  for (const BotSpec& bot : bots) {
    for (std::size_t t = 0; t < bot.tasks.size(); ++t) {
      os << bot.id << ',' << bot.arrival_time << ',' << bot.granularity << ',' << t << ','
         << bot.tasks[t].work << '\n';
    }
  }
  os.precision(saved_precision);
}

std::vector<BotSpec> load_workload_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line.rfind("bot,arrival,granularity,task,work", 0) != 0) {
    throw std::runtime_error("workload trace: missing or bad CSV header");
  }
  std::map<BotId, BotSpec> bots;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto bad_row = [line_number](const std::string& what) {
      return std::runtime_error("workload trace: " + what + " at line " +
                                std::to_string(line_number));
    };
    std::istringstream row(line);
    std::string fields[5];
    for (std::string& field : fields) {
      if (!std::getline(row, field, ',')) throw bad_row("missing field");
    }
    const auto id_field = util::parse_digits(fields[0], std::numeric_limits<BotId>::max());
    const auto arrival = util::parse_finite(fields[1]);
    const auto granularity = util::parse_finite(fields[2]);
    const auto work = util::parse_finite(fields[4]);
    if (!id_field) throw bad_row("bad bot id");
    if (!arrival || *arrival < 0.0) throw bad_row("bad arrival time");
    if (!granularity) throw bad_row("bad granularity");
    if (!work || *work <= 0.0) throw bad_row("non-positive or bad work");
    const auto bot_id = static_cast<BotId>(*id_field);
    BotSpec& bot = bots[bot_id];
    // Tasks come in index order (as save_workload_csv writes them), so each
    // row's index is the bag's task count so far: a repeated or skipped
    // index is an error, never an overwrite.
    const std::uint64_t max_index =
        std::min<std::uint64_t>(bot.tasks.size(), std::numeric_limits<TaskIndex>::max());
    const auto task_index = util::parse_digits(fields[3], max_index);
    if (!task_index || *task_index != bot.tasks.size()) {
      throw bad_row("bad, repeated or out-of-order task index");
    }
    if (bot.tasks.empty()) {
      bot.id = bot_id;
      bot.arrival_time = *arrival;
      bot.granularity = *granularity;
    } else if (*arrival != bot.arrival_time) {
      throw bad_row("arrival differs from the bag's first row");
    } else if (*granularity != bot.granularity) {
      throw bad_row("granularity differs from the bag's first row");
    }
    bot.tasks.emplace_back().work = *work;
  }
  std::vector<BotSpec> result;
  result.reserve(bots.size());
  for (auto& entry : bots) result.push_back(std::move(entry.second));
  std::sort(result.begin(), result.end(), [](const BotSpec& a, const BotSpec& b) {
    return a.arrival_time != b.arrival_time ? a.arrival_time < b.arrival_time : a.id < b.id;
  });
  for (std::size_t i = 0; i < result.size(); ++i) result[i].id = static_cast<BotId>(i);
  return result;
}

}  // namespace dg::workload
