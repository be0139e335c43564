// Workload traces: save and replay BoT submission streams.
//
// A workload trace records every bag (arrival time, granularity label) and
// every task's work amount, so a synthetic — or real — submission log can be
// replayed bit-for-bit across schedulers and machine configurations.
//
// CSV format (header + one row per task):
//   bot,arrival,granularity,task,work
#pragma once

#include <iosfwd>
#include <vector>

#include "workload/bot.hpp"

namespace dg::workload {

/// Writes all bags of `bots` (one row per task).
void save_workload_csv(std::ostream& os, const std::vector<BotSpec>& bots);

/// Parses a workload trace. Bags are returned in arrival order (rows need not
/// be; equal arrivals keep the file's bag-id order) and renumbered 0..n-1 in
/// that order, so a bag's id is its arrival index, as sim::Simulation
/// requires. Throws std::runtime_error naming the line on malformed input: a bad
/// header, a missing field, an id that is not plain digits or outside its
/// type's range, a task index more than one past the bag's highest so far,
/// a negative or non-finite arrival, a non-finite granularity, or work that
/// is not finite and positive.
[[nodiscard]] std::vector<BotSpec> load_workload_csv(std::istream& is);

}  // namespace dg::workload
