#include "grid/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "rng/random_stream.hpp"
#include "util/assert.hpp"
#include "util/parse.hpp"

namespace dg::grid {

double MachineTrace::availability(double horizon) const noexcept {
  if (horizon <= 0.0) return 1.0;
  double down = 0.0;
  for (const DowntimeInterval& interval : downtime) {
    const double start = std::min(interval.start, horizon);
    const double end = std::min(interval.end, horizon);
    if (end > start) down += end - start;
  }
  return 1.0 - down / horizon;
}

double AvailabilityTrace::mean_availability(double horizon) const noexcept {
  if (machines_.empty()) return 1.0;
  double sum = 0.0;
  for (const MachineTrace& machine : machines_) sum += machine.availability(horizon);
  return sum / static_cast<double>(machines_.size());
}

AvailabilityTrace AvailabilityTrace::synthesize(const AvailabilityModel& model,
                                                std::size_t num_machines, double horizon,
                                                std::uint64_t seed) {
  std::vector<MachineTrace> machines(num_machines);
  if (!model.failures_enabled) return AvailabilityTrace(std::move(machines));
  for (std::size_t m = 0; m < num_machines; ++m) {
    rng::RandomStream stream = rng::RandomStream::derive(seed, "trace.availability", m);
    double clock = 0.0;
    MachineTrace& trace = machines[m];
    for (;;) {
      clock += model.time_to_failure.sample(stream);  // uptime
      if (clock >= horizon) break;
      const double repair = model.time_to_repair.sample(stream);
      trace.downtime.push_back({clock, clock + repair});
      clock += repair;
      if (clock >= horizon) break;
    }
  }
  return AvailabilityTrace(std::move(machines));
}

void AvailabilityTrace::save_csv(std::ostream& os) const {
  const auto saved_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << "machine,down_start,down_end\n";
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    for (const DowntimeInterval& interval : machines_[m].downtime) {
      os << m << ',' << interval.start << ',' << interval.end << '\n';
    }
    if (machines_[m].downtime.empty()) {
      // Keep machine count recoverable even for always-up machines.
      os << m << ",,\n";
    }
  }
  os.precision(saved_precision);
}

AvailabilityTrace AvailabilityTrace::load_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line.rfind("machine,down_start,down_end", 0) != 0) {
    throw std::runtime_error("AvailabilityTrace: missing or bad CSV header");
  }
  std::vector<MachineTrace> machines;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto bad_row = [line_number](const char* what) {
      return std::runtime_error(std::string("AvailabilityTrace: ") + what + " at line " +
                                std::to_string(line_number));
    };
    std::istringstream row(line);
    std::string machine_field, start_field, end_field;
    std::getline(row, machine_field, ',');
    std::getline(row, start_field, ',');
    std::getline(row, end_field, ',');
    // Rows come machine by machine in id order (as save_csv writes them), so
    // an id is at most one past the highest seen so far.
    const auto machine_index = util::parse_digits(machine_field, machines.size());
    if (!machine_index) throw bad_row("bad machine id");
    if (*machine_index == machines.size()) machines.emplace_back();
    if (start_field.empty() && end_field.empty()) continue;  // up-only marker row
    const auto start = util::parse_finite(start_field);
    const auto end = util::parse_finite(end_field);
    if (!start || !end) throw bad_row("bad interval");
    if (*start < 0.0 || *end < *start) throw bad_row("negative or inverted interval");
    MachineTrace& machine = machines[*machine_index];
    if (!machine.downtime.empty() && *start < machine.downtime.back().end) {
      throw bad_row("overlapping intervals");
    }
    machine.downtime.push_back({*start, *end});
  }
  return AvailabilityTrace(std::move(machines));
}

void TraceAvailabilityDriver::start(TransitionCallback on_failure,
                                    TransitionCallback on_repair) {
  DG_ASSERT_MSG(!trace_.empty(), "TraceAvailabilityDriver: empty trace");
  on_failure_ = on_failure;
  on_repair_ = on_repair;
  for (std::size_t m = 0; m < grid_.size(); ++m) {
    const MachineTrace& machine_trace = trace_.machine(m % trace_.num_machines());
    Machine* machine = &grid_.machine(m);
    for (const DowntimeInterval& interval : machine_trace.downtime) {
      if (interval.start < sim_.now()) continue;
      sim_.schedule_at(interval.start, [this, machine] {
        if (machine->force_down(sim_.now())) {
          if (on_failure_) on_failure_(*machine);
        }
      });
      sim_.schedule_at(interval.end, [this, machine] {
        if (machine->release_down(sim_.now())) {
          if (on_repair_) on_repair_(*machine);
        }
      });
    }
  }
}

}  // namespace dg::grid
