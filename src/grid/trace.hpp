// Machine availability traces.
//
// Desktop-grid studies (Nurmi/Brevik/Wolski, the Failure Trace Archive)
// record machine availability as alternating up/down intervals. This module
// lets dgsched (a) synthesize such traces from an AvailabilityModel, (b)
// save/load them as CSV, and (c) replay them — TraceAvailabilityDriver
// drives a DesktopGrid's machines from a trace instead of the stochastic
// availability processes, so experiments can be repeated against recorded
// (or real-world) machine behaviour.
//
// CSV format (header + one row per downtime interval):
//   machine,down_start,down_end
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "des/simulator.hpp"
#include "grid/availability.hpp"
#include "grid/desktop_grid.hpp"

namespace dg::grid {

struct DowntimeInterval {
  double start = 0.0;
  double end = 0.0;
};

struct MachineTrace {
  /// Downtime intervals, ascending and non-overlapping.
  std::vector<DowntimeInterval> downtime;

  /// Fraction of [0, horizon) the machine is up.
  [[nodiscard]] double availability(double horizon) const noexcept;
};

class AvailabilityTrace {
 public:
  AvailabilityTrace() = default;
  explicit AvailabilityTrace(std::vector<MachineTrace> machines)
      : machines_(std::move(machines)) {}

  [[nodiscard]] std::size_t num_machines() const noexcept { return machines_.size(); }
  [[nodiscard]] const MachineTrace& machine(std::size_t i) const { return machines_.at(i); }
  [[nodiscard]] bool empty() const noexcept { return machines_.empty(); }

  /// Mean availability over machines for [0, horizon).
  [[nodiscard]] double mean_availability(double horizon) const noexcept;

  /// Samples a trace from the Weibull/normal availability model, one
  /// independent process per machine, covering [0, horizon).
  [[nodiscard]] static AvailabilityTrace synthesize(const AvailabilityModel& model,
                                                    std::size_t num_machines, double horizon,
                                                    std::uint64_t seed);

  void save_csv(std::ostream& os) const;
  /// Throws std::runtime_error naming the line on malformed input: a bad
  /// header, a machine id that is not plain digits or more than one past the
  /// highest so far, a time that is not finite, or a negative, inverted or
  /// overlapping interval.
  [[nodiscard]] static AvailabilityTrace load_csv(std::istream& is);

 private:
  std::vector<MachineTrace> machines_;
};

/// Replays a trace onto a grid: schedules the down/up transitions of
/// machine i from trace entry (i mod trace size). Use with a grid whose own
/// failure processes are disabled.
class TraceAvailabilityDriver {
 public:
  TraceAvailabilityDriver(des::Simulator& sim, DesktopGrid& grid, AvailabilityTrace trace)
      : sim_(sim), grid_(grid), trace_(std::move(trace)) {}

  /// Schedules every transition; call once before running.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

 private:
  des::Simulator& sim_;
  DesktopGrid& grid_;
  AvailabilityTrace trace_;
  TransitionCallback on_failure_;
  TransitionCallback on_repair_;
};

}  // namespace dg::grid
