// Correlated outages: groups of machines going down together.
//
// Independent per-machine churn (AvailabilityProcess) misses a failure mode
// that real Desktop Grids exhibit: a LAN segment reboot, a building power
// cut, or a lab closing for the night takes a *fraction of the grid* down at
// once. Correlated failures are the worst case for replication — replicas of
// a task are likely to die together — so schedulers that lean on replication
// lose their safety margin. OutageProcess composes with the per-machine
// processes via the machine's down-cause counting.
#pragma once

#include <cstdint>
#include <vector>

#include "des/simulator.hpp"
#include "grid/machine.hpp"
#include "rng/distributions.hpp"
#include "rng/random_stream.hpp"

namespace dg::grid {

class DesktopGrid;

/// A half-open absolute-time interval [start, end) of deliberately elevated
/// stress. The adversarial scenario director (sim/adversary.hpp) places
/// windows so arrival bursts, correlated machine outages, and
/// checkpoint-server downtime all coincide.
struct StressWindow {
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double duration() const noexcept { return end - start; }
  [[nodiscard]] bool contains(double t) const noexcept { return t >= start && t < end; }
  [[nodiscard]] bool operator==(const StressWindow&) const = default;
};

struct OutageModel {
  bool enabled = false;
  /// Mean time between outage events (exponential).
  double mean_interarrival = 86400.0;
  /// Fraction of the grid's machines hit by each outage (rounded down,
  /// minimum 1 machine).
  double fraction = 0.2;
  /// Outage duration; all affected machines come back together.
  rng::Distribution duration = rng::UniformDist{1800.0, 7200.0};

  /// Long-run availability loss caused by outages alone:
  /// fraction * E[duration] / mean_interarrival.
  [[nodiscard]] double availability_loss() const noexcept {
    return enabled ? fraction * duration.mean() / mean_interarrival : 0.0;
  }
};

class OutageProcess {
 public:
  OutageProcess(des::Simulator& sim, DesktopGrid& grid, OutageModel model,
                rng::RandomStream stream);

  /// Schedules the first outage. Callbacks fire per machine, only on real
  /// up/down edges.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

  [[nodiscard]] std::uint64_t outages() const noexcept { return outages_; }
  [[nodiscard]] std::uint64_t machines_hit() const noexcept { return machines_hit_; }

 private:
  void strike();

  des::Simulator& sim_;
  DesktopGrid& grid_;
  OutageModel model_;
  rng::RandomStream stream_;
  TransitionCallback on_failure_;
  TransitionCallback on_repair_;
  std::uint64_t outages_ = 0;
  std::uint64_t machines_hit_ = 0;
};

/// Deterministically *timed* correlated outages: one outage per StressWindow,
/// starting at window.start and released at window.end. Unlike OutageProcess
/// (whose strike times are an exponential process), only the *victim set* is
/// random — sampled per window from the process's own stream, so enabling the
/// adversary perturbs no other stream. Composes with the stochastic
/// availability processes (and OutageProcess) through the machines'
/// down-cause counting.
class ScheduledOutageProcess {
 public:
  /// `windows` must be sorted ascending by start with end > start each;
  /// `fraction` of the grid (rounded down, minimum 1 machine) is hit per
  /// window.
  ScheduledOutageProcess(des::Simulator& sim, DesktopGrid& grid,
                         std::vector<StressWindow> windows, double fraction,
                         rng::RandomStream stream);

  /// Schedules one strike per window. Callbacks fire per machine, only on
  /// real up/down edges. Call once, before running.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

  [[nodiscard]] std::uint64_t outages() const noexcept { return outages_; }
  [[nodiscard]] std::uint64_t machines_hit() const noexcept { return machines_hit_; }

 private:
  void strike(std::size_t window_index);

  des::Simulator& sim_;
  DesktopGrid& grid_;
  std::vector<StressWindow> windows_;
  double fraction_;
  rng::RandomStream stream_;
  TransitionCallback on_failure_;
  TransitionCallback on_repair_;
  std::vector<std::size_t> ids_;  ///< Reused partial-Fisher-Yates buffer.
  std::uint64_t outages_ = 0;
  std::uint64_t machines_hit_ = 0;
};

}  // namespace dg::grid
