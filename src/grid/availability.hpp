// Machine availability modeling.
//
// Per the paper: times-to-failure follow a Weibull distribution (after Nurmi,
// Brevik & Wolski's availability study) and repair times a truncated
// Normal(1800, 300). The three paper levels (~98% / 75% / 50%) are produced by
// solving the Weibull scale so that MTTF/(MTTF+MTTR) hits the target for a
// fixed shape. AvailabilityProcess drives one machine's up/down alternation as
// simulator events and reports transitions to the grid.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "des/simulator.hpp"
#include "grid/machine.hpp"
#include "rng/distributions.hpp"
#include "rng/random_stream.hpp"

namespace dg::grid {

enum class AvailabilityLevel : std::uint8_t { kHigh, kMed, kLow, kAlways };

[[nodiscard]] std::string to_string(AvailabilityLevel level);
/// Accepts "HighAvail"/"high", "MedAvail"/"med"/"medium", "LowAvail"/"low",
/// "AlwaysAvail"/"always"/"none" (case-insensitive); nullopt otherwise.
[[nodiscard]] std::optional<AvailabilityLevel> parse_availability_level(std::string_view name);

struct AvailabilityModel {
  rng::WeibullDist time_to_failure{0.7, 1.0};
  rng::TruncatedNormalDist time_to_repair{1800.0, 300.0, 1.0, 1e9};
  /// kAlways disables the failure process entirely.
  bool failures_enabled = true;

  /// Long-run availability implied by the means: MTTF / (MTTF + MTTR).
  [[nodiscard]] double availability() const noexcept;

  /// Mean time to failure (Weibull mean).
  [[nodiscard]] double mttf() const noexcept { return time_to_failure.mean(); }
  [[nodiscard]] double mttr() const noexcept { return time_to_repair.mean(); }

  /// Builds a model achieving `target` availability for the given Weibull
  /// shape and Normal(repair_mean, repair_sd) repair distribution.
  [[nodiscard]] static AvailabilityModel from_availability(double target, double weibull_shape = 0.7,
                                                           double repair_mean = 1800.0,
                                                           double repair_sd = 300.0);

  /// Paper presets: High ~98%, Med ~75%, Low ~50%; kAlways = no failures.
  [[nodiscard]] static AvailabilityModel for_level(AvailabilityLevel level);
};

/// Drives one machine through alternating UP (Weibull TTF) and DOWN
/// (truncated-normal TTR) periods. Transition callbacks let the grid notify
/// the execution engine.
class AvailabilityProcess {
 public:
  AvailabilityProcess(des::Simulator& sim, Machine& machine, AvailabilityModel model,
                      rng::RandomStream stream);

  /// Schedules the first failure (machines start UP). No-op when failures
  /// are disabled.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

  /// Measured fraction of time the machine has been UP (delegates to the
  /// machine's own downtime accounting, so correlated outages count too).
  [[nodiscard]] double measured_availability(des::SimTime now) const noexcept;
  /// Fail events generated by THIS process (the machine may additionally go
  /// down for other reasons).
  [[nodiscard]] std::uint64_t failure_count() const noexcept { return failure_count_; }

 private:
  void fail();
  void repair();

  des::Simulator& sim_;
  Machine& machine_;
  AvailabilityModel model_;
  rng::RandomStream stream_;
  TransitionCallback on_failure_;
  TransitionCallback on_repair_;
  std::uint64_t failure_count_ = 0;
  bool started_ = false;
};

}  // namespace dg::grid
