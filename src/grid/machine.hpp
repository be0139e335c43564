// A Desktop Grid machine.
//
// Machines carry a relative computing power P_i (work units per second; the
// paper's reference machine has P = 1) and an up/down state. A machine can be
// down for several overlapping reasons at once (its own crash AND a
// correlated outage), so down-ness is a cause count: force_down()/
// release_down() return whether the call crossed the up/down edge, and only
// edge crossings trigger scheduler/engine callbacks. The machine also
// accounts its own downtime so measured availability works for every failure
// source (stochastic processes, traces, outages).
//
// Occupancy (whether a replica is executing) is managed by the execution
// engine through set_busy(); the machine stays scheduler-agnostic.
#pragma once

#include <cstdint>

#include "util/assert.hpp"
#include "util/inline_function.hpp"

namespace dg::grid {

using MachineId = std::uint32_t;

enum class MachineState : std::uint8_t { kUp, kDown };

class Machine;

/// Reports one machine up/down edge to the execution engine (or a test);
/// captures at most two words (see util/inline_function.hpp).
using TransitionCallback = util::InlineFunction<void(Machine&)>;

/// Observer for a machine's available() edge transitions. A machine is
/// available iff it is up and not busy; every mutation that crosses that
/// boundary (set_busy, force_down, release_down) fires exactly one callback.
/// DesktopGrid implements this to keep its free-machine index current.
class MachineAvailabilityListener {
 public:
  virtual void on_machine_availability(Machine& machine, bool available) = 0;

 protected:
  ~MachineAvailabilityListener() = default;
};

class Machine {
 public:
  Machine(MachineId id, double power) : id_(id), power_(power) {
    DG_ASSERT_MSG(power > 0.0, "machine power must be positive");
  }

  [[nodiscard]] MachineId id() const noexcept { return id_; }
  /// Relative computing power (P=1 is the paper's reference machine).
  [[nodiscard]] double power() const noexcept { return power_; }

  [[nodiscard]] MachineState state() const noexcept {
    return down_causes_ == 0 ? MachineState::kUp : MachineState::kDown;
  }
  [[nodiscard]] bool up() const noexcept { return down_causes_ == 0; }
  /// Up and not executing a replica — eligible for dispatch.
  [[nodiscard]] bool available() const noexcept { return up() && !busy_; }
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  void set_busy(bool busy) noexcept {
    if (busy_ == busy) return;
    const bool was_available = available();
    busy_ = busy;
    notify_availability(was_available);
  }

  /// Registers the (single) availability listener; nullptr detaches it.
  void set_availability_listener(MachineAvailabilityListener* listener) noexcept {
    listener_ = listener;
  }

  /// Adds a down-cause at time `now`. Returns true iff the machine just
  /// transitioned up -> down (callers fire failure callbacks only then).
  bool force_down(double now) noexcept {
    const bool was_available = available();
    ++down_causes_;
    if (down_causes_ == 1) {
      down_since_ = now;
      ++failures_;
      notify_availability(was_available);
      return true;
    }
    return false;
  }

  /// Removes one down-cause at time `now`. Returns true iff the machine just
  /// transitioned down -> up (callers fire repair callbacks only then).
  bool release_down(double now) noexcept {
    DG_ASSERT_MSG(down_causes_ > 0, "release_down on an up machine");
    const bool was_available = available();
    --down_causes_;
    if (down_causes_ == 0) {
      total_downtime_ += now - down_since_;
      notify_availability(was_available);
      return true;
    }
    return false;
  }

  [[nodiscard]] int down_causes() const noexcept { return down_causes_; }

  /// Up -> down transitions so far.
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

  /// Fraction of [0, now] the machine has been up.
  [[nodiscard]] double measured_availability(double now) const noexcept {
    if (now <= 0.0) return 1.0;
    double down = total_downtime_;
    if (!up()) down += now - down_since_;
    return 1.0 - down / now;
  }

 private:
  void notify_availability(bool was_available) noexcept {
    if (listener_ != nullptr && was_available != available()) {
      listener_->on_machine_availability(*this, available());
    }
  }

  MachineId id_;
  double power_;
  MachineAvailabilityListener* listener_ = nullptr;
  int down_causes_ = 0;
  bool busy_ = false;
  std::uint64_t failures_ = 0;
  double down_since_ = 0.0;
  double total_downtime_ = 0.0;
};

}  // namespace dg::grid
