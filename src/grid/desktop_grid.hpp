// Desktop Grid: a population of independently-owned machines.
//
// Grid construction follows the paper: fix a total computing power (P = 1000),
// then add machines until their powers sum to it. Hom grids use P_i = 10
// (exactly 100 machines); Het grids draw P_i ~ Uniform[2.3, 17.7] (about 100
// machines). Every machine gets an independent availability process.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "grid/availability.hpp"
#include "grid/checkpoint_server.hpp"
#include "grid/machine.hpp"
#include "grid/outage.hpp"
#include "rng/random_stream.hpp"

namespace dg::grid {

enum class Heterogeneity : std::uint8_t { kHom, kHet };

[[nodiscard]] std::string to_string(Heterogeneity het);

struct GridConfig {
  Heterogeneity heterogeneity = Heterogeneity::kHom;
  AvailabilityModel availability = AvailabilityModel::for_level(AvailabilityLevel::kHigh);
  /// Target total computing power; machines are added until reached.
  double total_power = 1000.0;
  /// Hom machine power.
  double hom_power = 10.0;
  /// Het power range (uniform).
  double het_power_lo = 2.3;
  double het_power_hi = 17.7;
  /// Checkpoint transfer time to/from the checkpoint server.
  rng::UniformDist checkpoint_transfer{240.0, 720.0};
  /// Concurrent transfer slots at the checkpoint server (0 = unlimited, the
  /// paper's pure-delay model).
  std::size_t checkpoint_server_capacity = 0;
  /// Checkpoint-server outages (disabled by default = paper's perfectly
  /// reliable server). Recovery semantics live in sim::ExecutionEngine.
  CheckpointServerFaultModel checkpoint_server_faults{};
  /// Correlated outages (disabled by default); composes with the
  /// per-machine availability model.
  OutageModel outages{};

  /// Paper preset, e.g. preset(kHet, kLow) = "Het-LowAvail".
  [[nodiscard]] static GridConfig preset(Heterogeneity het, AvailabilityLevel level);
  [[nodiscard]] std::string name() const;
};

class DesktopGrid final : public MachineAvailabilityListener {
 public:
  /// Sentinel returned by first_available()/next_available() when no machine
  /// is up-and-idle.
  static constexpr MachineId kNoMachine = ~MachineId{0};

  /// Builds the machine population deterministically from `seed`. The
  /// machine/process storage and the free-machine bitmap allocate from `mem`
  /// (default: global heap; see sim::SimulationWorkspace).
  DesktopGrid(const GridConfig& config, des::Simulator& sim, std::uint64_t seed,
              std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  DesktopGrid(const DesktopGrid&) = delete;
  DesktopGrid& operator=(const DesktopGrid&) = delete;

  /// Starts every machine's availability process; transition callbacks fire
  /// on each failure/repair. Call once, before running the simulation.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

  /// Starts only the correlated-outage process — for runs whose per-machine
  /// availability is replayed by an external driver (a recorded trace or a
  /// grid::RealizedAvailabilityDriver) instead of the live processes.
  void start_outages(TransitionCallback on_failure, TransitionCallback on_repair);

  [[nodiscard]] std::size_t size() const noexcept { return machines_.size(); }
  /// The resource the grid's storage draws from (the constructor's `mem`).
  [[nodiscard]] std::pmr::memory_resource* memory_resource() const noexcept {
    return machines_.get_allocator().resource();
  }
  [[nodiscard]] Machine& machine(std::size_t i) { return machines_[i]; }
  [[nodiscard]] const Machine& machine(std::size_t i) const { return machines_[i]; }

  /// Sum of machine powers (>= config.total_power by construction).
  [[nodiscard]] double total_power() const noexcept { return total_power_; }
  [[nodiscard]] const GridConfig& config() const noexcept { return config_; }
  [[nodiscard]] CheckpointServer& checkpoint_server() noexcept { return checkpoint_server_; }

  /// Machines currently up and idle, in id order (deterministic dispatch).
  [[nodiscard]] std::vector<Machine*> available_machines();
  [[nodiscard]] std::size_t up_count() const noexcept;

  // --- free-machine index -------------------------------------------------
  //
  // A bitmap over machine ids, maintained from each machine's availability
  // edge transitions, so the dispatch loop pulls the lowest-id up-and-idle
  // machine in O(N/64) words instead of scanning every machine. The id order
  // is identical to the scan the index replaced.

  /// Lowest-id available machine, or kNoMachine.
  [[nodiscard]] MachineId first_available() const noexcept;
  /// Lowest-id available machine with id > `after`, or kNoMachine.
  [[nodiscard]] MachineId next_available(MachineId after) const noexcept;
  /// Number of up-and-idle machines (O(1)).
  [[nodiscard]] std::size_t available_count() const noexcept { return available_count_; }

  [[nodiscard]] const AvailabilityProcess& availability_process(std::size_t i) const {
    return processes_[i];
  }
  /// The correlated-outage process (present even when disabled).
  [[nodiscard]] const OutageProcess& outage_process() const noexcept { return *outages_; }
  [[nodiscard]] std::uint64_t total_failures() const noexcept;
  /// Power-weighted mean of measured per-machine availability.
  [[nodiscard]] double measured_availability(des::SimTime now) const noexcept;

 private:
  void on_machine_availability(Machine& machine, bool available) override;

  GridConfig config_;
  des::Simulator& sim_;
  // Deques for pointer stability (Machine*/process references are handed
  // out) with per-replication allocator reuse — see the constructor.
  std::pmr::deque<Machine> machines_;
  std::pmr::deque<AvailabilityProcess> processes_;
  std::unique_ptr<OutageProcess> outages_;
  CheckpointServer checkpoint_server_;
  double total_power_ = 0.0;
  /// One bit per machine id; set = available. Sized at construction.
  std::pmr::vector<std::uint64_t> available_bits_;
  std::size_t available_count_ = 0;
};

}  // namespace dg::grid
