#include "grid/realization.hpp"

#include <algorithm>
#include <utility>

#include "rng/random_stream.hpp"
#include "util/assert.hpp"

namespace dg::grid {

std::size_t WorldRealization::byte_size() const noexcept {
  return sizeof(WorldRealization) + machine_transitions.capacity() * sizeof(double) +
         machine_offsets.capacity() * sizeof(std::uint32_t);
}

AvailabilityTrace WorldRealization::to_trace() const {
  std::vector<MachineTrace> machines(num_machines);
  for (std::size_t m = 0; m < num_machines; ++m) {
    const std::uint32_t begin = machine_offsets[m];
    const std::uint32_t end = machine_offsets[m + 1];
    for (std::uint32_t i = begin; i + 1 < end; i += 2) {
      machines[m].downtime.push_back({machine_transitions[i], machine_transitions[i + 1]});
    }
  }
  return AvailabilityTrace(std::move(machines));
}

WorldRealization WorldRealization::synthesize(const AvailabilityModel& availability,
                                              std::size_t num_machines, double horizon,
                                              std::uint64_t seed) {
  SynthesisScratch scratch;
  return synthesize(availability, num_machines, horizon, seed, scratch);
}

WorldRealization WorldRealization::synthesize(const AvailabilityModel& availability,
                                              std::size_t num_machines, double horizon,
                                              std::uint64_t seed, SynthesisScratch& scratch) {
  DG_ASSERT_MSG(horizon > 0.0, "WorldRealization: horizon must be positive");
  WorldRealization world;
  world.availability = availability;
  world.seed = seed;
  world.horizon = horizon;
  world.num_machines = num_machines;

  // Phase one: draw. Run each RNG chain to past the horizon, landing the
  // absolute times in the reusable scratch buffers. The chains are inherently
  // serial (each draw feeds the next clock value, and the distributions
  // consume a variable number of underlying uniforms), so what this phase
  // buys is allocation behaviour: scratch capacity persists across calls, so
  // a warmed scratch draws with zero allocations.
  scratch.machine_times.clear();
  scratch.machine_counts.clear();
  if (availability.failures_enabled) {
    scratch.machine_counts.reserve(num_machines);
    for (std::size_t m = 0; m < num_machines; ++m) {
      // Same stream, same draw order as the live AvailabilityProcess for
      // machine m. Event times in the live run accumulate as
      // t_{k+1} = t_k + sample (schedule_after on the exact fired time), so
      // `clock += sample` reproduces them bitwise.
      rng::RandomStream stream = rng::RandomStream::derive(seed, "grid.availability", m);
      const std::size_t start = scratch.machine_times.size();
      double clock = 0.0;
      for (std::size_t k = 0;; ++k) {
        clock += k % 2 == 0 ? availability.time_to_failure.sample(stream)
                            : availability.time_to_repair.sample(stream);
        scratch.machine_times.push_back(clock);
        if (clock > horizon) break;  // the dangling never-fired successor is kept
      }
      scratch.machine_counts.push_back(
          static_cast<std::uint32_t>(scratch.machine_times.size() - start));
    }
  }

  // Phase two: fill. Size the published arrays exactly once and fill them
  // with flat copies — the offset table is a prefix sum over the per-machine
  // counts, the timelines are block copies of the scratch buffers. No
  // doubling growth or shrink_to_fit churn ever touches the arrays the
  // replay driver walks.
  world.machine_offsets.resize(num_machines + 1);
  world.machine_offsets[0] = 0;
  if (availability.failures_enabled) {
    std::uint32_t total = 0;
    for (std::size_t m = 0; m < num_machines; ++m) {
      total += scratch.machine_counts[m];
      world.machine_offsets[m + 1] = total;
    }
    world.machine_transitions.assign(scratch.machine_times.begin(), scratch.machine_times.end());
  } else {
    std::fill(world.machine_offsets.begin(), world.machine_offsets.end(), 0U);
  }
  return world;
}

void RealizedAvailabilityDriver::start(TransitionCallback on_failure,
                                       TransitionCallback on_repair) {
  DG_ASSERT_MSG(world_.num_machines == grid_.size(),
                "RealizedAvailabilityDriver: realization/grid machine count mismatch");
  on_failure_ = on_failure;
  on_repair_ = on_repair;
  cursors_.machine.assign(grid_.size(), 0);
  // Machine-id order, one first-failure event per machine — the exact
  // scheduling sequence of DesktopGrid::start() over live processes.
  for (std::uint32_t m = 0; m < grid_.size(); ++m) {
    cursors_.machine[m] = world_.machine_offsets[m];
    if (cursors_.machine[m] == world_.machine_offsets[m + 1]) continue;  // failures disabled
    sim_.schedule_at(next_transition(m), [this, m] { fail(m); });
  }
}

double RealizedAvailabilityDriver::next_transition(std::uint32_t machine_index) {
  std::uint32_t& cursor = cursors_.machine[machine_index];
  DG_ASSERT_MSG(cursor < world_.machine_offsets[machine_index + 1],
                "RealizedAvailabilityDriver: replay ran past the recorded horizon");
  return world_.machine_transitions[cursor++];
}

void RealizedAvailabilityDriver::fail(std::uint32_t machine_index) {
  Machine& machine = grid_.machine(machine_index);
  // Mirror AvailabilityProcess::fail(): apply the transition (callback on a
  // real up -> down edge only) before scheduling the repair.
  if (machine.force_down(sim_.now())) {
    if (on_failure_) on_failure_(machine);
  }
  sim_.schedule_at(next_transition(machine_index), [this, machine_index] { repair(machine_index); });
}

void RealizedAvailabilityDriver::repair(std::uint32_t machine_index) {
  Machine& machine = grid_.machine(machine_index);
  if (machine.release_down(sim_.now())) {
    if (on_repair_) on_repair_(machine);
  }
  sim_.schedule_at(next_transition(machine_index), [this, machine_index] { fail(machine_index); });
}

}  // namespace dg::grid
