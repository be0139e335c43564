#include "grid/realization.hpp"

#include <algorithm>
#include <utility>

#include "rng/random_stream.hpp"
#include "util/assert.hpp"

namespace dg::grid {

std::size_t WorldRealization::byte_size() const noexcept {
  return sizeof(WorldRealization) + machine_transitions.capacity() * sizeof(double) +
         machine_offsets.capacity() * sizeof(std::uint32_t) +
         server_transitions.capacity() * sizeof(double) +
         outage_times.capacity() * sizeof(double) +
         outage_durations.capacity() * sizeof(double) +
         outage_machines.capacity() * sizeof(std::uint32_t);
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
                                              const CheckpointServerFaultModel& server_faults,
                                              const OutageModel& outages,
                                              std::size_t num_machines, double horizon,
                                              std::uint64_t seed) {
  SynthesisScratch scratch;
  return synthesize(availability, server_faults, outages, num_machines, horizon, seed, scratch);
}

WorldRealization WorldRealization::synthesize(const AvailabilityModel& availability,
                                              const CheckpointServerFaultModel& server_faults,
                                              const OutageModel& outages,
                                              std::size_t num_machines, double horizon,
                                              std::uint64_t seed, SynthesisScratch& scratch) {
  DG_ASSERT_MSG(horizon > 0.0, "WorldRealization: horizon must be positive");
  WorldRealization world;
  world.availability = availability;
  world.server_faults = server_faults;
  world.outages = outages;
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
  scratch.server_times.clear();
  scratch.outage_times.clear();
  scratch.outage_durations.clear();
  scratch.outage_machines.clear();
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

  if (server_faults.enabled) {
    DG_ASSERT_MSG(server_faults.mtbf > 0.0 && server_faults.mttr > 0.0,
                  "WorldRealization: server MTBF and MTTR must be positive");
    rng::RandomStream stream = rng::RandomStream::derive(seed, "ckpt_server.faults");
    double clock = 0.0;
    for (std::size_t k = 0;; ++k) {
      clock += stream.exponential_mean(k % 2 == 0 ? server_faults.mtbf : server_faults.mttr);
      scratch.server_times.push_back(clock);
      if (clock > horizon) break;
    }
  }

  if (outages.enabled) {
    DG_ASSERT_MSG(outages.mean_interarrival > 0.0 &&
                      outages.fraction > 0.0 && outages.fraction <= 1.0,
                  "WorldRealization: outage model parameters out of range");
    // Same stream, same draw order as the live OutageProcess: the start()
    // inter-arrival, then per strike the victim draws (partial Fisher-Yates
    // over the ids), the duration, and the next inter-arrival. A strike at
    // exactly `horizon` still fires live, so it is recorded full; the first
    // strike strictly past the horizon is scheduled live but never fires —
    // recorded time-only (its victims/duration were never drawn).
    rng::RandomStream stream = rng::RandomStream::derive(seed, "grid.outages");
    std::size_t count =
        static_cast<std::size_t>(outages.fraction * static_cast<double>(num_machines));
    count = std::clamp<std::size_t>(count, 1, num_machines);
    world.machines_per_outage = static_cast<std::uint32_t>(count);
    double clock = stream.exponential_mean(outages.mean_interarrival);
    while (clock <= horizon) {
      scratch.outage_times.push_back(clock);
      scratch.outage_ids.resize(num_machines);
      for (std::size_t i = 0; i < num_machines; ++i) scratch.outage_ids[i] = i;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(stream.uniform_int(0, num_machines - 1 - i));
        std::swap(scratch.outage_ids[i], scratch.outage_ids[j]);
        scratch.outage_machines.push_back(static_cast<std::uint32_t>(scratch.outage_ids[i]));
      }
      scratch.outage_durations.push_back(std::max(1.0, outages.duration.sample(stream)));
      clock += stream.exponential_mean(outages.mean_interarrival);
    }
    scratch.outage_times.push_back(clock);  // the dangling never-fired strike
  }

  // Phase two: fill. Size the published arrays exactly once and fill them
  // with flat copies — the offset table is a prefix sum over the per-machine
  // counts, the timelines are block copies of the scratch buffers. No
  // doubling growth or shrink_to_fit churn ever touches the arrays the
  // replay drivers walk.
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
  world.server_transitions.assign(scratch.server_times.begin(), scratch.server_times.end());
  world.outage_times.assign(scratch.outage_times.begin(), scratch.outage_times.end());
  world.outage_durations.assign(scratch.outage_durations.begin(), scratch.outage_durations.end());
  world.outage_machines.assign(scratch.outage_machines.begin(), scratch.outage_machines.end());
  return world;
}

void RealizedOutageDriver::start(TransitionCallback on_failure, TransitionCallback on_repair) {
  on_failure_ = on_failure;
  on_repair_ = on_repair;
  if (!world_.outages.enabled) return;
  DG_ASSERT_MSG(world_.num_machines == grid_.size(),
                "RealizedOutageDriver: realization/grid machine count mismatch");
  DG_ASSERT_MSG(!world_.outage_times.empty(),
                "RealizedOutageDriver: enabled outage model with empty timeline");
  sim_.schedule_at(world_.outage_times[0], [this] { strike(); });
}

void RealizedOutageDriver::strike() {
  // Mirror OutageProcess::strike(): per victim apply the transition (callback
  // on a real up -> down edge only) and schedule its release, then schedule
  // the next strike. The last scheduled strike is the recorded dangling
  // past-horizon entry — it never fires (the assert below pins that).
  const std::uint32_t k = cursor_++;
  DG_ASSERT_MSG(k < world_.outage_durations.size(),
                "RealizedOutageDriver: replay ran past the recorded horizon");
  ++outages_;
  const double release_time = world_.outage_times[k] + world_.outage_durations[k];
  const std::uint32_t begin = k * world_.machines_per_outage;
  for (std::uint32_t i = begin; i < begin + world_.machines_per_outage; ++i) {
    Machine& machine = grid_.machine(world_.outage_machines[i]);
    ++machines_hit_;
    if (machine.force_down(sim_.now())) {
      if (on_failure_) on_failure_(machine);
    }
    sim_.schedule_at(release_time, [this, &machine] {
      if (machine.release_down(sim_.now())) {
        if (on_repair_) on_repair_(machine);
      }
    });
  }
  sim_.schedule_at(world_.outage_times[k + 1], [this] { strike(); });
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

void RealizedServerFaultDriver::start(Callback on_down, Callback on_up) {
  on_down_ = on_down;
  on_up_ = on_up;
  if (!world_.server_faults.enabled) return;
  DG_ASSERT_MSG(!world_.server_transitions.empty(),
                "RealizedServerFaultDriver: enabled fault model with empty timeline");
  sim_.schedule_at(next_transition(), [this] { crash(); });
}

double RealizedServerFaultDriver::next_transition() {
  DG_ASSERT_MSG(cursor_ < world_.server_transitions.size(),
                "RealizedServerFaultDriver: replay ran past the recorded horizon");
  return world_.server_transitions[cursor_++];
}

void RealizedServerFaultDriver::crash() {
  // Mirror CheckpointServerFaultProcess::crash(): transition through the
  // down-cause counting (callback on a real edge only — the server may
  // already be down for an adversarial stress window), then the successor.
  if (server_.force_down(sim_.now())) {
    if (on_down_) on_down_();
  }
  sim_.schedule_at(next_transition(), [this] { repair(); });
}

void RealizedServerFaultDriver::repair() {
  if (server_.release_down(sim_.now())) {
    if (on_up_) on_up_();
  }
  sim_.schedule_at(next_transition(), [this] { crash(); });
}

}  // namespace dg::grid
