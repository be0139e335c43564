// World realizations: record-once / replay-many grid behaviour.
//
// The paper's methodology holds the grid realization fixed while varying the
// bag-selection policy (common random numbers), yet a live run re-samples
// every machine's Weibull/truncated-normal availability process — and the
// checkpoint server's exponential fault process — from scratch in every
// policy cell. A WorldRealization captures the policy-independent part of a
// replication once: the absolute transition times each process would have
// produced, synthesized on the *same* derived RNG streams in the same draw
// order, so replaying a realization is bit-identical to running the live
// processes (same event times, same scheduling sequence, same kernel
// counters).
//
// Layout is flat SoA: one double array of alternating fail/repair times for
// all machines, indexed by a per-machine offset table, plus one array of
// alternating down/up times for the checkpoint server. The replay drivers
// walk these arrays with cursors, scheduling events lazily — exactly one
// outstanding event per process, mirroring the live processes' scheduling
// pattern — so no RNG draw, distribution math, or std::function dispatch
// remains in the replay path.
//
// Recording rule: each sequence extends to the first transition strictly
// after `horizon`. A live process schedules its successor event even when
// that event lands past the run horizon (it is scheduled, never fired, and
// still consumes a kernel sequence number); the replay driver must be able
// to schedule that same dangling event, so it must be recorded.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/simulator.hpp"
#include "grid/availability.hpp"
#include "grid/checkpoint_server.hpp"
#include "grid/desktop_grid.hpp"
#include "grid/trace.hpp"

namespace dg::grid {

/// Reusable draw buffers for WorldRealization::synthesize() — phase one of
/// the draw-then-fill pipeline lands absolute transition times here before
/// the realization's exactly-sized arrays are filled. Keep one per thread
/// and pass it to every synthesize call to amortize growth.
struct SynthesisScratch {
  std::vector<double> machine_times;          ///< Concatenated per-machine draws.
  std::vector<std::uint32_t> machine_counts;  ///< Draws per machine.
  std::vector<double> server_times;           ///< Server fault-process draws.
  std::vector<double> outage_times;           ///< Outage strike times (+ dangling).
  std::vector<double> outage_durations;       ///< Per full strike.
  std::vector<std::uint32_t> outage_machines; ///< Victims, strike-major, hit order.
  std::vector<MachineId> outage_ids;          ///< sample_victims buffer.
};

/// The policy-independent stochastic behaviour of one replication's grid:
/// per-machine availability transitions and checkpoint-server fault
/// transitions, as absolute simulation times.
struct WorldRealization {
  /// The models this realization was synthesized from (used to verify cache
  /// hits and for diagnostics).
  AvailabilityModel availability{};
  CheckpointServerFaultModel server_faults{};
  OutageModel outages{};
  std::uint64_t seed = 0;
  /// Every per-process sequence covers at least [0, horizon]: it extends to
  /// the first transition strictly after `horizon`.
  double horizon = 0.0;
  std::size_t num_machines = 0;

  /// Alternating absolute transition times, fail/repair/fail/..., for all
  /// machines back to back; machine m owns
  /// [machine_offsets[m], machine_offsets[m + 1]). Empty per-machine ranges
  /// only when the availability model has failures disabled.
  std::vector<double> machine_transitions;
  std::vector<std::uint32_t> machine_offsets;  ///< num_machines + 1 entries.
  /// Alternating absolute server transition times, down/up/down/...; empty
  /// when the server fault model is disabled.
  std::vector<double> server_transitions;

  /// Correlated-outage timeline (empty when the outage model is disabled).
  /// Strike k <= horizon is "full": it records a duration and a fixed-stride
  /// victim list (machines_per_outage ids each, in live hit order). The final
  /// entry of `outage_times` is the dangling first strike strictly past the
  /// horizon — scheduled by a live run, never fired, so it records neither
  /// victims nor duration (the live process draws those only when the strike
  /// fires). outage_times.size() == outage_durations.size() + 1.
  std::vector<double> outage_times;
  std::vector<double> outage_durations;
  std::vector<std::uint32_t> outage_machines;  ///< Strike-major, hit order.
  /// Victims per strike: victim_count(outages.fraction, num_machines) —
  /// constant across strikes, so no offset table is needed.
  std::uint32_t machines_per_outage = 0;

  /// True when the realization's sequences extend past `h`.
  [[nodiscard]] bool covers(double h) const noexcept { return h <= horizon; }
  /// Heap footprint (for the cache's byte budget).
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Downtime-interval view of the machine timelines (complete fail/repair
  /// pairs; a dangling past-horizon failure is dropped, matching the event
  /// that would never have fired).
  [[nodiscard]] AvailabilityTrace to_trace() const;

  /// Synthesizes the realization for (models, machine count, seed), covering
  /// [0, horizon]. Draws from the same derived streams as the live processes
  /// — rng::RandomStream::derive(seed, "grid.availability", machine),
  /// derive(seed, "ckpt_server.faults") and derive(seed, "grid.outages") —
  /// in the same order, so the recorded times are bitwise equal to the event
  /// times a live run produces.
  ///
  /// Synthesis is a two-phase draw-then-fill pipeline: phase one runs the
  /// RNG chains and accumulates absolute transition times into the flat SoA
  /// buffers of a SynthesisScratch (growth amortizes across calls when the
  /// scratch is reused); phase two sizes the realization's arrays exactly
  /// once and fills them with flat block copies — no doubling reallocations
  /// or shrink_to_fit churn on the published arrays. The draw loops consume
  /// the streams in the exact live order (the truncated-normal rejection
  /// loop and the polar normal's cached spare make per-draw consumption
  /// variable, so draws cannot be chunked), which is what keeps recorded
  /// times bitwise equal to live event times.
  [[nodiscard]] static WorldRealization synthesize(const AvailabilityModel& availability,
                                                   const CheckpointServerFaultModel& server_faults,
                                                   const OutageModel& outages,
                                                   std::size_t num_machines, double horizon,
                                                   std::uint64_t seed);
  /// As above, drawing through `scratch` — reuse one scratch across
  /// synthesize calls (e.g. per thread) to amortize draw-buffer growth.
  [[nodiscard]] static WorldRealization synthesize(const AvailabilityModel& availability,
                                                   const CheckpointServerFaultModel& server_faults,
                                                   const OutageModel& outages,
                                                   std::size_t num_machines, double horizon,
                                                   std::uint64_t seed, SynthesisScratch& scratch);
};

/// Per-machine replay cursor storage, retained by sim::SimulationWorkspace
/// across replications so a warmed workspace replays without heap traffic.
struct ReplayCursors {
  std::vector<std::uint32_t> machine;
};

/// Replays a WorldRealization's machine timelines onto a grid, mirroring the
/// scheduling pattern of the live AvailabilityProcess exactly: one
/// outstanding event per machine, the transition applied (and the callback
/// fired) before the successor is scheduled. Use instead of
/// DesktopGrid::start() — pair with DesktopGrid::start_outages().
class RealizedAvailabilityDriver {
 public:
  RealizedAvailabilityDriver(des::Simulator& sim, DesktopGrid& grid,
                             const WorldRealization& world, ReplayCursors& cursors)
      : sim_(sim), grid_(grid), world_(world), cursors_(cursors) {}

  /// Schedules each machine's first failure (in machine-id order, matching
  /// DesktopGrid::start()). Call once, before running.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

 private:
  void fail(std::uint32_t machine_index);
  void repair(std::uint32_t machine_index);
  /// Consumes and returns machine m's next recorded transition time.
  [[nodiscard]] double next_transition(std::uint32_t machine_index);

  des::Simulator& sim_;
  DesktopGrid& grid_;
  const WorldRealization& world_;
  ReplayCursors& cursors_;
  TransitionCallback on_failure_;
  TransitionCallback on_repair_;
};

/// Replays a WorldRealization's correlated-outage timeline onto a grid,
/// mirroring OutageProcess event for event: strike k takes down its recorded
/// victims (callback on real edges only), schedules one release per victim at
/// strike time + recorded duration, then schedules the next strike — the
/// dangling past-horizon strike is scheduled and never fires, preserving
/// kernel sequence-number parity with the live process. Use instead of
/// DesktopGrid::start_outages().
class RealizedOutageDriver {
 public:
  RealizedOutageDriver(des::Simulator& sim, DesktopGrid& grid, const WorldRealization& world)
      : sim_(sim), grid_(grid), world_(world) {}

  /// Schedules the first strike (no-op when the outage model is disabled).
  /// Call once, before running.
  void start(TransitionCallback on_failure, TransitionCallback on_repair);

  [[nodiscard]] std::uint64_t outages() const noexcept { return outages_; }
  [[nodiscard]] std::uint64_t machines_hit() const noexcept { return machines_hit_; }

 private:
  void strike();

  des::Simulator& sim_;
  DesktopGrid& grid_;
  const WorldRealization& world_;
  TransitionCallback on_failure_;
  TransitionCallback on_repair_;
  std::uint32_t cursor_ = 0;  ///< Next strike index.
  std::uint64_t outages_ = 0;
  std::uint64_t machines_hit_ = 0;
};

/// Replays the checkpoint-server fault timeline, mirroring
/// CheckpointServerFaultProcess: apply the transition through the server's
/// down-cause counting (callback on real edges only), then schedule the
/// successor from the recorded array.
class RealizedServerFaultDriver {
 public:
  using Callback = util::InlineFunction<void()>;

  RealizedServerFaultDriver(des::Simulator& sim, CheckpointServer& server,
                            const WorldRealization& world)
      : sim_(sim), server_(server), world_(world) {}

  /// Schedules the first crash. Call once, before running.
  void start(Callback on_down, Callback on_up);

 private:
  void crash();
  void repair();
  [[nodiscard]] double next_transition();

  des::Simulator& sim_;
  CheckpointServer& server_;
  const WorldRealization& world_;
  Callback on_down_;
  Callback on_up_;
  std::uint32_t cursor_ = 0;
};

}  // namespace dg::grid
