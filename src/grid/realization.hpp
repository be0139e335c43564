// World realizations: record-once / replay-many machine availability.
//
// The paper's methodology holds the grid realization fixed while varying the
// bag-selection policy (common random numbers), yet a live run re-samples
// every machine's Weibull/truncated-normal availability process from scratch
// in every policy cell. A WorldRealization captures the machine availability
// of a replication once: the absolute transition times each machine's
// process would have produced, synthesized on the *same* derived RNG streams
// in the same draw order, so replaying a realization is bit-identical to
// running the live processes (same event times, same scheduling sequence,
// same kernel counters). Checkpoint-server faults and correlated outages are
// not recorded: they always run live, each on its own derived stream.
//
// Layout is flat SoA: one double array of alternating fail/repair times for
// all machines, indexed by a per-machine offset table. The replay driver
// walks it with cursors, scheduling events lazily — exactly one outstanding
// event per machine, mirroring the live processes' scheduling pattern — so
// no RNG draw or distribution math remains in the replay path.
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
};

/// The machine availability of one replication's grid: per-machine
/// transitions as absolute simulation times.
struct WorldRealization {
  /// The model this realization was synthesized from (used to verify cache
  /// hits and for diagnostics).
  AvailabilityModel availability{};
  std::uint64_t seed = 0;
  /// Every per-machine sequence covers at least [0, horizon]: it extends to
  /// the first transition strictly after `horizon`.
  double horizon = 0.0;
  std::size_t num_machines = 0;

  /// Alternating absolute transition times, fail/repair/fail/..., for all
  /// machines back to back; machine m owns
  /// [machine_offsets[m], machine_offsets[m + 1]). Empty per-machine ranges
  /// only when the availability model has failures disabled.
  std::vector<double> machine_transitions;
  std::vector<std::uint32_t> machine_offsets;  ///< num_machines + 1 entries.

  /// True when the realization's sequences extend past `h`.
  [[nodiscard]] bool covers(double h) const noexcept { return h <= horizon; }
  /// Heap footprint (for the cache's byte budget).
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Downtime-interval view of the machine timelines (complete fail/repair
  /// pairs; a dangling past-horizon failure is dropped, matching the event
  /// that would never have fired).
  [[nodiscard]] AvailabilityTrace to_trace() const;

  /// Synthesizes the realization for (model, machine count, seed), covering
  /// [0, horizon]. Draws from the same derived streams as the live processes
  /// — rng::RandomStream::derive(seed, "grid.availability", machine) — in
  /// the same order, so the recorded times are bitwise equal to the event
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
                                                   std::size_t num_machines, double horizon,
                                                   std::uint64_t seed);
  /// As above, drawing through `scratch` — reuse one scratch across
  /// synthesize calls (e.g. per thread) to amortize draw-buffer growth.
  [[nodiscard]] static WorldRealization synthesize(const AvailabilityModel& availability,
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

}  // namespace dg::grid
