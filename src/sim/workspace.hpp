// Reusable per-worker allocation bundle for simulation replications.
//
// ExperimentRunner replays thousands of replications; each one used to build
// and tear down the event slot table, the grid's machine population, every
// bag's task slabs and dispatch structures, and the stats buffers — so at
// high thread counts the workers serialized on the global allocator instead
// of simulating. A SimulationWorkspace keeps all of that memory alive between
// replications:
//
//   * the des::Simulator (slot table + heap storage) is reset() in place,
//   * every per-replication container (machines, availability processes,
//     BotStates with their task slabs, DispatchIndex maps, engine replica
//     table) draws from a pooled std::pmr resource whose freed blocks are
//     recycled instead of returned to the global heap,
//   * the workload-spec, monitor-sample, and result buffers keep their
//     capacity across replications.
//
// Reuse is semantically transparent: a replication run through a (warmed or
// fresh) workspace is bit-identical, KernelStats included, to one run through
// the historical fresh-construction path.
//
// Ownership and threading rules:
//   * One workspace per thread — a workspace is as thread-unsafe as the
//     Simulator it wraps. Each ExperimentRunner lane (a thread or a worker
//     process) owns one for the whole run.
//   * The workspace must outlive the SimulationResult reference returned by
//     Simulation::run(workspace): the result lives inside the workspace and
//     is overwritten by the next run.
//   * Components constructed from resource() must be destroyed before the
//     next begin_replication() (Simulation::run scopes them to the call).
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "des/simulator.hpp"
#include "sim/simulation.hpp"
#include "workload/bot.hpp"

namespace dg::sim {

class SimulationWorkspace {
 public:
  SimulationWorkspace();

  SimulationWorkspace(const SimulationWorkspace&) = delete;
  SimulationWorkspace& operator=(const SimulationWorkspace&) = delete;

  /// The reusable DES kernel. Reset to t = 0 by begin_replication().
  [[nodiscard]] des::Simulator& simulator() noexcept { return sim_; }

  /// Pooled allocator for per-replication containers. Freed blocks are
  /// recycled within the workspace, never returned to the global heap, so a
  /// warmed workspace serves steady-state replications without touching
  /// operator new.
  [[nodiscard]] std::pmr::memory_resource* resource() noexcept { return &pool_; }

  /// Reused workload-spec buffer (cleared, capacity kept).
  [[nodiscard]] std::vector<workload::BotSpec>& specs() noexcept { return specs_; }

  /// The in-place result of the current / most recent run. Overwritten by
  /// the next begin_replication().
  [[nodiscard]] SimulationResult& result() noexcept { return result_; }

  /// Replications started through this workspace (1 after the first
  /// begin_replication()); >= 2 means the workspace is warmed.
  [[nodiscard]] std::uint64_t replications() const noexcept { return replications_; }

  /// Rewinds the workspace for the next replication without freeing: resets
  /// the simulator, clears the spec/result buffers (keeping capacity), and
  /// bumps the replication counter. Called by Simulation::run(workspace).
  void begin_replication();

 private:
  des::Simulator sim_;
  std::pmr::unsynchronized_pool_resource pool_;
  std::vector<workload::BotSpec> specs_;
  SimulationResult result_;
  std::uint64_t replications_ = 0;
};

}  // namespace dg::sim
