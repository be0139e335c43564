// Replica execution on Desktop Grid machines.
//
// A replica advances through compute legs separated by checkpoint saves
// (Young-interval spaced, when checkpointing is on). Restarted replicas first
// retrieve the task's latest checkpoint from the checkpoint server. A machine
// failure kills the replica on it, losing all progress since the last
// committed checkpoint. When a replica finishes its task, every sibling
// replica is cancelled and its machine freed.
//
// With `EngineConfig::failable_server`, checkpoint transfers run under the
// recovery state machine of sim/fault_tolerance.hpp: an attempt can be
// refused (server down), aborted (server crash with abort_transfers), or
// abandoned at the per-attempt timeout; failed attempts retry with capped
// exponential backoff, and an exhausted budget degrades gracefully (save:
// skip and keep computing; retrieve: restart from scratch). The default
// (failable_server = false) is the paper's reliable server, bit-identical to
// the historical engine.
//
// Call-order contract with MultiBotScheduler (the scheduler's bucket and
// policy indices rely on it):
//   start:      machine.set_busy -> task.on_replica_started
//               -> scheduler.notify_replica_started
//   completion: task.mark_completed -> scheduler.notify_task_completed
//               -> per replica (winner + siblings, ascending machine id):
//                  free machine, task.on_replica_stopped,
//                  scheduler.notify_replica_stopped
//               -> scheduler.trigger
//   failure:    free machine -> task.on_replica_stopped
//               -> scheduler.notify_replica_stopped(kFailed)
//               -> scheduler.trigger
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "des/simulator.hpp"
#include "grid/desktop_grid.hpp"
#include "rng/random_stream.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault_tolerance.hpp"
#include "sim/observer.hpp"
#include "stats/online_stats.hpp"

namespace dg::sim {

struct EngineConfig {
  /// Replicas checkpoint to the checkpoint server (WQR-FT).
  bool checkpointing = true;
  /// Compute seconds between checkpoint saves (Young's formula); must be
  /// positive when checkpointing is enabled.
  double checkpoint_interval = 0.0;
  /// Run checkpoint transfers under the retry/backoff/degradation state
  /// machine (required — and implied by Simulation — when server_faults is
  /// enabled; tests may set it alone and inject server outages by hand).
  bool failable_server = false;
  /// Stochastic checkpoint-server outage process (engine-owned; draws from
  /// its own RandomStream so every other stream is untouched).
  grid::CheckpointServerFaultModel server_faults{};
  /// Retry policy for checkpoint transfers when failable_server is set.
  TransferRetryPolicy retry{};
  /// Deterministic server downtime windows (the adversarial scenario
  /// director, sim/adversary.hpp): the server is forced down over each
  /// [start, end), composing with the stochastic fault process through the
  /// server's down-cause counting. Requires failable_server. Windows must be
  /// sorted ascending with end > start.
  std::vector<grid::StressWindow> server_down_windows;
};

class ExecutionEngine final : public sched::DispatchSink {
 public:
  /// The replica table allocates from `mem` (default: global heap; see
  /// sim::SimulationWorkspace for the pooled per-replication alternative).
  ExecutionEngine(des::Simulator& sim, grid::DesktopGrid& grid,
                  sched::MultiBotScheduler& scheduler, EngineConfig config, std::uint64_t seed,
                  std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;
  ~ExecutionEngine() override;

  // DispatchSink
  void start_replica(sched::TaskState& task, grid::Machine& machine) override;

  // Wire these into DesktopGrid::start().
  void on_machine_failure(grid::Machine& machine);
  void on_machine_repair(grid::Machine& machine);

  // Checkpoint-server availability edges. Driven by the engine-owned
  // CheckpointServerFaultProcess; tests flip the server state by hand
  // (CheckpointServer::set_down / set_up) and then call these.
  void on_server_down();
  void on_server_up();

  /// Registers an observer for replica/checkpoint/machine events (the
  /// caller keeps ownership; lifetime must cover the run).
  void add_observer(SimulationObserver& observer) { observers_.push_back(&observer); }

  // --- statistics ---

  [[nodiscard]] std::uint64_t checkpoints_saved() const noexcept { return checkpoints_saved_; }
  /// Completed checkpoint retrievals (transfers cut short by a machine
  /// failure are not counted).
  [[nodiscard]] std::uint64_t checkpoint_retrievals() const noexcept { return retrievals_; }
  [[nodiscard]] std::uint64_t replicas_killed_by_failure() const noexcept {
    return failed_replicas_;
  }
  [[nodiscard]] std::uint64_t replicas_cancelled() const noexcept { return cancelled_replicas_; }
  /// Compute time invested in replicas that did not win their task.
  [[nodiscard]] double wasted_compute_time() const noexcept { return wasted_compute_time_; }
  /// Compute time invested in winning replicas.
  [[nodiscard]] double useful_compute_time() const noexcept { return useful_compute_time_; }
  /// Work units lost to failures (progress past the last checkpoint).
  [[nodiscard]] double lost_work() const noexcept { return lost_work_; }
  /// Time-averaged fraction of total grid power busy with replicas.
  [[nodiscard]] double utilization(des::SimTime now) const noexcept {
    return busy_power_.time_average(now) / grid_.total_power();
  }
  /// Fault-injection / recovery counters for the run so far; server outage
  /// count and downtime are read back from the server at `now`.
  [[nodiscard]] FaultStats fault_stats(des::SimTime now) const noexcept;

 private:
  enum class Phase : std::uint8_t { kRetrieving, kComputing, kCheckpointing };

  /// One machine's replica slot. Slots live by value in `replicas_` (one per
  /// machine id); `task == nullptr` marks an idle machine — no per-dispatch
  /// heap allocation. The slots hosting one task's replicas form a chain in
  /// ascending machine id, headed by TaskState::first_replica_host().
  struct Replica {
    sched::TaskState* task = nullptr;
    grid::Machine* machine = nullptr;
    Phase phase = Phase::kComputing;
    /// Next machine in the task's replica chain (TaskState::kNoReplicaHost
    /// ends it).
    grid::MachineId next_host = sched::TaskState::kNoReplicaHost;
    /// Work completed by this replica up to the start of the current leg.
    double progress_base = 0.0;
    /// Simulation time the current compute leg started (kComputing only).
    double leg_start = 0.0;
    /// Total compute time this replica has accumulated.
    double compute_invested = 0.0;
    des::EventHandle next_event;
    /// Failed attempts of the current transfer (reset on success/degrade).
    int transfer_attempts = 0;
    /// A transfer slot reservation is outstanding (cancel it if the replica
    /// dies, completes, or times out before `transfer.completion`).
    bool transfer_inflight = false;
    grid::CheckpointServer::Transfer transfer{};
  };

  [[nodiscard]] Replica* replica_at(grid::MachineId machine_id) noexcept {
    Replica& slot = replicas_[machine_id];
    return slot.task != nullptr ? &slot : nullptr;
  }
  [[nodiscard]] Replica* replica_on(const grid::Machine& machine) noexcept {
    return replica_at(machine.id());
  }
  void begin_compute(Replica& replica);
  void on_checkpoint_begin(grid::MachineId machine_id);
  void on_checkpoint_end(grid::MachineId machine_id);
  void on_retrieve_done(grid::MachineId machine_id);
  void on_complete(grid::MachineId machine_id);
  /// Unlinks the replica from its task's chain, clears its slot and frees
  /// the machine (event must already be cancelled / expired). Returns the
  /// freed machine.
  grid::Machine& detach_replica(grid::MachineId machine_id);
  void set_machine_busy(grid::Machine& machine, bool busy);

  // --- failable-server transfer state machine ---

  /// Starts (or retries) the transfer implied by replica.phase
  /// (kCheckpointing = save, kRetrieving = retrieve).
  void begin_transfer(Replica& replica);
  void on_transfer_timeout(grid::MachineId machine_id);
  /// One attempt failed: retry after backoff, or degrade when exhausted.
  void transfer_attempt_failed(Replica& replica);
  /// Releases the replica's outstanding slot reservation, if any.
  void drop_inflight_transfer(Replica& replica);

  des::Simulator& sim_;
  grid::DesktopGrid& grid_;
  sched::MultiBotScheduler& scheduler_;
  EngineConfig config_;
  rng::RandomStream transfer_stream_;
  std::pmr::vector<Replica> replicas_;  // indexed by machine id; task==nullptr = idle
  std::vector<SimulationObserver*> observers_;
  std::unique_ptr<grid::CheckpointServerFaultProcess> fault_process_;
  FaultStats faults_;

  std::uint64_t checkpoints_saved_ = 0;
  std::uint64_t retrievals_ = 0;
  std::uint64_t failed_replicas_ = 0;
  std::uint64_t cancelled_replicas_ = 0;
  double wasted_compute_time_ = 0.0;
  double useful_compute_time_ = 0.0;
  double lost_work_ = 0.0;
  stats::TimeWeightedStats busy_power_;
  double busy_power_now_ = 0.0;
};

}  // namespace dg::sim
