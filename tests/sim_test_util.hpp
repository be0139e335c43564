// Shared test harness: a tiny, fully deterministic simulation world.
//
// Builds a failure-free grid (availability process disabled) of N identical
// machines plus the whole scheduler/engine stack, and lets tests submit
// hand-crafted bags and inject machine failures/repairs at exact times.
#pragma once

#include <memory>
#include <vector>

#include "des/simulator.hpp"
#include "grid/desktop_grid.hpp"
#include "sched/policies.hpp"
#include "sched/scheduler.hpp"
#include "sim/execution_engine.hpp"
#include "workload/bot.hpp"

namespace dg::test {

struct WorldOptions {
  std::size_t num_machines = 3;
  double machine_power = 10.0;
  sched::PolicyKind policy = sched::PolicyKind::kFcfsShare;
  sched::IndividualSchedulerKind individual = sched::IndividualSchedulerKind::kWqrFt;
  int threshold = 2;
  bool checkpointing = false;
  double checkpoint_interval = 0.0;  // required when checkpointing
  /// Enable the engine's transfer retry/backoff/degradation path; server
  /// outages are then injected by hand via fail_server()/repair_server()
  /// (the stochastic CheckpointServerFaultProcess stays off so nothing
  /// draws from the fault stream).
  bool failable_server = false;
  sim::TransferRetryPolicy retry{};
  /// Consulted by the engine's outage handler (abort_transfers, lose_data);
  /// `enabled` is left false so no stochastic process is created.
  grid::CheckpointServerFaultModel server_faults{};
  /// Checkpoint transfer time; a degenerate range (lo == hi) makes
  /// transfer-heavy timelines exactly computable.
  rng::UniformDist checkpoint_transfer{240.0, 720.0};
  std::uint64_t seed = 99;
};

class World {
 public:
  explicit World(const WorldOptions& options = {}) : options_(options) {
    grid::GridConfig grid_config;
    grid_config.heterogeneity = grid::Heterogeneity::kHom;
    grid_config.hom_power = options.machine_power;
    grid_config.total_power =
        options.machine_power * static_cast<double>(options.num_machines);
    grid_config.availability = grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways);
    grid_config.checkpoint_transfer = options.checkpoint_transfer;
    grid = std::make_unique<grid::DesktopGrid>(grid_config, sim, options.seed);

    scheduler = std::make_unique<sched::MultiBotScheduler>(
        sim, *grid, sched::make_policy(options.policy, options.seed),
        sched::IndividualScheduler::make(options.individual),
        std::make_unique<sched::StaticReplication>(options.threshold));

    sim::EngineConfig engine_config;
    engine_config.checkpointing = options.checkpointing;
    engine_config.checkpoint_interval = options.checkpoint_interval;
    engine_config.failable_server = options.failable_server;
    engine_config.retry = options.retry;
    engine_config.server_faults = options.server_faults;
    engine_config.server_faults.enabled = false;  // outages injected by hand
    engine = std::make_unique<sim::ExecutionEngine>(sim, *grid, *scheduler, engine_config,
                                                    options.seed);
    grid->start([this](grid::Machine& machine) { engine->on_machine_failure(machine); },
                [this](grid::Machine& machine) { engine->on_machine_repair(machine); });
  }

  /// Creates and registers a bag with the given task works, arriving at
  /// `arrival` (submission happens immediately if arrival <= now, otherwise
  /// schedule it before running).
  sched::BotState& add_bot(std::vector<double> works, double arrival = 0.0) {
    workload::BotSpec spec;
    spec.id = next_id_++;
    spec.arrival_time = arrival;
    spec.granularity = works.empty() ? 0.0 : works.front();
    for (double w : works) spec.tasks.push_back(workload::TaskSpec{w});
    bots.push_back(std::make_unique<sched::BotState>(spec, scheduler->individual().task_order()));
    sched::BotState& bot = *bots.back();
    if (arrival <= sim.now()) {
      scheduler->submit(bot);
    } else {
      sim.schedule_at(arrival, [this, &bot] { scheduler->submit(bot); });
    }
    return bot;
  }

  /// Injects a machine failure at the current simulation time.
  void fail_machine(std::size_t index) {
    grid::Machine& machine = grid->machine(index);
    const bool edge = machine.force_down(sim.now());
    DG_ASSERT(edge);
    engine->on_machine_failure(machine);
  }

  /// Schedules a failure at an absolute time.
  void fail_machine_at(std::size_t index, double time) {
    sim.schedule_at(time, [this, index] { fail_machine(index); });
  }

  /// Repairs a failed machine at the current simulation time.
  void repair_machine(std::size_t index) {
    grid::Machine& machine = grid->machine(index);
    const bool edge = machine.release_down(sim.now());
    DG_ASSERT(edge);
    engine->on_machine_repair(machine);
  }

  void repair_machine_at(std::size_t index, double time) {
    sim.schedule_at(time, [this, index] { repair_machine(index); });
  }

  /// Takes the checkpoint server down at the current simulation time
  /// (requires options.failable_server).
  void fail_server() {
    grid->checkpoint_server().set_down(sim.now());
    engine->on_server_down();
  }
  void fail_server_at(double time) {
    sim.schedule_at(time, [this] { fail_server(); });
  }

  /// Repairs the checkpoint server at the current simulation time.
  void repair_server() {
    grid->checkpoint_server().set_up(sim.now());
    engine->on_server_up();
  }
  void repair_server_at(double time) {
    sim.schedule_at(time, [this] { repair_server(); });
  }

  /// Count of replicas currently running for `task` across machines.
  [[nodiscard]] int busy_machines() const {
    int count = 0;
    for (std::size_t i = 0; i < grid->size(); ++i) {
      if (grid->machine(i).busy()) ++count;
    }
    return count;
  }

  des::Simulator sim;
  std::unique_ptr<grid::DesktopGrid> grid;
  std::unique_ptr<sched::MultiBotScheduler> scheduler;
  std::unique_ptr<sim::ExecutionEngine> engine;
  std::vector<std::unique_ptr<sched::BotState>> bots;

 private:
  WorldOptions options_;
  workload::BotId next_id_ = 0;
};

}  // namespace dg::test
