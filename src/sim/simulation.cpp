#include "sim/simulation.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <memory_resource>
#include <optional>
#include <stdexcept>

#include "grid/realization.hpp"

#include "des/simulator.hpp"
#include "grid/checkpoint_server.hpp"
#include "sched/policies.hpp"
#include "sched/scheduler.hpp"
#include "sim/execution_engine.hpp"
#include "sim/observer.hpp"
#include "sim/workspace.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace dg::sim {

double SimulationResult::slowdown_fairness() const noexcept {
  const double n = static_cast<double>(slowdown.count());
  if (n == 0.0) return 1.0;
  const double sum = slowdown.sum();
  // E[X^2] reconstructed from the sample variance and mean.
  const double mean = slowdown.mean();
  const double second_moment =
      slowdown.variance() * (n - 1.0) / n + mean * mean;
  const double sum_sq = n * second_moment;
  return sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 1.0;
}

workload::WorkloadConfig make_paper_workload(const grid::GridConfig& grid_config,
                                             double granularity, workload::Intensity intensity,
                                             std::size_t num_bots, double bag_size) {
  workload::WorkloadConfig config;
  config.types = {workload::BotType{granularity, 0.5}};
  config.bag_size = bag_size;
  config.num_bots = num_bots;
  const double power = workload::effective_grid_power(grid_config);
  config.arrival_rate =
      workload::arrival_rate_for_utilization(workload::utilization_for(intensity), bag_size, power);
  return config;
}

namespace {

/// Shared state of the arrival / completion callbacks. Lives on run()'s
/// stack so each event closure captures one reference plus the bag pointer:
/// the two words a des::Action holds.
struct ArrivalContext {
  sched::MultiBotScheduler* scheduler = nullptr;
  SimulationObserver* observer = nullptr;
  ColumnWriter* columns = nullptr;
  des::Simulator* sim = nullptr;
  std::size_t completed = 0;
  std::size_t total = 0;
};

/// Self-rescheduling queue monitor. Its state lives here so the tick event
/// captures only `this`.
struct QueueMonitor {
  des::Simulator* sim = nullptr;
  sched::MultiBotScheduler* scheduler = nullptr;
  grid::DesktopGrid* grid = nullptr;
  std::vector<MonitorSample>* samples = nullptr;
  double interval = 0.0;

  void tick() {
    MonitorSample sample;
    sample.time = sim->now();
    sample.active_bots = scheduler->active_bots().size();
    for (std::size_t m = 0; m < grid->size(); ++m) {
      if (grid->machine(m).busy()) ++sample.busy_machines;
      if (grid->machine(m).up()) ++sample.up_machines;
    }
    samples->push_back(sample);
    if (!sim->stopped()) sim->schedule_after(interval, [this] { tick(); });
  }
};

}  // namespace

SimulationResult Simulation::run(SimulationObserver* observer) {
  SimulationWorkspace workspace;
  return run(workspace, observer);  // copies the result out of the workspace
}

const SimulationResult& Simulation::run(SimulationWorkspace& workspace,
                                        SimulationObserver* observer) {
  workspace.begin_replication();
  des::Simulator& sim = workspace.simulator();
  std::pmr::memory_resource* const mem = workspace.resource();
  // Results are assembled in place in the workspace (monitor samples and
  // tail-sketch columns stream into it during the run); begin_replication()
  // reset every field while keeping the bots / monitor / sketch-bucket
  // storage.
  SimulationResult& result = workspace.result();

  const bool trace_driven_grid = config_.availability_trace != nullptr;
  grid::GridConfig grid_config = config_.grid;
  if (trace_driven_grid) {
    // Machine up/down comes from the trace; disable the stochastic processes.
    grid_config.availability = grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways);
  }
  grid::DesktopGrid grid(grid_config, sim, config_.seed, mem);

  // --- adversarial scenario ---
  // Stress windows derive from the workload configuration alone, so every
  // policy cell and replication of a campaign faces the same stress timeline
  // (see sim/adversary.hpp). Empty when the adversary is disabled.
  std::vector<grid::StressWindow> stress_windows;
  if (config_.adversary.enabled) {
    if (config_.trace_bots != nullptr) {
      throw std::invalid_argument(
          "Simulation: the adversarial scenario needs a generated workload (trace_bots replay "
          "has no arrival process to modulate)");
    }
    if (config_.workload.arrivals != workload::ArrivalProcess::kPoisson) {
      throw std::invalid_argument(
          "Simulation: the adversarial scenario requires Poisson arrivals");
    }
    stress_windows = adversary_windows(config_.adversary, config_.workload);
  }

  // --- workload ---
  // Generated before any component schedules events (generation only draws
  // from the "workload" stream, it schedules nothing) because the horizon —
  // which the world-realization cache keys its synthesis length on — depends
  // on the last arrival.
  std::vector<workload::BotSpec>& specs = workspace.specs();
  if (config_.trace_bots != nullptr) {
    specs = *config_.trace_bots;
    // A bag's id is its arrival index: the dispatch index and the policies'
    // tie-breaks order bags by id, so any other numbering would serve a
    // later arrival first. load_workload_csv numbers bags this way.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].id != i) {
        throw std::invalid_argument("Simulation: trace bag " + std::to_string(i) + " has id " +
                                    std::to_string(specs[i].id) +
                                    "; ids must be the arrival indices 0..n-1 in vector order");
      }
      if (i > 0 && specs[i].arrival_time < specs[i - 1].arrival_time) {
        throw std::invalid_argument("Simulation: trace bag " + std::to_string(i) +
                                    " arrives before bag " + std::to_string(i - 1));
      }
    }
  } else if (config_.adversary.enabled && config_.adversary.burst_intensity > 1.0) {
    // Burst modulation consumes the same "workload" stream through the
    // piecewise-rate path; arrivals inside a window come ~burst_intensity
    // times faster.
    workload::WorkloadConfig stressed = config_.workload;
    stressed.stress_windows = stress_windows;
    stressed.stress_multiplier = config_.adversary.burst_intensity;
    workload::WorkloadGenerator generator(std::move(stressed),
                                          rng::RandomStream::derive(config_.seed, "workload"));
    generator.generate_into(specs);
  } else {
    workload::WorkloadGenerator generator(config_.workload,
                                          rng::RandomStream::derive(config_.seed, "workload"));
    generator.generate_into(specs);
  }
  DG_ASSERT(!specs.empty());

  // --- horizon ---
  double horizon = config_.max_sim_time;
  if (horizon <= 0.0) {
    const double last_arrival = specs.back().arrival_time;
    double bag_size = config_.workload.bag_size;
    if (config_.trace_bots != nullptr) {
      double trace_work = 0.0;
      for (const workload::BotSpec& spec : specs) trace_work += spec.total_work();
      bag_size = trace_work / static_cast<double>(specs.size());
    }
    const double demand_per_bot = bag_size / workload::effective_grid_power(config_.grid);
    horizon = last_arrival + 300.0 * demand_per_bot + 86400.0;
  }

  // --- world realization ---
  // With a cache installed, the machine availability timelines are
  // synthesized once per (model, machine count, seed) and replayed below —
  // bit-identical to the live processes (see grid/realization.hpp).
  std::shared_ptr<const grid::WorldRealization> world;
  if (config_.world_cache != nullptr && !trace_driven_grid &&
      grid_config.availability.failures_enabled) {
    world = config_.world_cache->acquire(grid_config.availability, grid.size(), horizon,
                                         config_.seed);
  }

  // --- tail-metrics columns ---
  // Completion gaps and the decayed busy fraction stream during the run; the
  // per-bag turnaround/slowdown columns are written during result assembly
  // (same warmup-filtered population as the OnlineStats aggregates). The
  // sketch sinks live in the workspace's result, so a warmed workspace
  // serves every add from retained bucket storage.
  ColumnWriter columns({&result.turnaround_tail, &result.slowdown_tail,
                        &result.completion_gap_tail},
                       grid.size(), horizon / 4.0);

  // --- scheduler stack ---
  auto individual = sched::IndividualScheduler::make(config_.individual);
  std::unique_ptr<sched::ReplicationController> replication;
  if (config_.dynamic_replication) {
    replication = std::make_unique<sched::DynamicReplication>();
  } else {
    const int threshold = config_.replication_threshold > 0 ? config_.replication_threshold
                                                            : individual->default_threshold();
    replication = std::make_unique<sched::StaticReplication>(threshold);
  }
  const sched::TaskOrder task_order = individual->task_order();
  const bool resubmission_priority = individual->resubmission_priority();
  (void)resubmission_priority;
  std::unique_ptr<sched::BagSelectionPolicy> policy =
      sched::make_policy(config_.policy, config_.seed, mem);
  if (config_.wrap_policy) policy = config_.wrap_policy(std::move(policy));
  sched::MultiBotScheduler scheduler(sim, grid, std::move(policy), std::move(individual),
                                     std::move(replication), mem);

  // --- execution engine ---
  EngineConfig engine_config;
  const bool failures_possible =
      config_.grid.availability.failures_enabled || trace_driven_grid;
  engine_config.checkpointing = scheduler.individual().checkpointing() && failures_possible;
  if (engine_config.checkpointing) {
    // With a trace, config_.grid.availability is the caller-provided model of
    // the trace's statistics (see SimulationConfig::availability_trace docs);
    // fall back to the MedAvail MTTF if the caller left failures disabled.
    const double mttf = config_.grid.availability.failures_enabled
                            ? config_.grid.availability.mttf()
                            : grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kMed).mttf();
    engine_config.checkpoint_interval =
        grid::young_checkpoint_interval(config_.grid.checkpoint_transfer.mean(), mttf);
  }
  if (config_.grid.checkpoint_server_faults.enabled) {
    engine_config.failable_server = true;
    engine_config.server_faults = config_.grid.checkpoint_server_faults;
    engine_config.retry = config_.checkpoint_retry;
  }
  if (config_.adversary.enabled && config_.adversary.hit_server) {
    // Forced server downtime over every stress window; composes with the
    // stochastic fault process (if any) via the server's down-cause counting.
    engine_config.failable_server = true;
    engine_config.retry = config_.checkpoint_retry;
    engine_config.server_down_windows = stress_windows;
  }
  ExecutionEngine engine(sim, grid, scheduler, engine_config, config_.seed, mem);
  engine.add_observer(columns);
  if (observer != nullptr) engine.add_observer(*observer);

  std::unique_ptr<grid::TraceAvailabilityDriver> trace_driver;
  std::optional<grid::RealizedAvailabilityDriver> realized_driver;
  std::optional<grid::ScheduledOutageProcess> adversary_outages;
  const grid::TransitionCallback on_failure = [&engine](grid::Machine& machine) {
    engine.on_machine_failure(machine);
  };
  const grid::TransitionCallback on_repair = [&engine](grid::Machine& machine) {
    engine.on_machine_repair(machine);
  };
  if (trace_driven_grid) {
    trace_driver = std::make_unique<grid::TraceAvailabilityDriver>(sim, grid,
                                                                   *config_.availability_trace);
    trace_driver->start(on_failure, on_repair);
    grid.start(nullptr, nullptr);  // processes disabled; keeps uptime stats coherent
  } else if (world != nullptr) {
    // Replay the cached realization: same first-failure scheduling order as
    // grid.start(), same lazy one-event-per-machine pattern thereafter. The
    // outage process then starts live, exactly where grid.start() would
    // start it, so cache-on == cache-off.
    realized_driver.emplace(sim, grid, *world, workspace.replay_cursors());
    realized_driver->start(on_failure, on_repair);
    grid.start_outages(on_failure, on_repair);
  } else {
    grid.start(on_failure, on_repair);
  }
  if (config_.adversary.enabled && config_.adversary.hit_machines) {
    // The director's correlated outages: victim draws come from a stream
    // derived only here, so enabling the adversary perturbs no other stream.
    adversary_outages.emplace(sim, grid, stress_windows, config_.adversary.outage_fraction,
                              rng::RandomStream::derive(config_.seed, "adversary.outages"));
    adversary_outages->start(on_failure, on_repair);
  }

  // Bag states live in a pooled deque (stable addresses, no per-bag
  // unique_ptr); their task slabs and dispatch structures draw from `mem`.
  std::pmr::deque<sched::BotState> bots{mem};
  for (const workload::BotSpec& spec : specs) {
    bots.emplace_back(spec, task_order, mem);
  }
  scheduler.reserve_bags(bots.size());

  ArrivalContext ctx{&scheduler, observer, &columns, &sim, 0, bots.size()};
  scheduler.set_bot_completed_callback([&ctx](sched::BotState& bot) {
    ++ctx.completed;
    ctx.columns->on_bot_completed(bot, ctx.sim->now());
    if (ctx.observer != nullptr) ctx.observer->on_bot_completed(bot, ctx.sim->now());
    if (ctx.completed == ctx.total) ctx.sim->stop();  // availability events would run forever
  });

  for (sched::BotState& bot_ref : bots) {
    sched::BotState* bot = &bot_ref;
    sim.schedule_at(bot->arrival_time(), [&ctx, bot] {
      if (ctx.observer != nullptr) ctx.observer->on_bot_submitted(*bot, ctx.sim->now());
      ctx.scheduler->submit(*bot);
    });
  }

  // --- queue monitor ---
  // Samples go straight into the workspace's result buffer (capacity kept
  // across replications — no steady-state growth).
  const double monitor_interval =
      config_.monitor_interval > 0.0 ? config_.monitor_interval : horizon / 512.0;
  QueueMonitor monitor{&sim, &scheduler, &grid, &workspace.result().monitor, monitor_interval};
  sim.schedule_after(monitor_interval, [&monitor] { monitor.tick(); });

  if (config_.before_run_loop) config_.before_run_loop();
  sim.run_until(horizon);
  if (config_.after_run_loop) config_.after_run_loop();
  const bool saturated = ctx.completed < ctx.total;
  const double end_time = sim.now();
  if (observer != nullptr) {
    observer->on_run_finished(sim.stats(), scheduler.sched_stats(), engine.fault_stats(end_time),
                              end_time);
  }

  // --- results ---
  result.saturated = saturated;
  result.bots_completed = ctx.completed;
  result.end_time = end_time;
  result.utilization = engine.utilization(end_time);
  result.decayed_utilization = columns.decayed_utilization(end_time);
  result.measured_availability = trace_driven_grid
                                     ? config_.availability_trace->mean_availability(end_time)
                                     : grid.measured_availability(end_time);
  result.num_machines = grid.size();
  result.machine_failures = grid.total_failures();
  result.replica_failures = scheduler.replica_failures();
  result.replicas_started = scheduler.replicas_started();
  result.tasks_completed = scheduler.tasks_completed();
  result.checkpoints_saved = engine.checkpoints_saved();
  result.checkpoint_retrievals = engine.checkpoint_retrievals();
  result.wasted_compute_time = engine.wasted_compute_time();
  result.useful_compute_time = engine.useful_compute_time();
  result.lost_work = engine.lost_work();
  result.events_executed = sim.executed_events();
  result.kernel = sim.stats();
  result.sched = scheduler.sched_stats();
  result.faults = engine.fault_stats(end_time);

  result.bots.reserve(bots.size());
  for (std::size_t i = 0; i < bots.size(); ++i) {
    const sched::BotState& bot = bots[i];
    BotRecord record;
    record.id = bot.id();
    record.arrival_time = bot.arrival_time();
    record.granularity = bot.granularity();
    record.num_tasks = bot.num_tasks();
    record.total_work = bot.total_work();
    record.completed = bot.completed();
    if (bot.completed()) {
      record.first_dispatch_time = bot.first_dispatch_time();
      record.completion_time = bot.completion_time();
      record.turnaround = bot.turnaround();
      record.waiting_time = bot.waiting_time();
      record.makespan = bot.makespan();
    } else {
      // Censored at the horizon: a lower bound on the true turnaround.
      record.first_dispatch_time = bot.ever_dispatched() ? bot.first_dispatch_time() : end_time;
      record.completion_time = end_time;
      record.turnaround = end_time - bot.arrival_time();
      record.waiting_time = record.first_dispatch_time - bot.arrival_time();
      record.makespan = record.turnaround - record.waiting_time;
    }
    const double ideal_service =
        record.total_work / workload::effective_grid_power(config_.grid);
    record.slowdown = ideal_service > 0.0 ? record.turnaround / ideal_service : 0.0;
    if (i >= config_.warmup_bots) {
      result.turnaround.add(record.turnaround);
      result.waiting.add(record.waiting_time);
      result.makespan.add(record.makespan);
      result.slowdown.add(record.slowdown);
      columns.write_bag(record.turnaround, record.slowdown);
    }
    result.bots.push_back(record);
  }
  {
    // Queue stability is judged while load is still being offered: compare
    // the active-bag level early vs late within the arrival window (after
    // the last arrival the queue always drains in a finite-workload run).
    // Sample times are monotonic, so the window is the contiguous index
    // range [lo, hi) — no materialized pointer vector needed.
    const double first_arrival = specs.front().arrival_time;
    const double last_arrival = specs.back().arrival_time;
    const std::vector<MonitorSample>& samples = result.monitor;
    std::size_t lo = 0;
    while (lo < samples.size() && samples[lo].time < first_arrival) ++lo;
    std::size_t hi = samples.size();
    while (hi > lo && samples[hi - 1].time > last_arrival) --hi;
    const std::size_t window = hi - lo;
    if (window >= 8) {
      const std::size_t quarter = window / 4;
      double first = 0.0, last = 0.0;
      for (std::size_t i = 0; i < quarter; ++i) {
        first += static_cast<double>(samples[lo + i].active_bots);
        last += static_cast<double>(samples[hi - 1 - i].active_bots);
      }
      if (first > 0.0) {
        result.queue_growth_ratio = last / first;
      } else if (last > 0.0) {
        result.queue_growth_ratio = std::numeric_limits<double>::infinity();
      }
    }
  }
  if (saturated) {
    util::log_debug("simulation saturated: ", ctx.completed, "/", ctx.total,
                    " bags completed by t=", end_time, " (policy ",
                    sched::to_string(config_.policy), ")");
  }
  return result;
}

}  // namespace dg::sim
