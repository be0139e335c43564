// Closed-loop users, written as coroutine processes.
//
// The paper's workload is open-loop (Poisson arrivals regardless of system
// state). Real users are partly closed-loop: they submit a campaign, wait
// for it to finish, think, then submit the next. This example models N such
// users as des::Process coroutines — each cycles submit -> await completion
// signal -> think — and reports per-user cycle statistics under two
// policies. It also demonstrates assembling the scheduler stack manually
// (grid + scheduler + engine) instead of going through sim::Simulation.
#include <cstdio>
#include <memory>
#include <vector>

#include "des/process.hpp"
#include "grid/desktop_grid.hpp"
#include "rng/random_stream.hpp"
#include "sched/policies.hpp"
#include "sched/scheduler.hpp"
#include "sim/execution_engine.hpp"
#include "stats/online_stats.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dg;

struct ClosedLoopWorld {
  des::Simulator sim;
  std::unique_ptr<grid::DesktopGrid> grid_;
  std::unique_ptr<sched::MultiBotScheduler> scheduler;
  std::unique_ptr<sim::ExecutionEngine> engine;
  std::vector<std::unique_ptr<sched::BotState>> bots;
  std::vector<std::unique_ptr<des::Signal>> signals;  // per bag
  workload::BotId next_id = 0;

  explicit ClosedLoopWorld(sched::PolicyKind policy) {
    grid::GridConfig config =
        grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kMed);
    grid_ = std::make_unique<grid::DesktopGrid>(config, sim, 7);
    scheduler = std::make_unique<sched::MultiBotScheduler>(
        sim, *grid_, sched::make_policy(policy, 7),
        sched::IndividualScheduler::make(sched::IndividualSchedulerKind::kWqrFt),
        std::make_unique<sched::StaticReplication>(2));
    sim::EngineConfig engine_config;
    engine_config.checkpointing = true;
    engine_config.checkpoint_interval =
        grid::young_checkpoint_interval(480.0, config.availability.mttf());
    engine = std::make_unique<sim::ExecutionEngine>(sim, *grid_, *scheduler, engine_config, 7);
    grid_->start([this](grid::Machine& machine) { engine->on_machine_failure(machine); },
                 [this](grid::Machine& machine) { engine->on_machine_repair(machine); });
    scheduler->set_bot_completed_callback([this](sched::BotState& bot) {
      signals[bot.id()]->trigger();  // wake the owning user process
    });
  }

  /// Submits a fresh bag and returns the signal that fires on completion.
  des::Signal& submit_bag(rng::RandomStream& stream, double granularity) {
    workload::BotSpec spec;
    spec.id = next_id++;
    spec.arrival_time = sim.now();
    spec.granularity = granularity;
    double work = 0.0;
    while (work < 2.5e5) {  // small campaigns keep the example fast
      const double task = stream.uniform(0.5 * granularity, 1.5 * granularity);
      spec.tasks.push_back(workload::TaskSpec{task});
      work += task;
    }
    bots.push_back(std::make_unique<sched::BotState>(spec));
    signals.push_back(std::make_unique<des::Signal>(sim));
    scheduler->submit(*bots.back());
    return *signals.back();
  }
};

struct UserStats {
  stats::OnlineStats cycle_time;
  int campaigns = 0;
};

des::Process user_process(ClosedLoopWorld& world, UserStats& stats, std::uint64_t seed,
                          int campaigns) {
  rng::RandomStream stream(seed);
  for (int i = 0; i < campaigns; ++i) {
    co_await des::delay(world.sim, stream.exponential_mean(2000.0));  // think
    const double start = world.sim.now();
    des::Signal& done = world.submit_bag(stream, 5000.0);
    co_await done;
    stats.cycle_time.add(world.sim.now() - start);
    ++stats.campaigns;
  }
}

}  // namespace

int main() {
  std::printf("Closed-loop users (coroutine processes): 8 users x 6 campaigns each,\n"
              "Hom-MedAvail grid, 5000 s tasks, think time ~ Exp(2000 s).\n\n");
  for (sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    ClosedLoopWorld world(policy);
    std::vector<UserStats> users(8);
    for (std::size_t u = 0; u < users.size(); ++u) {
      user_process(world, users[u], 100 + u, 6);
    }
    world.sim.run_until(5e6);

    stats::OnlineStats all;
    int total_campaigns = 0;
    for (const UserStats& user : users) {
      all.merge(user.cycle_time);
      total_campaigns += user.campaigns;
    }
    std::printf("%-10s: %2d campaigns completed, mean campaign time %6.0f s "
                "(min %5.0f, max %6.0f), makespan %0.0f s\n",
                sched::to_string(policy).c_str(), total_campaigns, all.mean(), all.min(),
                all.max(), world.sim.now());
  }
  std::printf("\nClosed-loop load is self-throttling: when campaigns run long, users\n"
              "submit less — compare with the open-loop saturation in the benches.\n");
  return 0;
}
