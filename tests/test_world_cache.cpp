// World-realization synthesis / replay / cache.
//
// The load-bearing property is bit-identity: a run that replays a cached
// WorldRealization must be indistinguishable — per-bag records, aggregate
// stats, kernel and scheduler counters, fault counters, serialized output —
// from the same run sampling its machine availability processes live, with
// checkpoint-server faults and correlated outages running live beside the
// replay. The tests here check that at three levels (driver timeline, full
// simulation, experiment runner), plus the cache's accounting and eviction
// behaviour and the DGSCHED_WORLD_CACHE override.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "des/simulator.hpp"
#include "exp/runner.hpp"
#include "grid/desktop_grid.hpp"
#include "grid/realization.hpp"
#include "grid/world_cache.hpp"
#include "rng/random_stream.hpp"
#include "sim/result_io.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"

namespace dg {
namespace {

// --- driver-level timeline equality ---

/// One observed machine transition: (time, machine, went_down).
using Edge = std::tuple<double, grid::MachineId, bool>;

struct EdgeRecorder {
  std::vector<Edge> edges;
  des::Simulator* sim = nullptr;

  void on_failure(grid::Machine& machine) {
    edges.emplace_back(sim->now(), machine.id(), true);
  }
  void on_repair(grid::Machine& machine) {
    edges.emplace_back(sim->now(), machine.id(), false);
  }
};

grid::GridConfig small_grid(grid::AvailabilityLevel level, double total_power = 200.0) {
  grid::GridConfig config = grid::GridConfig::preset(grid::Heterogeneity::kHom, level);
  config.total_power = total_power;  // 20 machines at hom_power 10
  return config;
}

TEST(WorldRealization, ReplayDriverMatchesLiveProcessTimeline) {
  constexpr std::uint64_t kSeed = 7321;
  constexpr double kHorizon = 250000.0;
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);

  // Live: stochastic AvailabilityProcess per machine.
  des::Simulator live_sim;
  grid::DesktopGrid live_grid(config, live_sim, kSeed);
  EdgeRecorder live;
  live.sim = &live_sim;
  live_grid.start([&live](grid::Machine& machine) { live.on_failure(machine); },
                  [&live](grid::Machine& machine) { live.on_repair(machine); });
  live_sim.run_until(kHorizon);

  // Replay: synthesized realization through the cursor driver.
  des::Simulator replay_sim;
  grid::DesktopGrid replay_grid(config, replay_sim, kSeed);
  const grid::WorldRealization world = grid::WorldRealization::synthesize(
      config.availability, replay_grid.size(), kHorizon, kSeed);
  grid::ReplayCursors cursors;
  grid::RealizedAvailabilityDriver driver(replay_sim, replay_grid, world, cursors);
  EdgeRecorder replay;
  replay.sim = &replay_sim;
  driver.start([&replay](grid::Machine& machine) { replay.on_failure(machine); },
               [&replay](grid::Machine& machine) { replay.on_repair(machine); });
  replay_grid.start_outages(nullptr, nullptr);
  replay_sim.run_until(kHorizon);

  ASSERT_GT(live.edges.size(), 100u);
  ASSERT_EQ(replay.edges.size(), live.edges.size());
  for (std::size_t i = 0; i < live.edges.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(std::get<0>(replay.edges[i]), std::get<0>(live.edges[i]));  // bitwise time
    EXPECT_EQ(std::get<1>(replay.edges[i]), std::get<1>(live.edges[i]));
    EXPECT_EQ(std::get<2>(replay.edges[i]), std::get<2>(live.edges[i]));
  }

  // The lazy replay driver mirrors the live scheduling pattern exactly, so
  // even the kernel counters (which include scheduled-but-never-fired
  // successor events) agree.
  EXPECT_EQ(replay_sim.stats().events_scheduled, live_sim.stats().events_scheduled);
  EXPECT_EQ(replay_sim.stats().events_fired, live_sim.stats().events_fired);
  EXPECT_EQ(replay_grid.total_failures(), live_grid.total_failures());
  for (std::size_t m = 0; m < live_grid.size(); ++m) {
    EXPECT_EQ(replay_grid.machine(m).up(), live_grid.machine(m).up());
  }
}

TEST(WorldRealization, RecordsToFirstTransitionPastHorizon) {
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kMed);
  constexpr double kHorizon = 100000.0;
  const grid::WorldRealization world = grid::WorldRealization::synthesize(
      config.availability, 20, kHorizon, 11);
  ASSERT_EQ(world.machine_offsets.size(), 21u);
  EXPECT_TRUE(world.covers(kHorizon));
  for (std::size_t m = 0; m < 20; ++m) {
    SCOPED_TRACE(m);
    const std::uint32_t begin = world.machine_offsets[m];
    const std::uint32_t end = world.machine_offsets[m + 1];
    ASSERT_GT(end, begin);
    // Strictly increasing, and exactly one transition past the horizon: the
    // dangling successor a live process would schedule but never fire.
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      EXPECT_LT(world.machine_transitions[i - 1], world.machine_transitions[i]);
    }
    EXPECT_GT(world.machine_transitions[end - 1], kHorizon);
    if (end - begin > 1) {
      EXPECT_LE(world.machine_transitions[end - 2], kHorizon);
    }
  }
}

TEST(WorldRealization, LongerHorizonIsBitwisePrefixExtension) {
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);
  const grid::WorldRealization shorter = grid::WorldRealization::synthesize(
      config.availability, 20, 50000.0, 5);
  const grid::WorldRealization longer = grid::WorldRealization::synthesize(
      config.availability, 20, 200000.0, 5);
  for (std::size_t m = 0; m < 20; ++m) {
    SCOPED_TRACE(m);
    const std::uint32_t s_begin = shorter.machine_offsets[m];
    const std::uint32_t s_len = shorter.machine_offsets[m + 1] - s_begin;
    const std::uint32_t l_begin = longer.machine_offsets[m];
    ASSERT_GE(longer.machine_offsets[m + 1] - l_begin, s_len);
    for (std::uint32_t i = 0; i < s_len; ++i) {
      EXPECT_EQ(longer.machine_transitions[l_begin + i],
                shorter.machine_transitions[s_begin + i]);
    }
  }
}

TEST(WorldRealization, DisabledFailuresYieldEmptyTimelines) {
  const grid::WorldRealization world = grid::WorldRealization::synthesize(
      grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways), 10, 1e6, 3);
  EXPECT_TRUE(world.machine_transitions.empty());
  ASSERT_EQ(world.machine_offsets.size(), 11u);
  for (const std::uint32_t offset : world.machine_offsets) EXPECT_EQ(offset, 0u);

  // And the replay driver schedules nothing for such a world.
  des::Simulator sim;
  grid::DesktopGrid grid(small_grid(grid::AvailabilityLevel::kAlways, 100.0), sim, 3);
  grid::ReplayCursors cursors;
  grid::RealizedAvailabilityDriver driver(sim, grid, world, cursors);
  driver.start(nullptr, nullptr);
  EXPECT_EQ(sim.stats().events_scheduled, 0u);
}

TEST(WorldRealization, ToTraceKeepsCompletePairsOnly) {
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kMed);
  const grid::WorldRealization world = grid::WorldRealization::synthesize(
      config.availability, 8, 80000.0, 21);
  const grid::AvailabilityTrace trace = world.to_trace();
  ASSERT_EQ(trace.num_machines(), 8u);
  for (std::size_t m = 0; m < 8; ++m) {
    SCOPED_TRACE(m);
    const std::uint32_t len = world.machine_offsets[m + 1] - world.machine_offsets[m];
    EXPECT_EQ(trace.machine(m).downtime.size(), len / 2);
    if (len >= 2) {
      const std::uint32_t begin = world.machine_offsets[m];
      EXPECT_EQ(trace.machine(m).downtime.front().start, world.machine_transitions[begin]);
      EXPECT_EQ(trace.machine(m).downtime.front().end, world.machine_transitions[begin + 1]);
    }
  }
}

// --- full-simulation bit-identity, cache on vs off ---

sim::SimulationConfig cached_matrix_config(sched::PolicyKind policy,
                                           grid::AvailabilityLevel level, double granularity) {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHet, level);
  config.workload =
      sim::make_paper_workload(config.grid, granularity, workload::Intensity::kLow, 10);
  config.policy = policy;
  config.warmup_bots = 2;
  config.seed = 90210;
  return config;
}

/// Field-level equality of the fields most likely to expose a replay
/// divergence, then full serialized equality for everything row-level.
void expect_bit_identical(const sim::SimulationResult& a, const sim::SimulationResult& b) {
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.measured_availability, b.measured_availability);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.replica_failures, b.replica_failures);
  EXPECT_EQ(a.replicas_started, b.replicas_started);
  EXPECT_EQ(a.checkpoints_saved, b.checkpoints_saved);
  EXPECT_EQ(a.checkpoint_retrievals, b.checkpoint_retrievals);
  EXPECT_EQ(a.wasted_compute_time, b.wasted_compute_time);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.sched.triggers, b.sched.triggers);
  EXPECT_EQ(a.sched.machines_examined, b.sched.machines_examined);
  EXPECT_EQ(a.sched.selects, b.sched.selects);
  EXPECT_EQ(a.faults.server_outages, b.faults.server_outages);
  EXPECT_EQ(a.faults.server_downtime, b.faults.server_downtime);
  EXPECT_EQ(a.faults.transfer_retries, b.faults.transfer_retries);
  EXPECT_EQ(a.faults.replicas_degraded, b.faults.replicas_degraded);

  const auto serialize = [](const sim::SimulationResult& result) {
    std::ostringstream os;
    sim::write_bot_records_csv(os, result);
    sim::write_monitor_csv(os, result);
    sim::write_summary(os, result);
    return os.str();
  };
  EXPECT_EQ(serialize(a), serialize(b));
}

class WorldCacheBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<sched::PolicyKind, grid::AvailabilityLevel,
                                                 double>> {};

TEST_P(WorldCacheBitIdentityTest, CachedReplayMatchesLiveSampling) {
  const auto [policy, level, granularity] = GetParam();
  sim::SimulationConfig config = cached_matrix_config(policy, level, granularity);

  const sim::SimulationResult live = sim::Simulation(config).run();

  config.world_cache = std::make_shared<grid::WorldCache>();
  const sim::SimulationResult cold = sim::Simulation(config).run();   // miss: synthesize
  const sim::SimulationResult warm = sim::Simulation(config).run();   // hit: replay resident
  expect_bit_identical(live, cold);
  expect_bit_identical(live, warm);

  const grid::WorldCacheStats stats = config.world_cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAvailabilityMatrix, WorldCacheBitIdentityTest,
    ::testing::Values(
        std::make_tuple(sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kHigh, 25000.0),
        std::make_tuple(sched::PolicyKind::kRoundRobin, grid::AvailabilityLevel::kLow, 25000.0),
        std::make_tuple(sched::PolicyKind::kLongIdle, grid::AvailabilityLevel::kMed, 5000.0),
        std::make_tuple(sched::PolicyKind::kFcfsExcl, grid::AvailabilityLevel::kLow, 125000.0)));

TEST(WorldCacheBitIdentity, LiveServerFaultsBesideAvailabilityReplay) {
  // The server's fault process runs live on its own stream, started by the
  // engine where a cache-off run starts it, while machine availability is
  // replayed from the cache.
  sim::SimulationConfig config =
      cached_matrix_config(sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kMed, 25000.0);
  config.grid.checkpoint_server_faults.enabled = true;
  config.grid.checkpoint_server_faults.mtbf = 8000.0;
  config.grid.checkpoint_server_faults.mttr = 4000.0;

  const sim::SimulationResult live = sim::Simulation(config).run();
  ASSERT_GT(live.faults.server_outages, 0u);  // the fault path actually ran

  config.world_cache = std::make_shared<grid::WorldCache>();
  const sim::SimulationResult cached = sim::Simulation(config).run();
  expect_bit_identical(live, cached);
  EXPECT_EQ(config.world_cache->stats().misses, 1u);  // availability was replayed

  // With machine failures disabled there is no availability to replay: the
  // run never consults the cache and samples its server faults live.
  config.grid.availability = grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways);
  config.world_cache = nullptr;
  const sim::SimulationResult reliable = sim::Simulation(config).run();
  ASSERT_GT(reliable.faults.server_outages, 0u);
  config.world_cache = std::make_shared<grid::WorldCache>();
  expect_bit_identical(reliable, sim::Simulation(config).run());
  EXPECT_EQ(config.world_cache->stats().lookups(), 0u);
}

TEST(WorldCacheBitIdentity, WorkspaceRunsReplayIdentically) {
  // Both baseline and cached runs go through a warmed workspace so the
  // comparison isolates the replay path.
  sim::SimulationConfig config =
      cached_matrix_config(sched::PolicyKind::kRoundRobin, grid::AvailabilityLevel::kLow, 25000.0);
  sim::SimulationWorkspace live_workspace;
  (void)sim::Simulation(config).run(live_workspace);
  const sim::SimulationResult live = sim::Simulation(config).run(live_workspace);

  config.world_cache = std::make_shared<grid::WorldCache>();
  sim::SimulationWorkspace workspace;
  (void)sim::Simulation(config).run(workspace);             // warm the workspace + cache
  const sim::SimulationResult& warm = sim::Simulation(config).run(workspace);
  expect_bit_identical(live, warm);
}

// --- cache accounting and eviction ---

TEST(WorldCache, CountsHitsMissesAndExtensions) {
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);
  grid::WorldCache cache;
  const auto first = cache.acquire(config.availability, 20, 1000.0, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->covers(1000.0));
  // Same key, same horizon: resident.
  const auto again = cache.acquire(config.availability, 20, 1000.0, 1);
  EXPECT_EQ(again.get(), first.get());
  // Same key, horizon within the synthesis margin: still resident.
  const auto margin = cache.acquire(config.availability, 20, 1200.0, 1);
  EXPECT_EQ(margin.get(), first.get());
  // Different seed: independent world.
  const auto other = cache.acquire(config.availability, 20, 1000.0, 2);
  EXPECT_NE(other.get(), first.get());
  // Same key, horizon past the resident realization: re-synthesized longer.
  const auto extended = cache.acquire(config.availability, 20, 50000.0, 1);
  EXPECT_NE(extended.get(), first.get());
  EXPECT_TRUE(extended->covers(50000.0));

  const grid::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.extensions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GE(stats.peak_bytes, stats.bytes);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 5.0);
}

TEST(WorldCache, ModelChangeMissesInsteadOfAliasing) {
  grid::WorldCache cache;
  const grid::GridConfig low = small_grid(grid::AvailabilityLevel::kLow);
  const grid::GridConfig med = small_grid(grid::AvailabilityLevel::kMed);
  const auto a = cache.acquire(low.availability, 20, 1000.0, 1);
  const auto b = cache.acquire(med.availability, 20, 1000.0, 1);
  const auto c = cache.acquire(low.availability, 10, 1000.0, 1);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(WorldCache, EvictsLeastRecentlyUsedWithinBudget) {
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);
  // Budget sized to hold roughly one long realization, so a second seed
  // forces the first out.
  const grid::WorldRealization probe = grid::WorldRealization::synthesize(
      config.availability, 20, 1e6, 1);
  grid::WorldCache cache(probe.byte_size() + probe.byte_size() / 2);

  const auto first = cache.acquire(config.availability, 20, 1e6, 1);
  const auto second = cache.acquire(config.availability, 20, 1e6, 2);
  const grid::WorldCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, cache.budget_bytes());
  // The just-built world is the one kept...
  const auto second_again = cache.acquire(config.availability, 20, 1e6, 2);
  EXPECT_EQ(second_again.get(), second.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  // ...and the evicted realization stays valid through its shared_ptr.
  EXPECT_TRUE(first->covers(1e6));
  EXPECT_FALSE(first->machine_transitions.empty());
}

TEST(WorldCache, OversizedSingleWorldStaysResident) {
  // A budget smaller than any one realization must still serve (and keep)
  // the current world — the cache never evicts its only entry.
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);
  grid::WorldCache cache(1);
  const auto world = cache.acquire(config.availability, 20, 1e5, 1);
  ASSERT_NE(world, nullptr);
  const auto again = cache.acquire(config.availability, 20, 1e5, 1);
  EXPECT_EQ(again.get(), world.get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- runner integration ---

TEST(ExperimentRunnerWorldCache, CacheOnMatchesCacheOffCellForCell) {
  std::vector<exp::NamedConfig> cells;
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    exp::NamedConfig cell;
    cell.label = sched::to_string(policy);
    cell.config =
        cached_matrix_config(policy, grid::AvailabilityLevel::kLow, 25000.0);
    cells.push_back(std::move(cell));
  }

  exp::RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  options.world_cache_bytes = grid::WorldCache::kDefaultBudgetBytes;

  exp::RunOptions off = options;
  off.world_cache_bytes = 0;
  exp::ExperimentRunner off_runner(off);
  const std::vector<exp::CellResult> baseline = off_runner.run(cells);

  exp::ExperimentRunner cached_runner(options);
  const std::vector<exp::CellResult> cached = cached_runner.run(cells);

  ASSERT_EQ(baseline.size(), cached.size());
  for (std::size_t c = 0; c < baseline.size(); ++c) {
    SCOPED_TRACE(baseline[c].label);
    EXPECT_EQ(baseline[c].replications, cached[c].replications);
    EXPECT_EQ(baseline[c].turnaround.stats().mean(), cached[c].turnaround.stats().mean());
    EXPECT_EQ(baseline[c].turnaround.stats().stddev(), cached[c].turnaround.stats().stddev());
    EXPECT_EQ(baseline[c].waiting.mean(), cached[c].waiting.mean());
    EXPECT_EQ(baseline[c].makespan.mean(), cached[c].makespan.mean());
    EXPECT_EQ(baseline[c].utilization.mean(), cached[c].utilization.mean());
    EXPECT_EQ(baseline[c].wasted_fraction.mean(), cached[c].wasted_fraction.mean());
    EXPECT_EQ(baseline[c].lost_work.mean(), cached[c].lost_work.mean());
    EXPECT_EQ(baseline[c].events_executed, cached[c].events_executed);
  }

  // Two cells x three replications over one cache: each of the three worlds
  // is synthesized once and hit once.
  const grid::WorldCacheStats& stats = cached_runner.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GE(stats.hits, 3u);

  // The off-runner genuinely ran live.
  EXPECT_EQ(off_runner.cache_stats().lookups(), 0u);
}

TEST(ExperimentRunnerWorldCache, CellEventCountsArePopulated) {
  exp::NamedConfig cell;
  cell.label = "events";
  cell.config = cached_matrix_config(sched::PolicyKind::kFcfsShare,
                                     grid::AvailabilityLevel::kHigh, 25000.0);
  exp::RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 1;
  const std::vector<exp::CellResult> results = exp::ExperimentRunner(options).run({cell});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].events_executed, 0u);
  EXPECT_EQ(results[0].replications, 2u);
}

// --- adversarially tiny budgets (PR 7) ---

TEST(WorldCacheTinyBudget, ExtensionPastHorizonWhileOverBudget) {
  // A budget of one byte keeps the cache permanently over budget; extending
  // the resident world past its horizon must still replace it in place (and
  // the replacement must cover the new horizon) instead of thrashing.
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);
  grid::WorldCache cache(1);
  const auto short_world = cache.acquire(config.availability, 20, 1e4, 1);
  const auto long_world = cache.acquire(config.availability, 20, 1e6, 1);
  EXPECT_NE(long_world.get(), short_world.get());
  EXPECT_TRUE(long_world->covers(1e6));
  // The longer world replaced the short one under the same key.
  const auto again = cache.acquire(config.availability, 20, 1e6, 1);
  EXPECT_EQ(again.get(), long_world.get());
  const grid::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.extensions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The short world's timeline is a bitwise prefix of its extension
  // (machine 0; all but the final dangling past-horizon transition).
  const std::uint32_t short_count = short_world->machine_offsets[1];
  ASSERT_GE(short_count, 1u);
  ASSERT_GE(long_world->machine_offsets[1], short_count - 1);
  for (std::uint32_t i = 0; i + 1 < short_count; ++i) {
    EXPECT_EQ(long_world->machine_transitions[i], short_world->machine_transitions[i]) << i;
  }
}

TEST(WorldCacheTinyBudget, ChurnThroughManySeedsStaysWithinOneEntry) {
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kMed);
  grid::WorldCache cache(1);  // nothing fits: every new seed evicts the last
  std::vector<std::shared_ptr<const grid::WorldRealization>> held;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    held.push_back(
        cache.acquire(config.availability, 20, 1e5, seed));
  }
  const grid::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.peak_bytes, stats.bytes);
  // Every evicted world remains valid and complete through its shared_ptr.
  for (const auto& world : held) {
    EXPECT_TRUE(world->covers(1e5));
    EXPECT_FALSE(world->machine_transitions.empty());
  }
  // Re-acquiring an evicted seed is a fresh miss, not a stale alias.
  const auto again = cache.acquire(config.availability, 20, 1e5, 1);
  EXPECT_EQ(cache.stats().misses, 7u);
  EXPECT_EQ(again->machine_transitions, held.front()->machine_transitions);
}

TEST(ExperimentRunnerWorldCache, EvictionMidCampaignStaysBitIdentical) {
  // A budget far below the campaign's resident set forces evictions *between
  // rounds and cells* of a real runner sweep; every cell metric must still
  // match the cache-off run exactly.
  std::vector<exp::NamedConfig> cells;
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    exp::NamedConfig cell;
    cell.label = sched::to_string(policy);
    cell.config = cached_matrix_config(policy, grid::AvailabilityLevel::kLow, 25000.0);
    cells.push_back(std::move(cell));
  }

  exp::RunOptions options;
  options.min_replications = 4;
  options.max_replications = 4;
  options.threads = 2;

  exp::RunOptions off = options;
  off.world_cache_bytes = 0;
  const std::vector<exp::CellResult> baseline = exp::ExperimentRunner(off).run(cells);

  exp::RunOptions tiny = options;
  tiny.world_cache_bytes = 4096;  // a fraction of one realization
  exp::ExperimentRunner tiny_runner(tiny);
  const std::vector<exp::CellResult> churned = tiny_runner.run(cells);
  EXPECT_GE(tiny_runner.cache_stats().evictions, 1u);

  ASSERT_EQ(baseline.size(), churned.size());
  for (std::size_t c = 0; c < baseline.size(); ++c) {
    SCOPED_TRACE(baseline[c].label);
    EXPECT_EQ(baseline[c].replications, churned[c].replications);
    EXPECT_EQ(baseline[c].turnaround.stats().mean(), churned[c].turnaround.stats().mean());
    EXPECT_EQ(baseline[c].waiting.mean(), churned[c].waiting.mean());
    EXPECT_EQ(baseline[c].makespan.mean(), churned[c].makespan.mean());
    EXPECT_EQ(baseline[c].events_executed, churned[c].events_executed);
    EXPECT_EQ(baseline[c].turnaround_tail.sum(), churned[c].turnaround_tail.sum());
  }
}

// --- batched synthesis (PR 7) ---

TEST(WorldRealization, BatchedSynthesisMatchesNaiveReference) {
  // The two-phase draw-then-fill synthesize() must reproduce, bit for bit,
  // the timelines of the obvious one-pass push_back implementation it
  // replaced — same streams, same draw order, same values.
  const grid::GridConfig config = small_grid(grid::AvailabilityLevel::kLow);
  constexpr double kHorizon = 200000.0;
  constexpr std::uint64_t kSeed = 424242;
  constexpr std::size_t kMachines = 20;

  // Naive reference, inlined from the pre-batching implementation.
  std::vector<double> ref_transitions;
  std::vector<std::uint32_t> ref_offsets{0};
  for (std::size_t m = 0; m < kMachines; ++m) {
    rng::RandomStream stream = rng::RandomStream::derive(kSeed, "grid.availability", m);
    double clock = 0.0;
    for (std::size_t k = 0;; ++k) {
      clock += k % 2 == 0 ? config.availability.time_to_failure.sample(stream)
                          : config.availability.time_to_repair.sample(stream);
      ref_transitions.push_back(clock);
      if (clock > kHorizon) break;
    }
    ref_offsets.push_back(static_cast<std::uint32_t>(ref_transitions.size()));
  }

  // Run synthesize twice through one scratch: the second call exercises the
  // warmed-buffer path (clear + refill) and must be identical too.
  grid::SynthesisScratch scratch;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const grid::WorldRealization world = grid::WorldRealization::synthesize(
        config.availability, kMachines, kHorizon, kSeed, scratch);
    EXPECT_EQ(world.machine_transitions, ref_transitions);
    EXPECT_EQ(world.machine_offsets, ref_offsets);
  }

  // And the scratch-free overload (fresh scratch per call) agrees as well.
  const grid::WorldRealization world =
      grid::WorldRealization::synthesize(config.availability, kMachines, kHorizon, kSeed);
  EXPECT_EQ(world.machine_transitions, ref_transitions);
  EXPECT_EQ(world.machine_offsets, ref_offsets);
}

// --- live correlated outages beside the replay ---

grid::OutageModel test_outages() {
  grid::OutageModel outages;
  outages.enabled = true;
  outages.mean_interarrival = 30000.0;
  outages.fraction = 0.3;
  outages.duration = rng::UniformDist{2000.0, 8000.0};
  return outages;
}

TEST(WorldCacheBitIdentity, LiveOutagesBesideAvailabilityReplay) {
  // The correlated-outage process runs live on its own stream, started
  // right after the replayed machines where grid.start() would start it, so
  // an outage-enabled cell is bit-identical cache-on vs cache-off.
  sim::SimulationConfig config =
      cached_matrix_config(sched::PolicyKind::kRoundRobin, grid::AvailabilityLevel::kMed, 25000.0);
  config.grid.outages = test_outages();

  const sim::SimulationResult live = sim::Simulation(config).run();
  ASSERT_GT(live.machine_failures, 0u);

  config.world_cache = std::make_shared<grid::WorldCache>();
  const sim::SimulationResult cold = sim::Simulation(config).run();
  const sim::SimulationResult warm = sim::Simulation(config).run();
  expect_bit_identical(live, cold);
  expect_bit_identical(live, warm);
  EXPECT_EQ(config.world_cache->stats().misses, 1u);
  EXPECT_EQ(config.world_cache->stats().hits, 1u);
}

TEST(RunOptions, WorldCacheEnvOverride) {
  // Live sampling is the default; the cache is opt-in.
  EXPECT_EQ(exp::RunOptions{}.world_cache_bytes, 0u);
  ASSERT_EQ(setenv("DGSCHED_WORLD_CACHE", "12345", 1), 0);
  EXPECT_EQ(exp::RunOptions::from_env().world_cache_bytes, 12345u);
  ASSERT_EQ(setenv("DGSCHED_WORLD_CACHE", "0", 1), 0);
  EXPECT_EQ(exp::RunOptions::from_env().world_cache_bytes, 0u);
  ASSERT_EQ(setenv("DGSCHED_WORLD_CACHE", "nope", 1), 0);
  EXPECT_THROW((void)exp::RunOptions::from_env(), std::invalid_argument);
  ASSERT_EQ(unsetenv("DGSCHED_WORLD_CACHE"), 0);
  EXPECT_EQ(exp::RunOptions::from_env().world_cache_bytes, 0u);
}

}  // namespace
}  // namespace dg
