// World-realization cache suite: emits BENCH_world_cache.json.
//
// Measures what the shared world cache (grid/world_cache.hpp) buys the
// experiment runner, at three levels:
//
//   world_cache/fig1/{off,on}   — the Figure 1 policy sweep (scaled via
//       DGSCHED_BOTS), fixed replications, cache disabled vs enabled. Every
//       cell re-runs the same replication seeds, so with the cache on each
//       seed's world is synthesized once and replayed in every policy cell.
//       High availability means few availability events, so the expected win
//       here is modest — the honest end-to-end number.
//   world_cache/low_avail/{off,on} — the same sweep shape on the Figure 2
//       grid (~50% availability): machine churn dominates the event count,
//       so this is where record-once/replay-many actually pays.
//   world_cache/availability/{live,replay} — the isolated substrate cost:
//       driving a grid's availability timeline live (Weibull + truncated
//       normal sampling per transition) vs replaying one synthesized
//       realization, with no workload on top. The replay/live ratio bounds
//       what the cache can ever save end to end.
//
// Cache-on records carry cache_hit_rate (and all records peak_rss_kb), per
// the bench/perf_json.hpp schema.
//
// Usage: ./world_cache_throughput [output_dir]   # default: cwd
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/paper.hpp"
#include "exp/runner.hpp"
#include "grid/desktop_grid.hpp"
#include "grid/realization.hpp"
#include "grid/world_cache.hpp"
#include "sim/simulation.hpp"

#include "perf_json.hpp"

namespace {

using dg::bench::PerfRecord;
using dg::bench::Stopwatch;

std::vector<dg::exp::NamedConfig> bench_cells(const dg::exp::FigureSpec& base) {
  dg::exp::FigureSpec spec = base;
  spec.num_bots = dg::exp::env_num_bots().value_or(8);
  spec.warmup_bots = std::min<std::size_t>(spec.warmup_bots, spec.num_bots / 4);
  return dg::exp::figure_cells(spec);
}

/// One fixed-replication runner sweep; cache on when budget > 0.
PerfRecord timed_sweep(const std::string& name, const std::vector<dg::exp::NamedConfig>& cells,
                       std::size_t threads, std::size_t reps, std::size_t cache_bytes) {
  dg::exp::RunOptions options;
  options.min_replications = reps;
  options.max_replications = reps;
  options.threads = threads;
  options.world_cache_bytes = cache_bytes;

  dg::exp::ExperimentRunner runner(options);
  Stopwatch timer;
  const auto results = runner.run(cells);
  const double wall = timer.seconds();

  std::size_t replications = 0;
  std::uint64_t events = 0;
  for (const dg::exp::CellResult& cell : results) {
    replications += cell.replications;
    events += cell.events_executed;
  }

  PerfRecord record;
  record.benchmark = name;
  record.config = "cells x" + std::to_string(cells.size()) + ", bots=" +
                  std::to_string(cells.front().config.workload.num_bots) + ", reps=" +
                  std::to_string(reps) + ", cache=" + std::to_string(cache_bytes);
  record.threads = threads;
  record.wall_s = wall;
  record.replications_per_sec =
      wall > 0.0 ? static_cast<double>(replications) / wall : 0.0;
  record.events_per_sec = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  record.cache_hit_rate = runner.cache_stats().hit_rate();
  record.peak_rss_kb = dg::bench::peak_rss_kb();
  std::printf("  %-34s %2zu thr  %8.1f reps/s  %12.0f events/s  hit %.2f  (%.2f s)\n",
              record.benchmark.c_str(), threads, record.replications_per_sec,
              record.events_per_sec, record.cache_hit_rate, wall);
  return record;
}

/// Isolated availability substrate: live process sampling vs realization
/// replay of the same timelines (no workload, no scheduler). `reps`
/// repetitions of a `horizon`-second Low-availability grid.
std::vector<PerfRecord> availability_microbench(std::size_t reps, double horizon) {
  const dg::grid::GridConfig config =
      dg::grid::GridConfig::preset(dg::grid::Heterogeneity::kHom,
                                   dg::grid::AvailabilityLevel::kLow);
  constexpr std::uint64_t kSeed = 99;
  std::uint64_t transitions = 0;

  Stopwatch live_timer;
  for (std::size_t r = 0; r < reps; ++r) {
    dg::des::Simulator sim;
    dg::grid::DesktopGrid grid(config, sim, kSeed);
    grid.start(nullptr, nullptr);
    sim.run_until(horizon);
    transitions += sim.stats().events_fired;
  }
  const double live_wall = live_timer.seconds();

  Stopwatch replay_timer;
  std::uint64_t replay_transitions = 0;
  {
    // Synthesized ONCE, replayed `reps` times — the cache's steady state.
    dg::des::Simulator sim;
    dg::grid::DesktopGrid probe(config, sim, kSeed);
    const dg::grid::WorldRealization world = dg::grid::WorldRealization::synthesize(
        config.availability, config.checkpoint_server_faults, config.outages, probe.size(),
        horizon, kSeed);
    dg::grid::ReplayCursors cursors;
    for (std::size_t r = 0; r < reps; ++r) {
      dg::des::Simulator replay_sim;
      dg::grid::DesktopGrid grid(config, replay_sim, kSeed);
      dg::grid::RealizedAvailabilityDriver driver(replay_sim, grid, world, cursors);
      driver.start(nullptr, nullptr);
      grid.start_outages(nullptr, nullptr);
      replay_sim.run_until(horizon);
      replay_transitions += replay_sim.stats().events_fired;
    }
  }
  const double replay_wall = replay_timer.seconds();
  if (transitions != replay_transitions) {
    std::fprintf(stderr, "FATAL: live fired %llu transitions, replay %llu — not bit-identical\n",
                 static_cast<unsigned long long>(transitions),
                 static_cast<unsigned long long>(replay_transitions));
    std::exit(1);
  }

  const auto make_record = [&](const char* name, double wall) {
    PerfRecord record;
    record.benchmark = name;
    record.config = "HomLow grid, horizon=" + std::to_string(horizon) + "s, reps=" +
                    std::to_string(reps) + " (identical timelines)";
    record.seed = kSeed;
    record.wall_s = wall;
    record.replications_per_sec = wall > 0.0 ? static_cast<double>(reps) / wall : 0.0;
    record.events_per_sec =
        wall > 0.0 ? static_cast<double>(transitions) / wall : 0.0;
    record.peak_rss_kb = dg::bench::peak_rss_kb();
    std::printf("  %-34s         %8.1f reps/s  %12.0f events/s  (%.2f s)\n",
                record.benchmark.c_str(), record.replications_per_sec, record.events_per_sec,
                wall);
    return record;
  };
  return {make_record("world_cache/availability/live", live_wall),
          make_record("world_cache/availability/replay", replay_wall)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const std::size_t reps = 3;
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t env_threads = dg::exp::RunOptions::from_env().threads;
  const std::size_t threads = env_threads != 0 ? env_threads : hw;

  std::vector<PerfRecord> records;

  const std::vector<dg::exp::NamedConfig> fig1 = bench_cells(dg::exp::figure1_spec());
  std::cout << "fig1 sweep (" << fig1.size() << " cells, " << reps << " reps, " << threads
            << " threads):\n";
  records.push_back(timed_sweep("world_cache/fig1/off", fig1, threads, reps, 0));
  records.push_back(timed_sweep("world_cache/fig1/on", fig1, threads, reps,
                                dg::grid::WorldCache::kDefaultBudgetBytes));

  const std::vector<dg::exp::NamedConfig> low = bench_cells(dg::exp::figure2_spec());
  std::cout << "low-availability sweep (" << low.size() << " cells):\n";
  records.push_back(timed_sweep("world_cache/low_avail/off", low, threads, reps, 0));
  records.push_back(timed_sweep("world_cache/low_avail/on", low, threads, reps,
                                dg::grid::WorldCache::kDefaultBudgetBytes));

  std::cout << "availability substrate (live sampling vs realization replay):\n";
  for (PerfRecord& record : availability_microbench(20, 2e6)) {
    records.push_back(std::move(record));
  }

  const std::string path = out_dir + "/BENCH_world_cache.json";
  std::ofstream os(path);
  dg::bench::write_perf_json(os, records);
  std::cout << "wrote " << path << "\n";
  return 0;
}
