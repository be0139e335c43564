// Experiment harness: replication control, CI stopping, figure matrices,
// table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/paper.hpp"
#include "exp/pipeline.hpp"
#include "exp/runner.hpp"
#include "sim/workspace.hpp"

namespace dg::exp {
namespace {

sim::SimulationConfig tiny_config(sched::PolicyKind policy, std::size_t num_bots = 8) {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                         grid::AvailabilityLevel::kAlways);
  config.workload =
      sim::make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, num_bots);
  config.policy = policy;
  return config;
}

// Drives PipelineState the way the process-lane coordinator does: jobs are
// handed out in batches of up to `batch`, run on one lane through the shared
// job body, and each batch's summaries are delivered in reverse, so
// completion order differs from hand-out order.
std::vector<CellResult> run_batched(const RunOptions& options,
                                    const std::vector<NamedConfig>& cells, std::size_t batch) {
  std::vector<CellResult> results = make_cell_results(cells, options);
  PipelineState state(options, results, nullptr);
  state.start();
  sim::SimulationWorkspace workspace;
  while (!state.finished()) {
    const std::vector<PipelineJob> jobs = state.pop_chunk(batch);
    if (jobs.empty()) {
      ADD_FAILURE() << "pipeline stalled with nothing in flight";
      break;
    }
    std::vector<ReplicationSummary> summaries;
    for (const PipelineJob& job : jobs) {
      summaries.push_back(
          run_job(cells[job.cell].config, job.replication, options.base_seed, workspace));
    }
    for (std::size_t i = jobs.size(); i-- > 0;) {
      state.deliver(jobs[i].cell, jobs[i].replication, std::move(summaries[i]));
    }
  }
  return results;
}

TEST(ExperimentRunner, RunsMinimumReplications) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kFcfsShare)}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].replications, 3u);
  EXPECT_EQ(results[0].label, "cell");
  EXPECT_GT(results[0].turnaround.stats().mean(), 0.0);
}

TEST(ExperimentRunner, AddsReplicationsUntilPrecise) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 20;
  options.target_relative_error = 0.15;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kRoundRobin)}});
  const CellResult& cell = results[0];
  EXPECT_GE(cell.replications, 3u);
  if (cell.replications < 20u) {
    EXPECT_LE(cell.turnaround_ci().relative_error(), 0.15);
  }
}

TEST(ExperimentRunner, PreservesCellOrder) {
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 4;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                   {"b", tiny_config(sched::PolicyKind::kRoundRobin)},
                                   {"c", tiny_config(sched::PolicyKind::kLongIdle)}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].label, "a");
  EXPECT_EQ(results[1].label, "b");
  EXPECT_EQ(results[2].label, "c");
}

TEST(ExperimentRunner, CommonRandomNumbersAcrossCells) {
  // Two cells with identical configs see identical replication seeds, hence
  // identical results.
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"x", tiny_config(sched::PolicyKind::kFcfsShare)},
                                   {"y", tiny_config(sched::PolicyKind::kFcfsShare)}});
  EXPECT_EQ(results[0].turnaround.stats().mean(), results[1].turnaround.stats().mean());
}

TEST(ExperimentRunner, ReplicationCapHonored) {
  // An unreachable precision target must stop exactly at the cap.
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 5;
  options.target_relative_error = 1e-9;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kFcfsShare)}});
  EXPECT_EQ(results[0].replications, 5u);
  EXPECT_FALSE(results[0].saturated());
}

TEST(ExperimentRunner, SaturatedCellStopsAtMinimumAndIsCounted) {
  sim::SimulationConfig config = tiny_config(sched::PolicyKind::kFcfsShare);
  config.max_sim_time = 1.0;  // horizon hit with every bag incomplete
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 12;
  options.target_relative_error = 1e-9;  // would keep going if not saturated
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"sat", config}});
  EXPECT_EQ(results[0].replications, 3u);
  EXPECT_EQ(results[0].saturated_replications, 3u);
  EXPECT_TRUE(results[0].saturated());
}

TEST(ExperimentRunner, BatchShapeDoesNotChangeResults) {
  // The hand-out batch (the process-lane coordinator's chunk) must not
  // change results: one-job batches and batches bigger than a cell's whole
  // minimum fold exactly what the thread lanes' one-job pops fold.
  const std::vector<NamedConfig> cells = {{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                          {"b", tiny_config(sched::PolicyKind::kRoundRobin)}};
  RunOptions options;
  options.min_replications = 4;
  options.max_replications = 4;
  options.threads = 3;
  const auto threaded = ExperimentRunner(options).run(cells);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    const auto batched = run_batched(options, cells, batch);
    ASSERT_EQ(batched.size(), threaded.size());
    for (std::size_t i = 0; i < threaded.size(); ++i) {
      EXPECT_EQ(batched[i].turnaround.stats().mean(), threaded[i].turnaround.stats().mean())
          << "batch " << batch << " cell " << i;
      EXPECT_EQ(batched[i].replications, threaded[i].replications)
          << "batch " << batch << " cell " << i;
    }
  }
}

TEST(ExperimentRunner, CellTailSketchesPoolEveryMeasuredBag) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kFcfsShare)}});
  const CellResult& cell = results[0];
  // 8 bags per replication, no warmup filter: 24 pooled observations.
  EXPECT_EQ(cell.turnaround_tail.count(), 24u);
  EXPECT_EQ(cell.slowdown_tail.count(), 24u);
  // Gaps start at each replication's second completion: 7 per replication.
  EXPECT_EQ(cell.completion_gap_tail.count(), 21u);
  EXPECT_GE(cell.turnaround_tail.quantile(0.99), cell.turnaround_tail.quantile(0.50));
  EXPECT_GE(cell.slowdown_tail.quantile(0.95), 1.0);  // slowdown >= 1 by construction
  EXPECT_EQ(cell.decayed_utilization.count(), 3u);
  EXPECT_GT(cell.decayed_utilization.mean(), 0.0);
  EXPECT_LE(cell.decayed_utilization.mean(), 1.0);
}

TEST(ExperimentRunner, MergedTailsBitIdenticalAcrossThreadsAndBatch) {
  // The fold-in-build-order contract extended to the tail sketches: exact
  // integer bucket merges make the cell-level p50/p95/p99 identical across
  // thread counts and hand-out batch sizes — on a volatile grid, where
  // machine churn makes every replication's tails differ.
  sim::SimulationConfig volatile_config = tiny_config(sched::PolicyKind::kRoundRobin);
  volatile_config.grid =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow);
  volatile_config.workload = sim::make_paper_workload(volatile_config.grid, 25000.0,
                                                      workload::Intensity::kLow, 6);
  const std::vector<NamedConfig> cells = {{"v", volatile_config},
                                          {"s", tiny_config(sched::PolicyKind::kFcfsShare, 6)}};

  struct Variant {
    std::size_t threads;
    std::size_t batch;  ///< 0: thread lanes; otherwise run_batched's batch size
  };
  const Variant variants[] = {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {1, 5}, {1, 2}, {1, 1}};

  std::vector<std::vector<CellResult>> runs;
  for (const Variant& variant : variants) {
    RunOptions options;
    options.min_replications = 3;
    options.max_replications = 3;
    options.threads = variant.threads;
    runs.push_back(variant.batch == 0 ? ExperimentRunner(options).run(cells)
                                      : run_batched(options, cells, variant.batch));
  }

  const std::vector<CellResult>& reference = runs.front();
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const CellResult& got = runs[v][i];
      const CellResult& want = reference[i];
      EXPECT_EQ(got.turnaround_tail.count(), want.turnaround_tail.count());
      for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(got.turnaround_tail.quantile(q), want.turnaround_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.slowdown_tail.quantile(q), want.slowdown_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.completion_gap_tail.quantile(q), want.completion_gap_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
      }
      EXPECT_EQ(got.turnaround_tail.sum(), want.turnaround_tail.sum());
      EXPECT_EQ(got.decayed_utilization.mean(), want.decayed_utilization.mean());
    }
  }
}

TEST(RunOptions, EnvOverridesApply) {
  ::setenv("DGSCHED_MIN_REPS", "4", 1);
  ::setenv("DGSCHED_MAX_REPS", "9", 1);
  ::setenv("DGSCHED_TRE", "0.1", 1);
  ::setenv("DGSCHED_SEED", "123", 1);
  const RunOptions options = RunOptions::from_env();
  EXPECT_EQ(options.min_replications, 4u);
  EXPECT_EQ(options.max_replications, 9u);
  EXPECT_DOUBLE_EQ(options.target_relative_error, 0.1);
  EXPECT_EQ(options.base_seed, 123u);
  ::unsetenv("DGSCHED_MIN_REPS");
  ::unsetenv("DGSCHED_MAX_REPS");
  ::unsetenv("DGSCHED_TRE");
  ::unsetenv("DGSCHED_SEED");
}

TEST(RunOptions, MaxClampedToMin) {
  ::setenv("DGSCHED_MIN_REPS", "10", 1);
  ::setenv("DGSCHED_MAX_REPS", "2", 1);
  const RunOptions options = RunOptions::from_env();
  EXPECT_EQ(options.max_replications, 10u);
  ::unsetenv("DGSCHED_MIN_REPS");
  ::unsetenv("DGSCHED_MAX_REPS");
}

void expect_env_rejected(const char* name, const char* value) {
  ::setenv(name, value, 1);
  try {
    (void)RunOptions::from_env();
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const std::invalid_argument& error) {
    // The message must name the offending variable and echo the bad value.
    EXPECT_NE(std::string(error.what()).find(name), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find(value), std::string::npos) << error.what();
  }
  ::unsetenv(name);
}

TEST(RunOptions, MalformedEnvFailsWithClearMessage) {
  expect_env_rejected("DGSCHED_TRE", "abc");
  expect_env_rejected("DGSCHED_TRE", "1.5x");
  // A non-finite target would mean no cell is ever precise.
  expect_env_rejected("DGSCHED_TRE", "nan");
  expect_env_rejected("DGSCHED_TRE", "inf");
  expect_env_rejected("DGSCHED_TRE", " 0.1");
  expect_env_rejected("DGSCHED_MAX_REPS", "-3");
  // std::stoull skips whitespace and accepts a sign: " -3" would wrap.
  expect_env_rejected("DGSCHED_MAX_REPS", " -3");
  expect_env_rejected("DGSCHED_MAX_REPS", "+5");
  expect_env_rejected("DGSCHED_MAX_REPS", "5 ");
  expect_env_rejected("DGSCHED_MAX_REPS", "twelve");
  expect_env_rejected("DGSCHED_MAX_REPS", "99999999999999999999999");
  expect_env_rejected("DGSCHED_MIN_REPS", "3.5");
  expect_env_rejected("DGSCHED_THREADS", "12x");
  expect_env_rejected("DGSCHED_SEED", "0xzz");
}

TEST(ExperimentRunner, ExecutionShapesAreBitIdentical) {
  // The scheduler's core contract: any thread count and speculation window
  // must be cell-for-cell bit-identical to one worker without speculation —
  // including the adaptive stop rule (max > min with a reachable precision
  // target, so cells stop at different replication counts and speculative
  // summaries get discarded). Volatile grid, so machine churn makes the
  // replications differ.
  sim::SimulationConfig volatile_config = tiny_config(sched::PolicyKind::kRoundRobin, 6);
  volatile_config.grid =
      grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
  volatile_config.workload = sim::make_paper_workload(volatile_config.grid, 25000.0,
                                                      workload::Intensity::kLow, 6);
  sim::SimulationConfig stable_config = volatile_config;
  stable_config.policy = sched::PolicyKind::kFcfsShare;
  sim::SimulationConfig third_config = volatile_config;
  third_config.policy = sched::PolicyKind::kLongIdle;
  const std::vector<NamedConfig> cells = {
      {"rr", volatile_config}, {"fcfs", stable_config}, {"li", third_config}};

  // threads x speculate; the first shape (1 worker, no speculation) is the
  // reference. Speculation 4 makes discards routine.
  std::vector<std::vector<CellResult>> runs;
  for (const std::size_t threads : {1u, 3u, 4u}) {
    for (const std::size_t speculate : {0u, 1u, 4u}) {
      RunOptions options;
      options.min_replications = 2;
      options.max_replications = 4;
      options.target_relative_error = 0.08;
      options.speculate = speculate;
      options.threads = threads;
      runs.push_back(ExperimentRunner(options).run(cells));
    }
  }

  const std::vector<CellResult>& reference = runs.front();
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const CellResult& got = runs[v][i];
      const CellResult& want = reference[i];
      EXPECT_EQ(got.replications, want.replications) << "variant " << v << " cell " << i;
      EXPECT_EQ(got.turnaround.stats().mean(), want.turnaround.stats().mean())
          << "variant " << v << " cell " << i;
      EXPECT_EQ(got.turnaround.stats().variance(), want.turnaround.stats().variance())
          << "variant " << v << " cell " << i;
      EXPECT_EQ(got.waiting.mean(), want.waiting.mean()) << "variant " << v << " cell " << i;
      EXPECT_EQ(got.events_executed, want.events_executed) << "variant " << v << " cell " << i;
      for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(got.turnaround_tail.quantile(q), want.turnaround_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.slowdown_tail.quantile(q), want.slowdown_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.completion_gap_tail.quantile(q), want.completion_gap_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
      }
      EXPECT_EQ(got.turnaround_tail.sum(), want.turnaround_tail.sum())
          << "variant " << v << " cell " << i;
    }
  }
}

TEST(PipelineState, PopChunkNeverExceedsTarget) {
  // A hand-out chunk is at most the requested size: the cost-major queue is
  // never extended to keep a replication group together, which used to hand
  // one worker every cell of a replication while its siblings idled.
  std::vector<CellResult> results(3);
  for (std::size_t c = 0; c < results.size(); ++c) {
    results[c].config = tiny_config(sched::PolicyKind::kFcfsShare, 4 + c);
  }
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  PipelineState state(options, results, nullptr);
  state.start();
  std::size_t popped = 0;
  for (const std::size_t target : {std::size_t{1}, std::size_t{2}, std::size_t{1},
                                   std::size_t{4}, std::size_t{3}}) {
    const std::vector<PipelineJob> chunk = state.pop_chunk(target);
    EXPECT_LE(chunk.size(), target);
    popped += chunk.size();
  }
  EXPECT_EQ(popped, 9u);  // 3 cells x 3 replications, all handed out
  EXPECT_FALSE(state.has_ready());
  EXPECT_EQ(state.in_flight(), 9u);
}

TEST(ExperimentRunner, ExecStatsAccountForEveryReplication) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                   {"b", tiny_config(sched::PolicyKind::kRoundRobin)}});
  const ExecutionStats& exec = runner.exec_stats();
  ASSERT_EQ(exec.lanes.size(), 2u);
  EXPECT_EQ(exec.committed, 6u);  // 2 cells x 3 replications, all folded
  EXPECT_GE(exec.launched, exec.committed);
  EXPECT_EQ(exec.launched, exec.committed + exec.discarded);
  EXPECT_EQ(exec.recovered, 0u);
  std::uint64_t lane_jobs = 0;
  for (const WorkerLaneStats& lane : exec.lanes) lane_jobs += lane.jobs;
  EXPECT_EQ(lane_jobs, exec.launched);  // every launched job ran on some lane
  EXPECT_GT(exec.wall_s, 0.0);
  EXPECT_GT(exec.busy_s(), 0.0);
  (void)results;
}

TEST(ExperimentRunner, CellEventCountsArePopulated) {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kHigh);
  config.workload =
      sim::make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, 10);
  config.policy = sched::PolicyKind::kFcfsShare;
  config.warmup_bots = 2;
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 1;
  const std::vector<CellResult> results = ExperimentRunner(options).run({{"events", config}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].events_executed, 0u);
  EXPECT_EQ(results[0].replications, 2u);
}

TEST(ExperimentRunner, ZeroThreadsRunsOneLanePerHardwareThread) {
  RunOptions options;
  options.min_replications = 1;
  options.max_replications = 1;
  options.threads = 0;
  ExperimentRunner runner(options);
  (void)runner.run({{"a", tiny_config(sched::PolicyKind::kFcfsShare)}});
  EXPECT_EQ(runner.exec_stats().lanes.size(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(ExperimentRunner, JobExceptionStopsEveryLaneThenRethrows) {
  // Simulation::run rejects the adversary on non-Poisson arrivals, so every
  // replication of "bad" throws while the other lanes run healthy jobs.
  sim::SimulationConfig bad = tiny_config(sched::PolicyKind::kFcfsShare);
  bad.adversary.enabled = true;
  bad.workload.arrivals = workload::ArrivalProcess::kUniformJitter;
  std::atomic<int> in_loop{0};
  sim::SimulationConfig healthy = tiny_config(sched::PolicyKind::kRoundRobin, 30);
  healthy.before_run_loop = [&in_loop] { ++in_loop; };
  healthy.after_run_loop = [&in_loop] { --in_loop; };
  RunOptions options;
  options.min_replications = 4;
  options.max_replications = 4;
  options.threads = 3;
  ExperimentRunner runner(options);
  EXPECT_THROW((void)runner.run({{"a", healthy}, {"bad", bad}, {"b", healthy}}),
               std::invalid_argument);
  // run() returned only after every lane finished its job and joined.
  EXPECT_EQ(in_loop.load(), 0);
  // The runner is reusable afterwards.
  const auto results = runner.run({{"a", tiny_config(sched::PolicyKind::kFcfsShare)}});
  EXPECT_EQ(results[0].replications, 4u);
  EXPECT_EQ(runner.exec_stats().lanes.size(), 3u);
}

TEST(RunOptions, SpeculateEnvOverride) {
  EXPECT_EQ(RunOptions::from_env().speculate, 1u);  // default window
  ::setenv("DGSCHED_SPECULATE", "4", 1);
  EXPECT_EQ(RunOptions::from_env().speculate, 4u);
  ::setenv("DGSCHED_SPECULATE", "0", 1);
  EXPECT_EQ(RunOptions::from_env().speculate, 0u);
  ::unsetenv("DGSCHED_SPECULATE");
}

TEST(RunOptions, MalformedPipelineEnvFailsWithClearMessage) {
  // DGSCHED_SPECULATE sizes the pipeline's speculation window.
  expect_env_rejected("DGSCHED_SPECULATE", "-1");
  expect_env_rejected("DGSCHED_SPECULATE", "2.5");
  expect_env_rejected("DGSCHED_SPECULATE", "deep");
  expect_env_rejected("DGSCHED_SPECULATE", " 1");
}

TEST(EnvNumBots, ReadsOverride) {
  ::setenv("DGSCHED_BOTS", "42", 1);
  EXPECT_EQ(env_num_bots().value(), 42u);
  // Zero bags is no workload: rejected up front, naming the variable.
  ::setenv("DGSCHED_BOTS", "0", 1);
  try {
    (void)env_num_bots();
    ADD_FAILURE() << "DGSCHED_BOTS=0 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("DGSCHED_BOTS"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("\"0\""), std::string::npos) << error.what();
  }
  ::unsetenv("DGSCHED_BOTS");
  EXPECT_FALSE(env_num_bots().has_value());
}

// --- figure specs ---

TEST(FigureSpecs, Figure1HasFourPanelsAtHighAvail) {
  const FigureSpec spec = figure1_spec();
  EXPECT_EQ(spec.availability, grid::AvailabilityLevel::kHigh);
  EXPECT_EQ(spec.panels.size(), 4u);
  EXPECT_EQ(spec.granularities.size(), 4u);
  EXPECT_EQ(spec.policies.size(), 5u);
}

TEST(FigureSpecs, Figure2IsLowAvail) {
  EXPECT_EQ(figure2_spec().availability, grid::AvailabilityLevel::kLow);
}

TEST(FigureSpecs, UnreportedIsMedAvailMedIntensity) {
  const FigureSpec spec = unreported_spec();
  EXPECT_EQ(spec.availability, grid::AvailabilityLevel::kMed);
  for (const PanelSpec& panel : spec.panels) {
    EXPECT_EQ(panel.intensity, workload::Intensity::kMed);
  }
}

TEST(FigureCells, MatrixSizeAndLabels) {
  const FigureSpec spec = figure1_spec();
  const auto cells = figure_cells(spec);
  EXPECT_EQ(cells.size(), 4u * 4u * 5u);
  EXPECT_NE(cells[0].label.find("Hom-HighAvail"), std::string::npos);
  EXPECT_NE(cells[0].label.find("FCFS-Excl"), std::string::npos);
  EXPECT_NE(cells[0].label.find("g=1000"), std::string::npos);
}

TEST(FigureCells, ConfigsCarryPanelSettings) {
  FigureSpec spec = figure2_spec();
  spec.num_bots = 17;
  const auto cells = figure_cells(spec);
  for (const NamedConfig& cell : cells) {
    EXPECT_EQ(cell.config.workload.num_bots, 17u);
    EXPECT_NEAR(cell.config.grid.availability.availability(), 0.5, 1e-9);
  }
  // Intensity is reflected in the arrival rate: last panel (High) has a
  // higher rate than the first (Low) at equal granularity.
  EXPECT_GT(cells.back().config.workload.arrival_rate, cells.front().config.workload.arrival_rate);
}

TEST(RenderFigure, ProducesTablesAndCsv) {
  FigureSpec spec;
  spec.title = "Test figure";
  spec.availability = grid::AvailabilityLevel::kHigh;
  spec.panels = {{grid::Heterogeneity::kHom, workload::Intensity::kLow}};
  spec.granularities = {1000.0};
  spec.policies = {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin};

  std::vector<CellResult> results(2);
  results[0].label = "a";
  results[0].turnaround.add(100.0);
  results[0].turnaround.add(102.0);
  results[1].label = "b";
  results[1].turnaround.add(500.0);
  results[1].turnaround.add(501.0);
  results[1].saturated_replications = 1;

  std::ostringstream os, csv;
  render_figure(spec, results, os, &csv);
  const std::string text = os.str();
  EXPECT_NE(text.find("Test figure"), std::string::npos);
  EXPECT_NE(text.find("FCFS-Share"), std::string::npos);
  EXPECT_NE(text.find("101"), std::string::npos);   // mean of cell a
  EXPECT_NE(text.find("SAT"), std::string::npos);   // saturation marker
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("mean_turnaround"), std::string::npos);
  EXPECT_NE(csv_text.find("RR"), std::string::npos);
}

}  // namespace
}  // namespace dg::exp
