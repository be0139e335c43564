#include "exp/runner.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/pipeline.hpp"
#include "exp/replication_summary.hpp"
#include "rng/splitmix64.hpp"
#include "sim/workspace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace dg::exp {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

void bad_env(const char* name, const std::string& text, const char* expected) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected + ", got \"" + text +
                              "\"");
}

std::optional<double> env_double(const char* name) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  // std::stod skips leading whitespace and parses "nan"/"inf"; neither is a
  // usable knob value.
  if (std::isspace(static_cast<unsigned char>(text->front())) != 0) {
    bad_env(name, *text, "a finite number");
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*text, &consumed);
    if (consumed != text->size() || !std::isfinite(value)) bad_env(name, *text, "a finite number");
    return value;
  } catch (const std::invalid_argument&) {
    bad_env(name, *text, "a finite number");
  } catch (const std::out_of_range&) {
    bad_env(name, *text, "a number in double range");
  }
}

std::optional<std::size_t> env_size(const char* name) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  // Digits only: std::stoull would also skip whitespace and accept a sign
  // (" -3" wraps to 2^64 - 3).
  if (text->find_first_not_of("0123456789") != std::string::npos) {
    bad_env(name, *text, "a non-negative integer");
  }
  try {
    return static_cast<std::size_t>(std::stoull(*text));
  } catch (const std::out_of_range&) {
    bad_env(name, *text, "a non-negative integer in range");
  }
}

RunOptions RunOptions::from_env(RunOptions defaults) {
  if (auto v = env_size("DGSCHED_MIN_REPS")) defaults.min_replications = *v;
  if (auto v = env_size("DGSCHED_MAX_REPS")) defaults.max_replications = *v;
  if (auto v = env_double("DGSCHED_TRE")) defaults.target_relative_error = *v;
  if (auto v = env_size("DGSCHED_THREADS")) defaults.threads = *v;
  if (auto v = env_size("DGSCHED_SEED")) defaults.base_seed = *v;
  if (auto v = env_size("DGSCHED_WORLD_CACHE")) defaults.world_cache_bytes = *v;
  if (auto v = env_size("DGSCHED_SPECULATE")) defaults.speculate = *v;
  if (defaults.max_replications < defaults.min_replications) {
    defaults.max_replications = defaults.min_replications;
  }
  return defaults;
}

std::optional<std::size_t> env_num_bots() { return env_size("DGSCHED_BOTS"); }

std::vector<CellResult> ExperimentRunner::run(const std::vector<NamedConfig>& cells) {
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (const NamedConfig& cell : cells) {
    CellResult result;
    result.label = cell.label;
    result.config = cell.config;
    result.turnaround = stats::ReplicationAnalyzer(options_.ci_level,
                                                   options_.target_relative_error,
                                                   options_.min_replications);
    results.push_back(std::move(result));
  }

  exec_stats_ = ExecutionStats{};
  if (cells.empty()) return results;

  util::ThreadPool pool(options_.threads);

  // Runs one replication through the calling lane's workspace.
  auto run_one = [&](const PipelineJob& job, sim::SimulationWorkspace& workspace) {
    sim::SimulationConfig config = results[job.cell].config;
    // Seeds depend only on (base_seed, replication): common random numbers
    // across cells that differ only in scheduling policy.
    config.seed = rng::mix_seed(options_.base_seed, job.replication);
    // Cells sharing a replication seed replay one cached world realization
    // (bit-identical to live sampling; null cache = live processes).
    config.world_cache = world_cache_;
    return summarize(sim::Simulation(std::move(config)).run(workspace));
  };

  // PipelineState (exp/pipeline.hpp) owns the ready queue, the per-cell
  // reorder/commit buffers, the precision decisions, and the speculation
  // window. pool.size() long-lived worker loops pull jobs and deliver
  // summaries under one mutex; the fold itself happens inside deliver() in
  // canonical per-cell order, so accumulator sequences are bitwise-equal to
  // a sequential run no matter which worker finishes when.
  PipelineState state(options_, results, nullptr);
  state.start();

  std::mutex mutex;
  std::condition_variable ready_cv;
  std::exception_ptr error;
  std::vector<WorkerLaneStats> lanes(pool.size());
  const auto wall_start = std::chrono::steady_clock::now();
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  auto worker_loop = [&] {
    const std::size_t lane = util::ThreadPool::current_worker_index();
    sim::SimulationWorkspace workspace;
    WorkerLaneStats local;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      while (!error && !state.finished() && !state.has_ready()) {
        const auto wait_start = std::chrono::steady_clock::now();
        ready_cv.wait(lock);
        local.stall_s += seconds_since(wait_start);
      }
      if (error || state.finished()) break;
      // One job at a time: a lane returns for more the moment it finishes,
      // so there is nothing to balance.
      const std::vector<PipelineJob> popped = state.pop_chunk(1);
      if (popped.empty()) continue;
      const PipelineJob job = popped.front();
      lock.unlock();
      ReplicationSummary summary;
      try {
        const auto job_start = std::chrono::steady_clock::now();
        summary = run_one(job, workspace);
        local.busy_s += seconds_since(job_start);
        ++local.jobs;
      } catch (...) {
        lock.lock();
        if (!error) error = std::current_exception();
        ready_cv.notify_all();
        break;
      }
      lock.lock();
      state.deliver(job.cell, job.replication, std::move(summary));
      if (state.has_ready() || state.finished()) ready_cv.notify_all();
    }
    lanes[lane] = local;  // lock is held on every break path
  };

  std::vector<std::future<void>> futures;
  futures.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) futures.push_back(pool.submit(worker_loop));
  for (std::future<void>& future : futures) future.get();
  if (error) std::rethrow_exception(error);

  exec_stats_.lanes = std::move(lanes);
  exec_stats_.wall_s = seconds_since(wall_start);
  exec_stats_.launched = state.launched();
  exec_stats_.committed = state.committed();
  exec_stats_.discarded = state.discarded();

  for (const CellResult& cell : results) {
    util::log_info("cell '", cell.label, "': mean turnaround ", cell.turnaround.stats().mean(),
                   " (", cell.replications, " reps",
                   cell.saturated() ? ", SATURATED" : "", ")");
  }
  return results;
}

}  // namespace dg::exp
