#include "exp/runner.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/journal.hpp"
#include "exp/pipeline.hpp"
#include "exp/replication_summary.hpp"
#include "exp/shard.hpp"
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

ShardOptions ShardOptions::from_env(ShardOptions defaults) {
  if (auto v = env_size("DGSCHED_PROCS")) defaults.procs = *v;
  if (auto v = env_string("DGSCHED_JOURNAL")) defaults.journal_path = *v;
  if (auto v = env_string("DGSCHED_POOL")) defaults.pool_dir = *v;
  return defaults;
}

std::optional<std::size_t> env_num_bots() { return env_size("DGSCHED_BOTS"); }

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Thread lanes: options.threads long-lived pool workers, each with a private
/// workspace, pull one job at a time from `state` and deliver its summary
/// under one mutex; the fold happens inside deliver() in canonical per-cell
/// order, so accumulator sequences are bitwise-equal to a sequential run no
/// matter which worker finishes when. A delivery that appended journal
/// records syncs the journal after the mutex is released. Returns one
/// WorkerLaneStats per worker.
std::vector<WorkerLaneStats> run_thread_lanes(const RunOptions& options,
                                              const std::vector<NamedConfig>& cells,
                                              PipelineState& state, CampaignJournal* journal,
                                              const std::shared_ptr<grid::WorldCache>& cache) {
  util::ThreadPool pool(options.threads);
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::exception_ptr error;
  std::vector<WorkerLaneStats> lanes(pool.size());

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
      try {
        const auto job_start = std::chrono::steady_clock::now();
        ReplicationSummary summary =
            run_job(cells[job.cell].config, job.replication, options.base_seed, cache, workspace);
        local.busy_s += seconds_since(job_start);
        ++local.jobs;
        lock.lock();
        const std::uint64_t appended = journal != nullptr ? journal->appended() : 0;
        state.deliver(job.cell, job.replication, std::move(summary));
        if (state.has_ready() || state.finished()) ready_cv.notify_all();
        if (journal != nullptr && journal->appended() != appended) {
          lock.unlock();
          journal->sync();
          lock.lock();
        }
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!error) error = std::current_exception();
        ready_cv.notify_all();
        break;
      }
    }
    lanes[lane] = local;  // lock is held on every break path
  };

  std::vector<std::future<void>> futures;
  futures.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) futures.push_back(pool.submit(worker_loop));
  for (std::future<void>& future : futures) future.get();
  if (error) std::rethrow_exception(error);
  return lanes;
}

}  // namespace

std::vector<CellResult> ExperimentRunner::run(const std::vector<NamedConfig>& cells) {
  std::vector<CellResult> results = make_cell_results(cells, options_);
  exec_stats_ = ExecutionStats{};
  cache_stats_ = grid::WorldCacheStats{};
  if (cells.empty()) return results;
  const auto wall_start = std::chrono::steady_clock::now();

  // Journal, on either lane kind: start() folds the completed prefix of an
  // earlier (killed) run of this same campaign instead of dispatching it.
  // Records are written in the canonical order (exp/pipeline.hpp), so the
  // recovered prefix is always a canonical prefix.
  std::unique_ptr<CampaignJournal> journal;
  if (!shard_.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(
        shard_.journal_path, CampaignJournal::campaign_signature(cells, options_));
  }
  PipelineState state(options_, results, journal.get());
  state.start();

  if (shard_.procs == 0) {
    exec_stats_.lanes = run_thread_lanes(options_, cells, state, journal.get(), world_cache_);
    if (world_cache_) cache_stats_ = world_cache_->stats();
  } else {
    exec_stats_.lanes =
        run_process_lanes(options_, shard_, cells, state, journal.get(), cache_stats_);
  }
  exec_stats_.wall_s = seconds_since(wall_start);
  if (shard_.procs > 0) {
    // A worker process reports busy time only; the rest of the run, journal
    // recovery included, is its stall.
    for (WorkerLaneStats& lane : exec_stats_.lanes) {
      lane.stall_s = std::max(0.0, exec_stats_.wall_s - lane.busy_s);
    }
  }
  exec_stats_.launched = state.launched();
  exec_stats_.committed = state.committed();
  exec_stats_.discarded = state.discarded();
  exec_stats_.recovered = state.recovered();

  for (const CellResult& cell : results) {
    util::log_info("cell '", cell.label, "': mean turnaround ", cell.turnaround.stats().mean(),
                   " (", cell.replications, " reps",
                   cell.saturated() ? ", SATURATED" : "", ")");
  }
  return results;
}

}  // namespace dg::exp
