#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "exp/journal.hpp"
#include "exp/pipeline.hpp"
#include "exp/replication_summary.hpp"
#include "exp/shard.hpp"
#include "sim/workspace.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

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
  const auto value = util::parse_finite(*text);
  if (!value) bad_env(name, *text, "a finite number");
  return value;
}

std::optional<std::size_t> env_size(const char* name) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  const auto value = util::parse_digits(*text, std::numeric_limits<std::size_t>::max());
  if (!value) bad_env(name, *text, "a non-negative integer in range");
  return static_cast<std::size_t>(*value);
}

RunOptions RunOptions::from_env(RunOptions defaults) {
  if (auto v = env_size("DGSCHED_MIN_REPS")) defaults.min_replications = *v;
  if (auto v = env_size("DGSCHED_MAX_REPS")) defaults.max_replications = *v;
  if (auto v = env_double("DGSCHED_TRE")) defaults.target_relative_error = *v;
  if (auto v = env_size("DGSCHED_THREADS")) defaults.threads = *v;
  if (auto v = env_size("DGSCHED_SEED")) defaults.base_seed = *v;
  if (auto v = env_size("DGSCHED_SPECULATE")) defaults.speculate = *v;
  if (defaults.max_replications < defaults.min_replications) {
    defaults.max_replications = defaults.min_replications;
  }
  return defaults;
}

ShardOptions ShardOptions::from_env(ShardOptions defaults) {
  if (auto v = env_size("DGSCHED_PROCS")) defaults.procs = *v;
  if (auto v = env_string("DGSCHED_JOURNAL")) defaults.journal_path = *v;
  return defaults;
}

std::optional<std::size_t> env_num_bots() {
  const auto bots = env_size("DGSCHED_BOTS");
  if (bots == std::size_t{0}) bad_env("DGSCHED_BOTS", "0", "an integer >= 1");
  return bots;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Thread lanes: options.threads lanes (0 = max(1, hardware concurrency)),
/// each a plain thread with a private workspace, pull one job at a time from
/// `state` and deliver its summary under one mutex; the fold happens inside
/// deliver() in canonical per-cell order, so accumulator sequences are
/// bitwise-equal to a sequential run no matter which lane finishes when. A
/// delivery that appended journal records syncs the journal after the mutex
/// is released. The first exception a lane throws stops every lane and is
/// rethrown once all have joined. Returns one WorkerLaneStats per lane.
std::vector<WorkerLaneStats> run_thread_lanes(const RunOptions& options,
                                              const std::vector<NamedConfig>& cells,
                                              PipelineState& state, CampaignJournal* journal) {
  const std::size_t lane_count =
      options.threads > 0 ? options.threads
                          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::exception_ptr error;
  std::vector<WorkerLaneStats> lanes(lane_count);

  // The whole lane body is guarded: an exception escaping a thread's entry
  // function would end the program, and a lane that died silently would
  // leave the others waiting for its job forever.
  auto worker_loop = [&](std::size_t lane) {
    WorkerLaneStats local;
    std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
    try {
      sim::SimulationWorkspace workspace;
      lock.lock();
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
        const auto job_start = std::chrono::steady_clock::now();
        ReplicationSummary summary =
            run_job(cells[job.cell].config, job.replication, options.base_seed, workspace);
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
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      if (!error) error = std::current_exception();
      ready_cv.notify_all();
    }
    lanes[lane] = local;  // the lock is held on both exits
  };

  {
    std::vector<std::jthread> threads;
    try {
      threads.reserve(lane_count);
      for (std::size_t lane = 0; lane < lane_count; ++lane) threads.emplace_back(worker_loop, lane);
    } catch (...) {
      // A lane failed to start: stop the running ones after their current job.
      std::scoped_lock lock(mutex);
      if (!error) error = std::current_exception();
      ready_cv.notify_all();
    }
  }  // every lane joins here
  if (error) std::rethrow_exception(error);
  return lanes;
}

}  // namespace

std::vector<CellResult> ExperimentRunner::run(const std::vector<NamedConfig>& cells) {
  std::vector<CellResult> results = make_cell_results(cells, options_);
  exec_stats_ = ExecutionStats{};
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
    exec_stats_.lanes = run_thread_lanes(options_, cells, state, journal.get());
  } else {
    exec_stats_.lanes = run_process_lanes(options_, shard_, cells, state, journal.get());
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
