// Traced driver for the end-to-end benchmark (benchmark/run.py --trace 1).
//
// Runs one benchmark workload through the library's public API and records
// per-layer spans and counters from outside src/, around the calls into each
// layer. The timed binaries stay untouched; the harness runs them untraced
// and this driver separately, so the difference between the two is the
// tracing overhead.
//
// Two passes:
//   runner pass  The workload's cells, options and lane kind exactly as the
//                timed binary builds them (same DGSCHED_* environment), run
//                through ExperimentRunner or ShardedRunner with three hooks
//                installed in every cell's SimulationConfig: before/after
//                run-loop timestamps and a wrap_policy decorator timing
//                BagSelectionPolicy::select. Hooks in forked worker processes
//                add into a shared anonymous mapping made before the fork.
//                Gives the exp.* lane numbers, the world-cache statistics, the
//                run-loop share of lane busy time and the select() cost.
//   replay pass  A fixed sample of the workload's (cell, replication) jobs —
//                every cell, the first replications — run one after another
//                through Simulation::run(workspace) on one warmed workspace
//                (run-loop hooks only) and a private world cache, each result
//                pushed through exp::summarize / serialize / deserialize,
//                CampaignJournal::append + sync, and exp::fold. Deterministic
//                by construction, so its counts repeat exactly.
//
// Usage: dgsched_trace <workload> <scratch_dir> [replay_samples]
//   workload: fig1_high_avail | fig2_low_avail | campaign_threads | campaign_procs
//   replay_samples: minimum replay-pass runs (default 200, so the p95 has at
//   least ten samples beyond it; whole replications of every cell are run)
// Prints one JSON object {"metric": value, ...} on stdout; the check.* keys
// are counts the harness compares with the timed binary's outputs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/mman.h>

#include "exp/campaign.hpp"
#include "exp/journal.hpp"
#include "exp/paper.hpp"
#include "exp/replication_summary.hpp"
#include "exp/runner.hpp"
#include "exp/shard.hpp"
#include "rng/splitmix64.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "util/alloc_interposer.hpp"
#include "util/binary_io.hpp"

DG_DEFINE_ALLOC_INTERPOSER();

namespace {

using namespace dg;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Hook totals. Lives in a MAP_SHARED anonymous mapping so replications run
// in forked worker processes add into the same counters as threads do.
struct HookCounters {
  std::atomic<std::uint64_t> loop_ns{0};
  std::atomic<std::uint64_t> selects{0};
  std::atomic<std::uint64_t> select_ns{0};
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared-mapping counters need address-free atomics");

struct Unmap {
  void operator()(HookCounters* counters) const noexcept {
    counters->~HookCounters();
    munmap(counters, sizeof(HookCounters));
  }
};
using SharedCounters = std::unique_ptr<HookCounters, Unmap>;

SharedCounters make_shared_counters() {
  void* memory = mmap(nullptr, sizeof(HookCounters), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("mmap of the hook counters failed");
  return SharedCounters(new (memory) HookCounters);
}

// Run-loop bracket of the replication running on this thread.
thread_local Clock::time_point t_loop_begin;
thread_local Clock::time_point t_loop_end;

// Times every select() of the wrapped policy; flushes into the shared
// counters when the simulation destroys it. Decisions are the inner policy's.
class TimedPolicy final : public sched::BagSelectionPolicy {
 public:
  TimedPolicy(std::unique_ptr<sched::BagSelectionPolicy> inner, HookCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  ~TimedPolicy() override {
    counters_->selects.fetch_add(selects_, std::memory_order_relaxed);
    counters_->select_ns.fetch_add(select_ns_, std::memory_order_relaxed);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] sched::TaskState* select(sched::SchedulerContext& ctx) override {
    const Clock::time_point start = Clock::now();
    sched::TaskState* task = inner_->select(ctx);
    select_ns_ += ns_between(start, Clock::now());
    ++selects_;
    return task;
  }
  [[nodiscard]] bool unlimited_replication() const override {
    return inner_->unlimited_replication();
  }
  void on_bot_arrival(sched::BotState& bot, double now) override { inner_->on_bot_arrival(bot, now); }
  void on_bot_completion(sched::BotState& bot, double now) override {
    inner_->on_bot_completion(bot, now);
  }
  void on_task_transition(sched::TaskState& task, double now) override {
    inner_->on_task_transition(task, now);
  }

 private:
  std::unique_ptr<sched::BagSelectionPolicy> inner_;
  HookCounters* counters_;
  std::uint64_t selects_ = 0;
  std::uint64_t select_ns_ = 0;
};

void install_loop_hooks(sim::SimulationConfig& config, HookCounters* counters) {
  config.before_run_loop = [] { t_loop_begin = Clock::now(); };
  config.after_run_loop = [counters] {
    t_loop_end = Clock::now();
    counters->loop_ns.fetch_add(ns_between(t_loop_begin, t_loop_end), std::memory_order_relaxed);
  };
}

void install_select_timer(sim::SimulationConfig& config, HookCounters* counters) {
  config.wrap_policy = [counters](std::unique_ptr<sched::BagSelectionPolicy> inner) {
    return std::unique_ptr<sched::BagSelectionPolicy>(
        std::make_unique<TimedPolicy>(std::move(inner), counters));
  };
}

// The cells a workload runs, built the way its timed binary builds them.
struct WorkloadCells {
  std::vector<exp::NamedConfig> grid;
  std::vector<sim::SimulationConfig> seed_cells;  ///< campaign seed-sensitivity pass
  std::size_t seeds = 0;
  bool procs = false;
};

WorkloadCells figure_workload(exp::FigureSpec spec) {
  // Mirrors bench/figure_main.hpp.
  if (auto bots = exp::env_num_bots()) spec.num_bots = *bots;
  WorkloadCells w;
  w.grid = exp::figure_cells(spec);
  return w;
}

WorkloadCells campaign_workload(bool procs) {
  // Mirrors bench/robustness_campaign.cpp: axes, adversary window fit, and
  // the harshest-corner cells of the seed-sensitivity pass.
  const exp::CampaignOptions campaign = exp::CampaignOptions::from_env();
  exp::CampaignAxes axes = campaign.smoke ? exp::CampaignAxes::smoke() : exp::CampaignAxes{};
  axes.num_bots = exp::env_num_bots().value_or(axes.num_bots);
  axes.warmup_bots = std::min(axes.warmup_bots, axes.num_bots / 4);
  axes.adversary.enabled = campaign.adversary;
  if (campaign.adversary) {
    double min_span = std::numeric_limits<double>::infinity();
    for (const exp::CampaignCell& cell : exp::expand_campaign(axes)) {
      min_span = std::min(min_span, static_cast<double>(cell.config.workload.num_bots) /
                                        cell.config.workload.arrival_rate);
    }
    const double fit = 0.8 * (1.0 - axes.adversary.lead_fraction) * min_span /
                       static_cast<double>(axes.adversary.num_windows);
    axes.adversary.window_duration = std::min(axes.adversary.window_duration, fit);
  }
  const std::vector<exp::CampaignCell> cells = exp::expand_campaign(axes);
  const double harsh_machine =
      *std::min_element(axes.machine_availabilities.begin(), axes.machine_availabilities.end());
  const double harsh_server =
      *std::min_element(axes.server_availabilities.begin(), axes.server_availabilities.end());
  const double harsh_util = *std::max_element(axes.utilizations.begin(), axes.utilizations.end());
  const int harsh_threshold =
      *std::max_element(axes.replication_thresholds.begin(), axes.replication_thresholds.end());

  WorkloadCells w;
  w.procs = procs;
  w.seeds = campaign.seeds;
  for (const exp::CampaignCell& cell : cells) {
    w.grid.push_back(exp::NamedConfig{cell.label, cell.config});
    if (cell.machine_availability == harsh_machine && cell.server_availability == harsh_server &&
        cell.utilization == harsh_util && cell.replication_threshold == harsh_threshold) {
      w.seed_cells.push_back(cell.config);
    }
  }
  return w;
}

WorkloadCells load_workload(const std::string& name) {
  if (name == "fig1_high_avail") return figure_workload(exp::figure1_spec());
  if (name == "fig2_low_avail") return figure_workload(exp::figure2_spec());
  if (name == "campaign_threads") return campaign_workload(false);
  if (name == "campaign_procs") return campaign_workload(true);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

using Metrics = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Runner pass: the workload as the timed binary runs it, with hooks.
void runner_pass(const WorkloadCells& w, const exp::RunOptions& options,
                 const std::filesystem::path& scratch, HookCounters* counters, Metrics& m) {
  std::vector<exp::NamedConfig> cells = w.grid;
  for (exp::NamedConfig& cell : cells) {
    install_loop_hooks(cell.config, counters);
    install_select_timer(cell.config, counters);
  }

  const Clock::time_point start = Clock::now();
  const std::uint64_t allocs_before = util::alloc_count().load();
  exp::ExecutionStats exec;
  grid::WorldCacheStats cache;
  if (w.procs) {
    exp::ShardOptions shard = exp::ShardOptions::from_env();
    shard.journal_path = (scratch / "campaign.journal").string();
    shard.pool_dir = (scratch / "campaign.worldpool").string();
    // A journal left by an earlier run would be resumed instead of executed.
    std::filesystem::remove(shard.journal_path);
    std::filesystem::remove_all(shard.pool_dir);
    exp::ShardedRunner runner(options, shard);
    (void)runner.run(cells);
    exec = runner.exec_stats();
    cache = runner.worker_cache_stats();
    m["exp.journal_bytes"] =
        static_cast<double>(std::filesystem::file_size(shard.journal_path));
  } else {
    exp::ExperimentRunner runner(options);
    (void)runner.run(cells);
    exec = runner.exec_stats();
    if (runner.world_cache() != nullptr) cache = runner.world_cache()->stats();
    m["exp.journal_bytes"] = 0.0;
  }
  const double allocs = static_cast<double>(util::alloc_count().load() - allocs_before);
  const double loop_s = static_cast<double>(counters->loop_ns.load()) * 1e-9;
  m["sched.select_ns"] = ratio(static_cast<double>(counters->select_ns.load()),
                               static_cast<double>(counters->selects.load()));

  const double lanes = static_cast<double>(exec.lanes.size());
  m["exp.lanes"] = lanes;
  m["exp.lane_busy_s"] = exec.busy_s();
  m["exp.lane_stall_s"] = exec.stall_s();
  m["exp.lane_util"] = ratio(exec.busy_s(), lanes * exec.wall_s);
  m["exp.reps_committed"] = static_cast<double>(exec.committed);
  // The harness compares the check.* counts with the timed binary's outputs,
  // so a cell set that drifted from the binary's fails the traced run.
  m["check.cells"] = static_cast<double>(cells.size());
  m["check.reps_committed"] = static_cast<double>(exec.committed);
  m["exp.useful_frac"] =
      ratio(static_cast<double>(exec.committed), static_cast<double>(exec.launched));
  // Operator-new calls in this process per launched replication: the whole
  // runner path on thread lanes, the coordinator's share on process lanes.
  m["exp.allocs_per_rep"] = ratio(allocs, static_cast<double>(exec.launched));
  m["sim.loop_s"] = loop_s;
  m["sim.outside_loop_s"] = exec.busy_s() - loop_s;
  m["grid.world_lookups"] = static_cast<double>(cache.lookups());
  m["grid.world_hit_rate"] = cache.hit_rate();
  m["grid.pool_hit_rate"] = cache.pool_hit_rate();
  m["grid.world_peak_mib"] = static_cast<double>(cache.peak_bytes) / (1024.0 * 1024.0);

  double seeds_run = 0;
  for (sim::SimulationConfig config : w.seed_cells) {
    install_loop_hooks(config, counters);
    install_select_timer(config, counters);
    seeds_run += static_cast<double>(exp::seed_sensitivity(config, options, w.seeds).seeds);
  }
  if (!w.seed_cells.empty()) {
    m["check.seed_cells"] = static_cast<double>(w.seed_cells.size());
    m["check.seeds"] = seeds_run;
  }
  m["trace.traced_wall_s"] = std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

constexpr std::size_t kSynthCells = 8;
constexpr std::size_t kSynthTrials = 3;

// Replay pass: a deterministic sample through Simulation::run(workspace) and
// the summary transport, one replication at a time.
void replay_pass(const WorkloadCells& w, const exp::RunOptions& options, std::size_t min_samples,
                 const std::filesystem::path& scratch, HookCounters* counters, Metrics& m) {
  const std::size_t reps =
      std::max<std::size_t>(1, (min_samples + w.grid.size() - 1) / w.grid.size());
  std::vector<exp::NamedConfig> cells = w.grid;
  std::vector<exp::CellResult> folded(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    install_loop_hooks(cells[c].config, counters);
    folded[c].label = cells[c].label;
    folded[c].config = cells[c].config;
    folded[c].turnaround = stats::ReplicationAnalyzer(
        options.ci_level, options.target_relative_error, options.min_replications);
  }
  const std::filesystem::path journal_path = scratch / "replay.journal";
  std::filesystem::remove(journal_path);
  exp::CampaignJournal journal(journal_path.string(),
                               exp::CampaignJournal::campaign_signature(cells, options));

  auto cache = std::make_shared<grid::WorldCache>(options.world_cache_bytes);
  sim::SimulationWorkspace workspace;
  std::vector<double> run_ms;
  double setup_ns = 0, loop_ns = 0, assemble_ns = 0, run_ns = 0;
  double warm_allocs = 0, warm_runs = 0;
  double events = 0, scheduled = 0, cancelled = 0, heap_peak = 0;
  double selects = 0, examined = 0, started = 0, index_updates = 0, tasks = 0, completed = 0;
  double failures = 0, checkpoints = 0, wasted = 0, useful = 0;
  double summarize_ns = 0, serialize_ns = 0, deserialize_ns = 0, fold_ns = 0, bytes = 0;
  double journal_ns = 0;

  // Replication-major, like the multi-cell hand-out: one world, every cell.
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      sim::SimulationConfig config = cells[c].config;
      config.seed = rng::mix_seed(options.base_seed, r);
      config.world_cache = options.world_cache_bytes > 0 ? cache : nullptr;
      sim::Simulation simulation(std::move(config));
      const std::uint64_t allocs_before = util::alloc_count().load();
      const Clock::time_point entry = Clock::now();
      const sim::SimulationResult& result = simulation.run(workspace);
      const Clock::time_point exit = Clock::now();
      const double allocs = static_cast<double>(util::alloc_count().load() - allocs_before);
      if (r > 0 || c > 0) {
        warm_allocs += allocs;
        warm_runs += 1;
      }
      run_ms.push_back(static_cast<double>(ns_between(entry, exit)) * 1e-6);
      setup_ns += static_cast<double>(ns_between(entry, t_loop_begin));
      loop_ns += static_cast<double>(ns_between(t_loop_begin, t_loop_end));
      assemble_ns += static_cast<double>(ns_between(t_loop_end, exit));
      run_ns += static_cast<double>(ns_between(entry, exit));

      events += static_cast<double>(result.kernel.events_fired);
      scheduled += static_cast<double>(result.kernel.events_scheduled);
      cancelled += static_cast<double>(result.kernel.events_cancelled);
      heap_peak = std::max(heap_peak, static_cast<double>(result.kernel.heap_peak));
      selects += static_cast<double>(result.sched.selects);
      examined += static_cast<double>(result.sched.machines_examined);
      index_updates += static_cast<double>(result.sched.index_updates);
      started += static_cast<double>(result.replicas_started);
      completed += static_cast<double>(result.tasks_completed);
      for (const sim::BotRecord& bot : result.bots) tasks += static_cast<double>(bot.num_tasks);
      failures += static_cast<double>(result.machine_failures);
      checkpoints += static_cast<double>(result.checkpoints_saved);
      wasted += result.wasted_compute_time;
      useful += result.useful_compute_time;

      Clock::time_point t = Clock::now();
      exp::ReplicationSummary summary = exp::summarize(result);
      summarize_ns += static_cast<double>(ns_between(t, Clock::now()));
      // The process-lane transport and journal, on every workload: the timed
      // binary pays them on campaign_procs only.
      std::vector<std::uint8_t> buffer;
      t = Clock::now();
      summary.serialize(buffer);
      serialize_ns += static_cast<double>(ns_between(t, Clock::now()));
      bytes += static_cast<double>(buffer.size());
      t = Clock::now();
      util::ByteReader reader(buffer.data(), buffer.size());
      summary = exp::ReplicationSummary::deserialize(reader);
      deserialize_ns += static_cast<double>(ns_between(t, Clock::now()));
      t = Clock::now();
      journal.append(static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r), summary);
      journal.sync();
      journal_ns += static_cast<double>(ns_between(t, Clock::now()));
      t = Clock::now();
      exp::fold(folded[c], summary);
      fold_ns += static_cast<double>(ns_between(t, Clock::now()));
    }
  }
  const double n = static_cast<double>(run_ms.size());

  m["sim.run_samples"] = n;
  m["sim.run_ms_p50"] = percentile(run_ms, 0.50);
  m["sim.run_ms_p95"] = percentile(run_ms, 0.95);
  m["sim.setup_frac"] = ratio(setup_ns, run_ns);
  m["sim.assemble_frac"] = ratio(assemble_ns, run_ns);
  m["sim.allocs_per_rep"] = ratio(warm_allocs, warm_runs);
  m["sim.replica_useful_frac"] = ratio(completed, started);
  m["sim.wasted_compute_frac"] = ratio(wasted, wasted + useful);
  m["sim.machine_failures_per_rep"] = failures / n;
  m["sim.checkpoints_per_rep"] = checkpoints / n;
  m["des.events_per_rep"] = events / n;
  m["des.ns_per_event"] = ratio(loop_ns, events);
  m["des.heap_peak"] = heap_peak;
  m["des.cancel_frac"] = ratio(cancelled, scheduled);
  m["sched.selects_per_rep"] = selects / n;
  m["sched.machines_per_dispatch"] = ratio(examined, started);
  m["sched.index_updates_per_rep"] = index_updates / n;
  m["workload.tasks_per_rep"] = tasks / n;
  m["exp.summarize_us"] = summarize_ns / n * 1e-3;
  m["exp.summary_bytes"] = bytes / n;
  m["exp.serialize_us"] = serialize_ns / n * 1e-3;
  m["exp.deserialize_us"] = deserialize_ns / n * 1e-3;
  m["exp.fold_us"] = fold_ns / n * 1e-3;
  m["exp.journal_sync_ms"] = journal_ns / n * 1e-6;

  // World synthesis: the same run on a private cold cache, then warm. The
  // median of the paired differences: each pair shares the host's speed of
  // the moment, which moves more than synthesis costs on small worlds.
  std::vector<double> synth_ms;
  for (std::size_t c = 0; c < std::min(kSynthCells, cells.size()); ++c) {
    for (std::size_t trial = 0; trial < kSynthTrials; ++trial) {
      sim::SimulationConfig config = cells[c].config;
      config.seed = rng::mix_seed(options.base_seed, 0);
      config.world_cache = std::make_shared<grid::WorldCache>();
      sim::Simulation simulation(std::move(config));
      const Clock::time_point cold = Clock::now();
      (void)simulation.run(workspace);
      const Clock::time_point warm = Clock::now();
      (void)simulation.run(workspace);
      const Clock::time_point end = Clock::now();
      synth_ms.push_back((static_cast<double>(ns_between(cold, warm)) -
                          static_cast<double>(ns_between(warm, end))) * 1e-6);
    }
  }
  m["grid.synth_ms"] = percentile(synth_ms, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 && argc != 4) {
    std::cerr << "usage: dgsched_trace <workload> <scratch_dir> [replay_samples]\n";
    return 2;
  }
  try {
    const WorkloadCells workload = load_workload(argv[1]);
    const std::filesystem::path scratch = argv[2];
    const std::size_t replay_samples = argc == 4 ? std::stoul(argv[3]) : 200;
    std::filesystem::create_directories(scratch);
    const exp::RunOptions options = exp::RunOptions::from_env();
    const SharedCounters counters = make_shared_counters();

    Metrics metrics;
    runner_pass(workload, options, scratch, counters.get(), metrics);
    replay_pass(workload, options, replay_samples, scratch, counters.get(), metrics);

    std::printf("{");
    const char* sep = "";
    for (const auto& [name, value] : metrics) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}\n");
  } catch (const std::exception& e) {
    std::cerr << "dgsched_trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
