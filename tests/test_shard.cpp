// Process lanes (exp/shard.hpp) and the journal on either lane kind:
// ExperimentRunner's results must be bit-identical to its thread lanes for
// any worker count, chunk shape, worker-death schedule, or kill/resume
// point; journal bytes must not depend on the lane kind, and a journal
// written on one lane kind must resume on the other, while a journal naming
// a job the campaign never runs, or naming one job twice, is refused; and
// the env knobs must parse.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "sim/simulation.hpp"

namespace dg::exp {
namespace {

/// Fresh scratch directory per test (journals), removed on destruction.
struct ShardDir {
  explicit ShardDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("dgsched_shard_test_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ShardDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string file(const char* name) const { return path + "/" + name; }
  std::string path;
};

/// Two small policy cells under common random numbers, small enough that a
/// handful of sharded campaigns stays test-sized.
std::vector<NamedConfig> tiny_cells() {
  std::vector<NamedConfig> cells;
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    NamedConfig cell;
    cell.label = sched::to_string(policy);
    cell.config.grid =
        grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
    cell.config.workload =
        sim::make_paper_workload(cell.config.grid, 25000.0, workload::Intensity::kLow, 10);
    cell.config.policy = policy;
    cell.config.warmup_bots = 2;
    cells.push_back(std::move(cell));
  }
  return cells;
}

RunOptions tiny_options() {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  return options;
}

/// Bitwise equality of every statistic a campaign reports from a cell.
void expect_cells_bitwise(const std::vector<CellResult>& a, const std::vector<CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(a[c].label);
    EXPECT_EQ(a[c].label, b[c].label);
    EXPECT_EQ(a[c].replications, b[c].replications);
    EXPECT_EQ(a[c].saturated_replications, b[c].saturated_replications);
    EXPECT_EQ(a[c].events_executed, b[c].events_executed);
    EXPECT_EQ(a[c].turnaround.stats().mean(), b[c].turnaround.stats().mean());
    EXPECT_EQ(a[c].turnaround.stats().stddev(), b[c].turnaround.stats().stddev());
    EXPECT_EQ(a[c].waiting.mean(), b[c].waiting.mean());
    EXPECT_EQ(a[c].makespan.mean(), b[c].makespan.mean());
    EXPECT_EQ(a[c].utilization.mean(), b[c].utilization.mean());
    EXPECT_EQ(a[c].wasted_fraction.mean(), b[c].wasted_fraction.mean());
    EXPECT_EQ(a[c].lost_work.mean(), b[c].lost_work.mean());
    EXPECT_EQ(a[c].decayed_utilization.mean(), b[c].decayed_utilization.mean());
    EXPECT_EQ(a[c].transfer_retries.mean(), b[c].transfer_retries.mean());
    EXPECT_EQ(a[c].replicas_degraded.mean(), b[c].replicas_degraded.mean());
    EXPECT_EQ(a[c].server_downtime.mean(), b[c].server_downtime.mean());
    EXPECT_EQ(a[c].turnaround_tail.count(), b[c].turnaround_tail.count());
    EXPECT_EQ(a[c].turnaround_tail.sum(), b[c].turnaround_tail.sum());
    EXPECT_EQ(a[c].turnaround_tail.tails().p95, b[c].turnaround_tail.tails().p95);
    EXPECT_EQ(a[c].slowdown_tail.sum(), b[c].slowdown_tail.sum());
    EXPECT_EQ(a[c].completion_gap_tail.sum(), b[c].completion_gap_tail.sum());
    EXPECT_EQ(a[c].turnaround.samples(), b[c].turnaround.samples());  // per replication
    EXPECT_EQ(a[c].replication_p95, b[c].replication_p95);
  }
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// Record boundaries of journal bytes, parsed from the file: 16-byte
/// header, then records of a 24-byte header (leading u32 payload size) plus
/// payload. boundaries[k] ends record k - 1. Callers assert that the last
/// boundary is the journal's size before cutting at any of them.
std::vector<std::size_t> record_boundaries(const std::vector<std::uint8_t>& journal) {
  std::vector<std::size_t> boundaries{16};
  while (boundaries.back() + sizeof(std::uint32_t) <= journal.size()) {
    std::uint32_t payload_size = 0;
    std::memcpy(&payload_size, journal.data() + boundaries.back(), sizeof payload_size);
    boundaries.push_back(boundaries.back() + 24 + payload_size);
  }
  return boundaries;
}

/// Writes the first `bytes` bytes of `journal` to `path` — the file a kill at
/// that record boundary leaves behind.
void write_prefix(const std::string& path, const std::vector<std::uint8_t>& journal,
                  std::size_t bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(journal.data()), static_cast<std::streamoff>(bytes));
}

/// Lane options: `procs` worker processes, or thread lanes when 0.
ShardOptions lanes(std::size_t procs, std::string journal_path = {}) {
  ShardOptions shard;
  shard.procs = procs;
  shard.journal_path = std::move(journal_path);
  return shard;
}

TEST(ShardedRunner, BitIdenticalToThreadedRunnerAcrossProcessCounts) {
  // Byte-identical campaign output at 1, 2, and 4 workers. Thread lanes
  // are the reference; the journal is on, so the full transport path
  // (socket summaries + journal append) is what's being held to the
  // contract.
  ShardDir dir("procs");
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  for (const std::size_t procs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(procs);
    ShardOptions shard;
    shard.procs = procs;
    shard.journal_path = dir.file(("j" + std::to_string(procs) + ".journal").c_str());
    ExperimentRunner runner(options, shard);
    expect_cells_bitwise(runner.run(cells), reference);
    EXPECT_EQ(runner.exec_stats().recovered, 0u);
  }
}

TEST(ShardedRunner, BitIdenticalAcrossChunkShapesAndHandOutOrders) {
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  // Three workers without speculation: smaller adaptive chunks, a
  // different hand-out interleaving, no journal.
  RunOptions o = options;
  o.speculate = 0;
  ShardOptions shard;
  shard.procs = 3;
  expect_cells_bitwise(ExperimentRunner(o, shard).run(cells), reference);
}

TEST(ShardedRunner, MultiRoundPrecisionLoopMatchesThreadedRunner) {
  // A tight precision target forces extra rounds past min_replications; the
  // round structure (and thus the final replication counts) must match the
  // threaded runner's exactly, with workers persisting across rounds.
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.min_replications = 2;
  options.max_replications = 4;
  options.target_relative_error = 1e-4;  // unreachable: runs to the cap
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);
  ASSERT_EQ(reference[0].replications, 4u);

  ShardOptions shard;
  shard.procs = 2;
  expect_cells_bitwise(ExperimentRunner(options, shard).run(cells), reference);
}

TEST(ShardedRunner, KilledWorkerIsRespawnedAndResultsUnchanged) {
  // Worker 0's first incarnation dies mid-chunk after one replication; the
  // coordinator requeues the chunk and the replacement redoes it. Nothing of
  // the dead worker's partial chunk may leak into the fold.
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  ShardOptions shard;
  shard.procs = 2;
  shard.self_kill_worker = 0;
  shard.self_kill_jobs = 1;
  expect_cells_bitwise(ExperimentRunner(options, shard).run(cells), reference);
}

TEST(ShardedRunner, ResumeFromEveryJournalRecordBoundaryIsByteIdentical) {
  // Complete the campaign once journaled on each lane kind, then for every
  // prefix of the journal — every record boundary, i.e. every possible
  // fsync'd kill point — restart the campaign from that prefix on the OTHER
  // lane kind. Each resumed run must (a) fold exactly the prefix's records
  // instead of re-running them and (b) produce bitwise-identical cell
  // results; both lane kinds write the same journal bytes, and the resumed
  // journal must match them byte for byte.
  ShardDir dir("resume");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);
  options.threads = 1;

  ExperimentRunner process_writer(options, lanes(1, dir.file("procs.journal")));
  expect_cells_bitwise(process_writer.run(cells), reference);
  const std::vector<std::uint8_t> process_journal = file_bytes(dir.file("procs.journal"));
  ExperimentRunner thread_writer(options, lanes(0, dir.file("threads.journal")));
  expect_cells_bitwise(thread_writer.run(cells), reference);
  const std::vector<std::uint8_t> thread_journal = file_bytes(dir.file("threads.journal"));
  EXPECT_EQ(thread_journal, process_journal);

  const std::vector<std::size_t> boundaries = record_boundaries(process_journal);
  ASSERT_EQ(boundaries.back(), process_journal.size());
  ASSERT_EQ(boundaries.size(), 7u);  // header + 2 cells x 3 replications

  struct Resume {
    const char* name;
    const std::vector<std::uint8_t>* journal;  ///< written on the other lane kind
    std::size_t threads;
    std::size_t procs;
  };
  const Resume resumes[] = {{"thread-lane journal on 2 processes", &thread_journal, 1, 2},
                            {"process-lane journal on 3 threads", &process_journal, 3, 0}};
  for (const Resume& resume : resumes) {
    for (std::size_t k = 0; k < boundaries.size(); ++k) {
      SCOPED_TRACE(std::string(resume.name) + ", boundary " + std::to_string(k));
      const std::string path = dir.file("resume.journal");
      write_prefix(path, *resume.journal, boundaries[k]);
      RunOptions o = options;
      o.threads = resume.threads;
      ExperimentRunner resumed(o, lanes(resume.procs, path));
      expect_cells_bitwise(resumed.run(cells), reference);
      EXPECT_EQ(resumed.exec_stats().recovered, k);
      EXPECT_EQ(file_bytes(path), process_journal);
    }
  }
}

TEST(ShardedRunner, JournalBytesIdenticalAcrossExecutionShapes) {
  // The canonical journal order contract: the journal is written in
  // cell-major / ascending-replication canonical order regardless of how the
  // campaign actually executed, so the file is byte-identical across lane
  // kinds, any speculation window, any lane count, and any chunk shape — and
  // a journal written by one shape can resume a run under any other.
  ShardDir dir("shapes");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions base = tiny_options();
  base.min_replications = 2;
  base.max_replications = 4;
  base.target_relative_error = 1e-4;  // unreachable: multi-round structure

  const std::vector<CellResult> reference = ExperimentRunner(base).run(cells);
  std::vector<std::uint8_t> reference_journal;

  struct Variant {
    const char* name;
    std::size_t speculate;
    std::size_t threads;  ///< thread lanes when procs == 0
    std::size_t procs;
  };
  const Variant variants[] = {
      {"p1_default", 1, 1, 1}, {"p1_spec0", 0, 1, 1}, {"p2_spec0", 0, 1, 2},
      {"p2_spec4", 4, 1, 2},   {"p4_spec0", 0, 1, 4}, {"p4_spec1", 1, 1, 4},
      {"t1_spec0", 0, 1, 0},   {"t3_spec4", 4, 3, 0},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    RunOptions options = base;
    options.speculate = variant.speculate;
    options.threads = variant.threads;
    const std::string path = dir.file((std::string(variant.name) + ".journal").c_str());
    ExperimentRunner runner(options, lanes(variant.procs, path));
    expect_cells_bitwise(runner.run(cells), reference);
    const std::vector<std::uint8_t> journal = file_bytes(path);
    EXPECT_FALSE(journal.empty());
    if (reference_journal.empty()) {
      reference_journal = journal;
    } else {
      EXPECT_EQ(journal, reference_journal);
    }
  }

  // Cross-shape resume: the single-worker journal, truncated to a
  // mid-campaign record boundary, resumed without speculation by two
  // workers and by three threads — the recovered prefix folds in, the
  // remainder is dispatched, and both the results and the final journal
  // bytes still match.
  const std::vector<std::size_t> boundaries = record_boundaries(reference_journal);
  ASSERT_EQ(boundaries.back(), reference_journal.size());
  ASSERT_GE(boundaries.size(), 4u);
  const std::size_t cut = boundaries[boundaries.size() / 2];
  RunOptions no_speculation = base;
  no_speculation.speculate = 0;
  no_speculation.threads = 3;
  for (const std::size_t procs : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE(procs);
    const std::string path = dir.file("cross_shape_resume.journal");
    write_prefix(path, reference_journal, cut);
    ExperimentRunner resumed(no_speculation, lanes(procs, path));
    expect_cells_bitwise(resumed.run(cells), reference);
    EXPECT_EQ(resumed.exec_stats().recovered, boundaries.size() / 2);  // records before the cut
    EXPECT_EQ(file_bytes(path), reference_journal);
  }
}

TEST(ShardedRunner, SpeculativeResumeFromEveryBoundaryIsByteIdentical) {
  // Kill/resume through the journal mid-pipeline with a deep speculation
  // window: speculative in-flight work at the kill point must neither leak
  // into the resumed fold nor change the canonical journal bytes.
  ShardDir dir("spec_resume");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.speculate = 4;
  // A reachable precision target past min, so cells can stop early while the
  // deep speculation window has already launched (and run) extra
  // replications — the discard path is live at every kill point.
  options.min_replications = 2;
  options.max_replications = 6;
  options.target_relative_error = 0.15;

  ShardOptions shard = lanes(1, dir.file("reference.journal"));
  ExperimentRunner runner(options, shard);
  const std::vector<CellResult> reference = runner.run(cells);
  const std::vector<std::uint8_t> reference_journal = file_bytes(shard.journal_path);

  const std::vector<std::size_t> boundaries = record_boundaries(reference_journal);
  ASSERT_EQ(boundaries.back(), reference_journal.size());
  ASSERT_GE(boundaries.size(), 5u);  // header + >= 2 cells x 2 replications

  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    // Resume every boundary on 2 worker processes (a different lane count)
    // and again on thread lanes.
    for (const std::size_t procs : {std::size_t{2}, std::size_t{0}}) {
      SCOPED_TRACE("boundary " + std::to_string(k) + ", procs " + std::to_string(procs));
      ShardOptions resume = shard;
      resume.procs = procs;
      resume.journal_path = dir.file("resume.journal");
      write_prefix(resume.journal_path, reference_journal, boundaries[k]);
      ExperimentRunner resumed(options, resume);
      expect_cells_bitwise(resumed.run(cells), reference);
      EXPECT_EQ(resumed.exec_stats().recovered, k);
      EXPECT_EQ(file_bytes(resume.journal_path), reference_journal);
    }
  }
}

TEST(ShardedRunner, JournalRecordOfAJobTheCampaignNeverRunsIsRefused) {
  // A checksummed, correctly signed record for a cell past the campaign's,
  // or for a replication at or past max(min, max) replications, is no
  // resume point: run() must throw naming the journal before it folds or
  // appends anything, and leave the file as it was. Folding the cell-7
  // record would index past the campaign's cells.
  ShardDir dir("impossible");
  std::vector<NamedConfig> cells = tiny_cells();
  cells.resize(1);
  const RunOptions options = tiny_options();  // exactly 3 replications
  struct Forged {
    const char* name;
    std::uint32_t cell;
    std::uint32_t replication;
  };
  const Forged forged[] = {{"cell past the campaign's", 7, 0}, {"replication past the cap", 0, 3}};
  for (const Forged& record : forged) {
    SCOPED_TRACE(record.name);
    const std::string path = dir.file("forged.journal");
    std::filesystem::remove(path);
    {
      CampaignJournal journal(path, CampaignJournal::campaign_signature(cells, options));
      journal.append(record.cell, record.replication, ReplicationSummary{});
      journal.sync();
    }
    const std::vector<std::uint8_t> before = file_bytes(path);
    try {
      (void)ExperimentRunner(options, lanes(0, path)).run(cells);
      ADD_FAILURE() << "the journal was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    EXPECT_EQ(file_bytes(path), before);
  }
}

TEST(ShardedRunner, JournalThatRepeatsARecordIsRefused) {
  // A run writes each (cell, replication) record once. A journal cut after
  // its third record with that record appended again is no canonical
  // prefix: run() must throw naming the journal and the job on either lane
  // kind, before it folds or appends anything.
  ShardDir dir("repeat");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.threads = 1;
  const std::string path = dir.file("repeat.journal");
  (void)ExperimentRunner(options, lanes(0, path)).run(cells);
  const std::vector<std::uint8_t> journal = file_bytes(path);
  const std::vector<std::size_t> boundaries = record_boundaries(journal);
  ASSERT_EQ(boundaries.back(), journal.size());
  ASSERT_EQ(boundaries.size(), 7u);  // header + 2 cells x 3 replications
  std::vector<std::uint8_t> repeated(journal.begin(), journal.begin() + boundaries[3]);
  repeated.insert(repeated.end(), journal.begin() + boundaries[2],
                  journal.begin() + boundaries[3]);

  for (const std::size_t procs : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(procs);
    write_prefix(path, repeated, repeated.size());
    try {
      (void)ExperimentRunner(options, lanes(procs, path)).run(cells);
      ADD_FAILURE() << "the journal was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("repeats the record for cell 0, replication 2"), std::string::npos)
          << what;
    }
    EXPECT_EQ(file_bytes(path), repeated);
  }
}

TEST(ShardedRunner, ExecStatsReportWorkerLanes) {
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  ShardOptions shard;
  shard.procs = 2;
  ExperimentRunner runner(options, shard);
  (void)runner.run(cells);
  const ExecutionStats& exec = runner.exec_stats();
  ASSERT_EQ(exec.lanes.size(), 2u);
  EXPECT_EQ(exec.committed, 6u);  // 2 cells x 3 replications
  EXPECT_EQ(exec.launched, exec.committed + exec.discarded);
  EXPECT_GT(exec.wall_s, 0.0);
  EXPECT_GT(exec.busy_s(), 0.0);
  std::uint64_t lane_jobs = 0;
  for (const WorkerLaneStats& lane : exec.lanes) lane_jobs += lane.jobs;
  EXPECT_EQ(lane_jobs, exec.launched);
  for (const WorkerLaneStats& lane : exec.lanes) {
    EXPECT_GE(lane.stall_s, 0.0);
    EXPECT_LE(lane.busy_s, exec.wall_s);
  }
}

TEST(ShardedRunner, EveryWorkerGetsWork) {
  // Six jobs across three workers: cost-major single-job chunks reach every
  // lane. Handing out whole replication groups (one chunk per replication
  // index, two chunks in flight per worker) left the third worker idle.
  const std::vector<NamedConfig> cells = tiny_cells();
  ShardOptions shard;
  shard.procs = 3;
  ExperimentRunner runner(tiny_options(), shard);
  (void)runner.run(cells);
  const ExecutionStats& exec = runner.exec_stats();
  ASSERT_EQ(exec.lanes.size(), 3u);
  for (std::size_t w = 0; w < exec.lanes.size(); ++w) {
    EXPECT_GT(exec.lanes[w].jobs, 0u) << "worker " << w;
  }
}

TEST(ShardOptions, FromEnvParsesAndValidates) {
  ASSERT_EQ(setenv("DGSCHED_PROCS", "3", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_JOURNAL", "/tmp/c.journal", 1), 0);
  const ShardOptions options = ShardOptions::from_env();
  EXPECT_EQ(options.procs, 3u);
  EXPECT_EQ(options.journal_path, "/tmp/c.journal");

  // 0 asks for thread lanes, like leaving the variable unset.
  ASSERT_EQ(setenv("DGSCHED_PROCS", "0", 1), 0);
  EXPECT_EQ(ShardOptions::from_env().procs, 0u);
  for (const char* bad : {"two", "-1", " 2", "+2", "2.5"}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(setenv("DGSCHED_PROCS", bad, 1), 0);
    EXPECT_THROW((void)ShardOptions::from_env(), std::invalid_argument);
  }

  ASSERT_EQ(unsetenv("DGSCHED_PROCS"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_JOURNAL"), 0);
  const ShardOptions defaults = ShardOptions::from_env();
  EXPECT_EQ(defaults.procs, 0u);
  EXPECT_TRUE(defaults.journal_path.empty());
  EXPECT_EQ(defaults.self_kill_jobs, 0u);
}

}  // namespace
}  // namespace dg::exp
