// Kernel golden-equivalence: fixed-seed end-to-end runs must reproduce the
// exact SimulationResult metrics recorded on the pre-slab DES kernel (binary
// heap of shared_ptr records). The event-queue rewrite (4-ary implicit heap +
// slab pool, PR 1) keeps the (time, sequence) execution order contract, so
// every metric — including floating-point accumulations, whose value depends
// on summation order — must stay bit-identical. A mismatch here means the
// kernel changed *semantics*, not just speed.
//
// Values were captured with the pre-change kernel at 17 significant digits
// (lossless double round-trip); EXPECT_EQ on doubles is deliberate.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/simulation.hpp"

namespace dg::test {
namespace {

struct Fingerprint {
  double turnaround_mean;
  double waiting_mean;
  double makespan_mean;
  double slowdown_mean;
  double end_time;
  double utilization;
  std::size_t bots_completed;
  std::uint64_t events_executed;
  std::uint64_t machine_failures;
  std::uint64_t replica_failures;
  std::uint64_t replicas_started;
  std::uint64_t tasks_completed;
  std::uint64_t checkpoints_saved;
  double wasted_compute_time;
  double useful_compute_time;
  double lost_work;
};

sim::SimulationResult run_scenario(sched::PolicyKind policy, grid::Heterogeneity het,
                                   grid::AvailabilityLevel avail, double granularity,
                                   std::size_t bots, std::uint64_t seed) {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(het, avail);
  config.workload =
      sim::make_paper_workload(config.grid, granularity, workload::Intensity::kLow, bots);
  config.policy = policy;
  config.seed = seed;
  return sim::Simulation(config).run();
}

void expect_matches(const sim::SimulationResult& result, const Fingerprint& expected) {
  EXPECT_EQ(result.turnaround.mean(), expected.turnaround_mean);
  EXPECT_EQ(result.waiting.mean(), expected.waiting_mean);
  EXPECT_EQ(result.makespan.mean(), expected.makespan_mean);
  EXPECT_EQ(result.slowdown.mean(), expected.slowdown_mean);
  EXPECT_EQ(result.end_time, expected.end_time);
  EXPECT_EQ(result.utilization, expected.utilization);
  EXPECT_EQ(result.bots_completed, expected.bots_completed);
  EXPECT_EQ(result.events_executed, expected.events_executed);
  EXPECT_EQ(result.machine_failures, expected.machine_failures);
  EXPECT_EQ(result.replica_failures, expected.replica_failures);
  EXPECT_EQ(result.replicas_started, expected.replicas_started);
  EXPECT_EQ(result.tasks_completed, expected.tasks_completed);
  EXPECT_EQ(result.checkpoints_saved, expected.checkpoints_saved);
  EXPECT_EQ(result.wasted_compute_time, expected.wasted_compute_time);
  EXPECT_EQ(result.useful_compute_time, expected.useful_compute_time);
  EXPECT_EQ(result.lost_work, expected.lost_work);
}

TEST(KernelEquivalence, HomHighFcfsShare) {
  const Fingerprint expected = {
      3536.3397347655923,   // turnaround_mean
      500.7521512896862,    // waiting_mean
      3035.5875834759063,   // makespan_mean
      1.3158657195110721,   // slowdown_mean
      103286.84814380348,   // end_time
      0.30865726864441856,  // utilization
      12,                   // bots_completed
      6345,                 // events_executed
      133,                  // machine_failures
      41,                   // replica_failures
      7019,                 // replicas_started
      6016,                 // tasks_completed
      0,                    // checkpoints_saved
      184627.06975299912,   // wasted_compute_time
      3003396.5737427189,   // useful_compute_time
      107258.81739968593,   // lost_work
  };
  expect_matches(run_scenario(sched::PolicyKind::kFcfsShare, grid::Heterogeneity::kHom,
                              grid::AvailabilityLevel::kHigh, 5000.0, 12, 7),
                 expected);
}

TEST(KernelEquivalence, HetLowRoundRobin) {
  const Fingerprint expected = {
      17634.380843459847,   // turnaround_mean
      0.0,                  // waiting_mean
      17634.380843459847,   // makespan_mean
      2.5676419534340584,   // slowdown_mean
      214145.75004163093,   // end_time
      0.2090647183557223,   // utilization
      8,                    // bots_completed
      17062,                // events_executed
      6264,                 // machine_failures
      2582,                 // replica_failures
      3690,                 // replicas_started
      795,                  // tasks_completed
      1222,                 // checkpoints_saved
      2172310.7998945247,   // wasted_compute_time
      1334456.9443746349,   // useful_compute_time
      10413343.456185333,   // lost_work
  };
  expect_matches(run_scenario(sched::PolicyKind::kRoundRobin, grid::Heterogeneity::kHet,
                              grid::AvailabilityLevel::kLow, 25000.0, 8, 42),
                 expected);
}

TEST(KernelEquivalence, HomMedLongIdle) {
  const Fingerprint expected = {
      7756.1405594645939,   // turnaround_mean
      2221.7734210885915,   // waiting_mean
      5534.3671383760038,   // makespan_mean
      1.9175955860447882,   // slowdown_mean
      91371.174222066053,   // end_time
      0.32965183716539087,  // utilization
      10,                   // bots_completed
      5174,                 // events_executed
      1326,                 // machine_failures
      579,                  // replica_failures
      3632,                 // replicas_started
      2498,                 // tasks_completed
      0,                    // checkpoints_saved
      506444.70194625098,   // wasted_compute_time
      2505622.8426800645,   // useful_compute_time
      2823383.987707431,    // lost_work
  };
  expect_matches(run_scenario(sched::PolicyKind::kLongIdle, grid::Heterogeneity::kHom,
                              grid::AvailabilityLevel::kMed, 10000.0, 10, 1234),
                 expected);
}

}  // namespace
}  // namespace dg::test
