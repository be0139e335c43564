// Mergeable log-spaced quantile sketch and time-decayed streaming averages.
//
// The columnar tail-metrics pipeline (docs/METRICS.md) streams per-bag
// observations (turnarounds, slowdowns, completion gaps) into one
// QuantileSketch per column. A sketch is a fixed-size histogram over one
// fixed set of log-spaced buckets: adds are O(1) and allocation-free, the
// bucket storage is allocated once at construction (so a sketch retained in
// a sim::SimulationWorkspace keeps the warmed run loop zero-alloc), and two
// sketches merge by exact integer bucket addition — the merged p50/p95/p99
// are bit-identical regardless of merge order, thread count, or batch shape.
// See ClickHouse's AggregateFunctionQuantileHistogram for the production
// shape this mirrors.
#pragma once

#include <cstdint>
#include <vector>

#include "util/binary_io.hpp"

namespace dg::stats {

/// The three headline tail quantiles of a distribution (docs/METRICS.md).
/// All zero when estimated from an empty sketch.
struct TailQuantiles {
  double p50 = 0.0;  ///< Median.
  double p95 = 0.0;  ///< 95th percentile.
  double p99 = 0.0;  ///< 99th percentile.
};

/// Fixed-memory quantile estimator over log-spaced buckets.
///
/// Bucket `i` covers `[kMinValue * 10^(i/64), kMinValue * 10^((i+1)/64))`:
/// `[1e-3, 1e9)` at 64 buckets per decade, 768 buckets (~6 KiB), sized for
/// the simulator's second-scale turnaround/gap observations and unitless
/// slowdowns. Values below `kMinValue` (including zero and negatives) land
/// in a dedicated underflow counter, values at or above `kMaxValue` in an
/// overflow counter. Quantile estimates interpolate linearly within a bucket
/// and are clamped to the exact observed `[min(), max()]`, so `quantile(0)` /
/// `quantile(1)` are exact and the under/overflow counters never leak bucket
/// edges into the estimate. The per-bucket relative width `10^(1/64) - 1`
/// (~3.7%, roughly halved by the midpoint interpolation) bounds the
/// relative error of any interior quantile.
///
/// Counts are exact 64-bit integers and the min/max/sum trackers merge
/// exactly, so merging partial sketches is deterministic and
/// order-independent — the property the experiment runner's
/// fold-in-build-order contract relies on (src/exp/runner.hpp).
class QuantileSketch {
 public:
  /// Lower edge of the first bucket; smaller values count as underflow.
  static constexpr double kMinValue = 1e-3;
  /// Upper edge of the last bucket; values at or above it count as overflow.
  static constexpr double kMaxValue = 1e9;
  /// Buckets per decade of value.
  static constexpr std::size_t kBucketsPerDecade = 64;
  /// Number of log-spaced buckets: the 12 decades of [kMinValue, kMaxValue).
  static constexpr std::size_t kNumBuckets = 12 * kBucketsPerDecade;

  /// Empty sketch; allocates its bucket storage once.
  QuantileSketch() : counts_(kNumBuckets, 0) {}

  /// Records one observation. O(1), allocation-free, never throws.
  void add(double x) noexcept;

  /// Folds `other` into this sketch by exact bucket-wise addition.
  void merge(const QuantileSketch& other) noexcept;

  /// Zeroes every counter while keeping the bucket storage — a reset sketch
  /// behaves like a freshly constructed one but performs no allocation.
  void reset() noexcept;

  /// Linear-interpolated quantile estimate for `q` in [0, 1], clamped to the
  /// observed [min(), max()]. Returns 0 for an empty sketch; throws
  /// std::invalid_argument for q outside [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Convenience bundle of quantile(0.5) / quantile(0.95) / quantile(0.99).
  [[nodiscard]] TailQuantiles tails() const;

  /// Observations recorded (including under/overflow).
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// True when no observation has been recorded since construction/reset().
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Observations below the first bucket (including zero and negatives).
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  /// Observations at or above the last bucket's upper edge.
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  /// Exact smallest observation; 0 when empty.
  [[nodiscard]] double min() const noexcept;
  /// Exact largest observation; 0 when empty.
  [[nodiscard]] double max() const noexcept;
  /// Exact sum of all observations.
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Exact mean of all observations; 0 when empty.
  [[nodiscard]] double mean() const noexcept;

  /// Appends the sketch's state to `out`, sparsely: a u32 count of non-zero
  /// buckets, then one (u32 index, u64 count) pair per non-zero bucket in
  /// ascending index order, then the exact trackers (count, underflow,
  /// overflow, sum, min, max). A sketch of n observations therefore costs at
  /// most 52 + 12 n bytes. Counts are integers and the double trackers are
  /// stored bitwise, so deserialize() reconstructs a sketch whose every
  /// subsequent merge/quantile is bit-identical to the original's — the
  /// property process lanes and the journal rely on (src/exp/shard.hpp).
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Reconstructs a sketch serialized by serialize(). Throws
  /// std::runtime_error on truncated input, on more entries than buckets,
  /// on an index out of range or not strictly ascending, and on a zero
  /// count. Nothing read from `reader` sizes an allocation.
  [[nodiscard]] static QuantileSketch deserialize(util::ByteReader& reader);

  /// Number of log-spaced buckets (excluding the under/overflow counters).
  [[nodiscard]] static constexpr std::size_t num_buckets() noexcept { return kNumBuckets; }
  /// Count in bucket `i` (bounds-checked).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  /// Lower value edge of bucket `i`.
  [[nodiscard]] static double bucket_lower(std::size_t i) noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only when count_ > 0
  double max_ = 0.0;  // valid only when count_ > 0
};

/// Exponentially time-decayed average of a piecewise-constant signal.
///
/// Like stats::TimeWeightedStats but with every contribution weighted by
/// `exp(-(now - t) / tau)`: the average "forgets" the past on the time scale
/// `tau`, so the value reflects *recent* load instead of the whole-run mean.
/// Used for the decayed-utilization column of the tail-metrics pipeline
/// (the ClickHouse `exponentialTimeDecayedAvg` shape). All operations are
/// O(1), allocation-free, and deterministic for a given update sequence.
class TimeDecayedAverage {
 public:
  /// Starts the signal at `initial_value` from `start_time`, with decay time
  /// constant `tau` (seconds). Throws std::invalid_argument for tau <= 0.
  explicit TimeDecayedAverage(double tau, double start_time = 0.0,
                              double initial_value = 0.0);

  /// Records that the signal changed to `new_value` at time `now`.
  /// Out-of-order updates (now < last update) only replace the value.
  void update(double now, double new_value) noexcept;

  /// Advances time without changing the value.
  void advance_to(double now) noexcept { update(now, value_); }

  /// The decayed time-average over [start_time, now]: recent intervals are
  /// weighted exp(-(age)/tau). Equals the plain time-average for a constant
  /// signal; returns the current value before any time has elapsed.
  [[nodiscard]] double average(double now) const noexcept;

  /// The signal's current (most recently recorded) value.
  [[nodiscard]] double current() const noexcept { return value_; }
  /// The decay time constant.
  [[nodiscard]] double tau() const noexcept { return tau_; }

 private:
  double tau_;
  double last_time_;
  double value_;
  double weighted_sum_ = 0.0;  // integral of value * exp(-(last - s)/tau)
  double weight_ = 0.0;        // integral of exp(-(last - s)/tau)
};

}  // namespace dg::stats
