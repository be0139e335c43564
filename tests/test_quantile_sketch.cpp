// Tail-metrics substrate: log-spaced quantile sketch + time-decayed average,
// and the sketch's sparse wire format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rng/random_stream.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/binary_io.hpp"

namespace dg::stats {
namespace {

TEST(QuantileSketch, EmptyState) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_EQ(sketch.tails().p99, 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
  EXPECT_EQ(sketch.mean(), 0.0);
}

TEST(QuantileSketch, RejectsOutOfRangeQuantile) {
  QuantileSketch sketch;
  sketch.add(1.0);
  EXPECT_THROW((void)sketch.quantile(-0.01), std::invalid_argument);
  EXPECT_THROW((void)sketch.quantile(1.01), std::invalid_argument);
}

TEST(QuantileSketch, SingleValueQuantilesAreExact) {
  QuantileSketch sketch;
  sketch.add(123.0);
  // Clamping to the observed [min, max] collapses every quantile of a
  // single observation to that observation.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 123.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 123.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 123.0);
}

TEST(QuantileSketch, TracksExactMinMaxSumMean) {
  QuantileSketch sketch;
  for (double x : {4.0, 1.0, 9.0, 2.0}) sketch.add(x);
  EXPECT_EQ(sketch.count(), 4u);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 9.0);
  EXPECT_DOUBLE_EQ(sketch.sum(), 16.0);
  EXPECT_DOUBLE_EQ(sketch.mean(), 4.0);
}

TEST(QuantileSketch, RelativeErrorWithinBucketResolution) {
  // Uniform [10, 1000): the sketch's log buckets bound the relative error of
  // any interior quantile by the bucket width 10^(1/64) - 1 ~ 3.7%.
  QuantileSketch sketch;
  rng::RandomStream stream(7);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(stream.uniform(10.0, 1000.0));
  for (double v : values) sketch.add(v);
  std::sort(values.begin(), values.end());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = values[static_cast<std::size_t>(q * 20000.0) - 1];
    EXPECT_NEAR(sketch.quantile(q), exact, exact * 0.04) << "q=" << q;
  }
}

TEST(QuantileSketch, UnderflowAndOverflowClampToObservedExtremes) {
  QuantileSketch sketch;
  sketch.add(0.00025);  // below kMinValue (underflow)
  sketch.add(0.0005);   // below kMinValue (underflow)
  sketch.add(10.0);     // in range
  sketch.add(2.5e9);    // above kMaxValue (overflow)
  EXPECT_EQ(sketch.underflow(), 2u);
  EXPECT_EQ(sketch.overflow(), 1u);
  EXPECT_EQ(sketch.count(), 4u);
  // Quantiles inside the underflow mass report the observed minimum (not the
  // 1e-3 bucket edge); inside the overflow mass, the observed maximum (not
  // the 1e9 edge).
  EXPECT_DOUBLE_EQ(sketch.quantile(0.25), 0.00025);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 2.5e9);
}

TEST(QuantileSketch, NonPositiveValuesCountAsUnderflow) {
  QuantileSketch sketch;
  sketch.add(0.0);
  sketch.add(-5.0);
  sketch.add(1.0);
  EXPECT_EQ(sketch.underflow(), 2u);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.min(), -5.0);
}

TEST(QuantileSketch, MergeMatchesSequentialBitForBit) {
  rng::RandomStream stream(11);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(stream.exponential_mean(300.0));

  QuantileSketch all, a, b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < 2000 ? a : b).add(values[i]);
    all.add(values[i]);
  }
  QuantileSketch merged_ab = a;
  merged_ab.merge(b);
  QuantileSketch merged_ba = b;
  merged_ba.merge(a);

  EXPECT_EQ(merged_ab.count(), all.count());
  for (double q : {0.5, 0.95, 0.99}) {
    // Exact integer bucket counts: both merge orders reproduce the
    // sequential sketch's estimate exactly, not just approximately.
    EXPECT_EQ(merged_ab.quantile(q), all.quantile(q)) << "q=" << q;
    EXPECT_EQ(merged_ba.quantile(q), all.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(merged_ab.min(), all.min());
  EXPECT_EQ(merged_ab.max(), all.max());
}

TEST(QuantileSketch, MergeEmptyIsIdentity) {
  QuantileSketch sketch, empty;
  sketch.add(5.0);
  sketch.add(50.0);
  const double before = sketch.quantile(0.5);
  sketch.merge(empty);
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_EQ(sketch.quantile(0.5), before);

  QuantileSketch target;
  target.merge(sketch);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 5.0);
  EXPECT_EQ(target.max(), 50.0);
}

TEST(QuantileSketch, ResetKeepsBucketStorageAndBehavesLikeFresh) {
  QuantileSketch sketch;
  for (int i = 1; i <= 100; ++i) sketch.add(static_cast<double>(i));
  const std::size_t buckets = sketch.num_buckets();
  sketch.reset();
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.num_buckets(), buckets);
  EXPECT_EQ(sketch.quantile(0.99), 0.0);
  sketch.add(42.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 42.0);
}

TEST(QuantileSketch, ValuesJustUnderMaxStayInLastBucket) {
  QuantileSketch sketch;
  sketch.add(std::nextafter(QuantileSketch::kMaxValue, 0.0));
  EXPECT_EQ(sketch.overflow(), 0u);
  EXPECT_EQ(sketch.bucket_count(sketch.num_buckets() - 1), 1u);
}

// --- Sparse wire format ----------------------------------------------------

std::vector<std::uint8_t> wire(const QuantileSketch& sketch) {
  std::vector<std::uint8_t> out;
  sketch.serialize(out);
  return out;
}

std::size_t nonzero_buckets(const QuantileSketch& sketch) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sketch.num_buckets(); ++i) {
    if (sketch.bucket_count(i) != 0) ++n;
  }
  return n;
}

/// Serialize -> deserialize -> serialize is byte-equal, consumes exactly the
/// bytes written, and the copy answers every query like the original.
void expect_round_trip(const QuantileSketch& sketch) {
  const std::vector<std::uint8_t> bytes = wire(sketch);
  util::ByteReader reader(bytes.data(), bytes.size());
  const QuantileSketch copy = QuantileSketch::deserialize(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(wire(copy), bytes);
  EXPECT_EQ(copy.count(), sketch.count());
  EXPECT_EQ(copy.underflow(), sketch.underflow());
  EXPECT_EQ(copy.overflow(), sketch.overflow());
  EXPECT_EQ(copy.min(), sketch.min());
  EXPECT_EQ(copy.max(), sketch.max());
  EXPECT_EQ(copy.sum(), sketch.sum());
  for (std::size_t i = 0; i < sketch.num_buckets(); ++i) {
    ASSERT_EQ(copy.bucket_count(i), sketch.bucket_count(i)) << "bucket " << i;
  }
  for (int k = 0; k <= 100; ++k) {
    const double q = k / 100.0;
    EXPECT_EQ(copy.quantile(q), sketch.quantile(q)) << "q=" << q;
  }
}

/// The fixed part of a serialized sketch: the u32 entry count, then count,
/// underflow, overflow (u64) and sum, min, max (f64).
constexpr std::size_t kFixedWireBytes = 4 + 6 * 8;
/// One sparse entry: u32 bucket index + u64 count.
constexpr std::size_t kEntryWireBytes = 4 + 8;

/// The geometric midpoint of bucket `i`, which lands in bucket `i`.
double bucket_mid(std::size_t i) {
  return std::sqrt(QuantileSketch::bucket_lower(i) * QuantileSketch::bucket_lower(i + 1));
}

TEST(QuantileSketchWire, EmptySketchRoundTrips) {
  const QuantileSketch sketch;
  EXPECT_EQ(wire(sketch).size(), kFixedWireBytes);
  expect_round_trip(sketch);
}

TEST(QuantileSketchWire, UnderflowAndOverflowOnlyRoundTrip) {
  QuantileSketch sketch;
  sketch.add(-3.0);
  sketch.add(0.0);
  sketch.add(1e-4);
  sketch.add(QuantileSketch::kMaxValue);
  sketch.add(5e12);
  ASSERT_EQ(nonzero_buckets(sketch), 0u);
  EXPECT_EQ(wire(sketch).size(), kFixedWireBytes);
  expect_round_trip(sketch);
}

TEST(QuantileSketchWire, FirstAndLastBucketRoundTrip) {
  QuantileSketch sketch;
  sketch.add(QuantileSketch::kMinValue);
  sketch.add(QuantileSketch::kMinValue);
  sketch.add(std::nextafter(QuantileSketch::kMaxValue, 0.0));
  ASSERT_EQ(sketch.bucket_count(0), 2u);
  ASSERT_EQ(sketch.bucket_count(QuantileSketch::kNumBuckets - 1), 1u);
  EXPECT_EQ(wire(sketch).size(), kFixedWireBytes + 2 * kEntryWireBytes);
  expect_round_trip(sketch);
}

TEST(QuantileSketchWire, EveryBucketNonZeroRoundTrips) {
  QuantileSketch sketch;
  for (std::size_t i = 0; i < QuantileSketch::kNumBuckets; ++i) {
    for (std::size_t k = 0; k <= i % 3; ++k) sketch.add(bucket_mid(i));
  }
  ASSERT_EQ(nonzero_buckets(sketch), QuantileSketch::kNumBuckets);
  EXPECT_EQ(wire(sketch).size(), kFixedWireBytes + QuantileSketch::kNumBuckets * kEntryWireBytes);
  expect_round_trip(sketch);
}

TEST(QuantileSketchWire, SizeIsFixedPartPlusTwelveBytesPerNonZeroBucket) {
  QuantileSketch sketch;
  rng::RandomStream stream(5);
  for (int i = 0; i < 400; ++i) {
    sketch.add(stream.exponential_mean(3000.0));
    EXPECT_EQ(wire(sketch).size(), kFixedWireBytes + kEntryWireBytes * nonzero_buckets(sketch));
  }
  expect_round_trip(sketch);
}

/// A hand-built serialized sketch: `entries` as the stored entry count, then
/// the given (index, count) pairs, then an all-zero trailer.
std::vector<std::uint8_t> forged(std::uint32_t entries,
                                 const std::vector<std::pair<std::uint32_t, std::uint64_t>>& pairs) {
  std::vector<std::uint8_t> out;
  util::put_pod(out, entries);
  for (const auto& [index, count] : pairs) {
    util::put_pod(out, index);
    util::put_pod(out, count);
  }
  for (int i = 0; i < 6; ++i) util::put_pod(out, std::uint64_t{0});
  return out;
}

void expect_rejected(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader reader(bytes.data(), bytes.size());
  EXPECT_THROW((void)QuantileSketch::deserialize(reader), std::runtime_error);
}

TEST(QuantileSketchWire, HostileEntryListsThrow) {
  constexpr auto kLast = static_cast<std::uint32_t>(QuantileSketch::kNumBuckets - 1);
  {
    SCOPED_TRACE("well-formed control");
    const std::vector<std::uint8_t> bytes = forged(2, {{0, 1}, {kLast, 2}});
    util::ByteReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(QuantileSketch::deserialize(reader).bucket_count(kLast), 2u);
  }
  {
    SCOPED_TRACE("repeated index");
    expect_rejected(forged(2, {{5, 1}, {5, 1}}));
  }
  {
    SCOPED_TRACE("descending index");
    expect_rejected(forged(2, {{6, 1}, {5, 1}}));
  }
  {
    SCOPED_TRACE("index equal to the bucket count");
    expect_rejected(forged(1, {{kLast + 1, 1}}));
  }
  {
    SCOPED_TRACE("zero count");
    expect_rejected(forged(2, {{1, 3}, {2, 0}}));
  }
  {
    SCOPED_TRACE("more entries than buckets");
    expect_rejected(forged(kLast + 2, {{0, 1}}));
    expect_rejected(forged(0xFFFFFFFFu, {{0, 1}}));
  }
  {
    SCOPED_TRACE("list cut mid-pair");
    std::vector<std::uint8_t> bytes;
    util::put_pod(bytes, std::uint32_t{2});
    util::put_pod(bytes, std::uint32_t{3});
    util::put_pod(bytes, std::uint64_t{1});
    util::put_pod(bytes, std::uint32_t{4});  // the second pair's count is missing
    expect_rejected(bytes);
  }
}

TEST(TimeDecayedAverage, RejectsNonPositiveTau) {
  EXPECT_THROW(TimeDecayedAverage(0.0), std::invalid_argument);
  EXPECT_THROW(TimeDecayedAverage(-1.0), std::invalid_argument);
}

TEST(TimeDecayedAverage, ConstantSignalAveragesToItself) {
  TimeDecayedAverage avg(100.0);
  avg.update(0.0, 0.75);
  avg.advance_to(50.0);
  avg.advance_to(1234.0);
  EXPECT_NEAR(avg.average(1234.0), 0.75, 1e-12);
  EXPECT_NEAR(avg.average(9999.0), 0.75, 1e-12);
}

TEST(TimeDecayedAverage, BeforeAnyElapsedTimeReturnsCurrentValue) {
  TimeDecayedAverage avg(10.0, 0.0, 0.3);
  EXPECT_DOUBLE_EQ(avg.average(0.0), 0.3);
  EXPECT_DOUBLE_EQ(avg.current(), 0.3);
}

TEST(TimeDecayedAverage, RecentValuesDominateOldOnes) {
  // 0 for a long stretch, then 1 for one tau: the decayed average leans far
  // toward the recent value while the plain time-average would stay ~0.09.
  TimeDecayedAverage avg(100.0);
  avg.update(0.0, 0.0);
  avg.update(1000.0, 1.0);
  const double decayed = avg.average(1100.0);
  EXPECT_GT(decayed, 0.5);
  EXPECT_LT(decayed, 1.0);
}

TEST(TimeDecayedAverage, ForgetsOnTheTauTimescale) {
  // A burst of 1 followed by a long stretch of 0 decays toward 0.
  TimeDecayedAverage avg(100.0);
  avg.update(0.0, 1.0);
  avg.update(100.0, 0.0);
  EXPECT_LT(avg.average(1000.0), 0.01);
}

TEST(TimeDecayedAverage, AverageDoesNotMutateState) {
  TimeDecayedAverage avg(50.0);
  avg.update(0.0, 1.0);
  avg.update(10.0, 0.5);
  const double probe = avg.average(500.0);
  EXPECT_DOUBLE_EQ(avg.average(500.0), probe);  // repeatable
  // State still anchored at t=10: a subsequent update integrates the 0.5
  // segment from t=10, not from t=500.
  avg.update(20.0, 0.25);
  EXPECT_GT(avg.average(20.0), 0.25);
}

}  // namespace
}  // namespace dg::stats
