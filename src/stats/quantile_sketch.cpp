#include "stats/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dg::stats {

namespace {

// The bucket index of x is floor((ln x - kLogMin) * kBucketsPerLn).
const double kLogMin = std::log(QuantileSketch::kMinValue);
const double kBucketsPerLn =
    static_cast<double>(QuantileSketch::kBucketsPerDecade) / std::log(10.0);

}  // namespace

void QuantileSketch::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
  if (!(x >= kMinValue)) {  // negatives, zero, NaN -> underflow
    ++underflow_;
    return;
  }
  if (x >= kMaxValue) {
    ++overflow_;
    return;
  }
  const double offset = (std::log(x) - kLogMin) * kBucketsPerLn;
  std::size_t index = offset > 0.0 ? static_cast<std::size_t>(offset) : 0;
  // Guard the ulp edge where log() rounds a value just under kMaxValue into
  // the one-past-the-end bucket.
  if (index >= kNumBuckets) index = kNumBuckets - 1;
  ++counts_[index];
}

void QuantileSketch::merge(const QuantileSketch& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
}

void QuantileSketch::serialize(std::vector<std::uint8_t>& out) const {
  const auto entries = static_cast<std::uint32_t>(
      std::count_if(counts_.begin(), counts_.end(), [](std::uint64_t c) { return c != 0; }));
  util::put_pod(out, entries);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] == 0) continue;
    util::put_pod(out, static_cast<std::uint32_t>(i));
    util::put_pod(out, counts_[i]);
  }
  util::put_pod(out, count_);
  util::put_pod(out, underflow_);
  util::put_pod(out, overflow_);
  util::put_pod(out, sum_);
  util::put_pod(out, min_);
  util::put_pod(out, max_);
}

QuantileSketch QuantileSketch::deserialize(util::ByteReader& reader) {
  QuantileSketch sketch;
  const auto entries = reader.pod<std::uint32_t>();
  if (entries > kNumBuckets) {
    throw std::runtime_error("QuantileSketch: more entries than buckets");
  }
  std::size_t next_index = 0;  // indices strictly ascend
  for (std::uint32_t e = 0; e < entries; ++e) {
    const auto index = reader.pod<std::uint32_t>();
    const auto count = reader.pod<std::uint64_t>();
    if (index < next_index || index >= kNumBuckets) {
      throw std::runtime_error("QuantileSketch: bucket index out of order or range");
    }
    if (count == 0) throw std::runtime_error("QuantileSketch: zero bucket count");
    sketch.counts_[index] = count;
    next_index = std::size_t{index} + 1;
  }
  sketch.count_ = reader.pod<std::uint64_t>();
  sketch.underflow_ = reader.pod<std::uint64_t>();
  sketch.overflow_ = reader.pod<std::uint64_t>();
  sketch.sum_ = reader.pod<double>();
  sketch.min_ = reader.pod<double>();
  sketch.max_ = reader.pod<double>();
  return sketch;
}

void QuantileSketch::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  count_ = 0;
  underflow_ = 0;
  overflow_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double QuantileSketch::min() const noexcept { return count_ > 0 ? min_ : 0.0; }

double QuantileSketch::max() const noexcept { return count_ > 0 ? max_ : 0.0; }

double QuantileSketch::mean() const noexcept {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double QuantileSketch::bucket_lower(std::size_t i) noexcept {
  return kMinValue *
         std::pow(10.0, static_cast<double>(i) / static_cast<double>(kBucketsPerDecade));
}

double QuantileSketch::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("QuantileSketch::quantile: q must be in [0, 1]");
  }
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cumulative = static_cast<double>(underflow_);
  // The underflow mass has no bucket structure; everything in it is between
  // the observed min and the first bucket edge — clamp to the exact min.
  if (target <= cumulative) return min_;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (target <= next) {
      const double frac = (target - cumulative) / static_cast<double>(counts_[i]);
      const double lo = bucket_lower(i);
      const double hi = bucket_lower(i + 1);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    cumulative = next;
  }
  // Only the overflow mass remains; clamp to the exact max.
  return max_;
}

TailQuantiles QuantileSketch::tails() const {
  TailQuantiles t;
  if (count_ == 0) return t;
  t.p50 = quantile(0.50);
  t.p95 = quantile(0.95);
  t.p99 = quantile(0.99);
  return t;
}

TimeDecayedAverage::TimeDecayedAverage(double tau, double start_time, double initial_value)
    : tau_(tau), last_time_(start_time), value_(initial_value) {
  if (!(tau > 0.0)) {
    throw std::invalid_argument("TimeDecayedAverage: tau must be positive");
  }
}

void TimeDecayedAverage::update(double now, double new_value) noexcept {
  if (now > last_time_) {
    const double dt = now - last_time_;
    const double decay = std::exp(-dt / tau_);
    const double segment = tau_ * (1.0 - decay);  // integral of exp over [last, now]
    weighted_sum_ = weighted_sum_ * decay + value_ * segment;
    weight_ = weight_ * decay + segment;
    last_time_ = now;
  }
  value_ = new_value;
}

double TimeDecayedAverage::average(double now) const noexcept {
  double weighted_sum = weighted_sum_;
  double weight = weight_;
  if (now > last_time_) {
    const double dt = now - last_time_;
    const double decay = std::exp(-dt / tau_);
    const double segment = tau_ * (1.0 - decay);
    weighted_sum = weighted_sum * decay + value_ * segment;
    weight = weight * decay + segment;
  }
  return weight > 0.0 ? weighted_sum / weight : value_;
}

}  // namespace dg::stats
