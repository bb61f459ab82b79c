#include "service/latency.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace prema::service {

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

std::size_t LatencyHistogram::bucket_index(double seconds) {
  if (!(seconds >= kBaseSeconds)) return 0;  // underflow (also NaN, negatives)
  const double scaled = seconds / kBaseSeconds;
  int exp = 0;
  const double m = std::frexp(scaled, &exp);  // scaled = m * 2^exp, m in [0.5, 1)
  const int octave = exp - 1;                 // scaled in [2^octave, 2^(octave+1))
  if (octave >= kOctaves) return kBuckets - 1;  // overflow
  // Mantissa m in [0.5, 1) -> linear sub-bucket in [0, kSubBuckets).
  auto sub = static_cast<int>((2.0 * m - 1.0) * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + static_cast<std::size_t>(octave) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double LatencyHistogram::bucket_lower(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kBuckets - 1) {
    return kBaseSeconds * std::ldexp(1.0, kOctaves);  // overflow floor
  }
  const std::size_t i = index - 1;
  const auto octave = static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<int>(i % kSubBuckets);
  const double lo = std::ldexp(1.0, octave);  // 2^octave in base units
  return kBaseSeconds * (lo + lo * static_cast<double>(sub) / kSubBuckets);
}

double LatencyHistogram::bucket_upper(std::size_t index) {
  if (index == 0) return kBaseSeconds;
  if (index >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::size_t i = index - 1;
  const auto octave = static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<int>(i % kSubBuckets);
  const double lo = std::ldexp(1.0, octave);
  return kBaseSeconds * (lo + lo * static_cast<double>(sub + 1) / kSubBuckets);
}

void LatencyHistogram::record(double seconds) {
  ++counts_[bucket_index(seconds)];
  if (count_ == 0) {
    min_ = max_ = seconds;
  } else {
    if (seconds < min_) min_ = seconds;
    if (seconds > max_) max_ = seconds;
  }
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
  }
}

namespace {
/// Deterministic representative of a bucket: the arithmetic midpoint of its
/// bounds (underflow reports half the floor; overflow reports its floor).
double representative(std::size_t index) {
  const double lo = LatencyHistogram::bucket_lower(index);
  const double hi = LatencyHistogram::bucket_upper(index);
  if (!std::isfinite(hi)) return lo;
  return 0.5 * (lo + hi);
}
}  // namespace

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  // A bucket's midpoint can lie outside the samples it holds; no quantile
  // may report less than the smallest or more than the largest one seen.
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return std::clamp(representative(i), min_, max_);
  }
  return max_;  // unreachable: rank <= count_
}

double LatencyHistogram::mean() const {
  if (count_ == 0) return 0.0;
  // Bucket-representative mean, accumulated in fixed (index) order — the
  // same value regardless of how the histogram was merged together.
  double sum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] != 0) {
      sum += representative(i) * static_cast<double>(counts_[i]);
    }
  }
  return sum / static_cast<double>(count_);
}

}  // namespace prema::service
