#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file latency.hpp
/// Fixed-bucket log-scale latency histogram (HDR-histogram style). The bucket
/// layout is a compile-time constant — `kOctaves` powers of two above a
/// `kBaseSeconds` resolution floor, each split into `kSubBuckets` linear
/// sub-buckets — so every histogram ever built is mergeable with every other,
/// and a merge is pure unsigned integer addition. That makes aggregation
/// associative and commutative: per-node histograms can be merged in any
/// order (or re-merged hierarchically) and yield bit-identical totals, which
/// is what lets the service-mode determinism tests byte-compare reports.
///
/// Deliberately absent: a floating-point running sum. Accumulating doubles in
/// merge order would reintroduce the order dependence the integer buckets
/// exist to remove. The mean is reconstructed from bucket representative
/// values, and min/max (order-independent reductions) are tracked exactly.
///
/// Bucket indexing is integer frexp math, not log(): for a sojourn d, the
/// octave is the exponent of d/kBaseSeconds and the sub-bucket is a linear
/// slice of the mantissa. Relative error of any reported quantile is bounded
/// by 1/kSubBuckets within an octave (~6% at 16 sub-buckets).

namespace prema::service {

class LatencyHistogram {
 public:
  static constexpr double kBaseSeconds = 1e-6;  ///< resolution floor: 1 us
  static constexpr int kOctaves = 36;           ///< covers up to ~68,719 s
  static constexpr int kSubBuckets = 16;        ///< linear slices per octave
  /// underflow [0, base) + kOctaves*kSubBuckets log-linear + overflow.
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>(kOctaves) * kSubBuckets + 1;

  LatencyHistogram();

  /// Record one sample (seconds). Negative samples clamp to the underflow
  /// bucket; samples beyond the top octave land in overflow.
  void record(double seconds);

  /// Integer-add another histogram's buckets into this one. Associative and
  /// commutative: any merge order yields identical state.
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  /// Quantile q in (0, 1]: walks buckets to the sample with 1-based rank
  /// ceil(q * count) and returns that bucket's representative (midpoint)
  /// value, clamped to [min(), max()]. Deterministic; 0 on an empty histogram.
  [[nodiscard]] double percentile(double q) const;

  /// Mean reconstructed from bucket representatives (order-independent).
  [[nodiscard]] double mean() const;

  /// Bucket geometry, exposed for tests: index a sample resolves to, and the
  /// [lower, upper) bounds of a bucket index.
  [[nodiscard]] static std::size_t bucket_index(double seconds);
  [[nodiscard]] static double bucket_lower(std::size_t index);
  [[nodiscard]] static double bucket_upper(std::size_t index);

  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return counts_; }
  [[nodiscard]] bool operator==(const LatencyHistogram& o) const {
    return counts_ == o.counts_ && count_ == o.count_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace prema::service
