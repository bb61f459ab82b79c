#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ilb/policy.hpp"
#include "ilb/sfc_key.hpp"

/// \file sfc.hpp
/// Space-filling-curve curve-cut rebalancing (Eibl & Rüde, arXiv:1808.00829):
/// every object gets a 1-D key from its spatial coordinates (Morton or
/// Hilbert order), the global load is prefix-summed along the curve, and the
/// curve is cut into nprocs equal-load segments; each processor then ships
/// its out-of-segment objects to the segment owner. Locality comes for free —
/// a curve segment is a spatially compact blob.
///
/// Distributed realization: processors periodically report a sparse
/// key-bucket load histogram to a coordinator (rank 0); the coordinator
/// checks the per-rank loads, and only when the placement is imbalanced
/// merges the histograms, prefix-sums, recuts and broadcasts the cut table. Objects without registered coordinates hash to
/// a deterministic bucket so they still land somewhere stable.

namespace prema::ilb {

struct SfcParams {
  /// Use Hilbert keys (true) or Morton keys (false).
  bool hilbert = true;
  /// Coordinate normalization box; applications registering coordinates
  /// outside it are clamped to the faces. Default unit cube.
  SfcBox box{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
  /// Histogram report cadence per processor (also the poll re-arm period).
  double report_interval_s = 10e-3;
  /// Recut only when max-rank-load / mean-rank-load exceeds this.
  double recut_threshold = 1.05;
  /// ...and only when the proposed cuts beat the current placement by a
  /// real margin (proposed imbalance < factor * current imbalance), so
  /// bucket-quantization wobble can't keep re-shipping boundary buckets.
  double improvement_factor = 0.95;
  /// Minimum spacing between recuts. Shipped objects are invisible to load
  /// reports while in transit, so deciding again before the previous wave
  /// lands would chase a phantom imbalance of its own making.
  double min_recut_interval_s = 100e-3;
  /// Stop re-arming the poll timer after this many consecutive reports with
  /// zero local load (lets run-to-quiescence workloads terminate); any new
  /// work re-arms.
  int max_idle_reports = 3;
};

class SfcPolicy final : public Policy {
 public:
  /// Number of key buckets in the reported histogram (top bits of the key).
  /// Histograms are sorted flat vectors of occupied buckets, so the
  /// wire/memory cost scales with the number of *occupied* buckets (bounded
  /// by the object count), not with kBuckets — so this can be generous. It must be: each bucket is an
  /// unsplittable cut unit, and the top B bits of an interleaved 3-D key
  /// give only B/3 octree levels of resolution per axis. 10 bits (~3 levels)
  /// collapses a line of objects into ~8 usable cells, merging neighboring
  /// processors' loads into single buckets that no cut can separate; 20 bits
  /// (~6.7 levels) resolves ~100 cells along a line.
  static constexpr int kBucketBits = 20;
  static constexpr std::uint32_t kBuckets = 1u << kBucketBits;

  explicit SfcPolicy(SfcParams params = {}) : params_(params) {}

  [[nodiscard]] std::string_view name() const override { return "sfc"; }
  [[nodiscard]] bool wants_topology() const override { return true; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;
  void on_work_arrived(PolicyContext& ctx) override;
  void on_gossip(PolicyContext&, const GossipSummary&) override {}

  /// Bucket index for one object (key top bits; coordless objects hash).
  /// The curve key is memoized per object and reused only while the
  /// object's coordinates compare equal to the ones it was computed from.
  [[nodiscard]] std::uint32_t bucket_of(PolicyContext& ctx,
                                        const mol::MobilePtr& ptr) const;

  /// A load histogram: (bucket, load) entries in strictly ascending bucket
  /// order. This is also the wire order of a report.
  using Histogram = std::vector<std::pair<std::uint32_t, double>>;

  struct Stats {
    std::uint64_t reports_sent = 0;
    std::uint64_t cuts_broadcast = 0;  ///< coordinator only
    std::uint64_t objects_shipped = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Tags chosen outside the scalar policies' 1..6 range so stray in-flight
  // messages from a pre-switch policy are recognizably foreign (ignored).
  static constexpr PolicyTag kHist = 20;
  static constexpr PolicyTag kCuts = 21;

  void report(PolicyContext& ctx);
  /// Coordinator: keep `hist` as `rank`'s latest report.
  void store_report(ProcId rank, Histogram hist);
  void maybe_recut(PolicyContext& ctx);
  void apply_cuts(PolicyContext& ctx);
  /// The rank owning `bucket` under the current cut table.
  [[nodiscard]] ProcId owner_of(std::uint32_t bucket) const;

  SfcParams params_;
  Stats stats_;
  double next_report_ = 0.0;
  double next_recut_ = 0.0;  ///< coordinator only
  int idle_reports_ = 0;

  /// Segment start buckets, one per rank (start_[0] == 0); empty until the
  /// first cut table arrives.
  std::vector<std::uint32_t> start_;

  struct KeyMemo {
    mol::Coords coords;
    std::uint32_t bucket = 0;
  };
  /// Curve bucket per object, keyed on the coordinates it was computed from.
  mutable std::unordered_map<mol::MobilePtr, KeyMemo> memo_;

  // -- coordinator state (rank 0 only) -------------------------------------
  struct Report {
    bool fresh = false;  ///< reported since the last cut
    double load = 0.0;   ///< the histogram's loads summed in bucket order
    Histogram hist;
  };
  /// Latest histogram per rank, indexed by rank.
  std::vector<Report> reports_;
  int fresh_reports_ = 0;
};

}  // namespace prema::ilb
