#include "ilb/policies/sfc.hpp"

#include <algorithm>

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

bool bucket_less(const SfcPolicy::Histogram::value_type& a,
                 const SfcPolicy::Histogram::value_type& b) {
  return a.first < b.first;
}

/// Sort `h` by bucket and sum each bucket's loads into one entry. The sort is
/// stable and every sum starts from 0.0 and adds the loads in their incoming
/// order, so each result is bit-identical to `map[bucket] += load` over the
/// same sequence.
void coalesce(SfcPolicy::Histogram& h) {
  if (!std::is_sorted(h.begin(), h.end(), bucket_less)) {
    std::stable_sort(h.begin(), h.end(), bucket_less);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < h.size();) {
    const std::uint32_t bucket = h[i].first;
    double load = 0.0;
    for (; i < h.size() && h[i].first == bucket; ++i) load += h[i].second;
    h[out++] = {bucket, load};
  }
  h.resize(out);
}

}  // namespace

void SfcPolicy::init(PolicyContext& ctx) {
  next_report_ = ctx.now();
  next_recut_ = ctx.now();
  idle_reports_ = 0;
}

std::uint32_t SfcPolicy::bucket_of(PolicyContext& ctx,
                                   const mol::MobilePtr& ptr) const {
  if (const auto c = ctx.object_coords(ptr)) {
    const auto it = memo_.find(ptr);
    if (it != memo_.end() && it->second.coords == *c) return it->second.bucket;
    const std::uint64_t key =
        params_.hilbert ? hilbert_key(*c, params_.box) : morton_key(*c, params_.box);
    const auto bucket =
        static_cast<std::uint32_t>(key >> (3 * kSfcBitsPerDim - kBucketBits));
    memo_.insert_or_assign(ptr, KeyMemo{*c, bucket});
    return bucket;
  }
  // No coordinates registered: hash the mobile pointer to a stable bucket so
  // the object has a fixed place on the curve (Knuth multiplicative hash).
  const std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ptr.home)) * 2654435761u) ^
      (static_cast<std::uint64_t>(ptr.index) * 2246822519u);
  return static_cast<std::uint32_t>(h % kBuckets);
}

void SfcPolicy::on_poll(PolicyContext& ctx) {
  const double t = ctx.now();
  if (t >= next_report_) {
    next_report_ = t + params_.report_interval_s;
    report(ctx);
    if (ctx.rank() == 0) maybe_recut(ctx);
  }
  // Keep the cadence alive while the machine has work; go quiet after a few
  // idle reports so run-to-quiescence workloads can terminate.
  if (idle_reports_ < params_.max_idle_reports) {
    ctx.request_poll_after(params_.report_interval_s);
  }
}

void SfcPolicy::on_work_arrived(PolicyContext& ctx) {
  if (idle_reports_ >= params_.max_idle_reports) {
    idle_reports_ = 0;
    ctx.request_poll_after(0.0);
  }
}

void SfcPolicy::report(PolicyContext& ctx) {
  const auto objects = ctx.migratable();
  Histogram hist;
  hist.reserve(objects.size());
  double total = 0.0;
  for (const auto& obj : objects) {
    hist.emplace_back(bucket_of(ctx, obj.ptr), obj.weight);
    total += obj.weight;
  }
  coalesce(hist);
  // Forget objects that have left, so the memo stays near the resident set.
  if (memo_.size() > 2 * objects.size() + 64) {
    std::unordered_map<mol::MobilePtr, KeyMemo> kept;
    for (const auto& obj : objects) {
      if (const auto it = memo_.find(obj.ptr); it != memo_.end()) kept.insert(*it);
    }
    memo_ = std::move(kept);
  }
  if (total <= 0.0 && ctx.local_load() <= 0.0) {
    ++idle_reports_;
  } else {
    idle_reports_ = 0;
  }
  ++stats_.reports_sent;
  if (ctx.rank() == 0) {
    store_report(0, std::move(hist));
    return;  // the coordinator's own report never touches the wire
  }
  // wire:ilb.sfc-hist pack w
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(hist.size()));
  for (const auto& [bucket, load] : hist) {
    w.put<std::uint32_t>(bucket);
    w.put<double>(load);
  }
  ctx.send_policy(0, kHist, w.take());
}

void SfcPolicy::store_report(ProcId rank, Histogram hist) {
  const auto slot = static_cast<std::size_t>(rank);
  if (reports_.size() <= slot) reports_.resize(slot + 1);
  Report& r = reports_[slot];
  r.load = 0.0;
  for (const auto& [bucket, load] : hist) r.load += load;
  r.hist = std::move(hist);
  if (!r.fresh) {
    r.fresh = true;
    ++fresh_reports_;
  }
}

void SfcPolicy::maybe_recut(PolicyContext& ctx) {
  // Wait until every rank has reported at least once since the last cut:
  // recutting from a partial picture migrates against stale load. Also let
  // the previous wave of shipments land first (min_recut_interval_s) — an
  // object in transit is on nobody's report, so back-to-back decisions
  // would chase the hole the last decision made.
  if (fresh_reports_ < ctx.nprocs()) return;
  if (ctx.now() < next_recut_) return;

  double total = 0.0;
  double current_max = 0.0;  // heaviest rank under the *current* placement
  for (const auto& r : reports_) {
    if (!r.fresh) continue;
    total += r.load;
    current_max = std::max(current_max, r.load);
  }
  if (total <= 0.0) return;  // machine is draining; nothing to cut
  const int nprocs = ctx.nprocs();
  const double share = total / nprocs;
  // Recut only when the *current* placement is out of balance AND the
  // proposed cuts strictly improve it. Gating on the proposal alone
  // thrashes: proposed cuts equalize by construction, so once bucket
  // quantization alone exceeds the threshold (small shares near the drain
  // tail) every report round would re-ship the boundary buckets. A balanced
  // placement is the common case, so it is settled before any merging.
  const double current_imbalance = current_max / share;
  if (current_imbalance <= params_.recut_threshold) return;

  // Merge the histograms rank by rank. The merge is stable, so each bucket's
  // loads stay in rank order and add up in rank order.
  Histogram merged;
  for (const auto& r : reports_) {
    if (!r.fresh) continue;
    const auto mid = static_cast<std::ptrdiff_t>(merged.size());
    merged.insert(merged.end(), r.hist.begin(), r.hist.end());
    std::inplace_merge(merged.begin(), merged.begin() + mid, merged.end(), bucket_less);
  }
  coalesce(merged);

  // Equal-load cuts by prefix sum along the curve: rank p's segment starts
  // where the running load first reaches p * total / nprocs.
  std::vector<std::uint32_t> start(static_cast<std::size_t>(nprocs), 0);
  std::vector<double> seg_load(static_cast<std::size_t>(nprocs), 0.0);
  int seg = 0;
  double prefix = 0.0;
  for (const auto& [bucket, load] : merged) {
    // Advance to the segment this bucket's prefix midpoint belongs to; a
    // bucket is never split, so segments are contiguous bucket ranges.
    while (seg + 1 < nprocs && prefix + load / 2.0 >= (seg + 1) * share) {
      ++seg;
      start[static_cast<std::size_t>(seg)] = bucket;
    }
    seg_load[static_cast<std::size_t>(seg)] += load;
    prefix += load;
  }
  const double max_seg = *std::max_element(seg_load.begin(), seg_load.end());
  const double imbalance = max_seg / share;
  // Require a real improvement margin, not just any improvement.
  if (imbalance >= params_.improvement_factor * current_imbalance) return;
  next_recut_ = ctx.now() + params_.min_recut_interval_s;

  ++stats_.cuts_broadcast;
  ctx.trace_sfc_cut(static_cast<std::size_t>(nprocs), imbalance);
  // wire:ilb.sfc-cuts pack w
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    w.put<std::uint32_t>(start[static_cast<std::size_t>(p)]);
  }
  const auto body = w.take();
  for (ProcId p = 1; p < nprocs; ++p) ctx.send_policy(p, kCuts, body);
  start_ = std::move(start);
  apply_cuts(ctx);
  // Demand a fresh round of reports before the next recut.
  for (auto& r : reports_) r.fresh = false;
  fresh_reports_ = 0;
}

ProcId SfcPolicy::owner_of(std::uint32_t bucket) const {
  // start_ is ascending; the owner is the last rank whose segment starts at
  // or below the bucket.
  ProcId owner = 0;
  for (std::size_t p = 1; p < start_.size(); ++p) {
    if (start_[p] <= bucket) owner = static_cast<ProcId>(p);
  }
  return owner;
}

void SfcPolicy::apply_cuts(PolicyContext& ctx) {
  if (start_.empty()) return;
  const ProcId me = ctx.rank();
  for (const auto& obj : ctx.migratable()) {
    const ProcId owner = owner_of(bucket_of(ctx, obj.ptr));
    if (owner == me || ctx.peer_degraded(owner)) continue;
    ctx.migrate_object(obj.ptr, owner);
    ++stats_.objects_shipped;
  }
}

void SfcPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                           ByteReader& body) {
  if (tag == kHist) {
    if (ctx.rank() != 0) return;  // stale report after a coordinator change
    // wire:ilb.sfc-hist unpack body
    Histogram hist;
    const auto n = body.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto bucket = body.get<std::uint32_t>();
      const auto load = body.get<double>();
      hist.emplace_back(bucket, load);
    }
    coalesce(hist);
    store_report(from, std::move(hist));
    maybe_recut(ctx);
    return;
  }
  if (tag == kCuts) {
    // wire:ilb.sfc-cuts unpack body
    const auto n = body.get<std::uint32_t>();
    std::vector<std::uint32_t> start(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      start[i] = body.get<std::uint32_t>();
    }
    start_ = std::move(start);
    apply_cuts(ctx);
    return;
  }
  // Foreign tag: a stray in-flight message from a pre-switch policy
  // (service-mode switch schedules). Deliberately ignored.
}

}  // namespace prema::ilb
