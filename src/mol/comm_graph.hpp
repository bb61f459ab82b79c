#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mol/mobile_ptr.hpp"
#include "support/thread_annotations.hpp"

/// \file comm_graph.hpp
/// Topology state for communication-aware balancing policies: per-object
/// spatial coordinates and an aggregated object-to-object / proc-to-proc
/// message-traffic graph. One CommGraph per processor; the MOL delivery path
/// bumps edge counters on every application send (when topology accounting
/// is enabled), and migration carries an object's slice of the graph — its
/// coordinates plus its outgoing edges — to the receiving processor, so the
/// counters follow the object the way its queued messages do.
///
/// Concurrency: the graph sits under its own short-hold leaf lock (`comm_mu`
/// in tools/analyze/lock_hierarchy.txt) rather than the node's state lock,
/// because policies snapshot it from the polling thread while the worker is
/// recording sends. All mutators are declared transitions of the `commgraph`
/// protocol spec (tools/analyze/protocols/commgraph.txt).

namespace prema::mol {

/// Spatial position registered by the application for a mobile object. The
/// paper's target applications are mesh refiners; coordinates are whatever
/// embedding the application chooses (element centroid, tile index, ...).
struct Coords {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  friend bool operator==(const Coords&, const Coords&) = default;
};

/// One directed object-to-object traffic edge (aggregated counts).
struct CommEdge {
  MobilePtr src;
  MobilePtr dst;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

/// Aggregated traffic sent from this processor toward `proc` (by the best
/// location known at send time).
struct ProcTraffic {
  ProcId proc = kNoProc;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

class CommGraph {
 public:
  struct EdgeCount {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  /// Everything about one object that migrates with it: its coordinates and
  /// its outgoing edges (src == the object). Incoming edges stay with their
  /// senders, whose counters they are.
  struct ObjectSlice {
    std::optional<Coords> coords;
    std::vector<CommEdge> edges;
  };

  struct Totals {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  /// Record one application send from `src` to `dst`, routed toward
  /// `dst_proc`, carrying `bytes` of payload.
  void record_send(const MobilePtr& src, const MobilePtr& dst, ProcId dst_proc,
                   std::size_t bytes);

  /// Register (or move) an object's spatial coordinates.
  void set_coords(const MobilePtr& ptr, const Coords& c);
  [[nodiscard]] std::optional<Coords> coords(const MobilePtr& ptr) const;

  /// Coordinates summed over those of `ptrs` that have them, and how many
  /// did. One lock for the whole list; each axis sums from 0.0 in the order
  /// of `ptrs`, so a caller passing a sorted list gets a reproducible sum.
  struct CoordsSum {
    Coords sum;
    std::uint64_t count = 0;
  };
  [[nodiscard]] CoordsSum sum_coords(std::span<const MobilePtr> ptrs) const;

  /// Remove and return `ptr`'s slice of the graph (outbound migration).
  [[nodiscard]] ObjectSlice extract(const MobilePtr& ptr);

  /// Install a migrated slice (inbound migration): coordinates overwrite,
  /// edge counts merge additively — so slab merging is associative and the
  /// machine-wide totals are conserved across any migration schedule.
  void install(const MobilePtr& ptr, const ObjectSlice& slice);

  /// Additively merge one edge's counts (slab merge primitive).
  void merge_edge(const MobilePtr& src, const MobilePtr& dst,
                  std::uint64_t msgs, std::uint64_t bytes);

  /// Snapshot of every object-to-object edge, deterministically ordered.
  [[nodiscard]] std::vector<CommEdge> edges() const;
  /// Snapshot of the per-destination-processor traffic tally. Unlike edges,
  /// this stays where it was recorded (it describes this processor's wire).
  [[nodiscard]] std::vector<ProcTraffic> proc_traffic() const;

  /// Machine-total check value: summed over all processors' graphs this is
  /// invariant under migration (conservation tests rely on it).
  [[nodiscard]] Totals totals() const;

 private:
  /// Leaf lock `comm_mu`: below the node's state lock (the delivery path
  /// records under it), above nothing — no other lock is taken while held.
  mutable util::Mutex mu_;
  /// Ordered maps for what policies iterate (the edges() and
  /// proc_traffic() snapshots drive migration decisions, so their order
  /// must be deterministic). extract() walks edges_ by source too.
  std::map<std::pair<MobilePtr, MobilePtr>, EdgeCount> edges_
      PREMA_GUARDED_BY(mu_);
  std::map<ProcId, EdgeCount> by_proc_ PREMA_GUARDED_BY(mu_);
  /// Looked up by pointer only, never iterated, so hash order cannot reach
  /// a policy, a trace or a wire image.
  std::unordered_map<MobilePtr, Coords> coords_ PREMA_GUARDED_BY(mu_);
  std::uint64_t total_msgs_ PREMA_GUARDED_BY(mu_) = 0;
  std::uint64_t total_bytes_ PREMA_GUARDED_BY(mu_) = 0;
};

}  // namespace prema::mol
