#include "mol/comm_graph.hpp"

namespace prema::mol {

void CommGraph::record_send(const MobilePtr& src, const MobilePtr& dst,
                            ProcId dst_proc, std::size_t bytes) {
  util::LockGuard g(mu_);
  // Writes go through the guarded members directly (not via local
  // references) so the analyzer's guard inheritance covers every field.
  edges_[{src, dst}].msgs += 1;
  edges_[{src, dst}].bytes += bytes;
  by_proc_[dst_proc].msgs += 1;
  by_proc_[dst_proc].bytes += bytes;
  total_msgs_ += 1;
  total_bytes_ += bytes;
}

void CommGraph::set_coords(const MobilePtr& ptr, const Coords& c) {
  util::LockGuard g(mu_);
  coords_[ptr] = c;
}

std::optional<Coords> CommGraph::coords(const MobilePtr& ptr) const {
  util::LockGuard g(mu_);
  const auto it = coords_.find(ptr);
  if (it == coords_.end()) return std::nullopt;
  return it->second;
}

CommGraph::CoordsSum CommGraph::sum_coords(std::span<const MobilePtr> ptrs) const {
  util::LockGuard g(mu_);
  CoordsSum s;
  for (const MobilePtr& ptr : ptrs) {
    const auto it = coords_.find(ptr);
    if (it == coords_.end()) continue;
    s.sum.x += it->second.x;
    s.sum.y += it->second.y;
    s.sum.z += it->second.z;
    ++s.count;
  }
  return s;
}

CommGraph::ObjectSlice CommGraph::extract(const MobilePtr& ptr) {
  util::LockGuard g(mu_);
  ObjectSlice slice;
  const auto cit = coords_.find(ptr);
  if (cit != coords_.end()) {
    slice.coords = cit->second;
    coords_.erase(cit);
  }
  // Outgoing edges travel with the object; erase as we collect so the local
  // slab no longer double-counts them once the object is elsewhere.
  auto it = edges_.lower_bound({ptr, MobilePtr{}});
  while (it != edges_.end() && it->first.first == ptr) {
    slice.edges.push_back(CommEdge{it->first.first, it->first.second,
                                   it->second.msgs, it->second.bytes});
    total_msgs_ -= it->second.msgs;
    total_bytes_ -= it->second.bytes;
    it = edges_.erase(it);
  }
  return slice;
}

void CommGraph::install(const MobilePtr& ptr, const ObjectSlice& slice) {
  util::LockGuard g(mu_);
  if (slice.coords) coords_[ptr] = *slice.coords;
  // Additive merge, inlined rather than calling merge_edge: mu_ is not
  // recursive, and install must be one atomic transition.
  for (const CommEdge& e : slice.edges) {
    edges_[{e.src, e.dst}].msgs += e.msgs;
    edges_[{e.src, e.dst}].bytes += e.bytes;
    total_msgs_ += e.msgs;
    total_bytes_ += e.bytes;
  }
}

void CommGraph::merge_edge(const MobilePtr& src, const MobilePtr& dst,
                           std::uint64_t msgs, std::uint64_t bytes) {
  util::LockGuard g(mu_);
  edges_[{src, dst}].msgs += msgs;
  edges_[{src, dst}].bytes += bytes;
  total_msgs_ += msgs;
  total_bytes_ += bytes;
}

std::vector<CommEdge> CommGraph::edges() const {
  util::LockGuard g(mu_);
  std::vector<CommEdge> out;
  out.reserve(edges_.size());
  for (const auto& [key, cnt] : edges_) {
    out.push_back(CommEdge{key.first, key.second, cnt.msgs, cnt.bytes});
  }
  return out;
}

std::vector<ProcTraffic> CommGraph::proc_traffic() const {
  util::LockGuard g(mu_);
  std::vector<ProcTraffic> out;
  out.reserve(by_proc_.size());
  for (const auto& [proc, cnt] : by_proc_) {
    out.push_back(ProcTraffic{proc, cnt.msgs, cnt.bytes});
  }
  return out;
}

CommGraph::Totals CommGraph::totals() const {
  util::LockGuard g(mu_);
  return Totals{total_msgs_, total_bytes_};
}

}  // namespace prema::mol
