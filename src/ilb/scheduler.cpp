#include "ilb/scheduler.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace prema::ilb {

void Scheduler::enqueue(mol::Delivery&& d) {
  auto [it, inserted] = per_object_.try_emplace(d.target);
  ObjectQueue& q = it->second;
  const bool was_empty = q.empty();
  if (!was_empty) {
    // Delivery numbers are assigned at first acceptance and preserved across
    // migrations, so within an object they must arrive monotonically.
    PREMA_CHECK_MSG(q.items.back().delivery_no < d.delivery_no,
                    "out-of-order delivery reached the scheduler");
  }
  ++total_units_;
  total_weight_ += d.weight;
  q.items.push_back(std::move(d));
  if (was_empty) ready_.push_back(it->first);
}

std::optional<mol::Delivery> Scheduler::pick() {
  PREMA_CHECK_MSG(!executing_, "pick() while a unit is executing");
  if (ready_.empty()) return std::nullopt;
  const mol::MobilePtr ptr = ready_.front();
  ready_.pop_front();
  auto it = per_object_.find(ptr);
  PREMA_CHECK(it != per_object_.end() && !it->second.empty());
  ObjectQueue& q = it->second;
  mol::Delivery d = std::move(q.items[q.head++]);
  --total_units_;
  total_weight_ -= d.weight;
  settle_weight();
  if (q.empty()) {
    q.items.clear();
    q.head = 0;
  } else {
    if (2 * q.head > q.items.size()) {
      q.items.erase(q.items.begin(), q.items.begin() + static_cast<std::ptrdiff_t>(q.head));
      q.head = 0;
    }
    ready_.push_back(ptr);  // round-robin across objects
  }
  executing_ = true;
  executing_ptr_ = ptr;
  return d;
}

void Scheduler::complete() {
  PREMA_CHECK_MSG(executing_, "complete() without a picked unit");
  executing_ = false;
  executing_ptr_ = mol::kNullMobilePtr;
}

std::vector<mol::Delivery> Scheduler::take_queued(const mol::MobilePtr& ptr) {
  PREMA_CHECK_MSG(!(executing_ && executing_ptr_ == ptr),
                  "cannot take the executing object's queue");
  auto it = per_object_.find(ptr);
  if (it == per_object_.end()) return {};
  ObjectQueue& q = it->second;
  q.items.erase(q.items.begin(), q.items.begin() + static_cast<std::ptrdiff_t>(q.head));
  std::vector<mol::Delivery> out = std::move(q.items);
  per_object_.erase(it);  // the object is leaving this processor
  if (out.empty()) return out;
  for (const auto& d : out) {
    --total_units_;
    total_weight_ -= d.weight;
  }
  settle_weight();
  ready_.erase(std::remove(ready_.begin(), ready_.end(), ptr), ready_.end());
  return out;
}

double Scheduler::queued_weight_of(const ObjectQueue& q) {
  double weight = 0.0;
  for (std::size_t i = q.head; i < q.items.size(); ++i) weight += q.items[i].weight;
  return weight;
}

double Scheduler::migratable_weight(const mol::MobilePtr& ptr) const {
  if (executing_ && ptr == executing_ptr_) return 0.0;
  const auto it = per_object_.find(ptr);
  if (it == per_object_.end()) return 0.0;
  const double weight = queued_weight_of(it->second);
  return weight <= 0.0 ? 0.0 : weight;  // as migratable_loads() filters
}

std::vector<Scheduler::ObjectLoad> Scheduler::migratable_loads() const {
  std::vector<ObjectLoad> out;
  out.reserve(ready_.size());
  for (const mol::MobilePtr& ptr : ready_) {
    if (executing_ && ptr == executing_ptr_) continue;
    const ObjectQueue& q = per_object_.find(ptr)->second;
    ObjectLoad l;
    l.ptr = ptr;
    l.units = q.size();
    l.weight = queued_weight_of(q);
    // Zero-weight queues (pure control messages, e.g. a coordinator object)
    // carry no movable load; migrating them helps nobody.
    if (l.weight <= 0.0) continue;
    out.push_back(l);
  }
  // ready_ is in round-robin order; sort into the (weight desc, ptr asc)
  // total order policies rely on.
  std::sort(out.begin(), out.end(), [](const ObjectLoad& a, const ObjectLoad& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.ptr < b.ptr;
  });
  return out;
}

}  // namespace prema::ilb
