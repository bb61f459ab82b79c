#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace prema::sim {

EventId EventQueue::schedule(SimTime t, std::function<void()> fn) {
  PREMA_CHECK_MSG(t >= 0.0, "event scheduled at negative time");
  PREMA_CHECK_MSG(next_seq_ <= (~EventId{0} >> kSlotBits),
                  "event sequence numbers exhausted");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    PREMA_CHECK_MSG(slots_.size() <= kSlotMask, "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot] = Slot{id, std::move(fn)};
  heap_.push_back(Key{t, id});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_count_;
  return id;
}

void EventQueue::cancel(EventId id) {
  // Only the id occupying its slot is live: fired, cancelled and unknown ids
  // (including ones whose slot has since been reused) are ignored. The key
  // stays in the heap until skim() meets it.
  const std::size_t slot = slot_of(id);
  if (id == kNoEvent || slot >= slots_.size() || slots_[slot].id != id) return;
  slots_[slot] = Slot{};
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  --live_count_;
}

void EventQueue::skim() const {
  while (!heap_.empty() && slots_[slot_of(heap_.front().id)].id != heap_.front().id) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  skim();
  PREMA_CHECK_MSG(!heap_.empty(), "next_time on empty event queue");
  return heap_.front().time;
}

std::pair<SimTime, std::function<void()>> EventQueue::pop() {
  skim();
  PREMA_CHECK_MSG(!heap_.empty(), "pop on empty event queue");
  const Key key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  // Move the callback out before it runs: it may schedule new events, which
  // can reuse this slot or reallocate the table.
  const std::size_t slot = slot_of(key.id);
  std::function<void()> fn = std::move(slots_[slot].fn);
  slots_[slot] = Slot{};
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  --live_count_;
  return {key.time, std::move(fn)};
}

SimTime EventQueue::run_next() {
  auto [time, fn] = pop();
  fn();
  return time;
}

}  // namespace prema::sim
