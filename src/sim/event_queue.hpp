#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.hpp"

/// \file event_queue.hpp
/// Deterministic pending-event set. Events firing at equal times are ordered
/// by insertion sequence number, so a run is a pure function of the seed and
/// the program — the property every experiment in EXPERIMENTS.md relies on.
///
/// Layout: callbacks live in a slot table recycled through a free list; the
/// heap holds only 16-byte (time, id) keys. An id carries its slot in the low
/// kSlotBits and the insertion sequence above them, so ordering keys by
/// (time, id) is ordering by (time, sequence). Cancelling frees the slot at
/// once and leaves a stale key behind, recognised on reaching the top because
/// its slot no longer holds its id.

namespace prema::sim {

/// Handle that can be used to cancel a scheduled event.
using EventId = std::uint64_t;

inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  /// Schedule `fn` to fire at absolute time `t`. Returns a cancellation id.
  EventId schedule(SimTime t, std::function<void()> fn);

  /// Cancel a scheduled event. Cancelling an already-fired, already-cancelled
  /// or unknown id is allowed and does nothing.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; only valid when !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Pop and run the earliest live event, returning its time.
  SimTime run_next();

  /// Pop the earliest live event without running it. Lets the caller update
  /// its notion of "now" before firing the callback.
  std::pair<SimTime, std::function<void()>> pop();

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Key {
    SimTime time;
    EventId id;
    /// Heap comparator (std heaps are max-heaps): "fires later than".
    bool operator>(const Key& o) const {
      if (time != o.time) return time > o.time;
      return id > o.id;
    }
  };

  struct Slot {
    EventId id = kNoEvent;  ///< the live event occupying it, or kNoEvent
    std::function<void()> fn;
  };

  static std::size_t slot_of(EventId id) {
    return static_cast<std::size_t>(id & kSlotMask);
  }

  /// Pop stale keys off the top so the head is a live event.
  void skim() const;

  mutable std::vector<Key> heap_;  ///< binary min-heap on (time, id)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  EventId next_seq_ = 1;  ///< starts at 1, so no id equals kNoEvent
};

}  // namespace prema::sim
