// Discrete-event queue: (time, sequence) ordered min-heap of closures.
//
// Ties on time break by insertion order so the simulation is deterministic.
//
// Storage is slot-based with a free list: a popped or cancelled event's slot
// is reused by a later push, so memory is bounded by the peak number of
// *live* events rather than the total ever pushed. Event ids are
// generation-tagged (generation << 32 | slot) so a cancel() holding a stale
// id from a previous occupant of the slot is rejected. Heap ordering is by a
// separate monotonic sequence number, which reproduces the old
// ever-increasing-id tie-break exactly — slot reuse cannot perturb event
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/small_fn.h"

namespace stark::sim {

using EventFn = InlineFn;
using EventId = std::uint64_t;

class EventQueue {
 public:
  // Schedules fn at absolute time t; returns an id usable with cancel().
  EventId push(SimTime t, EventFn fn);

  // Cancels a pending event; returns false if already fired or cancelled.
  bool cancel(EventId id);

  bool empty() const noexcept;
  std::size_t size() const noexcept { return live_; }

  // Storage slots currently allocated: live events plus free-listed slots
  // awaiting reuse. Bounded by the peak number of simultaneously pending
  // events, independent of how many events have ever been pushed.
  std::size_t slots_allocated() const noexcept { return slots_.size(); }

  // Time of the earliest pending event. Requires !empty().
  SimTime next_time() const;

  // Pops and returns the earliest pending event. Requires !empty().
  struct Event {
    SimTime time = 0.0;
    EventId id = 0;
    EventFn fn;
  };
  Event pop();

  // Pops the earliest pending event into `out` when it is due strictly
  // before `until`; returns false (leaving the queue untouched) otherwise.
  // The run loop's fused empty() + next_time() + pop(): stale entries are
  // dropped once per event instead of three times.
  bool pop_before(SimTime until, Event& out);

 private:
  // Sentinel occupant sequence for released slots; real sequences count up
  // from zero and cannot reach it.
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  struct Slot {
    EventFn fn;
    std::uint64_t seq = kNoSeq;  // sequence of the current occupant
    std::uint32_t gen = 0;       // bumped every time the slot is released
  };
  struct Item {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    // Greater-than for a min-heap under std::push_heap/pop_heap.
    bool operator<(const Item& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  // A heap entry is stale when its slot has been released since the entry
  // was pushed (the slot's occupant sequence moved on).
  bool stale(const Item& it) const noexcept {
    return slots_[it.slot].seq != it.seq;
  }
  void drop_stale() const;
  void release(std::uint32_t slot);

  // Heap entries for cancelled events are removed lazily (when they surface
  // at the top) or in bulk once they outnumber live ones; both paths are
  // mutation-free from the caller's perspective.
  mutable std::vector<Item> heap_;
  mutable std::size_t stale_in_heap_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace stark::sim
