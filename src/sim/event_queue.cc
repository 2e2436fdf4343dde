#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace stark::sim {

EventId EventQueue::push(SimTime t, EventFn fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  const std::uint64_t seq = next_seq_++;
  s.fn = std::move(fn);
  s.seq = seq;
  heap_.push_back({t, seq, slot});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_;
  return make_id(slot, s.gen);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.seq = kNoSeq;  // any heap entry still pointing here is now stale
  ++s.gen;
  free_.push_back(slot);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.fn) return false;
  release(slot);
  ++stale_in_heap_;
  // Cancelled entries linger in the heap until they surface at the top.
  // Once they outnumber live entries, filter and re-heapify: pop order is
  // unaffected because (time, seq) is a strict total order, so any valid
  // heap over the same live items drains identically.
  if (stale_in_heap_ > live_ + 64) {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Item& it) { return stale(it); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end());
    stale_in_heap_ = 0;
  }
  return true;
}

void EventQueue::drop_stale() const {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    --stale_in_heap_;
  }
}

bool EventQueue::empty() const noexcept {
  drop_stale();
  return heap_.empty();
}

SimTime EventQueue::next_time() const {
  drop_stale();
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
  return heap_.front().time;
}

EventQueue::Event EventQueue::pop() {
  Event ev;
  if (!pop_before(std::numeric_limits<SimTime>::infinity(), ev)) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  return ev;
}

bool EventQueue::pop_before(SimTime until, Event& out) {
  drop_stale();
  if (heap_.empty() || !(heap_.front().time < until)) return false;
  std::pop_heap(heap_.begin(), heap_.end());
  const Item item = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[item.slot];
  out.time = item.time;
  out.id = make_id(item.slot, s.gen);
  out.fn = std::move(s.fn);
  release(item.slot);
  return true;
}

}  // namespace stark::sim
