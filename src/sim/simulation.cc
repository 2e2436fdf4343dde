#include "sim/simulation.h"

#include <stdexcept>
#include <utility>

namespace stark::sim {

EventId Simulation::after(SimTime delay, EventFn fn) {
  if (delay < 0.0) throw std::invalid_argument("Simulation::after: negative delay");
  return queue_.push(now_ + delay, std::move(fn));
}

EventId Simulation::at(SimTime t, EventFn fn) {
  return queue_.push(t < now_ ? now_ : t, std::move(fn));
}

std::size_t Simulation::run(SimTime until) {
  std::size_t n = 0;
  EventQueue::Event ev;
  while (queue_.pop_before(until, ev)) {
    now_ = ev.time;
    ev.fn();
    ++n;
    ++executed_;
  }
  if (until != std::numeric_limits<SimTime>::infinity() && now_ < until) {
    now_ = until;
  }
  return n;
}

bool Simulation::run_until(const std::function<bool()>& pred) {
  if (pred()) return true;
  EventQueue::Event ev;
  while (queue_.pop_before(std::numeric_limits<SimTime>::infinity(), ev)) {
    now_ = ev.time;
    ev.fn();
    ++executed_;
    if (pred()) return true;
  }
  return false;
}

}  // namespace stark::sim
