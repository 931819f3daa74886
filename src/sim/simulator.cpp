#include "sim/simulator.hpp"

#include "sim/connector.hpp"

namespace mafic::sim {

SimTime Simulator::next_event_time() {
  if (queue_.empty()) return wheel_.next_time();
  if (wheel_.empty()) return queue_.next_time();
  const SimTime tq = queue_.next_time();
  const SimTime tw = wheel_.next_time();
  return tq <= tw ? tq : tw;
}

void Simulator::step() {
  // Queue events win ties so exact-time events (packet arrivals) precede
  // quantized timers that landed on the same instant.
  const bool from_queue =
      !queue_.empty() &&
      (wheel_.empty() || queue_.next_time() <= wheel_.next_time());
  if (from_queue) {
    auto ev = queue_.pop();
    if (ev.time > now_) now_ = ev.time;
    if (ev.to != nullptr) {
      ev.to->recv(std::move(ev.packet));
    } else {
      ev.fn();
    }
  } else {
    auto timer = wheel_.pop();
    if (timer.time > now_) now_ = timer.time;
    timer.fn();
  }
}

std::size_t Simulator::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && pending()) {
    step();
    ++n;
  }
  processed_ += n;
  return n;
}

std::size_t Simulator::run_until(SimTime t) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && pending() && next_event_time() <= t) {
    step();
    ++n;
  }
  if (!stopped_ && now_ < t) now_ = t;
  processed_ += n;
  return n;
}

}  // namespace mafic::sim
