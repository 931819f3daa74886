#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mafic::sim {

namespace {
/// Below this many entries the dead weight is noise; skip compaction.
constexpr std::size_t kCompactionFloor = 64;

/// Heap order for std::*_heap: the earliest (time, id) ends up on top.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};
}  // namespace

EventId EventQueue::push(SimTime t, EventFn fn) {
  if (std::isnan(t)) throw std::invalid_argument("EventQueue: NaN time");
  // The push counter fills the id's upper 64 - kSlotBits bits.
  if ((next_seq_ >> (64 - kSlotBits)) != 0) {
    throw std::overflow_error("EventQueue: event ids exhausted");
  }
  std::size_t slot = slots_.size();
  if (free_.empty()) {
    if (slot > kSlotMask) {
      throw std::length_error("EventQueue: too many concurrent events");
    }
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  heap_.push_back(Entry{t, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  const std::size_t slot = id & kSlotMask;
  if (id == kInvalidEvent || slot >= slots_.size() || !live(id)) return false;
  // Destroyed after the slot is released, so a destructor that schedules
  // finds the queue consistent.
  const EventFn doomed = std::move(slots_[slot].fn);
  release(slot);
  maybe_compact();
  return true;
}

void EventQueue::release(std::size_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

void EventQueue::maybe_compact() {
  if (heap_.size() >= kCompactionFloor && heap_.size() > 2 * live_) {
    compact();
  }
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !live(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  heap_.shrink_to_fit();
  ++compactions_;
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && !live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  drop_dead_head();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  drop_dead_head();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  // Move the callable out before the slot is released: running it may
  // schedule new events, which can reuse the slot or grow the slab.
  const std::size_t slot = top.id & kSlotMask;
  Popped out{top.time, top.id, std::move(slots_[slot].fn)};
  release(slot);
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  heap_.shrink_to_fit();
  slots_.clear();
  slots_.shrink_to_fit();
  free_.clear();
  free_.shrink_to_fit();
  live_ = 0;
  // next_seq_ keeps running: an id issued before clear() can never match
  // a later event's, even one that lands in the same slot.
}

}  // namespace mafic::sim
