#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mafic::sim {

namespace {
/// Below this many entries the dead weight is noise; skip compaction.
constexpr std::size_t kCompactionFloor = 64;

struct ItemGreater {
  template <typename T>
  bool operator()(const T& a, const T& b) const noexcept {
    return a > b;
  }
};
}  // namespace

EventId EventQueue::push(SimTime t, EventFn fn) {
  const EventId id = next_id_++;
  heap_.push_back(Item{t, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), ItemGreater{});
  live_.insert(id);
  return id;
}

bool EventQueue::cancel(EventId id) {
  const bool was_live = live_.erase(id) > 0;
  if (was_live) maybe_compact();
  return was_live;
}

void EventQueue::maybe_compact() {
  if (heap_.size() >= kCompactionFloor && heap_.size() > 2 * live_.size()) {
    compact();
  }
}

void EventQueue::compact() {
  std::erase_if(heap_,
                [this](const Item& it) { return !live_.contains(it.id); });
  std::make_heap(heap_.begin(), heap_.end(), ItemGreater{});
  heap_.shrink_to_fit();
  ++compactions_;
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && !live_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
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
  std::pop_heap(heap_.begin(), heap_.end(), ItemGreater{});
  Item& top = heap_.back();
  Popped out{top.time, top.id, std::move(top.fn)};
  live_.erase(top.id);
  heap_.pop_back();
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  heap_.shrink_to_fit();
  live_.clear();
}

}  // namespace mafic::sim
