#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mafic::sim {

namespace {
/// Below this many entries the dead weight is noise; skip compaction.
constexpr std::size_t kCompactionFloor = 64;

/// A new lane's ring holds this many hand-offs before its first growth.
constexpr std::size_t kInitialRing = 8;

/// Heap order for std::*_heap: the earliest (time, id) ends up on top.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};
}  // namespace

EventQueue::~EventQueue() { drop_hand_offs(); }

void EventQueue::check_ids_left() const {
  // The push counter fills the id's upper 64 - kSlotBits bits.
  if ((next_seq_ >> (64 - kSlotBits)) != 0) {
    throw std::overflow_error("EventQueue: event ids exhausted");
  }
}

EventId EventQueue::push(SimTime t, EventFn fn) {
  if (std::isnan(t)) throw std::invalid_argument("EventQueue: NaN time");
  check_ids_left();
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

LaneId EventQueue::lane(SimTime delay) {
  if (std::isnan(delay)) throw std::invalid_argument("EventQueue: NaN delay");
  const auto bits = std::bit_cast<std::uint64_t>(delay);
  if (const auto it = lane_of_.find(bits); it != lane_of_.end()) {
    return it->second;
  }
  if (lanes_.size() > kSlotMask) {
    throw std::length_error("EventQueue: too many lanes");
  }
  const auto id = static_cast<LaneId>(lanes_.size());
  // The lane heap holds every lane at once when all are non-empty; size it
  // first so a failed allocation leaves no lane without a heap entry.
  lane_heap_.resize(lanes_.size() + 1);
  lanes_.push_back(Lane{delay, {}, 0, 0});
  lane_of_.emplace(bits, id);
  return id;
}

// maficlint: hot
EventId EventQueue::push_hand_off(LaneId lane, SimTime now, Connector* to,
                                  PacketPtr p) {
  assert(lane < lanes_.size() && to != nullptr && p != nullptr);
  check_ids_left();
  Lane& l = lanes_[lane];
  const SimTime t = l.delay <= 0 ? now : now + l.delay;
  if (l.count == l.ring.size()) grow(l);
  const std::size_t mask = l.ring.size() - 1;
  // The lane stays sorted only if its times never go back.
  assert(l.count == 0 || l.ring[(l.head + l.count - 1) & mask].time <= t);
  const EventId id = (next_seq_++ << kSlotBits) | lane;
  l.ring[(l.head + l.count) & mask] = HandOff{t, id, to, p.release()};
  if (l.count++ == 0) {
    lane_heap_[lane_heap_size_] = Entry{t, id};
    lane_heap_sift_up(lane_heap_size_++);
  }
  ++hand_offs_;
  return id;
}

void EventQueue::grow(Lane& l) {
  const std::size_t cap = l.ring.size();
  std::vector<HandOff> bigger(cap == 0 ? kInitialRing : 2 * cap);
  for (std::size_t i = 0; i < l.count; ++i) {
    bigger[i] = l.ring[(l.head + i) & (cap - 1)];
  }
  l.ring = std::move(bigger);
  l.head = 0;
}

void EventQueue::lane_heap_sift_up(std::size_t i) {
  const Entry e = lane_heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Later{}(lane_heap_[parent], e)) break;
    lane_heap_[i] = lane_heap_[parent];
    i = parent;
  }
  lane_heap_[i] = e;
}

void EventQueue::lane_heap_sift_down(std::size_t i) {
  const std::size_t n = lane_heap_size_;
  const Entry e = lane_heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Later{}(lane_heap_[child], lane_heap_[child + 1])) {
      ++child;
    }
    if (!Later{}(e, lane_heap_[child])) break;
    lane_heap_[i] = lane_heap_[child];
    i = child;
  }
  lane_heap_[i] = e;
}

// maficlint: hot
EventQueue::HandOff EventQueue::pop_hand_off() {
  assert(lane_heap_size_ > 0);
  Lane& l = lanes_[lane_heap_[0].id & kSlotMask];
  const HandOff h = l.ring[l.head];
  l.head = (l.head + 1) & (l.ring.size() - 1);
  // Re-key the lane heap in one sift-down: the lane's next head replaces
  // it on top, or the last lane does when this one ran empty.
  if (--l.count != 0) {
    const HandOff& next = l.ring[l.head];
    lane_heap_[0] = Entry{next.time, next.id};
  } else {
    lane_heap_[0] = lane_heap_[--lane_heap_size_];
  }
  lane_heap_sift_down(0);
  --hand_offs_;
  return h;
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

bool EventQueue::hand_off_next() {
  drop_dead_head();
  if (lane_heap_size_ == 0) return false;
  return heap_.empty() || Later{}(heap_.front(), lane_heap_[0]);
}

SimTime EventQueue::next_time() {
  assert(!empty());
  return hand_off_next() ? lane_heap_[0].time : heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  assert(!empty());
  if (hand_off_next()) {
    const HandOff h = pop_hand_off();
    return Popped{h.time, h.id, {}, h.to, PacketPtr(h.packet)};
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  // Move the callable out before the slot is released: running it may
  // schedule new events, which can reuse the slot or grow the slab.
  const std::size_t slot = top.id & kSlotMask;
  Popped out{top.time, top.id, std::move(slots_[slot].fn), nullptr, nullptr};
  release(slot);
  return out;
}

void EventQueue::drop_hand_offs() {
  for (Lane& l : lanes_) {
    for (std::size_t i = 0; i < l.count; ++i) {
      delete l.ring[(l.head + i) & (l.ring.size() - 1)].packet;
    }
    l.ring.clear();
    l.ring.shrink_to_fit();
    l.head = 0;
    l.count = 0;
  }
  lane_heap_size_ = 0;
  hand_offs_ = 0;
}

void EventQueue::clear() {
  heap_.clear();
  heap_.shrink_to_fit();
  slots_.clear();
  slots_.shrink_to_fit();
  free_.clear();
  free_.shrink_to_fit();
  live_ = 0;
  drop_hand_offs();
  // next_seq_ keeps running: an id issued before clear() can never match
  // a later event's, even one that lands in the same slot.
}

}  // namespace mafic::sim
