#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace mafic::sim {

namespace {
constexpr std::uint64_t kNoCandidate = ~0ull;
}

TimerWheel::TimerWheel(SimTime resolution)
    : resolution_(resolution > 0.0 ? resolution : kWheelTick) {
  for (auto& level : heads_) {
    for (auto& head : level) head = kNil;
  }
  std::memset(occupied_, 0, sizeof(occupied_));
}

std::uint64_t TimerWheel::quantize(SimTime t, SimTime resolution) noexcept {
  if (t <= 0.0) return 0;
  const double q = t / resolution;
  auto tick = static_cast<std::uint64_t>(q);
  // Ceiling with a relative tolerance: a time within float fuzz of a tick
  // boundary belongs to that tick, not the next one.
  const double tol = 1e-9 * (q < 1.0 ? 1.0 : q);
  if (static_cast<double>(tick) + tol < q) ++tick;
  return tick;
}

std::uint64_t TimerWheel::tick_for(SimTime t) const {
  // quantize() casts t / resolution to uint64_t: NaN, +inf and quotients
  // of 2^64 or more have no such value.
  if (!(t <= 0.0) && !(t / resolution_ < 0x1p64)) {
    throw std::invalid_argument("TimerWheel: time beyond the tick range");
  }
  return quantize(t, resolution_);
}

std::uint32_t TimerWheel::alloc_node() {
  if (free_.empty()) {
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  return idx;
}

void TimerWheel::release_node(std::uint32_t idx) noexcept {
  Node& n = nodes_[idx];
  n.fn = TimerFn{};
  n.where = kFree;
  n.next = kNil;
  n.prev = kNil;
  free_.push_back(idx);
}

TimerWheel::Node* TimerWheel::resolve(TimerId id) noexcept {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (idx == 0 || idx > nodes_.size()) return nullptr;
  Node& n = nodes_[idx - 1];
  if (n.gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  if (n.where == kFree || n.where == kDead) return nullptr;
  return &n;
}

void TimerWheel::place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  {
    // The cursor may have been peeked ahead (next_time advances it to the
    // then-earliest timer). A target behind the cursor but after the last
    // *fired* tick must rewind the wheel, not get clamped to the far
    // future.
    const std::uint64_t target =
        n.expiry_tick > fired_tick_ ? n.expiry_tick : fired_tick_;
    if (target < cur_tick_) rewind_to(target);
  }
  if (n.expiry_tick <= cur_tick_) {
    // Due immediately: join the tick currently being fired (or open a
    // fire buffer at the cursor). Sequence order keeps this deterministic.
    n.expiry_tick = cur_tick_;
    n.where = kInDue;
    due_.push_back({idx, n.seq});
    return;
  }

  std::uint64_t delta = n.expiry_tick - cur_tick_;
  std::uint64_t effective = n.expiry_tick;
  int level = 0;
  while (level < kLevels - 1 && delta >= (1ull << (kSlotBits * (level + 1)))) {
    ++level;
  }
  if (delta > 0xffffffffull) {
    // Beyond the wheel horizon: park in the farthest level-3 slot; the
    // node re-cascades (keeping its true expiry) as the cursor closes in.
    effective = cur_tick_ + 0xffffffffull;
  }
  const auto slot = static_cast<std::uint32_t>(
      (effective >> (kSlotBits * level)) & (kSlotsPerLevel - 1));

  n.where = static_cast<std::uint8_t>(kInLevel0 + level);
  n.slot = slot;
  n.prev = kNil;
  n.next = heads_[level][slot];
  if (n.next != kNil) nodes_[n.next].prev = idx;
  heads_[level][slot] = idx;
  occupied_[level][slot >> 6] |= 1ull << (slot & 63);
}

void TimerWheel::unlink(std::uint32_t idx) noexcept {
  Node& n = nodes_[idx];
  assert(n.where < kInDue);
  const int level = n.where - kInLevel0;
  const std::uint32_t slot = n.slot;
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    assert(heads_[level][slot] == idx);
    heads_[level][slot] = n.next;
  }
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
  if (heads_[level][slot] == kNil) {
    occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
  }
  n.next = kNil;
  n.prev = kNil;
}

TimerId TimerWheel::schedule_at(SimTime t, TimerFn fn) {
  const std::uint64_t tick = tick_for(t);
  const std::uint32_t idx = alloc_node();
  Node& n = nodes_[idx];
  n.fn = std::move(fn);
  n.expiry_tick = tick;
  n.seq = next_seq_++;
  place(idx);
  ++size_;
  return (static_cast<TimerId>(n.gen) << 32) | (idx + 1);
}

bool TimerWheel::cancel(TimerId id) {
  Node* n = resolve(id);
  if (n == nullptr) return false;
  ++n->gen;
  --size_;
  if (n->where == kInDue) {
    // Referenced by the due buffer: mark dead, recycled when it drains.
    n->fn = TimerFn{};
    n->where = kDead;
    return true;
  }
  unlink(static_cast<std::uint32_t>(n - nodes_.data()));
  release_node(static_cast<std::uint32_t>(n - nodes_.data()));
  return true;
}

bool TimerWheel::reschedule(TimerId id, SimTime t) {
  const std::uint64_t tick = tick_for(t);
  Node* n = resolve(id);
  if (n == nullptr) return false;
  const auto idx = static_cast<std::uint32_t>(n - nodes_.data());
  if (n->where == kInDue) {
    // Same tick (or committed past): it fires this batch either way.
    const std::uint64_t target = tick > fired_tick_ ? tick : fired_tick_;
    if (target >= cur_tick_ && tick <= cur_tick_) return true;
    // Move out of the due buffer; the stale buffer entry is recognized by
    // its outdated sequence number and skipped.
    n->expiry_tick = tick;
    n->seq = next_seq_++;
    place(idx);
    return true;
  }
  unlink(idx);
  n->expiry_tick = tick;
  n->seq = next_seq_++;
  place(idx);
  return true;
}

void TimerWheel::prime_due() noexcept {
  while (due_pos_ < due_.size()) {
    const DueEntry entry = due_[due_pos_];
    Node& n = nodes_[entry.idx];
    if (n.seq == entry.seq) {
      if (n.where == kInDue) return;  // live head
      if (n.where == kDead) release_node(entry.idx);
    }
    // Stale entry: the node was cancelled, rescheduled away, or recycled.
    ++due_pos_;
  }
  due_.clear();
  due_pos_ = 0;
}

int TimerWheel::next_occupied_distance(int level,
                                       std::uint32_t from) const noexcept {
  const std::uint64_t* bm = occupied_[level];
  const std::uint32_t w0 = from >> 6;
  const std::uint32_t bit = from & 63;
  std::uint64_t word = bm[w0] & (~0ull << bit);
  if (word != 0) {
    return static_cast<int>(
        (((w0 << 6) + std::countr_zero(word) - from)) & 0xff);
  }
  for (std::uint32_t k = 1; k <= 3; ++k) {
    const std::uint32_t w = (w0 + k) & 3;
    if (bm[w] != 0) {
      return static_cast<int>(
        (((w << 6) + std::countr_zero(bm[w])) - from) & 0xff);
    }
  }
  word = bit == 0 ? 0 : (bm[w0] & ~(~0ull << bit));
  if (word != 0) {
    return static_cast<int>(
        (((w0 << 6) + std::countr_zero(word)) - from) & 0xff);
  }
  return -1;
}

void TimerWheel::rewind_to(std::uint64_t tick) {
  assert(tick >= fired_tick_);
  // Gather every armed node: slot lists plus the unfired due buffer.
  // (The due buffer cannot be partially fired here: firing commits the
  // cursor via fired_tick_, and rewind targets never go behind it.)
  std::vector<std::uint32_t> armed;
  armed.reserve(size_);
  for (int level = 0; level < kLevels; ++level) {
    for (std::uint32_t slot = 0; slot < kSlotsPerLevel; ++slot) {
      std::uint32_t idx = heads_[level][slot];
      heads_[level][slot] = kNil;
      while (idx != kNil) {
        const std::uint32_t next = nodes_[idx].next;
        nodes_[idx].next = kNil;
        nodes_[idx].prev = kNil;
        armed.push_back(idx);
        idx = next;
      }
    }
  }
  std::memset(occupied_, 0, sizeof(occupied_));
  for (std::size_t i = due_pos_; i < due_.size(); ++i) {
    const DueEntry entry = due_[i];
    Node& n = nodes_[entry.idx];
    if (n.seq != entry.seq) continue;  // stale (rescheduled away/recycled)
    if (n.where == kDead) {
      release_node(entry.idx);
      continue;
    }
    if (n.where == kInDue) armed.push_back(entry.idx);
  }
  due_.clear();
  due_pos_ = 0;

  cur_tick_ = tick;
  for (const std::uint32_t idx : armed) place(idx);
}

void TimerWheel::cascade(int level, std::uint32_t slot) {
  std::uint32_t idx = heads_[level][slot];
  heads_[level][slot] = kNil;
  occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
  while (idx != kNil) {
    const std::uint32_t next = nodes_[idx].next;
    nodes_[idx].next = kNil;
    nodes_[idx].prev = kNil;
    place(idx);  // re-place relative to the advanced cursor
    idx = next;
  }
}

void TimerWheel::collect_next_tick() {
  assert(due_.empty());
  for (;;) {
    const auto cur0 = static_cast<std::uint32_t>(cur_tick_ & 0xff);
    const int d0 = next_occupied_distance(0, cur0);
    // Candidate fire tick: the nearest armed level-0 slot — or the cursor
    // itself when an earlier cascade already landed same-tick nodes in
    // the due buffer.
    std::uint64_t candidate =
        d0 < 0 ? kNoCandidate : cur_tick_ + static_cast<std::uint64_t>(d0);
    if (!due_.empty() && cur_tick_ < candidate) candidate = cur_tick_;

    // The next higher-level window boundary at or before the candidate:
    // cascading it may reveal timers that fire sooner (or tie). A
    // distance-0 boundary is legitimate right after a jump that crossed
    // several levels' windows at once.
    int cascade_level = -1;
    std::uint64_t cascade_start = candidate;
    for (int level = 1; level < kLevels; ++level) {
      const int shift = kSlotBits * level;
      const auto curl =
          static_cast<std::uint32_t>((cur_tick_ >> shift) & 0xff);
      const int dl = next_occupied_distance(level, curl);
      if (dl < 0) continue;
      const std::uint64_t start =
          ((cur_tick_ >> shift) + static_cast<std::uint64_t>(dl)) << shift;
      if (start <= cascade_start) {  // ties go to the highest level
        cascade_start = start;
        cascade_level = level;
      }
    }

    if (cascade_level >= 0) {
      cur_tick_ = cascade_start;  // never moves backwards
      const int shift = kSlotBits * cascade_level;
      cascade(cascade_level, static_cast<std::uint32_t>(
                                 (cascade_start >> shift) & 0xff));
      continue;
    }

    // No cascade can affect the candidate tick anymore: advance and merge
    // the candidate's level-0 slot (if armed) into the due buffer, then
    // establish schedule order across both arrival paths.
    assert(candidate != kNoCandidate &&
           "collect_next_tick on an empty wheel");
    cur_tick_ = candidate;
    const auto slot = static_cast<std::uint32_t>(candidate & 0xff);
    if ((occupied_[0][slot >> 6] >> (slot & 63)) & 1) {
      // A level-0 slot holds exactly one tick's nodes: indices equal mod
      // 256 within a 256-tick placement horizon collapse to equality.
      std::uint32_t idx = heads_[0][slot];
      if (nodes_[idx].expiry_tick == candidate) {
        heads_[0][slot] = kNil;
        occupied_[0][slot >> 6] &= ~(1ull << (slot & 63));
        while (idx != kNil) {
          Node& n = nodes_[idx];
          assert(n.expiry_tick == cur_tick_);
          n.where = kInDue;
          due_.push_back({idx, n.seq});
          const std::uint32_t next = n.next;
          n.next = kNil;
          n.prev = kNil;
          idx = next;
        }
      }
    }
    std::sort(due_.begin(), due_.end(),
              [](const DueEntry& a, const DueEntry& b) {
                return a.seq < b.seq;
              });
    assert(!due_.empty());
    return;
  }
}

SimTime TimerWheel::next_time() {
  prime_due();
  if (due_.empty()) {
    assert(size_ > 0 && "next_time on an empty wheel");
    collect_next_tick();
    prime_due();
  }
  return time_of(cur_tick_);
}

TimerWheel::Popped TimerWheel::pop() {
  prime_due();
  if (due_.empty()) {
    assert(size_ > 0 && "pop on an empty wheel");
    collect_next_tick();
    prime_due();
  }
  assert(due_pos_ < due_.size());
  fired_tick_ = cur_tick_;  // commits the cursor: no rewind behind this
  const DueEntry entry = due_[due_pos_++];
  Node& n = nodes_[entry.idx];
  Popped out{time_of(cur_tick_),
             (static_cast<TimerId>(n.gen) << 32) | (entry.idx + 1),
             std::move(n.fn)};
  ++n.gen;
  n.where = kDead;
  release_node(entry.idx);
  --size_;
  return out;
}

void TimerWheel::clear() {
  free_.clear();
  for (std::size_t i = nodes_.size(); i > 0; --i) {
    Node& n = nodes_[i - 1];
    n.fn = TimerFn{};
    ++n.gen;  // preserved (not reset) so stale ids keep failing to resolve
    n.next = kNil;
    n.prev = kNil;
    n.where = kFree;
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  for (auto& level : heads_) {
    for (auto& head : level) head = kNil;
  }
  std::memset(occupied_, 0, sizeof(occupied_));
  due_.clear();
  due_pos_ = 0;
  size_ = 0;
}

}  // namespace mafic::sim
