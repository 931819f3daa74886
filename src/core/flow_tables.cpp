#include "core/flow_tables.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "sim/timer_wheel.hpp"

namespace mafic::core {

namespace {
/// Initial bucket count of each eviction ring. Buckets are one wheel tick
/// wide; a ring doubles on demand (up to kMaxRingBuckets) when its live
/// probation deadlines span more ticks. 512 covers the widest paper
/// window (2 x max_rtt) with headroom.
constexpr std::size_t kRingBuckets = 512;

/// Ring growth ceiling. Beyond this span (65536 ticks = ~33 s at the
/// wheel tick) far-future deadlines clamp into the last bucket —
/// eviction order among them degrades to FIFO, which only an absurdly
/// configured window can reach.
constexpr std::size_t kMaxRingBuckets = 1u << 16;

std::size_t pow2_at_least(std::size_t n) noexcept {
  return std::max<std::size_t>(64, std::bit_ceil(n));
}
}  // namespace

const char* to_string(TableKind k) noexcept {
  switch (k) {
    case TableKind::kNone:
      return "none";
    case TableKind::kSuspicious:
      return "SFT";
    case TableKind::kNice:
      return "NFT";
    case TableKind::kPermanentDrop:
      return "PDT";
  }
  return "?";
}

const char* to_string(EvictCause c) noexcept {
  switch (c) {
    case EvictCause::kCapacity:
      return "capacity";
    case EvictCause::kQuota:
      return "quota";
    case EvictCause::kFlush:
      return "flush";
  }
  return "?";
}

FlowTables::FlowTables(const MaficConfig& cfg)
    : cfg_(cfg),
      store_(cfg.sft_capacity + cfg.nft_capacity + cfg.pdt_capacity,
             kFlowStoreMaxLoad) {
  validate(cfg);
  ring_reset(ring0_);
  class_quota_.assign(1, 0);
}

void FlowTables::ring_reset(Ring& r) {
  const std::size_t buckets = pow2_at_least(kRingBuckets);
  r.head.assign(buckets, kNoSlot);
  r.tail.assign(buckets, kNoSlot);
  r.occ.assign(buckets / 64, 0);
  r.cursor = 0;
  r.live = 0;
}

std::uint32_t FlowTables::class_of(util::Addr dst) const noexcept {
  if (class_victims_.empty()) return 0;
  const auto it =
      std::lower_bound(class_victims_.begin(), class_victims_.end(), dst);
  if (it != class_victims_.end() && *it == dst) {
    return static_cast<std::uint32_t>(it - class_victims_.begin());
  }
  return 0;  // unregistered destinations share the first class
}

void FlowTables::set_victim_classes(const std::vector<util::Addr>& victims) {
  set_victim_classes(victims, {});
}

void FlowTables::set_victim_classes(const std::vector<util::Addr>& victims,
                                    const std::vector<double>& weights) {
  // Sort victims and weights together so class indices are deterministic
  // regardless of caller order; duplicates keep their first weight.
  std::vector<std::pair<util::Addr, double>> paired;
  paired.reserve(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const double w = i < weights.size() ? std::max(0.0, weights[i]) : 1.0;
    paired.emplace_back(victims[i], w);
  }
  std::stable_sort(paired.begin(), paired.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  paired.erase(std::unique(paired.begin(), paired.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               paired.end());
  if (cfg_.sft_victim_quota <= 0.0 || paired.size() < 2) paired.clear();

  std::vector<util::Addr> sorted;
  std::vector<double> w_sorted;
  double w_sum = 0.0;
  sorted.reserve(paired.size());
  w_sorted.reserve(paired.size());
  for (const auto& [addr, w] : paired) {
    sorted.push_back(addr);
    w_sorted.push_back(w);
    w_sum += w;
  }
  // All-zero (or absent) weights mean "no preference": equal split.
  if (!(w_sum > 0.0) || weights.empty()) w_sorted.clear();

  if (sorted == class_victims_ && w_sorted == class_weights_) {
    return;  // repeated activate: no-op
  }

  class_victims_ = std::move(sorted);
  class_weights_ = std::move(w_sorted);
  const std::size_t n = std::max<std::size_t>(1, class_victims_.size());
  ring_reset(ring0_);
  extra_rings_.resize(n - 1);
  for (Ring& r : extra_rings_) ring_reset(r);
  class_quota_.assign(n, 0);
  if (n > 1) {
    // Clamped to the table in floating point before the cast, which a
    // quota past 2^64 (1e30, +inf) would make undefined. The sum clamp
    // below caps every quota at sft_capacity / n anyway, so no finite
    // quota reserves differently.
    const double cap = static_cast<double>(cfg_.sft_capacity);
    const double want = cfg_.sft_victim_quota <= 1.0
                            ? cfg_.sft_victim_quota * cap
                            : cfg_.sft_victim_quota;
    std::size_t quota = static_cast<std::size_t>(std::min(want, cap));
    // Summed reservations must fit in the table, or an under-quota victim
    // could find nobody over quota to reclaim from and fall back to
    // evicting another under-quota victim — the bug quotas exist to fix.
    quota = std::min(quota, cfg_.sft_capacity / n);
    class_quota_.assign(n, quota);
    if (!class_weights_.empty()) {
      // Weighted reservations: split the same total pool the equal path
      // would reserve, proportionally to the weights. floor() keeps the
      // summed reservations <= pool <= sft_capacity.
      const std::size_t pool =
          std::min(quota * n, cfg_.sft_capacity);
      for (std::size_t c = 0; c < n; ++c) {
        class_quota_[c] = static_cast<std::size_t>(
            static_cast<double>(pool) * class_weights_[c] / w_sum);
      }
    }
  }

  // Re-ring every live probation under the new classes (activation can
  // extend the victim set while probations are in flight) in ascending
  // deadline order: the first insert into an empty ring seeds its
  // cursor, and any earlier-deadline entry inserted after it would clamp
  // up to that cursor — flattening deadline order into arena order and
  // breaking nearest-deadline eviction.
  std::fill(ring_next_.begin(), ring_next_.end(), kNoSlot);
  std::fill(ring_prev_.begin(), ring_prev_.end(), kNoSlot);
  std::vector<std::uint32_t> live;
  for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
    if (arena_live_[slot] != 0) live.push_back(slot);
  }
  std::sort(live.begin(), live.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (arena_[a].deadline != arena_[b].deadline) {
                return arena_[a].deadline < arena_[b].deadline;
              }
              return a < b;
            });
  for (const std::uint32_t slot : live) {
    const std::uint32_t cls = class_of(arena_[slot].label.dst);
    ring_insert(ring_at(cls), cls, slot, arena_[slot].deadline);
  }
}

std::size_t FlowTables::sft_size_of(util::Addr victim) const noexcept {
  return ring_at(class_of(victim)).live;
}

std::size_t FlowTables::ring_occupancy() const noexcept {
  std::size_t n = ring0_.live;
  for (const Ring& r : extra_rings_) n += r.live;
  return n;
}

TableKind FlowTables::classify(std::uint64_t key, double now) {
  FlowRecord* r = store_.find(key);
  if (r == nullptr) return TableKind::kNone;
  if (r->kind == TableKind::kNice && now > r->nft_expiry) {
    store_.erase(key);  // revalidation: niceness has expired
    --nft_count_;
    ++epoch_;
    ++stats_.nft_expirations;
    return TableKind::kNone;
  }
  return r->kind;
}

SftEntry* FlowTables::find_sft(std::uint64_t key) noexcept {
  FlowRecord* r = store_.find(key);
  if (r == nullptr || r->kind != TableKind::kSuspicious) return nullptr;
  return &arena_[r->sft_slot];
}

std::uint32_t FlowTables::alloc_arena_slot() {
  if (arena_free_.empty()) {
    // Grow the arena geometrically up to the configured bound; entry
    // pointers are only valid until the next admit, so relocation is safe.
    const std::size_t old = arena_.size();
    std::size_t grown = old == 0 ? 16 : old * 2;
    if (grown > cfg_.sft_capacity) grown = cfg_.sft_capacity;
    assert(grown > old && "arena grown past sft_capacity");
    arena_.resize(grown);
    arena_live_.resize(grown, 0);
    ring_next_.resize(grown, kNoSlot);
    ring_prev_.resize(grown, kNoSlot);
    slot_tick_.resize(grown, 0);
    slot_class_.resize(grown, 0);
    for (std::size_t i = grown; i > old; --i) {
      arena_free_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }
  const std::uint32_t slot = arena_free_.back();
  arena_free_.pop_back();
  arena_live_[slot] = 1;
  return slot;
}

void FlowTables::free_arena_slot(std::uint32_t slot) noexcept {
  arena_live_[slot] = 0;
  arena_free_.push_back(slot);
}

// --- deadline-bucketed eviction rings -----------------------------------

void FlowTables::ring_insert(Ring& r, std::uint32_t cls, std::uint32_t slot,
                             double deadline) {
  assert(&r == &ring_at(cls));
  std::uint64_t tick = sim::TimerWheel::quantize(deadline, sim::kWheelTick);
  if (r.live == 0) {
    r.cursor = tick;
  } else if (tick < r.cursor) {
    // Earlier than every live probation of this class: treat as due now.
    // The cursor is a lower bound on live ticks; rewinding it would
    // shrink the span available to the entries already ringed.
    tick = r.cursor;
  } else if (tick - r.cursor >= r.head.size()) {
    ring_seek(r);  // tighten the lower bound before paying for growth
    if (tick - r.cursor >= r.head.size()) {
      if (tick - r.cursor < kMaxRingBuckets) {
        ring_grow(r, static_cast<std::size_t>(tick - r.cursor) + 1);
      } else {
        tick = r.cursor + r.head.size() - 1;  // far-future clamp
      }
    }
  }

  const std::size_t mask = r.head.size() - 1;
  const std::size_t idx = static_cast<std::size_t>(tick) & mask;
  slot_tick_[slot] = tick;
  slot_class_[slot] = cls;
  ring_next_[slot] = kNoSlot;
  ring_prev_[slot] = r.tail[idx];
  if (r.tail[idx] != kNoSlot) {
    ring_next_[r.tail[idx]] = slot;
  } else {
    r.head[idx] = slot;
    r.occ[idx >> 6] |= 1ull << (idx & 63);
  }
  r.tail[idx] = slot;
  ++r.live;
}

void FlowTables::ring_unlink(std::uint32_t slot) noexcept {
  ring_unlink_in(ring_at(slot_class_[slot]), slot);
}

void FlowTables::ring_unlink_in(Ring& r, std::uint32_t slot) noexcept {
  const std::size_t mask = r.head.size() - 1;
  const std::size_t idx =
      static_cast<std::size_t>(slot_tick_[slot]) & mask;
  const std::uint32_t p = ring_prev_[slot];
  const std::uint32_t n = ring_next_[slot];
  if (p != kNoSlot) {
    ring_next_[p] = n;
  } else {
    r.head[idx] = n;
  }
  if (n != kNoSlot) {
    ring_prev_[n] = p;
  } else {
    r.tail[idx] = p;
  }
  if (r.head[idx] == kNoSlot) {
    r.occ[idx >> 6] &= ~(1ull << (idx & 63));
  }
  ring_prev_[slot] = ring_next_[slot] = kNoSlot;
  --r.live;
}

void FlowTables::ring_clear() noexcept {
  const auto clear_one = [](Ring& r) {
    std::fill(r.head.begin(), r.head.end(), kNoSlot);
    std::fill(r.tail.begin(), r.tail.end(), kNoSlot);
    std::fill(r.occ.begin(), r.occ.end(), 0);
    r.live = 0;
  };
  clear_one(ring0_);
  for (Ring& r : extra_rings_) clear_one(r);
}

void FlowTables::ring_seek(Ring& r) noexcept {
  assert(r.live > 0);
  const std::size_t buckets = r.head.size();
  const std::size_t mask = buckets - 1;
  const std::size_t start = static_cast<std::size_t>(r.cursor) & mask;
  std::size_t advance = 0;
  while (advance < buckets) {
    const std::size_t i = (start + advance) & mask;
    const unsigned bit = i & 63;
    const std::uint64_t w = r.occ[i >> 6] & (~0ull << bit);
    if (w != 0) {
      advance += std::countr_zero(w) - bit;
      if (advance >= buckets) break;  // found bit is before `start`
      r.cursor += advance;
      return;
    }
    advance += 64 - bit;
  }
  assert(false && "ring_seek with live entries but empty bitmap");
}

void FlowTables::ring_grow(Ring& r, std::size_t min_buckets) {
  std::size_t buckets = pow2_at_least(r.head.size() * 2);
  while (buckets < min_buckets) buckets *= 2;
  if (buckets > kMaxRingBuckets) buckets = kMaxRingBuckets;
  // Walk the OLD bucket lists to relink (slot ticks are kept). Scanning
  // arena_live_ instead would also pick up a slot that is mid-admission —
  // allocated but not yet ringed — and link it with a stale tick.
  std::vector<std::uint32_t> old_head = std::move(r.head);
  r.head.assign(buckets, kNoSlot);
  r.tail.assign(buckets, kNoSlot);
  r.occ.assign(buckets / 64, 0);
  const std::size_t live = r.live;
  r.live = 0;
  const std::size_t mask = buckets - 1;
  for (const std::uint32_t head : old_head) {
    std::uint32_t slot = head;
    while (slot != kNoSlot) {
      const std::uint32_t next = ring_next_[slot];  // FIFO order preserved
      const std::size_t idx =
          static_cast<std::size_t>(slot_tick_[slot]) & mask;
      ring_next_[slot] = kNoSlot;
      ring_prev_[slot] = r.tail[idx];
      if (r.tail[idx] != kNoSlot) {
        ring_next_[r.tail[idx]] = slot;
      } else {
        r.head[idx] = slot;
        r.occ[idx >> 6] |= 1ull << (idx & 63);
      }
      r.tail[idx] = slot;
      ++r.live;
      slot = next;
    }
  }
  assert(r.live == live);
  (void)live;
}

void FlowTables::evict_from_class(std::uint32_t cls, EvictCause cause) {
  // Evict the class's probation closest to (or past) its deadline; it has
  // had the most chance to be judged already. The ring hands us the first
  // occupied deadline bucket in O(1) amortized (the cursor only moves
  // forward), instead of a linear arena scan per admission.
  Ring& r = ring_at(cls);
  assert(r.live > 0);
  ring_seek(r);
  const std::size_t mask = r.head.size() - 1;
  const std::uint32_t victim =
      r.head[static_cast<std::size_t>(r.cursor) & mask];
  assert(victim != kNoSlot);
  if (on_evicted_) on_evicted_(arena_[victim], cause);
  store_.erase(arena_[victim].key);
  ring_unlink_in(r, victim);
  free_arena_slot(victim);
  --sft_count_;
  ++epoch_;
  ++stats_.sft_evictions;
  if (cause == EvictCause::kQuota) ++stats_.quota_evictions;
}

void FlowTables::evict_for_admission(std::uint32_t cls) {
  // Quota mode only: the single-class fast path dispatches straight to
  // evict_from_class at the admit_sft call site.
  assert(!extra_rings_.empty());
  const auto classes = static_cast<std::uint32_t>(victim_classes());
  // The admitting victim pays from its own quota first: while at/over its
  // reservation, its own nearest-deadline probation goes.
  const Ring& own = ring_at(cls);
  if (own.live >= class_quota_[cls] && own.live > 0) {
    evict_from_class(cls, EvictCause::kCapacity);
    return;
  }
  // Under quota: the admission is entitled to a reserved slot, so an
  // over-quota class gives one back. Draining the most overdrawn class
  // first shrinks overflow users toward their reservations pro-rata
  // (equal quotas -> equal steady-state overflow shares).
  std::uint32_t payer = kNoSlot;
  std::size_t payer_over = 0;
  for (std::uint32_t c = 0; c < classes; ++c) {
    const std::size_t live = ring_at(c).live;
    if (live <= class_quota_[c]) continue;
    const std::size_t over = live - class_quota_[c];
    if (payer == kNoSlot || over > payer_over) {
      payer = c;
      payer_over = over;
    }
  }
  if (payer != kNoSlot) {
    evict_from_class(payer, EvictCause::kQuota);
    return;
  }
  // Unreachable while summed quotas <= sft_capacity (a full table with
  // every class within quota leaves no room for an under-quota admitter);
  // kept as a defensive fallback: globally nearest deadline.
  std::uint32_t pick = kNoSlot;
  std::uint64_t pick_tick = 0;
  for (std::uint32_t c = 0; c < classes; ++c) {
    Ring& r = ring_at(c);
    if (r.live == 0) continue;
    ring_seek(r);
    if (pick == kNoSlot || r.cursor < pick_tick) {
      pick = c;
      pick_tick = r.cursor;
    }
  }
  assert(pick != kNoSlot);
  evict_from_class(pick, EvictCause::kCapacity);
}

void FlowTables::evict_any(TableKind kind) {
  // Drop an arbitrary resident entry of this kind. This bound mostly
  // matters under per-packet-spoofed label floods (ablation A5), where it
  // runs once per packet — the rotating scan cursor makes consecutive
  // evictions sweep the store round-robin, amortized O(1) whenever the
  // kind is a non-vanishing fraction of residents.
  std::uint64_t victim_key = 0;
  const std::size_t at = store_.scan(
      evict_cursor_, [&](std::uint64_t key, const FlowRecord& r) {
        if (r.kind != kind) return false;
        victim_key = key;
        return true;
      });
  assert(at != decltype(store_)::kNpos);
  evict_cursor_ = at;
  store_.erase(victim_key);
  ++epoch_;
  if (kind == TableKind::kNice) {
    --nft_count_;
  } else {
    --pdt_count_;
  }
}

SftEntry* FlowTables::admit_sft(std::uint64_t key,
                                const sim::FlowLabel& label, double now,
                                double window_seconds) {
  if (classify(key) != TableKind::kNone) return nullptr;

  // Quotas off (no registered classes) keeps the pre-quota call shape:
  // cls is the constant 0 and capacity eviction is one direct call — the
  // per-packet-spoofed flood pays nothing for the machinery it isn't
  // using. The class lookup and the quota walk only run in quota mode.
  std::uint32_t cls = 0;
  if (!class_victims_.empty()) cls = class_of(label.dst);
  if (sft_count_ >= cfg_.sft_capacity) {
    if (extra_rings_.empty()) {
      evict_from_class(0, EvictCause::kCapacity);
    } else {
      evict_for_admission(cls);
    }
  }

  const std::uint32_t slot = alloc_arena_slot();
  SftEntry& e = arena_[slot];
  e = SftEntry{};
  e.key = key;
  e.label = label;
  e.entry_time = now;
  e.split_time = now + window_seconds / 2.0;
  e.deadline = now + window_seconds;
  ring_insert(ring_at(cls), cls, slot, e.deadline);

  auto [record, inserted] = store_.insert(key);
  assert(inserted);
  (void)inserted;
  record->kind = TableKind::kSuspicious;
  record->sft_slot = slot;
  ++sft_count_;
  ++epoch_;
  ++stats_.sft_admissions;
  return &e;
}

SftEntry FlowTables::resolve(std::uint64_t key, TableKind destination,
                             double now) {
  FlowRecord* r = store_.find(key);
  assert(r != nullptr && r->kind == TableKind::kSuspicious &&
         "resolving a flow that is not under probation");
  SftEntry out = arena_[r->sft_slot];
  ring_unlink(r->sft_slot);
  free_arena_slot(r->sft_slot);
  --sft_count_;
  ++epoch_;

  // The key stays resident: its record mutates in place to the
  // destination table (no erase + reinsert, no rehash churn).
  if (destination == TableKind::kNice) {
    if (nft_count_ >= cfg_.nft_capacity) {
      evict_any(TableKind::kNice);
      r = store_.find(key);  // eviction shifts slots; re-find
    }
    r->kind = TableKind::kNice;
    r->sft_slot = kNoSlot;
    r->nft_expiry = cfg_.nft_revalidation_interval > 0.0
                        ? now + cfg_.nft_revalidation_interval
                        : std::numeric_limits<double>::infinity();
    ++nft_count_;
    ++stats_.moved_to_nft;
  } else {
    assert(destination == TableKind::kPermanentDrop);
    if (pdt_count_ >= cfg_.pdt_capacity) {
      evict_any(TableKind::kPermanentDrop);
      r = store_.find(key);
    }
    r->kind = TableKind::kPermanentDrop;
    r->sft_slot = kNoSlot;
    ++pdt_count_;
    ++stats_.moved_to_pdt;
  }
  return out;
}

void FlowTables::add_pdt_direct(std::uint64_t key) {
  assert(classify(key) == TableKind::kNone);
  if (pdt_count_ >= cfg_.pdt_capacity) evict_any(TableKind::kPermanentDrop);
  auto [record, inserted] = store_.insert(key);
  assert(inserted);
  (void)inserted;
  record->kind = TableKind::kPermanentDrop;
  ++pdt_count_;
  ++epoch_;
  ++stats_.direct_pdt;
}

void FlowTables::flush() {
  if (on_evicted_) {
    for_each_sft(
        [this](const SftEntry& e) { on_evicted_(e, EvictCause::kFlush); });
  }
  store_.clear();
  arena_free_.clear();
  for (std::size_t i = arena_.size(); i > 0; --i) {
    arena_live_[i - 1] = 0;
    arena_free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  ring_clear();
  sft_count_ = 0;
  nft_count_ = 0;
  pdt_count_ = 0;
  ++epoch_;
  ++stats_.flushes;
}

}  // namespace mafic::core
