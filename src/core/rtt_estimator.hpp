#pragma once

/// \file rtt_estimator.hpp
/// Per-flow RTT estimation at a router from TCP timestamp echoes, as the
/// paper suggests ("RTT information is available in most TCP traffic flows
/// by checking the time stamp in the packet header"). A data packet's
/// TSecr is the stamp of the ACK the sender most recently received, so
/// (now - TSecr) sampled at an ingress router covers sink -> sender ->
/// router: roughly half the round trip. The configured correction factor
/// scales the sample back to a full-RTT estimate.
///
/// Storage: one flat open-addressing table (util::FlatTable) of EWMA
/// records — the same substrate as the flow store — bounded by
/// MaficConfig::rtt_capacity. Presence in the table IS the initialized
/// flag, so observe()/rtt() are one probe sequence each and steady-state
/// tsecr-bearing traffic touches no allocator. Estimates live outside the
/// flow tables, so they persist across probation transitions (SFT ->
/// NFT/PDT, NFT revalidation) and are only discarded by clear() when the
/// defense deactivates. The EWMA arithmetic is the same
/// initialize-then-blend sequence as util::Ewma, so estimates are
/// bit-identical to the pre-flat unordered_map implementation
/// (test_core_rtt_flat pins this against a reference map).

#include <cstdint>
#include <functional>

#include "core/config.hpp"
#include "util/flat_table.hpp"

namespace mafic::core {

class RttEstimator {
 public:
  explicit RttEstimator(const MaficConfig& cfg)
      : cfg_(cfg), flows_(cfg.rtt_capacity, kFlowStoreMaxLoad) {}

  /// Marks keys that must not be recycled at capacity (the engine pins
  /// flows with an *active probation*: their estimate backs the live
  /// probation window and would otherwise be lost mid-probation, sending
  /// the flow's next window back to default_rtt). Checked only on the
  /// cold recycle path; unset (the default) pins nothing.
  using PinCheck = std::function<bool(std::uint64_t)>;
  void set_pin_check(PinCheck pin) { pinned_ = std::move(pin); }

  /// Feeds one timestamp-echo sample (now - tsecr) for a flow key.
  /// At capacity an unpinned resident estimate is recycled to make room;
  /// if every resident estimate is pinned the sample is dropped instead
  /// (the new flow stays at default_rtt until a slot frees up).
  void observe(std::uint64_t key, double raw_sample) {
    if (raw_sample <= 0.0) return;
    const double corrected = raw_sample * cfg_.rtt_correction;
    if (corrected < cfg_.min_rtt / 4.0 || corrected > cfg_.max_rtt * 4.0) {
      return;  // garbage echo (e.g. stale stamp after idleness)
    }
    if (Estimate* e = flows_.find(key)) {
      e->value += cfg_.rtt_ewma_alpha * (corrected - e->value);
      return;
    }
    if (flows_.size() >= flows_.max_entries() && !recycle_one()) return;
    flows_.insert(key).first->value = corrected;
  }

  /// Current estimate for the flow, clamped; default when never observed.
  double rtt(std::uint64_t key) const {
    const Estimate* e = flows_.find(key);
    if (e == nullptr) return cfg_.default_rtt;
    if (e->value < cfg_.min_rtt) return cfg_.min_rtt;
    if (e->value > cfg_.max_rtt) return cfg_.max_rtt;
    return e->value;
  }

  bool has_estimate(std::uint64_t key) const {
    return flows_.contains(key);
  }

  std::size_t tracked_flows() const noexcept { return flows_.size(); }
  std::uint64_t recycled() const noexcept { return recycled_; }
  void clear() {
    flows_.clear();
    recycle_cursor_ = 0;
  }

 private:
  struct Estimate {
    double value = 0.0;
  };

  /// Capacity bound hit: drop an arbitrary *unpinned* resident estimate,
  /// rotating through the table so no flow is recycled twice in a row.
  /// The evicted flow falls back to default_rtt until its next usable
  /// echo. Returns false — and recycles nothing — when every resident
  /// estimate is pinned (a slot backing an active probation must survive
  /// to the probation's decision).
  bool recycle_one() {
    std::uint64_t victim = 0;
    const std::size_t at = flows_.scan(
        recycle_cursor_, [&](std::uint64_t key, const Estimate&) {
          if (pinned_ && pinned_(key)) return false;
          victim = key;
          return true;
        });
    if (at == util::FlatTable<Estimate>::kNpos) return false;
    recycle_cursor_ = at + 1;
    flows_.erase(victim);
    ++recycled_;
    return true;
  }

  const MaficConfig& cfg_;
  util::FlatTable<Estimate> flows_;
  PinCheck pinned_;
  std::size_t recycle_cursor_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace mafic::core
