#pragma once

/// \file connector.hpp
/// NS-2-style connector chain. Every element of a link datapath (taps,
/// defense filters, queues, transmitters) is a Connector that receives a
/// packet and either passes it to its target or consumes/drops it. The
/// paper attaches both its LogLogCounter and the MAFIC dropper "to the head
/// of each SimplexLink" — our SimplexLink::add_head_filter does exactly
/// that.

#include <functional>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace mafic::sim {

/// Callback invoked whenever a component discards a packet.
using DropHandler =
    std::function<void(const Packet&, DropReason, NodeId where)>;

class Connector {
 public:
  virtual ~Connector() = default;

  virtual void recv(PacketPtr p) = 0;

  /// Burst delivery: `n` packets that crossed the upstream element
  /// back-to-back (see LinkTransmitter's burst mode). The span is ordered
  /// (pkts[0] departed first) and the receiver takes ownership of every
  /// packet in it; the pointer array itself stays with the caller. The
  /// default unbatches — elements that can exploit a whole span
  /// (batch-inspecting filters, routing nodes) override this.
  virtual void recv_burst(PacketPtr* pkts, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) recv(std::move(pkts[i]));
  }

  void set_target(Connector* t) noexcept { target_ = t; }
  Connector* target() const noexcept { return target_; }

 protected:
  /// Forwards to the chained target; silently consumes if unchained
  /// (which only happens in partially built test fixtures).
  void pass(PacketPtr p) {
    if (target_ != nullptr) target_->recv(std::move(p));
  }

  /// Forwards a whole span, keeping it a burst for downstream elements.
  void pass_burst(PacketPtr* pkts, std::size_t n) {
    if (target_ != nullptr) {
      target_->recv_burst(pkts, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) pkts[i].reset();
    }
  }

 private:
  Connector* target_ = nullptr;
};

/// A pass-through observer: sees every packet, never drops.
class TapConnector final : public Connector {
 public:
  using Observer = std::function<void(const Packet&)>;

  explicit TapConnector(Observer obs) : observer_(std::move(obs)) {}

  void recv(PacketPtr p) override {
    if (observer_) observer_(*p);
    pass(std::move(p));
  }

  /// Observes every packet but keeps the span intact for downstream
  /// batch consumers (the default recv_burst would unbatch it).
  void recv_burst(PacketPtr* pkts, std::size_t n) override {
    if (observer_) {
      for (std::size_t i = 0; i < n; ++i) observer_(*pkts[i]);
    }
    pass_burst(pkts, n);
  }

 private:
  Observer observer_;
};

/// An in-path element that inspects each packet and decides forward/drop.
/// Defense policies (MAFIC, the proportionate baseline, the aggregate
/// limiter) derive from this.
class InlineFilter : public Connector {
 public:
  enum class Verdict : std::uint8_t { kForward, kDrop };

  struct Decision {
    Verdict verdict = Verdict::kForward;
    DropReason reason = DropReason::kDefenseProbe;

    static Decision forward() noexcept { return {Verdict::kForward, {}}; }
    static Decision drop(DropReason r) noexcept {
      return {Verdict::kDrop, r};
    }
  };

  void recv(PacketPtr p) final {
    const Decision d = inspect(*p);
    if (d.verdict == Verdict::kForward) {
      pass(std::move(p));
    } else if (drop_handler_) {
      drop_handler_(*p, d.reason, location_);
    }
  }

  /// Inspects the whole span (batch-capable filters overlap their table
  /// lookups here), drops through the drop handler, compacts the
  /// survivors in place, and forwards them as one burst.
  /// Verdict-equivalent to receiving each packet via recv().
  void recv_burst(PacketPtr* pkts, std::size_t n) final {
    decisions_.resize(n);
    inspect_burst(pkts, n, decisions_.data());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (decisions_[i].verdict == Verdict::kForward) {
        pkts[kept++] = std::move(pkts[i]);
      } else if (drop_handler_) {
        drop_handler_(*pkts[i], decisions_[i].reason, location_);
      }
    }
    if (kept > 0) pass_burst(pkts, kept);
  }

  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }
  void set_location(NodeId where) noexcept { location_ = where; }
  NodeId location() const noexcept { return location_; }

 protected:
  virtual Decision inspect(Packet& p) = 0;

  /// One decision per packet of the span, in order. The default inspects
  /// packet-by-packet; batch-capable filters (MaficFilter) override to
  /// route the span into inspect_batch.
  virtual void inspect_burst(PacketPtr* pkts, std::size_t n,
                             Decision* out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = inspect(*pkts[i]);
  }

 private:
  DropHandler drop_handler_;
  NodeId location_ = kInvalidNode;
  std::vector<Decision> decisions_;  ///< recv_burst scratch (reused)
};

}  // namespace mafic::sim
