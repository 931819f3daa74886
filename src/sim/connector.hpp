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

  void set_target(Connector* t) noexcept { target_ = t; }
  Connector* target() const noexcept { return target_; }

 protected:
  /// Forwards to the chained target; silently consumes if unchained
  /// (which only happens in partially built test fixtures).
  void pass(PacketPtr p) {
    if (target_ != nullptr) target_->recv(std::move(p));
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

  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }
  void set_location(NodeId where) noexcept { location_ = where; }
  NodeId location() const noexcept { return location_; }

 protected:
  virtual Decision inspect(Packet& p) = 0;

 private:
  DropHandler drop_handler_;
  NodeId location_ = kInvalidNode;
};

}  // namespace mafic::sim
