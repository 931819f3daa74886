#pragma once

/// \file prober.hpp
/// The duplicate-ACK probe: "send duplicated ACKs to hosts with source IP
/// address" (section III-A). The ATR crafts ACK packets that pretend to
/// come from the flow's destination (the victim) and addresses them to the
/// flow's *claimed* source. A genuine TCP sender counts them as duplicate
/// ACKs (ack_no = 0 never advances snd_una), fast-retransmits and halves
/// its window; a zombie, or an innocent third party whose address was
/// spoofed, does not change the flow's sending rate.
///
/// Prober is the simulator-side ProbeSink implementation (engine_seams.hpp):
/// the FilterEngine asks for a probe through the seam, and this class puts
/// real packets on the ATR's wire. Copies the three probe settings it needs
/// so it has no lifetime tie to the engine that drives it (and every ATR
/// filter does not carry a second full MaficConfig).

#include <cstdint>

#include "core/config.hpp"
#include "core/engine_seams.hpp"
#include "sim/node.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace mafic::core {

class Prober final : public ProbeSink {
 public:
  Prober(sim::Simulator* sim, sim::PacketFactory* factory, sim::Node* atr,
         const MaficConfig& cfg)
      : sim_(sim),
        factory_(factory),
        atr_(atr),
        spacing_s_(cfg.probe_spacing_s),
        dup_acks_(cfg.probe_dup_acks),
        ack_bytes_(cfg.probe_ack_bytes) {}

  /// Emits cfg.probe_dup_acks duplicate ACKs toward flow.src, spaced
  /// cfg.probe_spacing_s apart.
  void probe(const sim::FlowLabel& flow);

  // --- ProbeSink ---
  void send_probe(const sim::FlowLabel& flow) override { probe(flow); }

  std::uint64_t probes_issued() const noexcept { return probes_; }
  std::uint64_t probe_packets_sent() const noexcept { return packets_; }

 private:
  void emit(const sim::FlowLabel& flow);

  sim::Simulator* sim_;
  sim::PacketFactory* factory_;
  sim::Node* atr_;
  double spacing_s_;
  std::uint32_t dup_acks_;
  std::uint32_t ack_bytes_;
  std::uint64_t probes_ = 0;
  std::uint64_t packets_ = 0;
};

}  // namespace mafic::core
