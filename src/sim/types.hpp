#pragma once

/// \file types.hpp
/// Shared vocabulary types for the discrete-event network simulator.

#include <cstdint>

namespace mafic::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Node identifier (dense, assigned by Network in creation order).
using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0xffffffffu;

/// Metrics-only flow identifier assigned by traffic sources. Value 0 means
/// "untracked" (e.g. control traffic). The defense algorithms never read
/// this; it exists so the ledger can attribute packets to ground truth.
using FlowId = std::uint32_t;
constexpr FlowId kUntrackedFlow = 0;

/// Handle for scheduled events (see EventQueue / Simulator).
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

/// Handle for timers on the hierarchical timer wheel (see TimerWheel /
/// Simulator::schedule_timer). Generation-tagged: stale handles are safely
/// rejected by cancel/reschedule.
using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;

enum class Protocol : std::uint8_t { kTcp, kUdp, kControl };

const char* to_string(Protocol p) noexcept;

/// Why a packet was discarded. Distinguishes defense-intentional drops
/// (probe-phase, PDT, baseline) from substrate drops (queues, routing).
enum class DropReason : std::uint8_t {
  kQueueOverflow,   ///< drop-tail queue full
  kDefenseProbe,    ///< MAFIC probability-Pd drop during the probing phase
  kDefensePdt,      ///< flow is in the Permanently Drop Table
  kDefenseBaseline, ///< dropped by a baseline policy under comparison
  kNoRoute,         ///< no route to destination
  kTtlExpired,      ///< TTL reached zero
  kUnboundPort,     ///< delivered locally but no agent bound to the port
};

const char* to_string(DropReason r) noexcept;

/// True for drops performed *on purpose* by a defense policy.
constexpr bool is_defense_drop(DropReason r) noexcept {
  return r == DropReason::kDefenseProbe || r == DropReason::kDefensePdt ||
         r == DropReason::kDefenseBaseline;
}

}  // namespace mafic::sim
