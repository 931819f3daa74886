#include "sim/types.hpp"

namespace mafic::sim {

const char* to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kTcp:
      return "tcp";
    case Protocol::kUdp:
      return "udp";
    case Protocol::kControl:
      return "control";
  }
  return "?";
}

const char* to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::kQueueOverflow:
      return "queue-overflow";
    case DropReason::kDefenseProbe:
      return "defense-probe";
    case DropReason::kDefensePdt:
      return "defense-pdt";
    case DropReason::kDefenseBaseline:
      return "defense-baseline";
    case DropReason::kNoRoute:
      return "no-route";
    case DropReason::kTtlExpired:
      return "ttl-expired";
    case DropReason::kUnboundPort:
      return "unbound-port";
  }
  return "?";
}

}  // namespace mafic::sim
