#include "core/prober.hpp"

namespace mafic::core {

void Prober::probe(const sim::FlowLabel& flow) {
  ++probes_;
  for (std::uint32_t i = 0; i < dup_acks_; ++i) {
    if (i == 0) {
      emit(flow);
    } else {
      // Spaced emissions ride the timer wheel with the rest of the
      // probation machinery; the label capture fits its inline storage.
      sim_->schedule_timer(spacing_s_ * i,
                           [this, flow] { emit(flow); });
    }
  }
}

void Prober::emit(const sim::FlowLabel& flow) {
  auto p = factory_->make();
  // The probe masquerades as an ACK from the flow's destination back to
  // the claimed source.
  p->label = flow.reversed();
  p->proto = sim::Protocol::kTcp;
  p->flags = sim::tcp_flags::kAck;
  p->size_bytes = ack_bytes_;
  p->ack_no = 0;  // never advances snd_una => always counted as duplicate
  p->tsval = 0.0;
  p->tsecr = 0.0;
  p->probe = true;
  p->sent_time = sim_->now();
  ++packets_;
  atr_->send(std::move(p));
}

}  // namespace mafic::core
