#include "scenario/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace mafic::scenario {

namespace {
constexpr std::uint16_t kSourcePort = 5000;
constexpr std::uint16_t kVictimPortBase = 2000;
/// LogLog precision of the per-router S and D sketches (2^10 registers).
constexpr unsigned kSketchPrecisionBits = 10;
}  // namespace

topology::DomainConfig ExperimentConfig::default_domain() {
  // 3 Mb/s victim last hop against a default zombie army of ~16-20 Mb/s:
  // the flood outweighs legitimate traffic roughly 5:1, the regime the
  // paper's evaluation (and Fig. 4(b)'s overload spike) depicts.
  topology::DomainConfig d;
  d.victim_bandwidth_bps = 3e6;
  return d;
}

pushback::ControlPlane::Config ExperimentConfig::default_pushback() {
  pushback::ControlPlane::Config p;
  p.latch = true;
  p.control_delay = 0.01;
  p.refresh_interval = 0.25;
  p.detector.warmup_epochs = 12;
  p.detector.trigger_factor = 1.8;
  p.detector.min_packets_per_epoch = 30.0;
  p.atr.share_threshold = 0.04;
  p.atr.min_intersection = 10.0;
  return p;
}

Experiment::Experiment(ExperimentConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  // Timing that would hang the run or reorder the control plane: a zero
  // epoch reschedules the monitor at the same instant forever, a zero
  // refresh interval does the same to the keep-alive once a response
  // engages, and an apply event must land before the next epoch.
  if (!(cfg_.epoch_seconds > 0.0)) {
    throw std::invalid_argument("epoch_seconds must be > 0");
  }
  if (!(cfg_.pushback.refresh_interval > 0.0)) {
    throw std::invalid_argument("pushback.refresh_interval must be > 0");
  }
  if (!(cfg_.pushback.control_delay >= 0.0 &&
        cfg_.pushback.control_delay < cfg_.epoch_seconds)) {
    throw std::invalid_argument(
        "pushback.control_delay must be >= 0 and < epoch_seconds");
  }
  // Every run fails here on a MAFIC config its engines would reject,
  // whatever the defense kind.
  core::validate(cfg_.mafic);
  // One Pd coin seed per run, from the experiment seed alone: every MAFIC
  // filter and the proportional dropper share it.
  cfg_.mafic.coin_seed = util::mix64(cfg_.seed ^ 0xc0115eedULL);
}

Experiment::~Experiment() = default;

void Experiment::setup() {
  if (setup_done_) return;
  setup_done_ = true;

  build_topology();
  build_sketches();
  build_flows();   // hosts must exist before routes are built
  net_->build_routes();
  build_defense();
  arm_trigger();

  // Global drop accounting must see every component; installing it last
  // covers links, nodes and filters alike.
  net_->set_drop_handler(
      [this](const sim::Packet& p, sim::DropReason r, sim::NodeId where) {
        ledger_.on_drop(p, r, where, sim_.now());
      });
}

void Experiment::build_topology() {
  net_ = std::make_unique<sim::Network>(&sim_);
  auto domain_cfg = cfg_.domain;
  domain_cfg.router_count = cfg_.router_count;
  domain_ = std::make_unique<topology::Domain>(net_.get(), rng_.split(),
                                               domain_cfg);
  domain_->build_core();
  policy_ = std::make_unique<core::AddressPolicy>(&domain_->validator());

  // Victim last-hop instrumentation: offered (pre-queue) and delivered
  // (post-queue) on the router->victim downlink.
  sim::SimplexLink* down = domain_->victim_access().downlink;
  down->add_head_filter(std::make_unique<sim::TapConnector>(
      [this](const sim::Packet& p) {
        ledger_.on_victim_offered(p, sim_.now());
      }));
  down->add_tail_tap(std::make_unique<sim::TapConnector>(
      [this](const sim::Packet& p) {
        ledger_.on_victim_delivered(p, sim_.now());
      }));

  // Protected destinations: the domain's victim plus any extra victims,
  // each an ordinary host behind a random ingress router. Flows target
  // them round-robin; every MAFIC filter defends the whole set.
  victim_addrs_.push_back(domain_->victim_addr());
  victim_hosts_.push_back(domain_->victim_host());
  victim_routers_.push_back(domain_->victim_router());
  for (std::size_t i = 0; i < cfg_.extra_victims; ++i) {
    auto& access = domain_->attach_host();
    victim_addrs_.push_back(net_->node(access.host)->addr());
    victim_hosts_.push_back(access.host);
    victim_routers_.push_back(access.router);
  }
}

void Experiment::build_sketches() {
  bank_ = std::make_unique<sketch::RouterSketchBank>(
      cfg_.router_count, kSketchPrecisionBits,
      /*hash_seed=*/cfg_.seed ^ 0x5ca1ab1eULL);
  monitor_ = std::make_unique<sketch::TrafficMonitor>(&sim_, bank_.get(),
                                                      cfg_.epoch_seconds);
  // Victim access counts as an egress point for D_victim.
  sketch::attach_egress_counter(domain_->victim_access().downlink,
                                domain_->victim_router(), bank_.get());
  sketch::attach_ingress_counter(domain_->victim_access().uplink,
                                 domain_->victim_router(), bank_.get());
  // Extra victims are ordinary attached hosts, but they are protected
  // destinations: without egress taps on their access links their
  // last-hop routers' |Dj| never fills and the detector is blind to
  // them. (At this point access_links() holds exactly the extra-victim
  // hosts — traffic hosts are attached later, in build_flows.)
  for (const auto& access : domain_->access_links()) {
    if (std::find(victim_hosts_.begin() + 1, victim_hosts_.end(),
                  access.host) == victim_hosts_.end()) {
      continue;
    }
    sketch::attach_egress_counter(access.downlink, access.router,
                                  bank_.get());
    sketch::attach_ingress_counter(access.uplink, access.router,
                                   bank_.get());
  }
  monitor_->start();
}

void Experiment::build_flows() {
  const std::size_t vt = cfg_.total_flows;
  legit_count_ =
      static_cast<std::size_t>(std::lround(cfg_.tcp_fraction * double(vt)));
  legit_count_ = std::min(legit_count_, vt);
  attack_count_ = vt - legit_count_;
  if (attack_count_ == 0 && cfg_.tcp_fraction < 1.0 && vt > 0) {
    attack_count_ = 1;
    legit_count_ = vt - 1;
  }

  // Flows target the protected destinations round-robin (one victim:
  // identical to targeting it directly).
  sim::FlowId next_flow = 1;
  const auto target_addr = [this](sim::FlowId flow) {
    return victim_addrs_[(flow - 1) % victim_addrs_.size()];
  };
  const auto target_node = [this](sim::FlowId flow) {
    return net_->node(victim_hosts_[(flow - 1) % victim_hosts_.size()]);
  };

  // --- legitimate flows ---------------------------------------------------
  const auto n_udp = static_cast<std::size_t>(
      std::lround(cfg_.legit_udp_fraction * double(legit_count_)));
  // Flash crowd: the tail n_flash legit flows start in a tight correlated
  // window instead of the steady-state one (spanning both the TCP and the
  // CBR mix, since the UDP share is carved from the head of the range).
  const auto n_flash =
      cfg_.flash_crowd_fraction > 0.0
          ? std::min(legit_count_,
                     static_cast<std::size_t>(std::lround(
                         cfg_.flash_crowd_fraction * double(legit_count_))))
          : std::size_t{0};
  const auto legit_start = [this, n_flash](std::size_t i) {
    if (n_flash > 0 && i >= legit_count_ - n_flash) {
      return rng_.uniform(cfg_.flash_crowd_start,
                          cfg_.flash_crowd_start + cfg_.flash_crowd_ramp);
    }
    return rng_.uniform(cfg_.legit_start_min, cfg_.legit_start_max);
  };
  for (std::size_t i = 0; i < legit_count_; ++i) {
    auto& access = domain_->attach_host();
    sketch::attach_ingress_counter(access.uplink, access.router, bank_.get());
    sketch::attach_egress_counter(access.downlink, access.router,
                                  bank_.get());
    sim::Node* host = net_->node(access.host);
    const auto vport =
        static_cast<std::uint16_t>(kVictimPortBase + next_flow);
    const sim::FlowId flow = next_flow++;
    const util::Addr victim = target_addr(flow);
    sim::Node* victim_node = target_node(flow);

    const bool is_udp = i < n_udp;
    if (is_udp) {
      transport::CbrSource::Config cc;
      cc.rate_bps = cfg_.legit_udp_rate_bps;
      cc.packet_bytes = cfg_.legit_packet_bytes;
      auto src = std::make_unique<transport::CbrSource>(
          &sim_, &factory_, host, kSourcePort, cc, rng_.split());
      src->connect(victim, vport);
      src->set_flow_id(flow);
      auto sink = std::make_unique<transport::UdpSink>(&sim_, &factory_,
                                                       victim_node, vport);
      const double start = legit_start(i);
      transport::CbrSource* src_ptr = src.get();
      sim_.schedule_at(start, [src_ptr] { src_ptr->start(); });
      agents_.push_back(std::move(src));
      agents_.push_back(std::move(sink));
    } else {
      transport::TcpSender::Config tc;
      tc.mss_bytes = cfg_.legit_packet_bytes;
      auto src = std::make_unique<transport::TcpSender>(
          &sim_, &factory_, host, kSourcePort, tc);
      src->connect(victim, vport);
      src->set_flow_id(flow);
      auto sink = std::make_unique<transport::TcpSink>(&sim_, &factory_,
                                                       victim_node, vport);
      sink->connect(host->addr(), kSourcePort);
      const double start = legit_start(i);
      transport::TcpSender* src_ptr = src.get();
      sim_.schedule_at(start, [src_ptr] { src_ptr->start(); });
      tcp_sender_ptrs_.push_back(src.get());
      agents_.push_back(std::move(src));
      agents_.push_back(std::move(sink));
    }

    metrics::FlowGroundTruth truth;
    truth.id = flow;
    truth.malicious = false;
    truth.tcp = !is_udp;
    truth.label = sim::FlowLabel{host->addr(), victim, kSourcePort, vport};
    truth.ingress_router = access.router;
    ledger_.register_flow(truth);
  }

  // The spoofing pool contains only innocent hosts (snapshot before
  // zombies are attached).
  spoof_model_ = std::make_unique<attack::SpoofingModel>(
      cfg_.spoofing, domain_->host_addresses(), domain_->unreachable_subnet(),
      domain_->illegal_subnet(), rng_.split());

  // --- attack flows ---------------------------------------------------------
  attack::AttackPlan::Config pc;
  pc.start_time = cfg_.attack_start;
  pc.ramp_seconds = cfg_.attack_ramp;
  attack_plan_ = std::make_unique<attack::AttackPlan>(&sim_, pc);

  for (std::size_t i = 0; i < attack_count_; ++i) {
    auto& access = domain_->attach_host();
    sketch::attach_ingress_counter(access.uplink, access.router, bank_.get());
    sketch::attach_egress_counter(access.downlink, access.router,
                                  bank_.get());
    sim::Node* host = net_->node(access.host);
    const auto vport =
        static_cast<std::uint16_t>(kVictimPortBase + next_flow);
    const sim::FlowId flow = next_flow++;
    const util::Addr victim = target_addr(flow);

    attack::Flooder::Config fc;
    fc.rate_bps = cfg_.attack_army_total_bps > 0.0
                      ? cfg_.attack_army_total_bps / double(attack_count_)
                      : cfg_.attack_rate_bps;
    fc.packet_bytes = cfg_.attack_packet_bytes;
    fc.per_packet_spoofing = cfg_.per_packet_spoofing;
    fc.probe_evasion = cfg_.attack_probe_evasion;
    fc.evasion_pause_s = cfg_.attack_evasion_pause_s;
    auto z = std::make_unique<attack::Flooder>(&sim_, &factory_, host,
                                               kSourcePort, fc, rng_.split());
    z->connect(victim, vport);
    z->set_flow_id(flow);
    z->set_spoof(spoof_model_.get());

    metrics::FlowGroundTruth truth;
    truth.id = flow;
    truth.malicious = true;
    truth.tcp = false;
    truth.label = z->wire_label();
    truth.ingress_router = access.router;
    ledger_.register_flow(truth);

    zombie_routers_.push_back(access.router);
    attack_plan_->add(z.get());
    zombie_ptrs_.push_back(z.get());
    agents_.push_back(std::move(z));
  }
  attack_plan_->arm(rng_);
}

void Experiment::build_defense() {
  if (cfg_.defense == DefenseKind::kNone) return;

  coordinator_ = std::make_unique<pushback::PushbackCoordinator>(&sim_);
  if (cfg_.trigger == TriggerMode::kDetector) {
    coordinator_->set_trigger_callback([this](double t) {
      if (!ledger_.triggered()) ledger_.set_trigger_time(t);
    });
    // Asynchronous control plane: detection runs against frozen epoch
    // snapshots and is applied per victim through the coordinator's
    // actuator registry.
    // Every configured destination is protected, primary first.
    control_plane_ = std::make_unique<pushback::ControlPlane>(
        &sim_, coordinator_.get(), cfg_.pushback);
    for (std::size_t i = 0; i < victim_addrs_.size(); ++i) {
      control_plane_->protect(victim_routers_[i], victim_addrs_[i]);
    }
    control_plane_->watch(*monitor_);
  }

  // Weighted per-victim quotas: pair each protected destination with its
  // configured weight (victim order; missing entries weigh 1.0). Applied
  // to every MAFIC filter below so all ATRs agree on reservations.
  std::vector<std::pair<util::Addr, double>> quota_weights;
  if (cfg_.mafic.sft_victim_quota > 0.0 &&
      !cfg_.sft_victim_weights.empty()) {
    quota_weights.reserve(victim_addrs_.size());
    for (std::size_t i = 0; i < victim_addrs_.size(); ++i) {
      quota_weights.emplace_back(victim_addrs_[i],
                                 i < cfg_.sft_victim_weights.size()
                                     ? cfg_.sft_victim_weights[i]
                                     : 1.0);
    }
  }

  // One filter per ingress access uplink (except the victim's own).
  for (const auto& access : domain_->access_links()) {
    sim::Node* atr = net_->node(access.router);
    switch (cfg_.defense) {
      case DefenseKind::kMafic: {
        // Before the uplink queue, where the paper's ATR drops.
        auto filter = std::make_unique<core::MaficFilter>(
            &sim_, &factory_, atr, cfg_.mafic, policy_.get());
        core::FilterEngine& engine = filter->engine();
        engine.set_offered_callback([this](const sim::Packet& p) {
          ledger_.on_defense_offered(p, sim_.now());
        });
        if (!quota_weights.empty()) engine.set_victim_weights(quota_weights);
        core::MaficFilter* raw = filter.get();
        access.uplink->add_head_filter(std::move(filter));
        mafic_filters_.push_back(raw);
        coordinator_->register_actuator(access.router, raw);
        break;
      }
      case DefenseKind::kProportional: {
        auto filter = std::make_unique<baseline::ProportionalDropper>(
            cfg_.mafic.drop_probability, cfg_.mafic.coin_seed);
        filter->set_offered_callback([this](const sim::Packet& p) {
          ledger_.on_defense_offered(p, sim_.now());
        });
        coordinator_->register_actuator(access.router, filter.get());
        access.uplink->add_head_filter(std::move(filter));
        break;
      }
      case DefenseKind::kAggregate: {
        auto filter = std::make_unique<baseline::AggregateLimiter>(
            &sim_, cfg_.aggregate);
        filter->set_offered_callback([this](const sim::Packet& p) {
          ledger_.on_defense_offered(p, sim_.now());
        });
        coordinator_->register_actuator(access.router, filter.get());
        access.uplink->add_head_filter(std::move(filter));
        break;
      }
      case DefenseKind::kNone:
        break;
    }
  }
}

VictimBreakdown Experiment::victim_breakdown(util::Addr victim) const {
  VictimBreakdown b;
  b.victim = victim;
  for (const auto* f : mafic_filters_) {
    const auto& per = f->engine().victim_stats();
    const auto it = per.find(victim);
    if (it == per.end()) continue;
    const auto& vs = it->second;
    b.decided_nice += vs.decided_nice;
    b.decided_malicious += vs.decided_malicious;
    b.screened_sources += vs.screened_sources;
    b.evictions += vs.evictions;
    b.quota_evictions += vs.quota_evictions;
  }
  return b;
}

std::vector<sim::NodeId> Experiment::ground_truth_atrs() const {
  // Sorted + deduped: this lands in ExperimentResult::atr.ground_truth, so
  // its order must not depend on any hash-bucket layout.
  std::vector<sim::NodeId> atrs(zombie_routers_.begin(),
                                zombie_routers_.end());
  std::sort(atrs.begin(), atrs.end());
  atrs.erase(std::unique(atrs.begin(), atrs.end()), atrs.end());
  return atrs;
}

void Experiment::arm_trigger() {
  if (cfg_.defense == DefenseKind::kNone ||
      cfg_.trigger != TriggerMode::kScripted) {
    return;
  }
  // The notification reaches the scope's routers through the same
  // registry the control plane uses; actuators register under the
  // router they sit at, so both scopes resolve to router ids.
  sim_.schedule_at(cfg_.scripted_trigger_time, [this] {
    ledger_.set_trigger_time(sim_.now());
    const std::vector<sim::NodeId> routers =
        cfg_.atr_scope == AtrScope::kAllIngress
            ? coordinator_->actuator_routers()
            : ground_truth_atrs();
    for (const util::Addr victim : victim_addrs_) {
      coordinator_->engage_victim(victim, routers);
    }
  });
}

void Experiment::run_until(double t) {
  setup();
  sim_.run_until(t);
}

ExperimentResult Experiment::run() {
  setup();
  sim_.run_until(cfg_.end_time);
  return snapshot_result();
}

ExperimentResult Experiment::snapshot_result() const {
  ExperimentResult r;
  r.metrics = metrics::compute_metrics(ledger_, cfg_.windows);
  r.victim_offered_bytes = ledger_.victim_offered_bytes();
  r.legit_flows = legit_count_;
  r.attack_flows = attack_count_;
  r.events_processed = sim_.events_processed();

  for (const auto* f : mafic_filters_) {
    const auto& ts = f->engine().tables().stats();
    r.sft_admissions += ts.sft_admissions;
    r.sft_evictions += ts.sft_evictions;
    r.quota_evictions += ts.quota_evictions;
    r.moved_to_nft += ts.moved_to_nft;
    r.moved_to_pdt += ts.moved_to_pdt;
    const auto& es = f->engine().stats();
    r.screened_sources += es.screened_sources;
    r.probes_issued += es.probes_issued;
  }

  // Per-victim decision breakdown (engine-side accounting keyed by the
  // flow label's destination), aggregated across every filter, plus the
  // victim's response in the registry and its detector alarms.
  for (std::size_t i = 0; i < victim_addrs_.size(); ++i) {
    VictimBreakdown b = victim_breakdown(victim_addrs_[i]);
    if (coordinator_ != nullptr) {
      const auto& responses = coordinator_->responses();
      if (const auto it = responses.find(victim_addrs_[i]);
          it != responses.end()) {
        b.trigger_time = it->second.trigger_time;
        b.clear_time = it->second.clear_time;
      }
    }
    if (control_plane_ != nullptr) {
      b.alarms = control_plane_->statuses()[i].alarms;
    }
    r.per_victim.push_back(b);
  }

  // ATR diagnostics: the routers the registry has engaged, identified by
  // the detector or assumed by the scripted scope.
  r.atr.ground_truth = ground_truth_atrs();
  if (coordinator_ != nullptr) r.atr.identified = coordinator_->engaged_atrs();
  std::unordered_set<sim::NodeId> truth(r.atr.ground_truth.begin(),
                                        r.atr.ground_truth.end());
  std::size_t hits = 0;
  for (const auto id : r.atr.identified) {
    if (truth.contains(id)) ++hits;
  }
  if (!r.atr.identified.empty()) {
    r.atr.precision = double(hits) / double(r.atr.identified.size());
  }
  if (!truth.empty()) {
    r.atr.recall = double(hits) / double(truth.size());
  }
  return r;
}

metrics::Metrics run_averaged(const ExperimentConfig& base, std::size_t seeds,
                              std::vector<ExperimentResult>* out) {
  metrics::Metrics sum;
  sum.alpha = sum.beta = sum.theta_p = sum.theta_n = sum.lr = 0.0;
  std::size_t alpha_n = 0, beta_n = 0, tp_n = 0, tn_n = 0, lr_n = 0;

  for (std::size_t s = 0; s < seeds; ++s) {
    ExperimentConfig cfg = base;
    cfg.seed = base.seed + s * 7919;
    Experiment exp(cfg);
    ExperimentResult r = exp.run();
    const auto& m = r.metrics;
    if (!std::isnan(m.alpha)) { sum.alpha += m.alpha; ++alpha_n; }
    if (!std::isnan(m.beta)) { sum.beta += m.beta; ++beta_n; }
    if (!std::isnan(m.theta_p)) { sum.theta_p += m.theta_p; ++tp_n; }
    if (!std::isnan(m.theta_n)) { sum.theta_n += m.theta_n; ++tn_n; }
    if (!std::isnan(m.lr)) { sum.lr += m.lr; ++lr_n; }
    sum.malicious_offered += m.malicious_offered;
    sum.malicious_dropped += m.malicious_dropped;
    sum.malicious_arrived += m.malicious_arrived;
    sum.legit_offered += m.legit_offered;
    sum.legit_dropped += m.legit_dropped;
    sum.legit_pdt_dropped += m.legit_pdt_dropped;
    sum.total_offered += m.total_offered;
    sum.triggered = sum.triggered || m.triggered;
    if (out != nullptr) out->push_back(std::move(r));
  }

  const auto nan = std::numeric_limits<double>::quiet_NaN();
  sum.alpha = alpha_n ? sum.alpha / double(alpha_n) : nan;
  sum.beta = beta_n ? sum.beta / double(beta_n) : nan;
  sum.theta_p = tp_n ? sum.theta_p / double(tp_n) : nan;
  sum.theta_n = tn_n ? sum.theta_n / double(tn_n) : nan;
  sum.lr = lr_n ? sum.lr / double(lr_n) : nan;
  return sum;
}

}  // namespace mafic::scenario
