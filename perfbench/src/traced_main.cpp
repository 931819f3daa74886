// Traced benchmark run: the untraced timed runs first (they give the
// overhead baseline and the reference fingerprint), then ONE traced
// experiment whose calls into the layers are wrapped in spans and whose
// layer counters are read afterwards. Prints the per-layer metrics and
// writes the spans as JSON when --trace-dir is given.
//
//   mafic_perfbench_trace --workload NAME --seed N --seconds S
//                         [--smoke] [--trace-dir DIR]
//
// This is the only part of the benchmark that reads layer accessors
// (network nodes and links, queue and node stats, TCP senders, the
// control plane, the coordinator, the traffic monitor and the timer
// wheel). A layer refactor may break this binary; the gated one in
// bench_main.cpp does not include any of it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner.hpp"
#include "workloads.hpp"

namespace {

namespace sc = mafic::scenario;
using Clock = std::chrono::steady_clock;

/// Spans kept in memory and written out once the run is over. A span's
/// parent is the index of the span that caused it (-1 for the root).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now_ns(), 0});
    return int(spans_.size()) - 1;
  }
  void end(int id) { spans_[std::size_t(id)].end_ns = now_ns(); }

  double seconds(int id) const {
    const Span& s = spans_[std::size_t(id)];
    return double(s.end_ns - s.start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Receives the route probe's checksum so its lookups cannot be elided.
volatile std::uintptr_t route_probe_sink = 0;

/// Median host time of one Node::route_for over a fixed sample of the
/// network's own (node, destination) pairs: every node reaches every
/// victim, and a strided subset of nodes reaches a strided subset of
/// node addresses. The whole sample is timed per pass; the median pass
/// is reported per lookup.
double route_lookup_ns(const mafic::sim::Network& net,
                       const std::vector<mafic::util::Addr>& victims) {
  constexpr std::size_t kPairs = 8192;
  constexpr int kPasses = 31;
  const auto& nodes = net.nodes();
  std::vector<std::pair<const mafic::sim::Node*, mafic::util::Addr>> pairs;
  pairs.reserve(kPairs);
  const std::size_t stride = std::max<std::size_t>(1, nodes.size() / 97);
  for (std::size_t i = 0; pairs.size() < kPairs && i < 4 * kPairs; ++i) {
    const mafic::sim::Node* from = nodes[(i * 31) % nodes.size()].get();
    const mafic::util::Addr to =
        i % 2 == 0 ? victims[i % victims.size()]
                   : nodes[(i * stride) % nodes.size()]->addr();
    if (from->addr() != to) pairs.emplace_back(from, to);
  }
  std::vector<double> per_lookup;
  std::uintptr_t sum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point t0 = Clock::now();
    for (const auto& [node, dst] : pairs) {
      sum += reinterpret_cast<std::uintptr_t>(node->route_for(dst));
    }
    per_lookup.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        double(pairs.size()));
  }
  route_probe_sink = sum;
  return perfbench::median(per_lookup);
}

struct LayerCounters {
  double route_entries = 0, route_lookups = 0;
  double link_packets = 0, queue_drops = 0, timers_peak = 0;
  double pushback_epochs = 0, pushback_applies = 0;
  double pushback_retargets = 0, pushback_alarms = 0;
  double sketch_epochs = 0;
  double tcp_sent = 0, tcp_retransmits = 0, tcp_timeouts = 0;
  double phases_fired = 0;
};

LayerCounters read_layers(sc::Experiment& exp) {
  LayerCounters c;
  for (const auto& node : exp.network().nodes()) {
    c.route_entries += double(node->route_count());
    c.route_lookups +=
        double(node->stats().originated + node->stats().forwarded);
  }
  for (const auto& link : exp.network().links()) {
    c.link_packets += double(link->transmitter().packets_delivered());
    c.queue_drops += double(link->queue().stats().dropped);
  }
  c.timers_peak = double(exp.simulator().timer_wheel().slab_size());
  if (const auto* cp = exp.control_plane(); cp != nullptr) {
    c.pushback_epochs = double(cp->epochs_observed());
    c.pushback_applies = double(cp->apply_events());
    for (const auto& st : cp->statuses()) {
      c.pushback_alarms += double(st.alarms);
    }
  }
  if (const auto* co = exp.coordinator(); co != nullptr) {
    c.pushback_retargets = double(co->retargets());
  }
  if (const auto* mon = exp.traffic_monitor(); mon != nullptr) {
    c.sketch_epochs = double(mon->epochs_completed());
  }
  for (const auto* tcp : exp.tcp_senders()) {
    c.tcp_sent += double(tcp->stats().data_packets_sent);
    c.tcp_retransmits += double(tcp->stats().retransmits);
    c.tcp_timeouts += double(tcp->stats().timeouts);
  }
  if (const auto* plan = exp.attack_plan(); plan != nullptr) {
    c.phases_fired = double(plan->phases_fired());
  }
  return c;
}

bool write_trace(const std::string& path, const perfbench::Options& opt,
                 const SpanRecorder& rec, double untraced_run_s,
                 double overhead_s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Span and workload names are fixed identifiers: no escaping needed.
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed));
  const auto& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f,
               "], \"untraced_run_s_median\": %.9f, "
               "\"run_overhead_s\": %.9f}\n",
               untraced_run_s, overhead_s);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) return 2;
  const auto* w = perfbench::find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const sc::ScenarioSpec spec =
      perfbench::make_spec(*w, opt.seed, opt.smoke);

  // Untraced baseline.
  perfbench::Batch batch =
      perfbench::run_batch(spec, opt.seconds, perfbench::kMinRuns);
  std::vector<double> untraced_run;
  for (const auto& r : batch.passed) untraced_run.push_back(r.run_s);

  // The traced experiment: the same calls Experiment::run() makes, split
  // at the attack start and the trigger time.
  const sc::Timeline tl = sc::generate_timeline(spec);
  const std::string tl_err = sc::validate_timeline(spec, tl);
  SpanRecorder rec;
  const int root = rec.begin("workload", -1);

  const int setup = rec.begin("scenario.setup", root);
  auto exp = std::make_unique<sc::Experiment>(sc::compile(spec));
  exp->setup();
  perfbench::arm_timeline(*exp, tl);
  rec.end(setup);

  struct Phase {
    const char* span;
    double until;
    int id = -1;
    std::uint64_t events = 0;
  };
  Phase phases[] = {{"run.warmup", spec.attack_start},
                    {"run.onset", spec.trigger_time},
                    {"run.steady", spec.end_time}};
  for (Phase& ph : phases) {
    const std::uint64_t before = exp->simulator().events_processed();
    ph.id = rec.begin(ph.span, root);
    exp->run_until(ph.until);
    rec.end(ph.id);
    ph.events = exp->simulator().events_processed() - before;
  }
  const bool reached_end = exp->simulator().now() >= spec.end_time;

  const int report = rec.begin("metrics.report", root);
  const sc::ExperimentResult r = exp->snapshot_result();
  rec.end(report);

  const LayerCounters layers = read_layers(*exp);

  const int probe = rec.begin("sim.route_probe", root);
  const double lookup_ns =
      route_lookup_ns(exp->network(), exp->victim_addrs());
  rec.end(probe);

  const int teardown = rec.begin("scenario.teardown", root);
  exp.reset();
  rec.end(teardown);
  rec.end(root);

  perfbench::Outcome traced = perfbench::check_result(spec, r);
  if (!tl_err.empty()) traced.failure = "malformed timeline: " + tl_err;
  if (traced.failure.empty() && !reached_end) {
    traced.failure = "the simulator clock stopped before end_time";
  }
  perfbench::admit(batch, traced);
  for (const std::string& f : batch.failures) {
    std::fprintf(stderr, "failed run: %s\n", f.c_str());
  }

  double child_s = 0.0;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    if (rec.spans()[i].parent == root) child_s += rec.seconds(int(i));
  }
  double traced_run_s = rec.seconds(report);
  for (const Phase& ph : phases) traced_run_s += rec.seconds(ph.id);
  const double untraced_median = perfbench::median(untraced_run);
  const double overhead_s = traced_run_s - untraced_median;

  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (!write_trace(path, opt, rec, untraced_median, overhead_s)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }

  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const auto& s = rec.spans()[i];
    std::printf("span %-20s parent %-2d %12.6f s\n", s.name.c_str(),
                s.parent, rec.seconds(int(i)));
  }
  std::printf("workload %s seed %llu: fingerprint %016llx (traced %016llx)\n",
              w->name.c_str(), static_cast<unsigned long long>(spec.seed),
              static_cast<unsigned long long>(batch.fingerprint),
              static_cast<unsigned long long>(traced.fingerprint));

  const auto ns_per_event = [&](const Phase& ph) {
    return ph.events > 0 ? rec.seconds(ph.id) * 1e9 / double(ph.events)
                         : 0.0;
  };
  const double decided =
      r.sft_admissions > 0
          ? double(r.moved_to_nft + r.moved_to_pdt) / double(r.sft_admissions)
          : 0.0;
  perfbench::emit(
      batch.failed == 0, batch.attempted, batch.failed,
      {
          {"sim.route_entries", layers.route_entries, "count"},
          {"sim.route_lookups", layers.route_lookups, "count"},
          {"sim.route_lookup_ns", lookup_ns, "ns"},
          {"sim.events_warmup", double(phases[0].events), "count"},
          {"sim.events_onset", double(phases[1].events), "count"},
          {"sim.events_steady", double(phases[2].events), "count"},
          {"sim.ns_per_event_warmup", ns_per_event(phases[0]), "ns"},
          {"sim.ns_per_event_onset", ns_per_event(phases[1]), "ns"},
          {"sim.ns_per_event_steady", ns_per_event(phases[2]), "ns"},
          {"sim.link_packets", layers.link_packets, "count"},
          {"sim.queue_drops", layers.queue_drops, "count"},
          {"sim.timers_peak", layers.timers_peak, "count"},
          {"core.offered", double(r.metrics.total_offered), "count"},
          {"core.admissions", double(r.sft_admissions), "count"},
          {"core.probes", double(r.probes_issued), "count"},
          {"core.to_nft", double(r.moved_to_nft), "count"},
          {"core.to_pdt", double(r.moved_to_pdt), "count"},
          {"core.evictions", double(r.sft_evictions), "count"},
          {"core.decided_share", decided, "fraction"},
          {"pushback.epochs", layers.pushback_epochs, "count"},
          {"pushback.applies", layers.pushback_applies, "count"},
          {"pushback.retargets", layers.pushback_retargets, "count"},
          {"pushback.alarms", layers.pushback_alarms, "count"},
          {"pushback.engage_s", traced.engage_s, "sim_s"},
          {"sketch.epochs", layers.sketch_epochs, "count"},
          {"transport.tcp_sent", layers.tcp_sent, "count"},
          {"transport.tcp_retransmits", layers.tcp_retransmits, "count"},
          {"transport.tcp_timeouts", layers.tcp_timeouts, "count"},
          {"attack.offered", double(r.metrics.malicious_offered), "count"},
          {"attack.phases_fired", layers.phases_fired, "count"},
          {"metrics.theta_p", r.metrics.theta_p, "fraction"},
          {"metrics.report_s", rec.seconds(report), "s"},
          {"scenario.teardown_s", rec.seconds(teardown), "s"},
          {"trace.run_overhead_s", overhead_s, "s"},
          {"trace.span_coverage", child_s / rec.seconds(root), "fraction"},
      });
  return 0;
}
