// Raw packet-replay harness: the classify micro-path measured with the
// simulator out of the loop. Pre-generated in-memory traces drive
// FilterEngine / ShardedFilter directly — no sim::Simulator, no event
// heap, no PacketPtr lifecycle — so the reported packets/sec is the
// datapath's own, and pairing the single-engine replay tiers with a
// sim-driven twin (the same trace delivered through a MaficFilter by
// scheduled simulator events, each recv()ing its group of packets in
// order) turns "sim overhead" into a visible number instead of a
// confound baked into every published tier.
//
// Trace tiers, each stationary by construction:
//   steady     — whole population resolved into the NFT; uniform-random
//                keys. The line-rate tier: every packet takes the NFT
//                fast lane. Measured cache-resident (64k flows, the
//                gated tier) and DRAM-bound (1M flows, reported).
//   probation  — whole population live in the SFT inside its response
//                window; every packet runs the half-window counts + Pd
//                coin. All flows are legitimate by construction, so the
//                measured drop fraction IS the collateral legit-drop
//                rate Lr (recorded as `lr`, same field the Fig. 7
//                wiring emits).
//   admission  — every packet a fresh spoofed flow at a full SFT: the
//                Fig.-2 new-flow path (coin, admit, O(1) ring evict,
//                timer schedule) — the scalar tail at 100% duty.
//   zipf       — steady-state population under a zipf(1.0) key
//                distribution: the skewed-popularity regime where a few
//                hot flows keep their lines in L1/L2.
//
// Three walks over the same trace price the refactor itself:
//   pipeline   — inspect_batch (the staged SoA verdict pipeline);
//   reference  — the PR 6 batched walk (window-16 pre-hash + prefetch,
//                then the per-packet branch ladder via inspect_hashed);
//   scalar     — per-packet inspect(), the oracle.
// The steady tiers gate pipeline >= 1.2x faster than the reference
// walk (best of the cache-resident and DRAM tiers — the cache tier's
// reference flaps with per-process code layout, the DRAM tier does
// not); every tier asserts the pipeline's verdict stream is
// bit-identical to scalar inspect() over identically-built fixtures.
//
// Results append to BENCH_flow_store.json: ns/pkt (gated by
// tools/check_bench_regression.py), pps and cycles/pkt (informational),
// rows named replay_* (datapath) and sim_twin_* (simulator-driven).
// --smoke shrinks the traces, keeps every bit-identity assert, skips
// the timing gate (CI boxes flap), and appends NOTHING to the JSON:
// smoke tiers run at different flow counts than full tiers, so one
// committed smoke run would make every later full run look like it
// dropped tiers (and vice versa) under the regression gate's
// missing-tier diff. The trajectory only ever records full runs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "bench_json.hpp"
#include "core/mafic_filter.hpp"
#include "core/sharded_filter.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace mafic;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_cycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return 0;
#endif
}

const util::Addr kVictim = util::make_addr(172, 17, 0, 1);

sim::FlowLabel label_for(std::uint64_t i) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff), kVictim,
          std::uint16_t(1024 + (i % 40000)), 80};
}

/// Spoofed-source labels for the admission-flood tier; disjoint from
/// label_for's 172.16/12 space so prefill and trace flows never collide
/// with a steady population.
sim::FlowLabel flood_label(std::uint64_t i) {
  return {util::make_addr(60, (i >> 16) & 0xff, (i >> 8) & 0xff, i & 0xff),
          kVictim, std::uint16_t(1024 + (i & 0x3fff)), 80};
}

sim::Packet make_packet(const sim::FlowLabel& label, std::uint64_t uid) {
  sim::Packet p;
  p.label = label;
  p.proto = sim::Protocol::kTcp;
  p.size_bytes = 600;
  p.uid = uid;
  return p;
}

// ---- fixtures --------------------------------------------------------------

/// A replay fixture is a standalone ShardedFilter (manual clocks, no
/// simulator) plus the exact warm-up packet sequence that produced its
/// table state — replayed verbatim (same uids, so the same coins) into
/// the sim twin, which therefore reaches the same
/// steady state before its timed window.
struct Fixture {
  std::unique_ptr<core::ShardedFilter> filter;
  std::vector<sim::Packet> warm;
  core::MaficConfig cfg;
  bool resolve = false;  ///< twin advances past decision deadlines
};

core::MaficConfig base_config(std::size_t shards, std::uint64_t flows,
                              double pd) {
  core::MaficConfig cfg;
  const std::uint64_t mean = flows / shards;
  const std::uint64_t per_shard = mean + mean / 8 + 1024;
  cfg.sft_capacity = per_shard;
  cfg.nft_capacity = per_shard;
  cfg.pdt_capacity = per_shard;
  cfg.probe_enabled = false;  // no wired victim topology in a replay
  cfg.drop_probability = pd;
  // Pin probation windows to 2 x max_rtt = 0.2 s: the probation trace
  // stays inside every flow's window without touching the clock.
  cfg.default_rtt = cfg.max_rtt;
  // Stateless coins: the twin replays the same (seed, key, uid) triples
  // and lands on the same admissions.
  cfg.coin_seed = 0x5eedULL;
  return cfg;
}

/// Whole population resolved into the NFT: Pd = 1 admits every flow on
/// first sight; advancing past the deadlines resolves all probations to
/// NFT (benefit of the doubt — no baseline traffic).
Fixture build_steady(std::size_t shards, std::uint64_t flows) {
  Fixture fx;
  fx.cfg = base_config(shards, flows, /*pd=*/1.0);
  fx.resolve = true;
  fx.filter = std::make_unique<core::ShardedFilter>(shards, fx.cfg, nullptr);
  fx.filter->activate({kVictim});
  fx.warm.reserve(flows);
  for (std::uint64_t i = 0; i < flows; ++i) {
    fx.warm.push_back(make_packet(label_for(i), /*uid=*/i + 1));
  }
  for (const sim::Packet& p : fx.warm) fx.filter->inspect(p);
  fx.filter->advance_until(1.0);
  return fx;
}

/// Whole population live in the SFT, inside its response window: Pd
/// admits ~90% per offer, so a few rounds over the stragglers fill the
/// table; the clock never advances, so no probation ever resolves.
Fixture build_probation(std::uint64_t flows) {
  Fixture fx;
  fx.cfg = base_config(1, flows, /*pd=*/0.9);
  fx.filter = std::make_unique<core::ShardedFilter>(1, fx.cfg, nullptr);
  fx.filter->activate({kVictim});
  const core::FilterEngine& eng = fx.filter->engine(0);
  std::uint64_t uid = 1;
  for (int round = 0; round < 64; ++round) {
    if (eng.tables().sft_size() >= flows) break;
    for (std::uint64_t i = 0; i < flows; ++i) {
      const std::uint64_t key = sim::hash_label(label_for(i));
      if (eng.tables().peek(key).kind == core::TableKind::kSuspicious) {
        continue;
      }
      fx.warm.push_back(make_packet(label_for(i), uid++));
      fx.filter->engine(0).inspect(fx.warm.back());
    }
  }
  if (eng.tables().sft_size() < flows) {
    std::fprintf(stderr, "FAIL: probation fixture never filled\n");
    std::exit(1);
  }
  return fx;
}

/// A full SFT under a per-packet-spoofed flood: prefill to capacity so
/// every measured admission evicts (the O(1) ring path). Returns the
/// number of spoofed labels consumed by the prefill, so the trace
/// continues the label sequence without collisions.
Fixture build_flood(std::uint64_t sft_capacity, std::uint64_t* labels_used) {
  Fixture fx;
  fx.cfg = base_config(1, sft_capacity, /*pd=*/0.9);
  fx.cfg.sft_capacity = sft_capacity;  // exact: full table, every slot live
  fx.filter = std::make_unique<core::ShardedFilter>(1, fx.cfg, nullptr);
  fx.filter->activate({kVictim});
  const core::FlowTables& tables = fx.filter->engine(0).tables();
  std::uint64_t id = 0;
  std::uint64_t uid = 1;
  while (tables.sft_size() < sft_capacity) {
    fx.warm.push_back(make_packet(flood_label(id++), uid++));
    fx.filter->engine(0).inspect(fx.warm.back());
  }
  *labels_used = id;
  return fx;
}

// ---- traces ----------------------------------------------------------------

/// Trace uids start far above any fixture warm-up uid, so the per-packet
/// hash coins of warm-up and measurement never alias.
constexpr std::uint64_t kTraceUidBase = 1ull << 32;

std::vector<sim::Packet> uniform_trace(std::uint64_t flows,
                                       std::uint64_t packets) {
  util::Rng rng(0xace0fbeef);
  std::vector<sim::Packet> t;
  t.reserve(packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    t.push_back(make_packet(label_for(rng.index(flows)), kTraceUidBase + i));
  }
  return t;
}

std::vector<sim::Packet> zipf_trace(std::uint64_t flows,
                                    std::uint64_t packets) {
  // Inverse-CDF zipf(1.0) over flow ranks; the CDF build is O(flows).
  std::vector<double> cdf(flows);
  double total = 0;
  for (std::uint64_t i = 0; i < flows; ++i) {
    total += 1.0 / double(i + 1);
    cdf[i] = total;
  }
  util::Rng rng(0x21bf0cca);
  std::vector<sim::Packet> t;
  t.reserve(packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    const double u = rng.uniform01() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto flow = std::uint64_t(it - cdf.begin());
    t.push_back(make_packet(label_for(flow), kTraceUidBase + i));
  }
  return t;
}

std::vector<sim::Packet> flood_trace(std::uint64_t first_label,
                                     std::uint64_t packets) {
  std::vector<sim::Packet> t;
  t.reserve(packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    t.push_back(
        make_packet(flood_label(first_label + i), kTraceUidBase + i));
  }
  return t;
}

// ---- measured walks --------------------------------------------------------

constexpr std::size_t kBurst = 256;

struct Timed {
  double ns_per_packet = 0;
  double cycles_per_packet = 0;
};

/// Best-of-N harness: runs `pass()` N times, keeps the fastest pass's
/// wall time and its TSC delta (same pass, so the two stay coherent).
template <typename Pass>
Timed best_of(int passes, std::uint64_t packets, Pass&& pass) {
  Timed out;
  double best = 0;
  for (int i = 0; i < passes; ++i) {
    const std::uint64_t c0 = now_cycles();
    const double t0 = now_ns();
    pass();
    const double ns = now_ns() - t0;
    const std::uint64_t cycles = now_cycles() - c0;
    if (i == 0 || ns < best) {
      best = ns;
      out.cycles_per_packet = double(cycles) / double(packets);
    }
  }
  out.ns_per_packet = best / double(packets);
  return out;
}

/// The pipeline walk: inspect_batch over kBurst windows (single engine,
/// contiguous span — the replay datapath under test).
Timed run_pipeline(core::FilterEngine& eng,
                   const std::vector<sim::Packet>& trace, int passes,
                   std::uint64_t* fwd) {
  std::vector<core::EngineVerdict> v(kBurst);
  return best_of(passes, trace.size(), [&] {
    const sim::Packet* data = trace.data();
    std::size_t left = trace.size();
    while (left > 0) {
      const std::size_t n = left < kBurst ? left : kBurst;
      eng.inspect_batch(data, n, v.data());
      for (std::size_t j = 0; j < n; ++j) {
        *fwd += v[j] == core::EngineVerdict::kForward ? 1 : 0;
      }
      data += n;
      left -= n;
    }
  });
}

/// The PR 6 batched reference: window-16 pre-hash + store prefetch, then
/// the per-packet branch ladder (inspect_hashed) — exactly the walk the
/// pipeline replaced, kept here as the speedup comparator.
Timed run_reference(core::FilterEngine& eng,
                    const std::vector<sim::Packet>& trace, int passes,
                    std::uint64_t* fwd) {
  constexpr std::size_t kWindow = 16;
  std::uint64_t keys[kWindow];
  std::uint8_t hot[kWindow];
  return best_of(passes, trace.size(), [&] {
    const std::size_t n = trace.size();
    std::size_t i = 0;
    while (i < n) {
      const std::size_t m = std::min(kWindow, n - i);
      for (std::size_t j = 0; j < m; ++j) {
        const sim::Packet& p = trace[i + j];
        const bool h = eng.wants(p);
        hot[j] = h ? 1 : 0;
        if (h) {
          keys[j] = sim::hash_label(p.label);
          eng.tables().prefetch(keys[j]);
        }
      }
      for (std::size_t j = 0; j < m; ++j) {
        const core::EngineVerdict verdict =
            hot[j] != 0 ? eng.inspect_hashed(trace[i + j], keys[j])
                        : core::EngineVerdict::kForward;
        *fwd += verdict == core::EngineVerdict::kForward ? 1 : 0;
      }
      i += m;
    }
  });
}

/// The scalar oracle: per-packet inspect().
Timed run_scalar(core::FilterEngine& eng,
                 const std::vector<sim::Packet>& trace, int passes,
                 std::uint64_t* fwd) {
  return best_of(passes, trace.size(), [&] {
    for (const sim::Packet& p : trace) {
      *fwd += eng.inspect(p) == core::EngineVerdict::kForward ? 1 : 0;
    }
  });
}

/// The sharded arrival-order walk: ShardedFilter::inspect_batch over an
/// indirect span, kBurst at a time.
Timed run_sharded(core::ShardedFilter& filter,
                  const std::vector<sim::Packet>& trace, int passes,
                  std::uint64_t* fwd) {
  std::vector<const sim::Packet*> ptrs(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) ptrs[i] = &trace[i];
  std::vector<core::EngineVerdict> v(kBurst);
  return best_of(passes, trace.size(), [&] {
    const sim::Packet* const* data = ptrs.data();
    std::size_t left = ptrs.size();
    while (left > 0) {
      const std::size_t n = left < kBurst ? left : kBurst;
      filter.inspect_batch(data, n, v.data());
      for (std::size_t j = 0; j < n; ++j) {
        *fwd += v[j] == core::EngineVerdict::kForward ? 1 : 0;
      }
      data += n;
      left -= n;
    }
  });
}

// ---- bit-identity gate -----------------------------------------------------

/// Builds the fixture twice (identical seeds and warm-ups), runs the
/// trace through the batched pipeline on one and per-packet inspect()
/// on the other, and requires the full verdict streams, engine stats
/// and table stats to match exactly. `sharded` routes the batch through
/// ShardedFilter::inspect_batch instead of the single-engine overload.
template <typename Build>
bool check_identity(const char* tier, Build&& build,
                    const std::vector<sim::Packet>& trace, bool sharded) {
  Fixture a = build();
  Fixture b = build();
  const std::size_t n = trace.size();
  std::vector<core::EngineVerdict> va(n);
  std::vector<core::EngineVerdict> vb(n);

  if (sharded) {
    std::vector<const sim::Packet*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = &trace[i];
    std::size_t i = 0;
    while (i < n) {
      const std::size_t m = std::min(kBurst, n - i);
      a.filter->inspect_batch(ptrs.data() + i, m, va.data() + i);
      i += m;
    }
  } else {
    std::size_t i = 0;
    while (i < n) {
      const std::size_t m = std::min(kBurst, n - i);
      a.filter->engine(0).inspect_batch(trace.data() + i, m, va.data() + i);
      i += m;
    }
  }
  for (std::size_t i = 0; i < n; ++i) vb[i] = b.filter->inspect(trace[i]);

  std::size_t mismatch = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (va[i] != vb[i]) {
      mismatch = i;
      break;
    }
  }
  const core::FilterEngine::Stats sa = a.filter->aggregate_stats();
  const core::FilterEngine::Stats sb = b.filter->aggregate_stats();
  const core::FlowTables::Stats ta = a.filter->aggregate_tables_stats();
  const core::FlowTables::Stats tb = b.filter->aggregate_tables_stats();
  const bool stats_ok =
      sa.offered == sb.offered && sa.forwarded == sb.forwarded &&
      sa.dropped_probation == sb.dropped_probation &&
      sa.dropped_pdt == sb.dropped_pdt &&
      ta.sft_admissions == tb.sft_admissions &&
      ta.sft_evictions == tb.sft_evictions &&
      ta.moved_to_nft == tb.moved_to_nft && ta.moved_to_pdt == tb.moved_to_pdt;
  const bool ok = mismatch == n && stats_ok;
  std::printf("  identity[%s]: %zu packets, %s\n", tier, n,
              ok ? "batched == scalar" : "DIVERGED");
  if (mismatch != n) {
    std::fprintf(stderr,
                 "FAIL: %s verdict stream diverged at packet %zu "
                 "(batched %d vs scalar %d)\n",
                 tier, mismatch, int(va[mismatch]), int(vb[mismatch]));
  } else if (!stats_ok) {
    std::fprintf(stderr, "FAIL: %s stats diverged\n", tier);
  }
  return ok;
}

// ---- sim twin --------------------------------------------------------------

class CountingSink final : public sim::Connector {
 public:
  void recv(sim::PacketPtr) override { ++count; }
  std::uint64_t count = 0;
};

/// The simulator-driven twin of one replay tier: the same warm-up and
/// trace packets (same uids, so the same coins and the same table
/// trajectory) delivered through a MaficFilter by scheduled events, each
/// recv()ing its group of packets in order, as a link head does. The
/// ns/pkt delta against the replay tier is the simulator's own cost —
/// event heap, PacketPtr lifecycle, connector dispatch — on top of an
/// identical classify workload.
double run_sim_twin(const Fixture& fx, const std::vector<sim::Packet>& trace,
                    int passes) {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::PacketFactory factory;
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  core::MaficFilter filter(&sim, &factory, atr, fx.cfg, nullptr);
  CountingSink sink;
  filter.set_target(&sink);
  filter.activate({kVictim});

  const auto clone = [&factory](const sim::Packet& src) {
    sim::PacketPtr p = factory.make();
    p->label = src.label;
    p->proto = src.proto;
    p->size_bytes = src.size_bytes;
    p->uid = src.uid;  // replayed uid: the coin matches the replay tier
    return p;
  };

  // Warm-up deliveries at t = 0.5 (probation windows then span
  // [0.5, 0.7]); steady fixtures additionally run past the decision
  // deadlines so the population resolves before the timed window.
  {
    std::size_t i = 0;
    std::size_t group_no = 0;
    while (i < fx.warm.size()) {
      const std::size_t m = std::min<std::size_t>(1024, fx.warm.size() - i);
      auto span = std::make_shared<std::vector<sim::PacketPtr>>();
      span->reserve(m);
      for (std::size_t j = 0; j < m; ++j) span->push_back(clone(fx.warm[i + j]));
      sim.schedule_at(0.5 + 1e-6 * double(group_no++),
                      [&filter, span] {
                        for (auto& p : *span) filter.recv(std::move(p));
                        span->clear();
                      });
      i += m;
    }
  }

  const std::size_t ticks = (trace.size() + kBurst - 1) / kBurst;
  double best = 0;
  for (int pass = 0; pass < passes; ++pass) {
    // Unresolved fixtures (probation/flood) must stay inside their 0.2 s
    // windows, so their timed passes pack into [0.52, 0.56); resolved
    // fixtures measure after the deadlines have fired.
    const double base =
        (fx.resolve ? 0.95 : 0.52) + 0.01 * double(pass);
    std::vector<std::shared_ptr<std::vector<sim::PacketPtr>>> spans;
    spans.reserve(ticks);
    for (std::size_t t = 0; t < ticks; ++t) {
      const std::size_t off = t * kBurst;
      const std::size_t m = std::min(kBurst, trace.size() - off);
      auto span = std::make_shared<std::vector<sim::PacketPtr>>();
      span->reserve(m);
      for (std::size_t j = 0; j < m; ++j) span->push_back(clone(trace[off + j]));
      spans.push_back(span);
      sim.schedule_at(base + 1e-6 * double(t), [&filter, span] {
        for (auto& p : *span) filter.recv(std::move(p));
        span->clear();
      });
    }
    sim.run_until(base - 1e-4);  // warm-up + scheduling, untimed
    const double t0 = now_ns();
    sim.run_until(base + 1e-6 * double(ticks) + 1e-4);
    const double ns = now_ns() - t0;
    if (pass == 0 || ns < best) best = ns;
  }
  sim::Packet::trim_freelist();
  return best / double(trace.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // Tier sizing. Smoke keeps every bit-identity assert on real (small)
  // traces and skips only the timing gate.
  const std::uint64_t kSteadyFlows = smoke ? 4096 : 65536;
  const std::uint64_t kDramFlows = smoke ? 0 : 1'000'000;
  const std::uint64_t kProbFlows = smoke ? 1024 : 8192;
  const std::uint64_t kFloodSft = 4096;
  const std::uint64_t kPackets = smoke ? 120'000 : 1'000'000;
  const int kPasses = smoke ? 2 : 5;
  const int kTwinPasses = smoke ? 1 : 3;

  bool ok = true;
  std::vector<bench::BenchRecord> records;
  const double calib_ns = smoke ? 0.0 : bench::measure_calibration();
  if (!smoke) {
    std::printf("machine calibration: %.3f ns/step (ALU + DRAM chase)\n",
                calib_ns);
  }

  const auto push = [&records](const char* name, double flows,
                               const Timed& t, double lr = -1) {
    bench::BenchRecord r{"bench_replay_path", name, flows, t.ns_per_packet,
                         bench::read_vm_rss_kb()};
    r.pps = 1e9 / t.ns_per_packet;
    r.cycles_per_packet = t.cycles_per_packet;
    r.lr = lr;
    records.push_back(std::move(r));
  };
  const auto push_twin = [&records](const char* name, double flows,
                                    double ns) {
    bench::BenchRecord r{"bench_replay_path", name, flows, ns,
                         bench::read_vm_rss_kb()};
    r.pps = 1e9 / ns;
    records.push_back(std::move(r));
  };

  std::printf("replay path (%s): %llu-packet traces, burst %zu\n",
              smoke ? "smoke" : "full",
              static_cast<unsigned long long>(kPackets), kBurst);

  // ---- steady (cache-resident, the gated tier) -----------------------
  double steady_pipe_ns = 0;
  double steady_ref_ns = 0;
  {
    const std::vector<sim::Packet> trace = uniform_trace(kSteadyFlows, kPackets);
    ok &= check_identity(
        "steady", [&] { return build_steady(1, kSteadyFlows); }, trace,
        /*sharded=*/false);
    Fixture fx = build_steady(1, kSteadyFlows);
    core::FilterEngine& eng = fx.filter->engine(0);
    std::uint64_t fwd = 0;
    const Timed pipe = run_pipeline(eng, trace, kPasses, &fwd);
    const Timed ref = run_reference(eng, trace, kPasses, &fwd);
    const Timed scalar = run_scalar(eng, trace, kPasses, &fwd);
    steady_pipe_ns = pipe.ns_per_packet;
    steady_ref_ns = ref.ns_per_packet;
    // Steady state forwards everything (whole population is NFT).
    if (fwd != 3 * trace.size() * std::uint64_t(kPasses)) {
      std::fprintf(stderr, "FAIL: steady tier dropped packets\n");
      ok = false;
    }
    std::printf("  steady %llu flows: pipeline %.2f ns/pkt (%.1f cyc), "
                "pr6 ref %.2f, scalar %.2f\n",
                static_cast<unsigned long long>(kSteadyFlows),
                pipe.ns_per_packet, pipe.cycles_per_packet,
                ref.ns_per_packet, scalar.ns_per_packet);
    push("replay_steady", double(kSteadyFlows), pipe);
    push("replay_steady_ref", double(kSteadyFlows), ref);
    push("replay_steady_scalar", double(kSteadyFlows), scalar);
    const double twin = run_sim_twin(fx, trace, kTwinPasses);
    std::printf("  steady sim twin: %.2f ns/pkt (sim overhead %.2f)\n",
                twin, twin - pipe.ns_per_packet);
    push_twin("sim_twin_steady", double(kSteadyFlows), twin);
  }

  // ---- steady (DRAM-bound, reported; skipped in smoke) ---------------
  double dram_pipe_ns = 0;
  double dram_ref_ns = 0;
  if (kDramFlows > 0) {
    const std::vector<sim::Packet> trace = uniform_trace(kDramFlows, kPackets);
    Fixture fx = build_steady(1, kDramFlows);
    core::FilterEngine& eng = fx.filter->engine(0);
    std::uint64_t fwd = 0;
    const Timed pipe = run_pipeline(eng, trace, kPasses, &fwd);
    const Timed ref = run_reference(eng, trace, kPasses, &fwd);
    dram_pipe_ns = pipe.ns_per_packet;
    dram_ref_ns = ref.ns_per_packet;
    std::printf("  steady %llu flows (DRAM): pipeline %.2f ns/pkt, "
                "pr6 ref %.2f\n",
                static_cast<unsigned long long>(kDramFlows),
                pipe.ns_per_packet, ref.ns_per_packet);
    push("replay_steady_dram", double(kDramFlows), pipe);
    push("replay_steady_dram_ref", double(kDramFlows), ref);
  }

  // ---- probation-heavy (collateral Lr falls out for free) ------------
  {
    const std::vector<sim::Packet> trace = uniform_trace(kProbFlows, kPackets);
    ok &= check_identity(
        "probation", [&] { return build_probation(kProbFlows); }, trace,
        /*sharded=*/false);
    Fixture fx = build_probation(kProbFlows);
    core::FilterEngine& eng = fx.filter->engine(0);
    const core::FilterEngine::Stats before = eng.stats();
    std::uint64_t fwd = 0;
    const Timed pipe = run_pipeline(eng, trace, kPasses, &fwd);
    const core::FilterEngine::Stats after = eng.stats();
    // Every trace flow is legitimate by construction, so the measured
    // drop fraction IS the collateral legit-drop rate at Pd = 0.9.
    const double lr =
        double(after.dropped_probation - before.dropped_probation) /
        double(after.offered - before.offered);
    std::printf("  probation %llu flows: pipeline %.2f ns/pkt (%.1f cyc), "
                "legit-drop Lr %.3f\n",
                static_cast<unsigned long long>(kProbFlows),
                pipe.ns_per_packet, pipe.cycles_per_packet, lr);
    push("replay_probation", double(kProbFlows), pipe, lr);
    const double twin = run_sim_twin(fx, trace, kTwinPasses);
    std::printf("  probation sim twin: %.2f ns/pkt (sim overhead %.2f)\n",
                twin, twin - pipe.ns_per_packet);
    push_twin("sim_twin_probation", double(kProbFlows), twin);
  }

  // ---- admission flood (new-flow path at 100%% duty) ------------------
  {
    std::uint64_t labels_used = 0;
    // Probe build: learn the prefill label count so all three fixture
    // instances (identity pair + timed) see the same disjoint trace.
    build_flood(kFloodSft, &labels_used);
    const std::vector<sim::Packet> trace = flood_trace(labels_used, kPackets);
    std::uint64_t scratch = 0;
    ok &= check_identity(
        "admission_flood",
        [&] { return build_flood(kFloodSft, &scratch); }, trace,
        /*sharded=*/false);
    Fixture fx = build_flood(kFloodSft, &scratch);
    core::FilterEngine& eng = fx.filter->engine(0);
    std::uint64_t fwd = 0;
    const Timed pipe = run_pipeline(eng, trace, kPasses, &fwd);
    std::printf("  admission flood (SFT %llu): pipeline %.2f ns/pkt "
                "(%.1f cyc)\n",
                static_cast<unsigned long long>(kFloodSft),
                pipe.ns_per_packet, pipe.cycles_per_packet);
    push("replay_admission_flood", double(kFloodSft), pipe);
    const double twin = run_sim_twin(fx, trace, kTwinPasses);
    std::printf("  flood sim twin: %.2f ns/pkt (sim overhead %.2f)\n",
                twin, twin - pipe.ns_per_packet);
    push_twin("sim_twin_flood", double(kFloodSft), twin);
  }

  // ---- zipf keys over a resolved population --------------------------
  {
    const std::vector<sim::Packet> trace = zipf_trace(kSteadyFlows, kPackets);
    ok &= check_identity(
        "zipf", [&] { return build_steady(1, kSteadyFlows); }, trace,
        /*sharded=*/false);
    Fixture fx = build_steady(1, kSteadyFlows);
    core::FilterEngine& eng = fx.filter->engine(0);
    std::uint64_t fwd = 0;
    const Timed pipe = run_pipeline(eng, trace, kPasses, &fwd);
    std::printf("  zipf %llu flows: pipeline %.2f ns/pkt (%.1f cyc)\n",
                static_cast<unsigned long long>(kSteadyFlows),
                pipe.ns_per_packet, pipe.cycles_per_packet);
    push("replay_zipf", double(kSteadyFlows), pipe);
    const double twin = run_sim_twin(fx, trace, kTwinPasses);
    std::printf("  zipf sim twin: %.2f ns/pkt (sim overhead %.2f)\n",
                twin, twin - pipe.ns_per_packet);
    push_twin("sim_twin_zipf", double(kSteadyFlows), twin);
  }

  // ---- sharded steady (4 shards, arrival-order cross-shard walk) -----
  {
    const std::vector<sim::Packet> trace = uniform_trace(kSteadyFlows, kPackets);
    ok &= check_identity(
        "sharded_steady", [&] { return build_steady(4, kSteadyFlows); },
        trace, /*sharded=*/true);
    Fixture fx = build_steady(4, kSteadyFlows);
    std::uint64_t fwd = 0;
    const Timed pipe = run_sharded(*fx.filter, trace, kPasses, &fwd);
    std::printf("  sharded steady (4 shards): pipeline %.2f ns/pkt "
                "(%.1f cyc)\n",
                pipe.ns_per_packet, pipe.cycles_per_packet);
    push("replay_sharded_s4", double(kSteadyFlows), pipe);
  }

  // ---- the speedup gate (full runs only; smoke timing is junk) -------
  if (!smoke) {
    // Gate on the better of the two steady tiers. The pipeline's own
    // number is stable run-to-run, but the cache-resident reference
    // path flaps several percent with per-process code layout; the
    // DRAM tier is memory-bound and immune to that, so a layout-lucky
    // reference run cannot flip the gate when the structural win is
    // intact.
    const double cache_speedup = steady_ref_ns / steady_pipe_ns;
    const double dram_speedup =
        dram_ref_ns > 0 ? dram_ref_ns / dram_pipe_ns : 0;
    const double speedup = std::max(cache_speedup, dram_speedup);
    std::printf("steady-tier pipeline speedup vs PR 6 batched walk: "
                "cache %.2fx, DRAM %.2fx (gate: best >= 1.2x)\n",
                cache_speedup, dram_speedup);
    if (speedup < 1.2) {
      std::fprintf(stderr,
                   "FAIL: pipeline %.2f/%.2f ns/pkt vs reference "
                   "%.2f/%.2f ns/pkt (cache/DRAM) = %.2fx best, gate "
                   "requires >= 1.2x\n",
                   steady_pipe_ns, dram_pipe_ns, steady_ref_ns,
                   dram_ref_ns, speedup);
      ok = false;
    }
  }

  if (!smoke) {
    // Smoke tiers use different flow counts than full tiers; recording
    // them would poison the committed trajectory's missing-tier diff
    // (see the header comment).
    for (auto& r : records) r.calib_ns = calib_ns;
    bench::append_records(bench::kFlowStoreJson, records);
    std::printf("results appended to %s\n", bench::kFlowStoreJson);
  }
  return ok ? 0 : 1;
}
