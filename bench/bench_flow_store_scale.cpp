// Flow-store scaling bench: the flat open-addressing store against the
// pre-refactor map-based tables (10k -> 1M resident flows), plus the
// sharded multi-core datapath introduced with core::ShardedFilter.
//
// Claims checked here, all load-bearing for the "line rate under a flood
// of spoofed flows" premise:
//   1. throughput: classify() on the flat store sustains >= 2x the
//      packets/sec of the map-based tables at 1M resident flows;
//   2. allocation-freedom: steady-state MaficFilter::inspect() and
//      FilterEngine::inspect_batch() perform ZERO heap allocations
//      (asserted with a global operator-new counter);
//   3. sharded scale: at 1M aggregate resident flows, 4 engine shards
//      running batched+prefetched inspection sustain >= 3x the aggregate
//      packets/sec of the 1-shard scalar path (the PR 1 single-core
//      baseline);
//   4. O(1) capacity eviction: a per-packet-spoofed admission flood at a
//      full SFT (every admission evicts) stays flat per admission — the
//      deadline-bucketed ring replaced the linear arena scan — both on
//      the legacy global ring and through the per-victim quota
//      machinery (sft_victim_quota), where the flood is shaped so the
//      cross-class payer walk (under-quota reclaim from the most
//      over-quota class) fires every iteration, not just the self-pay
//      fast path;
//   8. the generated-scenario price: the catalog's probation-heavy
//      spoof_churn entry (scenario_spoof_churn_t0 tier) runs end-to-end
//      through the simulator, and its ns per offered packet lands in
//      the trajectory.
// (Numbers 5, 6 and 7 are unused: claim numbers match docs/BENCHMARKS.md,
// where those three are retired.)
//
// Sharding driver: one thread per shard when the hardware has the cores;
// on smaller machines the shards run back-to-back on one core and the
// aggregate is the sum of per-shard rates. The projection assumes no
// cross-shard contention on *shared state* (true by construction — see
// sharded_filter.hpp; the equivalence property test and the TSan CI job
// pin it) but not on shared cache/memory bandwidth, so the claim that
// matters is the threaded one: CI's 4-vCPU runners take the threaded
// path at <= 4 shards, and the 3x gate is measured with real threads
// there. Serial rows are labeled "serial" in the output and benefit from
// per-shard tables being smaller and hotter.
//
// Results append to BENCH_flow_store.json (ns/packet and VmRSS per tier);
// tools/check_bench_regression.py fails CI on a >10% regression at any
// tier. --smoke runs a small threaded shard-driver pass only (the TSan CI
// job's prey).
// No Google Benchmark dependency: the loops are self-timed so the alloc
// counter sees exactly the measured region.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "reference_flow_tables.hpp"
#include "core/flow_tables.hpp"
#include "core/mafic_filter.hpp"
#include "core/sharded_filter.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario_catalog.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every path into the global heap; the steady-state sections assert
// this does not move.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mafic;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sim::FlowLabel label_for(std::uint64_t i) {
  return {util::make_addr(172, 16, (i >> 8) & 0xff, i & 0xff),
          util::make_addr(172, 17, 0, 1), std::uint16_t(1024 + (i % 40000)),
          80};
}

std::uint64_t key_for(std::uint64_t i) { return util::mix64(i + 1); }

/// Best-of pass count shared by the single-stream tiers; the completeness
/// checks in main()/run_scalar_baseline derive from it, so bumping it for
/// noise cannot silently break the gate assertions. Five passes: the min
/// must dodge multi-second contention spikes on shared dev boxes and CI
/// runners, and three passes left the 10% regression gate flapping.
constexpr int kBestOfPasses = 5;

/// Times `lookups` classify() calls over `population` resident keys.
/// Best of seven passes (rejects scheduler/frequency noise; five passes
/// still flapped the 10% regression gate on shared/steal-prone boxes);
/// `sink` defeats dead-code elimination.
template <typename Tables>
double time_classify(Tables& tables, std::uint64_t population,
                     std::uint64_t lookups, std::uint64_t* sink) {
  std::uint64_t acc = 0;
  // Warm loop (touches every key once, faults pages in).
  for (std::uint64_t i = 0; i < population; ++i) {
    acc += static_cast<std::uint64_t>(tables.classify(key_for(i)));
  }
  double best = 0;
  for (int pass = 0; pass < 7; ++pass) {
    const double start = now_ns();
    for (std::uint64_t i = 0; i < lookups; ++i) {
      acc +=
          static_cast<std::uint64_t>(tables.classify(key_for(i % population)));
    }
    const double elapsed = now_ns() - start;
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  *sink += acc;
  return best / static_cast<double>(lookups);
}

template <typename Tables>
void populate(Tables& tables, std::uint64_t population) {
  for (std::uint64_t i = 0; i < population; ++i) {
    const std::uint64_t key = key_for(i);
    if (i % 2 == 0) {
      tables.add_pdt_direct(key);
    } else {
      tables.admit_sft(key, label_for(i), 0.0, 0.2);
      tables.resolve(key, core::TableKind::kNice, 0.0);
    }
  }
}

struct TierResult {
  double flat_ns = 0;
  double flat_rss_kb = 0;
  double map_ns = 0;
  double map_rss_kb = 0;
  std::uint64_t flat_allocs_steady = 0;
};

TierResult run_tier(std::uint64_t population, std::uint64_t* sink) {
  TierResult out;
  const std::uint64_t lookups = 5'000'000;

  core::MaficConfig cfg;
  cfg.sft_capacity = 4096;
  cfg.nft_capacity = population;
  cfg.pdt_capacity = population;

  {
    core::FlowTables flat(cfg);
    populate(flat, population);
    out.flat_rss_kb = bench::read_vm_rss_kb();
    // Steady state: the classify loop must not touch the heap at all.
    const std::uint64_t allocs_before = g_allocs.load();
    out.flat_ns = time_classify(flat, population, lookups, sink);
    out.flat_allocs_steady = g_allocs.load() - allocs_before;
  }
  {
    bench::ReferenceMapFlowTables map_tables(cfg);
    populate(map_tables, population);
    out.map_rss_kb = bench::read_vm_rss_kb();
    out.map_ns = time_classify(map_tables, population, lookups, sink);
  }
  return out;
}

/// Streams every flow through a real MaficFilter until all are tabled,
/// then asserts the steady-state inspect() path performs zero heap
/// allocations across millions of packets. Returns {ns/packet, allocs}.
struct InspectResult {
  double ns_per_packet = 0;
  std::uint64_t allocs = 0;
};

InspectResult steady_state_inspect(std::uint64_t population,
                                   std::uint64_t packets) {
  sim::Simulator sim;
  sim::Network net(&sim);
  sim::Node* atr = net.add_router(util::make_addr(10, 0, 0, 1));
  sim::PacketFactory factory;

  core::MaficConfig cfg;
  cfg.sft_capacity = population;
  cfg.nft_capacity = population;
  cfg.pdt_capacity = population;
  cfg.probe_enabled = false;  // probes need a wired topology
  cfg.default_rtt = 0.02;     // 0.04 s probation windows

  core::MaficFilter filter(&sim, &factory, atr, cfg, nullptr);
  class Sink final : public sim::Connector {
   public:
    void recv(sim::PacketPtr) override {}
  } sink;
  filter.set_target(&sink);
  filter.activate({util::make_addr(172, 17, 0, 1)});

  const auto send_one = [&](std::uint64_t flow) {
    auto p = factory.make();
    p->label = label_for(flow);
    p->proto = sim::Protocol::kTcp;
    p->size_bytes = 1000;
    filter.recv(std::move(p));
  };

  // Warmup rounds: every still-untabled flow offers one packet per round
  // (Pd = 0.9 admits most on first sight); advancing the clock fires the
  // wheel's decision timers, resolving each probation into NFT/PDT.
  const auto& tables = filter.engine().tables();
  for (int round = 0; round < 80; ++round) {
    if (tables.nft_size() + tables.pdt_size() >= population) break;
    for (std::uint64_t i = 0; i < population; ++i) {
      const std::uint64_t key = sim::hash_label(label_for(i));
      if (!tables.in_nft(key) && !tables.in_pdt(key)) send_one(i);
    }
    sim.run_until(sim.now() + 0.1);  // past every open deadline
  }

  // Steady state: every packet hits a resolved flow — the full inspect()
  // datapath (hash, flat-store classify, forward) with zero admissions.
  // Best of kBestOfPasses (like time_classify): a single pass is at the
  // mercy of scheduler/frequency noise and flaps the regression gate.
  InspectResult out;
  const std::uint64_t allocs_before = g_allocs.load();
  double best = 0;
  for (int pass = 0; pass < kBestOfPasses; ++pass) {
    const double start = now_ns();
    for (std::uint64_t i = 0; i < packets; ++i) {
      send_one(i % population);
    }
    const double elapsed = now_ns() - start;
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  out.ns_per_packet = best / static_cast<double>(packets);
  out.allocs = g_allocs.load() - allocs_before;
  return out;
}

// ---- sharded datapath ------------------------------------------------------

constexpr std::size_t kBurst = 256;

/// Builds an N-shard filter with `total_flows` resident across all shards
/// (all NFT: one admitting packet per flow, then the decision timers fire)
/// and returns the per-shard packet substreams for the measurement loops.
struct ShardedFixture {
  std::unique_ptr<core::ShardedFilter> filter;
  std::vector<std::vector<sim::Packet>> stream;  ///< per-shard packets
};

ShardedFixture build_sharded(std::size_t shards, std::uint64_t total_flows) {
  core::MaficConfig cfg;
  // The hash partition is even only in expectation; leave a few sigma of
  // slack so no shard evicts during warmup.
  const std::uint64_t mean = total_flows / shards;
  const std::uint64_t per_shard = mean + mean / 8 + 1024;
  cfg.sft_capacity = per_shard;  // whole shard population fits in probation
  cfg.nft_capacity = per_shard;
  cfg.pdt_capacity = per_shard;
  cfg.probe_enabled = false;
  cfg.drop_probability = 1.0;  // deterministic admission on first sight
  cfg.default_rtt = 0.02;

  ShardedFixture fx;
  fx.filter = std::make_unique<core::ShardedFilter>(shards, cfg, nullptr);
  fx.filter->activate({util::make_addr(172, 17, 0, 1)});

  fx.stream.resize(shards);
  for (auto& v : fx.stream) v.reserve(total_flows / shards + 1024);
  for (std::uint64_t i = 0; i < total_flows; ++i) {
    sim::Packet p;
    p.label = label_for(i);
    p.proto = sim::Protocol::kTcp;
    p.size_bytes = 1000;
    fx.stream[fx.filter->shard_for(p)].push_back(p);
  }

  // Admit every flow (Pd = 1 drops-and-admits each on first sight), then
  // advance each shard's clock past every probation deadline so the
  // decision timers resolve the whole population into the NFT.
  for (std::size_t s = 0; s < shards; ++s) {
    core::FilterEngine& eng = fx.filter->engine(s);
    for (const sim::Packet& p : fx.stream[s]) eng.inspect(p);
    fx.filter->shard(s).advance_until(1.0);
  }
  return fx;
}

/// One shard's measured steady-state loop: `rounds` passes over its
/// substream through inspect_batch. `verdicts` is caller-preallocated
/// scratch (>= kBurst) so the measured region touches no allocator.
/// Returns elapsed ns.
double run_shard_stream(core::FilterEngine& eng,
                        const std::vector<sim::Packet>& stream, int rounds,
                        core::EngineVerdict* verdicts,
                        std::uint64_t* forwarded) {
  const double start = now_ns();
  std::uint64_t fwd = 0;
  for (int r = 0; r < rounds; ++r) {
    const sim::Packet* data = stream.data();
    std::size_t left = stream.size();
    while (left > 0) {
      const std::size_t n = left < kBurst ? left : kBurst;
      eng.inspect_batch(data, n, verdicts);
      for (std::size_t j = 0; j < n; ++j) {
        fwd += verdicts[j] == core::EngineVerdict::kForward ? 1 : 0;
      }
      data += n;
      left -= n;
    }
  }
  *forwarded += fwd;
  return now_ns() - start;
}

struct ShardTierResult {
  double aggregate_pps = 0;   ///< packets/sec summed across shards
  double per_shard_ns = 0;    ///< mean ns/packet inside one shard
  bool threaded = false;
  std::uint64_t allocs_steady = 0;
};

/// Measures aggregate steady-state throughput of an N-shard filter.
/// Threads when the hardware has a core per shard (or when forced, for
/// the TSan job); otherwise shards run back-to-back and the aggregate is
/// the contention-free sum of per-shard rates (valid: zero shared state).
ShardTierResult run_sharded_tier(std::size_t shards,
                                 std::uint64_t total_flows, int rounds,
                                 bool force_threads) {
  ShardedFixture fx = build_sharded(shards, total_flows);

  ShardTierResult out;
  out.threaded =
      force_threads || std::thread::hardware_concurrency() >= shards;

  std::vector<double> elapsed(shards, 0.0);
  std::vector<std::uint64_t> forwarded(shards, 0);
  std::vector<std::vector<core::EngineVerdict>> scratch(
      shards, std::vector<core::EngineVerdict>(kBurst));
  std::uint64_t packets = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    packets += fx.stream[s].size() * static_cast<std::uint64_t>(rounds);
  }

  std::uint64_t allocs_before = 0;
  if (out.threaded) {
    // Spawning threads allocates; a start barrier keeps those allocations
    // (and the spawn skew) out of the measured steady-state region.
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      workers.emplace_back([&, s] {
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) {
        }
        elapsed[s] =
            run_shard_stream(fx.filter->engine(s), fx.stream[s], rounds,
                             scratch[s].data(), &forwarded[s]);
      });
    }
    while (ready.load(std::memory_order_acquire) < shards) {
    }
    allocs_before = g_allocs.load();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
  } else {
    allocs_before = g_allocs.load();
    for (std::size_t s = 0; s < shards; ++s) {
      elapsed[s] =
          run_shard_stream(fx.filter->engine(s), fx.stream[s], rounds,
                           scratch[s].data(), &forwarded[s]);
    }
  }
  out.allocs_steady = g_allocs.load() - allocs_before;

  double ns_sum = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const double shard_packets =
        static_cast<double>(fx.stream[s].size()) * rounds;
    out.aggregate_pps += shard_packets / (elapsed[s] * 1e-9);
    ns_sum += elapsed[s] / shard_packets;
  }
  out.per_shard_ns = ns_sum / static_cast<double>(shards);

  // Steady state must forward everything (whole population is NFT).
  std::uint64_t fwd = 0;
  for (const auto f : forwarded) fwd += f;
  if (fwd != packets) {
    std::fprintf(stderr, "FAIL: sharded steady state dropped packets\n");
    std::exit(1);
  }
  return out;
}

/// The PR 1 single-core baseline: one engine, scalar per-packet inspect.
double run_scalar_baseline(std::uint64_t total_flows, int rounds,
                           std::uint64_t* allocs_steady) {
  ShardedFixture fx = build_sharded(1, total_flows);
  core::FilterEngine& eng = fx.filter->engine(0);
  const std::vector<sim::Packet>& stream = fx.stream[0];

  // Best of kBestOfPasses, like the other single-stream tiers.
  const std::uint64_t allocs_before = g_allocs.load();
  std::uint64_t fwd = 0;
  double best = 0;
  for (int pass = 0; pass < kBestOfPasses; ++pass) {
    const double start = now_ns();
    for (int r = 0; r < rounds; ++r) {
      for (const sim::Packet& p : stream) {
        fwd += eng.inspect(p) == core::EngineVerdict::kForward ? 1 : 0;
      }
    }
    const double elapsed = now_ns() - start;
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  *allocs_steady = g_allocs.load() - allocs_before;
  if (fwd !=
      stream.size() * static_cast<std::uint64_t>(rounds) * kBestOfPasses) {
    std::fprintf(stderr, "FAIL: scalar steady state dropped packets\n");
    std::exit(1);
  }
  return best / (static_cast<double>(stream.size()) * rounds);
}

/// O(1)-eviction check: admissions into a full SFT, where every admission
/// evicts the nearest-deadline probation (the per-packet-spoofed flood of
/// ablation A5). Returns ns/admission; pre-ring this was O(sft_capacity).
double run_admission_flood(std::uint64_t admissions,
                           std::uint64_t* allocs_steady) {
  core::MaficConfig cfg;
  cfg.sft_capacity = 4096;
  core::FlowTables tables(cfg);

  // Fill the SFT once so the measured loop is pure evict+admit.
  std::uint64_t k = 0;
  double now = 0.0;
  const double window = 0.08;
  for (; k < cfg.sft_capacity; ++k) {
    tables.admit_sft(key_for(k), label_for(k), now, window);
    now += 1e-6;
  }

  // Best of kBestOfPasses; the churn is stationary (every admission
  // evicts), so repeated passes measure the same steady state.
  const std::uint64_t allocs_before = g_allocs.load();
  double best = 0;
  for (int pass = 0; pass < kBestOfPasses; ++pass) {
    const double start = now_ns();
    for (std::uint64_t i = 0; i < admissions; ++i, ++k) {
      tables.admit_sft(key_for(k), label_for(k), now, window);
      now += 1e-6;
    }
    const double elapsed = now_ns() - start;
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  *allocs_steady = g_allocs.load() - allocs_before;
  return best / static_cast<double>(admissions);
}

/// The same full-table flood through the per-victim quota machinery, built
/// to keep the cross-class payer walk hot in steady state (a symmetric
/// round-robin flood would settle with every class at its reservation and
/// self-pay forever, never pricing the O(classes) reclaim): victim 0
/// holds the whole table (far over its quota) while victims 1..3 cycle
/// instantly-expiring single probations, so every iteration runs one
/// under-quota admission (EvictCause::kQuota — the most-over-quota walk
/// reclaims a slot from victim 0) plus one eviction-free refill admission
/// for victim 0. Returns ns per admission (two per iteration); asserts
/// via *quota_evictions that the reclaim path actually ran every time.
double run_admission_flood_quota(std::uint64_t iterations,
                                 std::uint64_t* allocs_steady,
                                 std::uint64_t* quota_evictions) {
  core::MaficConfig cfg;
  cfg.sft_capacity = 4096;
  cfg.sft_victim_quota = 0.125;  // 512 reserved per victim, 2048 shared
  cfg.nft_revalidation_interval = 1e-9;  // cycled probations expire at once
  core::FlowTables tables(cfg);

  constexpr std::size_t kVictims = 4;
  std::vector<util::Addr> victims;
  for (std::size_t v = 0; v < kVictims; ++v) {
    victims.push_back(util::make_addr(172, 17, 0, std::uint8_t(1 + v)));
  }
  tables.set_victim_classes(victims);

  const auto label_to = [&](std::uint64_t i, std::size_t victim) {
    sim::FlowLabel l = label_for(i);
    l.dst = victims[victim];
    return l;
  };

  // Victim 0 floods the whole table: 4096 live, 3584 over its quota.
  std::uint64_t k = 0;
  double now = 0.0;
  const double window = 0.08;
  for (; k < cfg.sft_capacity; ++k) {
    tables.admit_sft(key_for(k), label_to(k, 0), now, window);
    now += 1e-6;
  }

  // One cycled key per under-quota victim; admitted, resolved into an
  // instantly-expiring NFT record, lazily expired and re-admitted.
  // mix64 is a bijection, so inputs far above key_for's range (k + 1,
  // bounded by the iteration count) can never collide with flood keys.
  const std::uint64_t cycle_key[3] = {util::mix64((1ull << 40) + 1),
                                      util::mix64((1ull << 40) + 2),
                                      util::mix64((1ull << 40) + 3)};

  // Best of kBestOfPasses over the same stationary reclaim/refill churn.
  const std::uint64_t allocs_before = g_allocs.load();
  double best = 0;
  for (int pass = 0; pass < kBestOfPasses; ++pass) {
    const double start = now_ns();
    for (std::uint64_t i = 0; i < iterations; ++i, ++k) {
      const std::size_t uv = 1 + (i % 3);
      const std::uint64_t ck = cycle_key[uv - 1];
      tables.classify(ck, now);  // lazily expire the previous NFT record
      // Under-quota admission at a full table: the payer walk reclaims a
      // slot from victim 0 (the only class over its reservation).
      tables.admit_sft(ck, label_to(i, uv), now, window);
      tables.resolve(ck, core::TableKind::kNice, now);
      // Refill: victim 0 takes the freed slot back, eviction-free.
      tables.admit_sft(key_for(k), label_to(k, 0), now, window);
      now += 1e-6;
    }
    const double elapsed = now_ns() - start;
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  *allocs_steady = g_allocs.load() - allocs_before;
  *quota_evictions = tables.stats().quota_evictions;
  return best / static_cast<double>(2 * iterations);
}

// ---- scenario-catalog tier: probation-heavy generated workload -------------

/// End-to-end price of the catalog's probation-heavy shape: spoof_churn
/// (every rotation re-spoofs the army's sources, so each rotation opens
/// a fresh round of SFT admissions and decision timers — the path none
/// of the steady-state tiers above exercises). The nominal catalog entry
/// is internet-scale; this tier runs the same spec at a
/// reduced-but-nontrivial size through the sim datapath, best of three
/// deterministic runs. The row is wall ns per offered packet, tagged
/// serial per the threads convention.
bool run_scenario_catalog_tier(std::vector<bench::BenchRecord>* records) {
  const scenario::CatalogEntry* entry =
      scenario::find_scenario("spoof_churn");
  if (entry == nullptr) {
    std::fprintf(stderr, "FAIL: spoof_churn missing from the catalog\n");
    return false;
  }
  scenario::ScenarioSpec spec = entry->spec;
  // Bench scale: large enough that table churn (not setup) dominates the
  // wall clock, small enough for best-of-3 in CI. The tier prices
  // admissions and decision timers, with zero evictions: each MaficFilter
  // guards one host's uplink, so no table comes near even the shrunken
  // SFT capacity (the eviction column is printed for the record).
  spec.legit_flows = 400;
  spec.zombies = 300;
  spec.attack_total_bps = 8e6;
  spec.churn_interval = 0.15;  // rotations outpace the 2 x RTT decisions
  spec.sft_capacity = 48;
  spec.end_time = 8.0;

  constexpr const char* kName = "scenario_spoof_churn_t0";

  std::printf("\nscenario catalog tier: spoof_churn (probation-heavy), "
              "%zu legit + %zu zombies, SFT capacity %zu\n",
              spec.legit_flows, spec.zombies, spec.sft_capacity);
  std::printf("%24s %10s %12s %12s %12s\n", "mode", "ns/pkt", "offered",
              "admissions", "evictions");

  double best = 0;
  scenario::ScenarioOutcome out;
  // Best of three: the run is deterministic, repeats only reject
  // scheduler noise.
  for (int pass = 0; pass < 3; ++pass) {
    const double start = now_ns();
    scenario::ScenarioOutcome r = scenario::run_scenario(spec);
    const double elapsed = now_ns() - start;
    if (pass == 0 || elapsed < best) best = elapsed;
    out = std::move(r);
  }
  const auto& mr = out.result;
  const double ns_per_packet =
      best / double(mr.metrics.total_offered > 0 ? mr.metrics.total_offered
                                                 : 1);
  std::printf("%24s %10.2f %12llu %12llu %12llu\n", kName, ns_per_packet,
              static_cast<unsigned long long>(mr.metrics.total_offered),
              static_cast<unsigned long long>(mr.sft_admissions),
              static_cast<unsigned long long>(mr.sft_evictions));
  records->push_back({"bench_flow_store_scale", kName,
                      double(spec.legit_flows + spec.zombies), ns_per_packet,
                      bench::read_vm_rss_kb(), 0});
  if (mr.sft_admissions == 0 || mr.metrics.total_offered == 0) {
    std::fprintf(stderr,
                 "FAIL: scenario tier produced no traffic/admissions\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  if (smoke) {
    // TSan CI mode: exercise the real multi-threaded driver on a small
    // population; skip the timing claims and the JSON trajectory.
    bool ok = true;
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      const ShardTierResult r =
          run_sharded_tier(shards, 50'000, /*rounds=*/4,
                           /*force_threads=*/true);
      std::printf("[smoke] %zu shards: %.2f ns/pkt/shard, %llu allocs\n",
                  shards, r.per_shard_ns,
                  static_cast<unsigned long long>(r.allocs_steady));
      if (r.allocs_steady != 0) {
        std::fprintf(stderr, "FAIL: smoke inspect_batch allocated\n");
        ok = false;
      }
    }
    return ok ? 0 : 1;
  }

  std::uint64_t sink = 0;
  std::vector<bench::BenchRecord> records;
  bool ok = true;

  // Machine-speed calibration, stamped onto every record so the
  // trajectory gate can divide out box-speed shifts between PRs (the
  // committed trajectory spans heterogeneous dev boxes; raw ns/packet
  // comparisons across them measure the hardware, not the code).
  const double calib_ns = bench::measure_calibration();
  std::printf("machine calibration: %.3f ns/step (ALU + DRAM chase)\n",
              calib_ns);

  std::printf("%10s %14s %14s %9s %16s\n", "flows", "flat ns/pkt",
              "map ns/pkt", "speedup", "steady allocs");
  for (const std::uint64_t population :
       {std::uint64_t{10'000}, std::uint64_t{100'000},
        std::uint64_t{1'000'000}}) {
    const TierResult r = run_tier(population, &sink);
    const double speedup = r.map_ns / r.flat_ns;
    std::printf("%10llu %14.2f %14.2f %8.2fx %16llu\n",
                static_cast<unsigned long long>(population), r.flat_ns,
                r.map_ns, speedup,
                static_cast<unsigned long long>(r.flat_allocs_steady));
    records.push_back({"bench_flow_store_scale", "flat_classify",
                       double(population), r.flat_ns, r.flat_rss_kb});
    records.push_back({"bench_flow_store_scale", "map_classify",
                       double(population), r.map_ns, r.map_rss_kb});
    if (r.flat_allocs_steady != 0) {
      std::fprintf(stderr,
                   "FAIL: steady-state classify allocated %llu times at "
                   "%llu flows\n",
                   static_cast<unsigned long long>(r.flat_allocs_steady),
                   static_cast<unsigned long long>(population));
      ok = false;
    }
    if (population == 1'000'000 && speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: flat store speedup %.2fx < 2x at 1M flows\n",
                   speedup);
      ok = false;
    }
  }

  // Full-datapath assertion: steady-state inspect() must be allocation-
  // free (Packet freelist + flat store + inline timer callbacks).
  const InspectResult inspect = steady_state_inspect(100'000, 2'000'000);
  std::printf("\nMaficFilter steady-state inspect(): %.2f ns/pkt, "
              "%llu heap allocations over 2M packets\n",
              inspect.ns_per_packet,
              static_cast<unsigned long long>(inspect.allocs));
  records.push_back({"bench_flow_store_scale", "filter_inspect_steady",
                     100'000, inspect.ns_per_packet,
                     bench::read_vm_rss_kb()});
  if (inspect.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state inspect() allocated %llu times\n",
                 static_cast<unsigned long long>(inspect.allocs));
    ok = false;
  }

  // ---- sharded datapath at 1M aggregate resident flows -----------------
  const std::uint64_t kShardFlows = 1'000'000;
  const int kRounds = 10;

  std::uint64_t scalar_allocs = 0;
  const double scalar_ns =
      run_scalar_baseline(kShardFlows, kRounds, &scalar_allocs);
  const double scalar_pps = 1e9 / scalar_ns;
  std::printf("\nsharded datapath, 1M aggregate resident flows "
              "(hw threads: %u)\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %14s %16s %9s %8s %14s\n", "shards", "ns/pkt/shard",
              "aggregate pps", "vs PR1", "mode", "steady allocs");
  std::printf("%8s %14.2f %16.3e %8.2fx %8s %14llu\n", "pr1", scalar_ns,
              scalar_pps, 1.0, "scalar",
              static_cast<unsigned long long>(scalar_allocs));
  records.push_back({"bench_flow_store_scale", "shard_scalar_baseline",
                     double(kShardFlows), scalar_ns,
                     bench::read_vm_rss_kb()});
  if (scalar_allocs != 0) {
    std::fprintf(stderr, "FAIL: scalar steady state allocated\n");
    ok = false;
  }

  double pps4 = 0;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const ShardTierResult r = run_sharded_tier(shards, kShardFlows, kRounds,
                                               /*force_threads=*/false);
    if (shards == 4) pps4 = r.aggregate_pps;
    std::printf("%8zu %14.2f %16.3e %8.2fx %8s %14llu\n", shards,
                r.per_shard_ns, r.aggregate_pps,
                r.aggregate_pps / scalar_pps,
                r.threaded ? "threads" : "serial",
                static_cast<unsigned long long>(r.allocs_steady));
    char name[32];
    std::snprintf(name, sizeof(name), "shard_batch_s%zu", shards);
    // Tagged with the execution mode so the regression gate compares
    // threaded rows (CI runners) only against threaded rows, and serial
    // projections (one-core dev boxes) only against serial projections.
    records.push_back({"bench_flow_store_scale", name, double(kShardFlows),
                       1e9 / r.aggregate_pps, bench::read_vm_rss_kb(),
                       r.threaded ? 1 : 0});
    if (r.allocs_steady != 0) {
      std::fprintf(stderr,
                   "FAIL: inspect_batch allocated at %zu shards\n", shards);
      ok = false;
    }
  }
  if (pps4 < 3.0 * scalar_pps) {
    std::fprintf(stderr,
                 "FAIL: 4-shard aggregate %.3e pps < 3x the 1-shard "
                 "PR 1 baseline %.3e pps\n",
                 pps4, scalar_pps);
    ok = false;
  }

  // ---- O(1) SFT capacity eviction (per-packet-spoofed flood) -----------
  std::uint64_t flood_allocs = 0;
  const double flood_ns = run_admission_flood(2'000'000, &flood_allocs);
  std::printf("\nSFT admission flood (full table, every admission "
              "evicts): %.2f ns/admission, %llu allocs\n",
              flood_ns, static_cast<unsigned long long>(flood_allocs));
  records.push_back({"bench_flow_store_scale", "sft_admission_flood", 4096,
                     flood_ns, bench::read_vm_rss_kb()});
  if (flood_allocs != 0) {
    std::fprintf(stderr, "FAIL: admission flood allocated\n");
    ok = false;
  }

  // Same flood through the per-victim quota accounting, shaped so every
  // iteration runs the cross-class payer walk (an under-quota victim
  // reclaiming from the most over-quota class) plus a refill admission:
  // the quota machinery must stay O(1) and allocation-free, and the
  // kQuota path must actually fire every iteration.
  std::uint64_t quota_flood_allocs = 0;
  std::uint64_t quota_flood_reclaims = 0;
  const std::uint64_t kQuotaIters = 1'000'000;
  const double quota_flood_ns = run_admission_flood_quota(
      kQuotaIters, &quota_flood_allocs, &quota_flood_reclaims);
  std::printf("SFT admission flood, per-victim quotas (4 classes, "
              "under-quota reclaim + refill): %.2f ns/admission, "
              "%llu kQuota reclaims, %llu allocs\n",
              quota_flood_ns,
              static_cast<unsigned long long>(quota_flood_reclaims),
              static_cast<unsigned long long>(quota_flood_allocs));
  records.push_back({"bench_flow_store_scale", "sft_admission_flood_quota",
                     4096, quota_flood_ns, bench::read_vm_rss_kb()});
  if (quota_flood_allocs != 0) {
    std::fprintf(stderr, "FAIL: quota admission flood allocated\n");
    ok = false;
  }
  if (quota_flood_reclaims != std::uint64_t(kBestOfPasses) * kQuotaIters) {
    std::fprintf(stderr,
                 "FAIL: quota flood ran %llu cross-class reclaims, "
                 "expected %llu (payer walk not exercised)\n",
                 static_cast<unsigned long long>(quota_flood_reclaims),
                 static_cast<unsigned long long>(std::uint64_t(kBestOfPasses) *
                                                 kQuotaIters));
    ok = false;
  }

  // ---- scenario-catalog tier (probation-heavy generated workload) ------
  if (!run_scenario_catalog_tier(&records)) {
    std::fprintf(stderr,
                 "FAIL: scenario catalog tier (empty run)\n");
    ok = false;
  }

  for (auto& r : records) r.calib_ns = calib_ns;
  bench::append_records(bench::kFlowStoreJson, records);
  std::printf("(sink=%llu) results appended to %s\n",
              static_cast<unsigned long long>(sink), bench::kFlowStoreJson);
  return ok ? 0 : 1;
}
