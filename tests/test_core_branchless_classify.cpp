// The branchless SoA verdict pipeline (core/verdict_pipeline.hpp) is an
// execution strategy, not a semantic change: every batched entry point
// must produce the bit-identical verdict stream, table trajectory, and
// stats that per-packet FilterEngine::inspect() produces from the same
// packets. These tests hammer that contract with randomized spans under
// table churn (probation resolution, capacity eviction, NFT
// revalidation expiry, refresh lapse + reactivation), across shard
// counts 1/2/4/8, through both batch shapes (contiguous and indirect
// span). A fixed-seed golden then pins the verdict stream itself, so a
// divergence that happens to cancel out in aggregate counters still
// fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/filter_engine.hpp"
#include "core/sharded_filter.hpp"
#include "core/standalone_runtime.hpp"
#include "util/rng.hpp"

namespace mafic::core {
namespace {

sim::Packet packet_for(std::uint32_t flow, std::uint8_t victim_octet = 1) {
  sim::Packet p;
  p.label = {util::make_addr(172, 16, (flow >> 8) & 0xff, flow & 0xff),
             util::make_addr(172, 17, 0, victim_octet),
             std::uint16_t(1024 + flow), 80};
  p.proto = sim::Protocol::kTcp;
  p.size_bytes = 1000;
  return p;
}

/// Churn-heavy config: SFT small enough that the flow pool overflows it
/// (capacity eviction on most admissions), short probation windows so
/// decisions resolve inside the run, and NFT revalidation so nice flows
/// cycle back into probation — every structural-mutation path the
/// pipeline's epoch re-check guards.
MaficConfig churn_config() {
  MaficConfig cfg;
  cfg.default_rtt = 0.04;  // 0.08 s probation windows
  cfg.probe_enabled = true;
  cfg.drop_probability = 0.9;
  cfg.coin_seed = 0xc0117;
  cfg.sft_capacity = 48;
  cfg.nft_revalidation_interval = 0.3;
  return cfg;
}

/// One randomized packet: skewed flow pool (min of two uniform draws),
/// a sprinkle of non-victim and control packets to exercise the batch
/// gate, distinct uids so the Pd coin actually varies per packet.
sim::Packet random_packet(util::Rng& rng, std::uint32_t pool,
                          std::uint64_t uid) {
  const auto a = static_cast<std::uint32_t>(rng.index(pool));
  const auto b = static_cast<std::uint32_t>(rng.index(pool));
  const std::uint8_t octet = rng.bernoulli(0.1) ? 99 : 1;
  sim::Packet p = packet_for(a < b ? a : b, octet);
  if (rng.bernoulli(0.05)) p.proto = sim::Protocol::kControl;
  p.uid = uid;
  return p;
}

/// Bit-identity across strategies implies the whole table trajectory
/// matched, not just the final sizes — admissions, evictions, moves,
/// and expirations are all monotone counters.
void expect_tables_match(const FlowTables& a, const FlowTables& b) {
  EXPECT_EQ(a.sft_size(), b.sft_size());
  EXPECT_EQ(a.nft_size(), b.nft_size());
  EXPECT_EQ(a.pdt_size(), b.pdt_size());
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.sft_admissions, sb.sft_admissions);
  EXPECT_EQ(sa.sft_evictions, sb.sft_evictions);
  EXPECT_EQ(sa.moved_to_nft, sb.moved_to_nft);
  EXPECT_EQ(sa.moved_to_pdt, sb.moved_to_pdt);
  EXPECT_EQ(sa.direct_pdt, sb.direct_pdt);
  EXPECT_EQ(sa.nft_expirations, sb.nft_expirations);
  EXPECT_EQ(sa.flushes, sb.flushes);
}

// ---------------------------------------------------------------------
// Contiguous inspect_batch vs scalar inspect, single engine, with a
// refresh lapse (flush) and reactivation mid-run.
// ---------------------------------------------------------------------

TEST(BranchlessContiguous, MatchesScalarUnderChurn) {
  MaficConfig cfg = churn_config();
  cfg.refresh_timeout = 0.25;
  EngineRuntime scalar_rt(cfg, nullptr);
  EngineRuntime batch_rt(cfg, nullptr);
  const VictimSet victims{util::make_addr(172, 17, 0, 1)};
  scalar_rt.engine().activate(victims);
  batch_rt.engine().activate(victims);

  util::Rng traffic(31337);
  std::uint64_t uid = 1;
  std::vector<sim::Packet> burst;
  std::vector<EngineVerdict> scalar_v;
  std::vector<EngineVerdict> batch_v;

  double now = 0.0;
  for (int round = 0; round < 160; ++round) {
    // Span sizes sweep 1..96: sub-window spans, exact windows, and
    // multi-window batches all occur.
    const std::size_t n = 1 + traffic.index(96);
    burst.clear();
    for (std::size_t i = 0; i < n; ++i) {
      burst.push_back(random_packet(traffic, 200, uid++));
    }
    scalar_v.resize(n);
    batch_v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scalar_v[i] = scalar_rt.engine().inspect(burst[i]);
    }
    batch_rt.engine().inspect_batch(burst.data(), n, batch_v.data());
    ASSERT_EQ(scalar_v, batch_v) << "round " << round;

    now += 0.004;
    scalar_rt.advance_until(now);
    batch_rt.advance_until(now);
    if (round == 30) {  // keep-alive once...
      scalar_rt.engine().refresh();
      batch_rt.engine().refresh();
    }
    if (round == 100) {  // ...then the lapse has flushed; re-arm.
      ASSERT_FALSE(scalar_rt.engine().active());
      ASSERT_EQ(scalar_rt.engine().active(), batch_rt.engine().active());
      scalar_rt.engine().activate(victims);
      batch_rt.engine().activate(victims);
    }
  }

  expect_tables_match(scalar_rt.engine().tables(),
                      batch_rt.engine().tables());
  EXPECT_EQ(scalar_rt.engine().stats().offered,
            batch_rt.engine().stats().offered);
  EXPECT_EQ(scalar_rt.engine().stats().dropped_probation,
            batch_rt.engine().stats().dropped_probation);
  EXPECT_EQ(scalar_rt.engine().stats().dropped_pdt,
            batch_rt.engine().stats().dropped_pdt);
  EXPECT_EQ(scalar_rt.engine().stats().decided_nice,
            batch_rt.engine().stats().decided_nice);
  EXPECT_EQ(scalar_rt.engine().stats().decided_malicious,
            batch_rt.engine().stats().decided_malicious);
  EXPECT_EQ(scalar_rt.probes().probes_sent(), batch_rt.probes().probes_sent());
}

// ---------------------------------------------------------------------
// Indirect-span inspect_batch vs scalar inspect across shard counts.
// The pipeline's interleaved arrival-order verdict pass must preserve
// per-engine inspection order no matter how the span scatters across
// shards.
// ---------------------------------------------------------------------

class BranchlessSharded : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BranchlessSharded, MatchesScalarUnderChurn) {
  const std::size_t shards = GetParam();
  const MaficConfig cfg = churn_config();
  const VictimSet victims{util::make_addr(172, 17, 0, 1)};

  ShardedFilter scalar(shards, cfg, nullptr);
  ShardedFilter batched(shards, cfg, nullptr);
  scalar.activate(victims);
  batched.activate(victims);

  util::Rng traffic(0xfeed ^ shards);
  std::uint64_t uid = 1;
  std::vector<sim::Packet> storage;
  std::vector<const sim::Packet*> span;
  std::vector<EngineVerdict> scalar_v;
  std::vector<EngineVerdict> batch_v;

  double now = 0.0;
  for (int round = 0; round < 120; ++round) {
    const std::size_t n = 1 + traffic.index(80);
    storage.clear();
    span.clear();
    for (std::size_t i = 0; i < n; ++i) {
      storage.push_back(random_packet(traffic, 160, uid++));
    }
    for (const auto& p : storage) span.push_back(&p);
    scalar_v.resize(n);
    batch_v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scalar_v[i] = scalar.inspect(storage[i]);
    }
    batched.inspect_batch(span.data(), n, batch_v.data());
    ASSERT_EQ(scalar_v, batch_v)
        << "round " << round << " shards " << shards;

    now += 0.005;
    scalar.advance_until(now);
    batched.advance_until(now);
  }

  for (std::size_t s = 0; s < shards; ++s) {
    expect_tables_match(scalar.engine(s).tables(),
                        batched.engine(s).tables());
    EXPECT_EQ(scalar.engine(s).stats().dropped_probation,
              batched.engine(s).stats().dropped_probation)
        << "shard " << s;
  }
  EXPECT_EQ(scalar.aggregate_stats().decided_nice,
            batched.aggregate_stats().decided_nice);
  EXPECT_EQ(scalar.aggregate_stats().decided_malicious,
            batched.aggregate_stats().decided_malicious);
}

INSTANTIATE_TEST_SUITE_P(ShardGrid, BranchlessSharded,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) {
                           std::string name = "s";
                           name += std::to_string(param_info.param);
                           return name;
                         });

// ---------------------------------------------------------------------
// Fixed-seed golden: the verdict stream itself, fingerprinted. Catches
// any semantic drift in the pipeline (or in scalar classify) even when
// a change happens to leave the aggregate counters balanced. If a PR
// changes these values it changed classification behaviour and must say
// so (and re-pin) explicitly.
// ---------------------------------------------------------------------

std::uint64_t fnv1a(const std::vector<EngineVerdict>& verdicts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const EngineVerdict v : verdicts) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenResult {
  std::uint64_t fingerprint;
  std::uint64_t dropped_probation;
  std::uint64_t decided_nice;
  std::uint64_t decided_malicious;
};

GoldenResult run_golden() {
  const MaficConfig cfg = churn_config();
  ShardedFilter filter(2, cfg, nullptr);
  filter.activate({util::make_addr(172, 17, 0, 1)});

  util::Rng traffic(0x601d);
  std::uint64_t uid = 1;
  std::vector<sim::Packet> storage;
  std::vector<const sim::Packet*> span;
  std::vector<EngineVerdict> out;
  std::vector<EngineVerdict> all;

  double now = 0.0;
  for (int round = 0; round < 80; ++round) {
    const std::size_t n = 1 + traffic.index(64);
    storage.clear();
    span.clear();
    for (std::size_t i = 0; i < n; ++i) {
      storage.push_back(random_packet(traffic, 120, uid++));
    }
    for (const auto& p : storage) span.push_back(&p);
    out.resize(n);
    filter.inspect_batch(span.data(), n, out.data());
    all.insert(all.end(), out.begin(), out.end());
    now += 0.005;
    filter.advance_until(now);
  }
  filter.advance_until(1.0);

  const auto agg = filter.aggregate_stats();
  return {fnv1a(all), agg.dropped_probation, agg.decided_nice,
          agg.decided_malicious};
}

TEST(BranchlessGolden, PacketHashVerdictStreamIsPinned) {
  const GoldenResult g = run_golden();
  EXPECT_EQ(g.fingerprint, 2083878525354845561ULL);
  EXPECT_EQ(g.dropped_probation, 638ULL);
  EXPECT_EQ(g.decided_nice, 91ULL);
  EXPECT_EQ(g.decided_malicious, 32ULL);
}

}  // namespace
}  // namespace mafic::core
