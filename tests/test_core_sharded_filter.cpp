// ShardedFilter: the shard-partition invariant and the equivalence
// property the multi-core datapath stands on — an N-shard filter makes,
// per flow, exactly the decisions a single-shard engine makes when fed
// the same per-shard substream with the same config. Equivalence is
// structural (no shared state, stateless per-packet coins), so any
// divergence here means cross-shard state leaked in.

#include "core/sharded_filter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

namespace mafic::core {
namespace {

MaficConfig test_config() {
  MaficConfig cfg;
  cfg.default_rtt = 0.04;  // 0.08 s probation windows
  cfg.probe_enabled = true;
  cfg.drop_probability = 0.9;
  return cfg;
}

sim::Packet packet_for(std::uint32_t flow) {
  sim::Packet p;
  p.label = {util::make_addr(172, 16, (flow >> 8) & 0xff, flow & 0xff),
             util::make_addr(172, 17, 0, 1), std::uint16_t(1024 + flow),
             80};
  p.proto = sim::Protocol::kTcp;
  p.size_bytes = 1000;
  return p;
}

/// A scripted workload: `flows` flows, mixed behaviors (steady fast,
/// rate-halving, trickle, stopping), delivered in global time order as
/// (time, packet) pairs. Packets carry distinct uids in arrival order,
/// as a PacketFactory hands them out, so each one draws its own Pd coin.
struct Workload {
  std::vector<std::pair<double, sim::Packet>> events;
};

Workload make_workload(std::uint32_t flows) {
  Workload w;
  for (std::uint32_t i = 0; i < flows; ++i) {
    const double phase = 1e-4 * double(i);
    const auto send = [&](double t) {
      w.events.emplace_back(t + phase, packet_for(i));
    };
    switch (i % 4) {
      case 0:  // steady fast
        for (double t = 0.01; t < 0.5; t += 0.004) send(t);
        break;
      case 1:  // halves its rate mid-probation
        for (double t = 0.01; t < 0.05; t += 0.004) send(t);
        for (double t = 0.05; t < 0.5; t += 0.008) send(t);
        break;
      case 2:  // trickle
        for (double t = 0.02; t < 0.5; t += 0.09) send(t);
        break;
      case 3:  // stops mid-probation
        for (double t = 0.01; t < 0.055; t += 0.004) send(t);
        break;
    }
  }
  std::stable_sort(w.events.begin(), w.events.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::uint64_t uid = 0;
  for (auto& event : w.events) event.second.uid = ++uid;
  return w;
}

struct FlowOutcome {
  TableKind dest = TableKind::kNone;
  std::uint32_t baseline = 0;
  std::uint32_t probe = 0;

  friend bool operator==(const FlowOutcome&, const FlowOutcome&) = default;
};

/// The partition is a bit slice, so only a power of two >= 1 names a
/// shard count. The filter refuses anything else instead of building
/// another count.
TEST(ShardedFilter, RejectsBadShardCounts) {
  const MaficConfig cfg = test_config();
  for (const std::size_t bad : {0, 3, 6}) {
    EXPECT_THROW(ShardedFilter(bad, cfg, nullptr), std::invalid_argument)
        << bad;
  }
  for (const std::size_t good : {1, 2, 4}) {
    EXPECT_EQ(ShardedFilter(good, cfg, nullptr).shard_count(), good);
  }
}

TEST(ShardedFilter, PartitionCoversAllShardsAndIsStable) {
  MaficConfig cfg = test_config();
  ShardedFilter filter(8, cfg, nullptr);
  std::vector<std::size_t> hits(8, 0);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const sim::Packet p = packet_for(i);
    const std::size_t s = filter.shard_for(p);
    ASSERT_LT(s, 8u);
    ASSERT_EQ(s, filter.shard_for(p));  // stable
    ++hits[s];
  }
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GT(hits[s], 4096u / 16) << "shard " << s << " starved";
  }
}

TEST(ShardedFilter, NShardDecisionsMatchSingleShardSubstreams) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint32_t kFlows = 96;
  const MaficConfig cfg = test_config();
  const Workload w = make_workload(kFlows);
  const VictimSet victims{util::make_addr(172, 17, 0, 1)};

  // --- the N-shard run: every packet routed to its home shard ---------
  ShardedFilter sharded(kShards, cfg, nullptr);
  sharded.activate(victims);
  std::map<std::uint64_t, FlowOutcome> sharded_outcomes;
  for (std::size_t s = 0; s < kShards; ++s) {
    sharded.engine(s).set_classification_callback(
        [&, s](const SftEntry& e, TableKind dest) {
          // Partition invariant: a shard only ever resolves its own keys.
          EXPECT_EQ(sharded.shard_of(e.key), s);
          sharded_outcomes[e.key] =
              FlowOutcome{dest, e.baseline_count, e.probe_count};
        });
  }
  std::vector<std::vector<std::pair<double, sim::Packet>>> substreams(
      kShards);
  std::map<std::uint64_t, EngineVerdict> last_verdict_sharded;
  for (const auto& [t, p] : w.events) {
    sharded.advance_until(t);
    const std::size_t s = sharded.shard_for(p);
    substreams[s].emplace_back(t, p);
    last_verdict_sharded[sim::hash_label(p.label)] = sharded.inspect(p);
  }
  sharded.advance_until(1.0);

  // --- replay each substream into a fresh single-shard engine ---------
  // Same config (so the same coin seed), driven only by its own packets:
  // per-shard state must be byte-equivalent, so outcomes must match.
  std::map<std::uint64_t, FlowOutcome> solo_outcomes;
  std::map<std::uint64_t, EngineVerdict> last_verdict_solo;
  for (std::size_t s = 0; s < kShards; ++s) {
    EngineRuntime solo(cfg, nullptr);
    solo.engine().activate(victims);
    solo.engine().set_classification_callback(
        [&](const SftEntry& e, TableKind dest) {
          solo_outcomes[e.key] =
              FlowOutcome{dest, e.baseline_count, e.probe_count};
        });
    for (const auto& [t, p] : substreams[s]) {
      solo.advance_until(t);
      last_verdict_solo[sim::hash_label(p.label)] = solo.engine().inspect(p);
    }
    solo.advance_until(1.0);

    EXPECT_EQ(solo.engine().tables().nft_size(),
              sharded.engine(s).tables().nft_size())
        << "shard " << s;
    EXPECT_EQ(solo.engine().tables().pdt_size(),
              sharded.engine(s).tables().pdt_size())
        << "shard " << s;
    EXPECT_EQ(solo.engine().stats().dropped_probation,
              sharded.engine(s).stats().dropped_probation)
        << "shard " << s;
    EXPECT_EQ(solo.probes().probes_sent(),
              sharded.shard(s).probes().probes_sent())
        << "shard " << s;
  }

  // Per-flow: destination table, both half-window counts, and the final
  // verdict each flow saw must be identical.
  ASSERT_EQ(sharded_outcomes.size(), solo_outcomes.size());
  EXPECT_EQ(sharded_outcomes.size(), kFlows);
  for (const auto& [key, outcome] : sharded_outcomes) {
    ASSERT_TRUE(solo_outcomes.contains(key));
    EXPECT_EQ(solo_outcomes.at(key), outcome);
  }
  ASSERT_EQ(last_verdict_sharded.size(), last_verdict_solo.size());
  for (const auto& [key, v] : last_verdict_sharded) {
    EXPECT_EQ(last_verdict_solo.at(key), v);
  }
}

TEST(ShardedFilter, IndirectBatchMatchesScalarInspect) {
  // Two same-config filters, one driven packet-by-packet, one in spans
  // through the indirect inspect_batch: span-ordered
  // classification must produce the identical verdict sequence.
  const MaficConfig cfg = test_config();
  const Workload w = make_workload(48);
  const VictimSet victims{util::make_addr(172, 17, 0, 1)};

  ShardedFilter scalar(4, cfg, nullptr);
  ShardedFilter batched(4, cfg, nullptr);
  scalar.activate(victims);
  batched.activate(victims);

  std::vector<EngineVerdict> scalar_verdicts;
  std::vector<EngineVerdict> batched_verdicts;
  std::vector<const sim::Packet*> span;
  std::vector<EngineVerdict> span_out;
  std::size_t i = 0;
  while (i < w.events.size()) {
    // Deterministically sized spans (1..13) of same-time-ordered packets.
    const std::size_t n =
        std::min<std::size_t>(1 + (i * 7) % 13, w.events.size() - i);
    const double t = w.events[i + n - 1].first;
    scalar.advance_until(t);
    batched.advance_until(t);
    span.clear();
    for (std::size_t j = 0; j < n; ++j) {
      scalar_verdicts.push_back(scalar.inspect(w.events[i + j].second));
      span.push_back(&w.events[i + j].second);
    }
    span_out.resize(n);
    batched.inspect_batch(span.data(), n, span_out.data());
    batched_verdicts.insert(batched_verdicts.end(), span_out.begin(),
                            span_out.end());
    i += n;
  }
  scalar.advance_until(1.0);
  batched.advance_until(1.0);

  EXPECT_EQ(scalar_verdicts, batched_verdicts);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(scalar.engine(s).tables().nft_size(),
              batched.engine(s).tables().nft_size());
    EXPECT_EQ(scalar.engine(s).tables().pdt_size(),
              batched.engine(s).tables().pdt_size());
  }
}

TEST(ShardedFilter, SameSeedRunsAreIdentical) {
  const MaficConfig cfg = test_config();
  const Workload w = make_workload(32);
  const VictimSet victims{util::make_addr(172, 17, 0, 1)};

  const auto run = [&] {
    ShardedFilter f(4, cfg, nullptr);
    f.activate(victims);
    std::vector<EngineVerdict> verdicts;
    for (const auto& [t, p] : w.events) {
      f.advance_until(t);
      verdicts.push_back(f.inspect(p));
    }
    f.advance_until(1.0);
    return verdicts;
  };
  EXPECT_EQ(run(), run());
}

TEST(ShardedFilter, AggregateStatsSumShards) {
  MaficConfig cfg = test_config();
  cfg.drop_probability = 1.0;  // every first sight admits
  ShardedFilter filter(4, cfg, nullptr);
  filter.activate({util::make_addr(172, 17, 0, 1)});
  for (std::uint32_t i = 0; i < 256; ++i) {
    const sim::Packet p = packet_for(i);
    filter.inspect(p);
  }
  filter.advance_until(1.0);  // silent flows all resolve nice
  const FilterEngine::Stats agg = filter.aggregate_stats();
  EXPECT_EQ(agg.offered, 256u);
  EXPECT_EQ(agg.dropped_probation, 256u);
  EXPECT_EQ(agg.decided_nice, 256u);
  EXPECT_EQ(filter.resident(), 256u);

  filter.deactivate();
  EXPECT_EQ(filter.resident(), 0u);
  EXPECT_FALSE(filter.active());
}

}  // namespace
}  // namespace mafic::core
