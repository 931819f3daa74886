#pragma once

/// \file bench_json.hpp
/// Machine-readable bench output. Perf benches append their measurements
/// to BENCH_flow_store.json (a single JSON array) so future PRs have a
/// trajectory to compare against instead of eyeballing console tables.

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace mafic::bench {

inline constexpr const char* kFlowStoreJson = "BENCH_flow_store.json";

struct BenchRecord {
  std::string bench;  ///< producing binary, e.g. "bench_flow_store_scale"
  std::string name;   ///< series/benchmark name, e.g. "flat_classify_hit"
  double flows = 0;   ///< resident-flow tier (0 when not applicable)
  double ns_per_packet = 0;
  double rss_kb = 0;  ///< VmRSS at measurement (0 when unavailable)
  /// Execution mode tag for multi-shard rows: 1 = real threads (one per
  /// shard), 0 = serial projection (shards ran back-to-back, aggregate is
  /// the contention-free sum), -1 = untagged (single-stream series; the
  /// field is omitted from the JSON). The regression gate groups by this
  /// tag so a CI runner's threaded row is never compared against a
  /// one-core dev box's serial projection of the same tier.
  int threaded = -1;
  /// Machine-speed calibration of the producing run (ns for one step of
  /// the fixed ALU + DRAM-latency reference workload, see
  /// bench::measure_calibration). The regression gate divides a tier's
  /// ns/packet shift by the calibration shift before comparing, so a
  /// slower/faster box between PRs does not read as a code regression/
  /// improvement. 0 = unrecorded (legacy rows; the gate treats the
  /// first calibrated entry after them as a series rebase).
  double calib_ns = 0;
  /// Run sequence number, stamped by append_records (one id per append,
  /// i.e. per bench invocation; max existing id + 1). Lets the
  /// regression gate detect a tier that the previous run produced and
  /// the newest run silently dropped. -1 = stamp on append; rows
  /// predating the field are exempt from the missing-tier check.
  int run = -1;
  /// Replay-harness throughput fields (bench_replay_path rows; omitted
  /// when <= 0). pps is redundant with ns_per_packet (1e9 / ns) but is
  /// the unit the line-rate claim speaks in; cycles_per_packet is the
  /// TSC delta per packet (x86 only, 0 elsewhere). The regression gate
  /// keeps gating on ns/pkt and prints pps deltas as information.
  double pps = 0;
  double cycles_per_packet = 0;
  /// Legitimate-drop fraction for rows whose tier measures collateral
  /// damage (Fig. 7 wiring, probation-heavy replay): legit packets
  /// dropped / legit packets offered. Omitted when < 0. Rows that carry
  /// only `lr` set ns_per_packet = 0, which the time gate skips.
  double lr = -1;
};

/// Machine-speed reference: a serially-dependent mix64 chain (core ALU
/// speed) plus a pointer-chase over a ~128 MB permutation cycle (DRAM
/// latency) — the two bottlenecks the flow-store tiers blend. Returns
/// the summed ns per step of both loops. Deterministic workload, no
/// library code under test involved, so code changes cannot move it.
inline double measure_calibration() {
  using clock = std::chrono::steady_clock;
  const auto ns_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(clock::now() - t0)
        .count();
  };
  // ALU: a dependent hash chain (no ILP), best of 3.
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  };
  constexpr std::uint64_t kAluSteps = 20'000'000;
  volatile std::uint64_t sink = 0;
  double alu_best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + std::uint64_t(pass);
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < kAluSteps; ++i) x = mix(x);
    const double ns = ns_since(t0);
    sink = sink + x;
    if (pass == 0 || ns < alu_best) alu_best = ns;
  }
  // DRAM latency: walk a random single-cycle permutation (Sattolo) over
  // 32M uint32 slots; every step is a dependent cache-missing load.
  constexpr std::size_t kSlots = 1u << 25;
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t rs = 0x5ca1ab1e;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    rs = mix(rs);
    const std::size_t j = rs % i;  // Sattolo: j < i, one big cycle
    std::swap(next[i], next[j]);
  }
  constexpr std::uint64_t kChaseSteps = 4'000'000;
  double mem_best = 0;
  std::uint32_t pos = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < kChaseSteps; ++i) pos = next[pos];
    const double ns = ns_since(t0);
    sink = sink + pos;
    if (pass == 0 || ns < mem_best) mem_best = ns;
  }
  return alu_best / double(kAluSteps) + mem_best / double(kChaseSteps);
}

/// Current resident set size in kB from /proc/self/status; 0 off-Linux.
inline double read_vm_rss_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

/// Appends records to the JSON array at `path`, creating it if missing.
/// The file stays a valid JSON array across appends from multiple bench
/// binaries.
inline void append_records(const char* path,
                           const std::vector<BenchRecord>& records) {
  if (records.empty()) return;

  std::string existing;
  if (std::FILE* f = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      existing.append(buf, n);
    }
    std::fclose(f);
  }
  // Reopen the array: strip trailing whitespace and the closing bracket.
  while (!existing.empty() &&
         (std::isspace(static_cast<unsigned char>(existing.back())) != 0 ||
          existing.back() == ']')) {
    const bool was_bracket = existing.back() == ']';
    existing.pop_back();
    if (was_bracket) break;
  }
  const bool fresh = existing.empty();

  // Run stamp for this append: one past the largest id already present.
  // Measurement rows are machine-written (append_records is their only
  // writer) and retirement rows carry no run id, so a plain substring
  // scan is safe.
  int run_id = 0;
  for (std::size_t pos = existing.find("\"run\": ");
       pos != std::string::npos;
       pos = existing.find("\"run\": ", pos + 7)) {
    const int seen = std::atoi(existing.c_str() + pos + 7);
    if (seen >= run_id) run_id = seen + 1;
  }

  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) return;
  std::fputs(fresh ? "[\n" : (existing.c_str()), f);
  if (!fresh) std::fputs(",\n", f);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char threads[24] = "";
    if (r.threaded >= 0) {
      std::snprintf(threads, sizeof(threads), ", \"threads\": %s",
                    r.threaded != 0 ? "true" : "false");
    }
    char calib[40] = "";
    if (r.calib_ns > 0) {
      std::snprintf(calib, sizeof(calib), ", \"calib_ns\": %.3f",
                    r.calib_ns);
    }
    char throughput[96] = "";
    if (r.pps > 0 || r.cycles_per_packet > 0) {
      std::snprintf(throughput, sizeof(throughput),
                    ", \"pps\": %.0f, \"cycles_per_packet\": %.1f", r.pps,
                    r.cycles_per_packet);
    }
    char legit[40] = "";
    if (r.lr >= 0) {
      std::snprintf(legit, sizeof(legit), ", \"lr\": %.5f", r.lr);
    }
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"name\": \"%s\", \"flows\": %.0f, "
                 "\"ns_per_packet\": %.2f, \"rss_kb\": %.0f%s%s%s%s, "
                 "\"run\": %d}%s\n",
                 r.bench.c_str(), r.name.c_str(), r.flows, r.ns_per_packet,
                 r.rss_kb, threads, calib, throughput, legit, r.run >= 0 ? r.run : run_id,
                 i + 1 < records.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

}  // namespace mafic::bench
