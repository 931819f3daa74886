// Ablation A2 + microbenchmarks for the set-union counting substrate:
// accuracy/memory of LogLog vs exact counting, then google-benchmark
// timings of the per-packet operations.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "sketch/loglog.hpp"
#include "sketch/set_union.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace mafic;

void print_accuracy_table() {
  std::printf("== A2: cardinality estimation error by sketch (n=100k) ==\n");
  util::TablePrinter table({"precision", "memory(B)", "LogLog err(%)"});
  constexpr std::uint64_t n = 100000;
  for (const unsigned p : {8u, 10u, 12u, 14u}) {
    double ll_err = 0;
    const int runs = 5;
    for (int run = 0; run < runs; ++run) {
      sketch::LogLog ll(p, run);
      for (std::uint64_t i = 0; i < n; ++i) {
        ll.add(run * 10'000'000ULL + i);
      }
      ll_err += std::abs(ll.estimate() - double(n)) / double(n);
    }
    table.add_row({std::to_string(p),
                   std::to_string(std::size_t{1} << p),
                   util::TablePrinter::num(100.0 * ll_err / runs, 2)});
  }
  table.print();
  std::printf("(exact counting of 100k uids costs ~%zu bytes in a hash "
              "set; the sketches above use 256-16384 bytes)\n\n",
              std::size_t(100000 * 16));
}

void BM_LogLogAdd(benchmark::State& state) {
  sketch::LogLog c(static_cast<unsigned>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    c.add(++i);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_LogLogAdd)->Arg(10)->Arg(14);

void BM_LogLogEstimate(benchmark::State& state) {
  sketch::LogLog c(static_cast<unsigned>(state.range(0)));
  for (std::uint64_t i = 0; i < 100000; ++i) c.add(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.estimate());
  }
}
BENCHMARK(BM_LogLogEstimate)->Arg(10)->Arg(14);

void BM_LogLogMerge(benchmark::State& state) {
  sketch::LogLog a(static_cast<unsigned>(state.range(0)), 7);
  sketch::LogLog b(static_cast<unsigned>(state.range(0)), 7);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    a.add(i);
    b.add(i + 25000);
  }
  for (auto _ : state) {
    sketch::LogLog u = a;
    u.merge(b);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_LogLogMerge)->Arg(10)->Arg(14);

void BM_IntersectionEstimate(benchmark::State& state) {
  sketch::LogLog a(12, 7), b(12, 7);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    a.add(i);
    b.add(i + 25000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::intersection_estimate(a, b));
  }
}
BENCHMARK(BM_IntersectionEstimate);

}  // namespace

int main(int argc, char** argv) {
  print_accuracy_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
