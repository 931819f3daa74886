#pragma once

/// \file bench_common.hpp
/// Shared helpers for the figure-reproduction benches: each bench sweeps
/// the paper's parameter grid, averages a few seeds per point, and prints
/// the same series the corresponding figure plots.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "scenario/experiment.hpp"
#include "util/table_printer.hpp"

namespace mafic::bench {

inline constexpr std::size_t kSeedsPerPoint = 3;

/// One plotted line: a label plus a config mutator applied per point.
struct Series {
  std::string label;
  std::function<void(scenario::ExperimentConfig&)> apply;
};

/// One x-axis: a label plus a mutator taking the swept value.
struct Axis {
  std::string label;
  std::vector<double> values;
  std::function<void(scenario::ExperimentConfig&, double)> apply;
};

/// Runs the grid and prints one row per x value with one column per series.
/// `metric` extracts the plotted quantity; `unit` annotates the header.
inline void run_figure(const std::string& title, const Axis& axis,
                       const std::vector<Series>& series,
                       const std::function<double(const metrics::Metrics&)>&
                           metric,
                       const std::string& unit,
                       const scenario::ExperimentConfig& base =
                           scenario::ExperimentConfig{},
                       int precision = 3) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> headers{axis.label};
  for (const auto& s : series) headers.push_back(s.label + " " + unit);
  util::TablePrinter table(std::move(headers));

  for (const double x : axis.values) {
    std::vector<std::string> row{util::TablePrinter::num(x, 0)};
    for (const auto& s : series) {
      scenario::ExperimentConfig cfg = base;
      axis.apply(cfg, x);
      s.apply(cfg);
      const auto m = scenario::run_averaged(cfg, kSeedsPerPoint);
      row.push_back(util::TablePrinter::num(metric(m), precision));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::fflush(stdout);
}

inline Axis volume_axis(std::vector<double> values = {10, 30, 50, 70, 90,
                                                      110}) {
  return {"Vt(flows)", std::move(values),
          [](scenario::ExperimentConfig& cfg, double v) {
            cfg.total_flows = static_cast<std::size_t>(v);
          }};
}

inline Axis gamma_axis() {
  return {"TCP(%)", {20, 35, 50, 65, 80, 95},
          [](scenario::ExperimentConfig& cfg, double v) {
            cfg.tcp_fraction = v / 100.0;
          }};
}

inline Axis domain_axis() {
  return {"N(routers)", {20, 40, 60, 80, 100, 120, 140, 160},
          [](scenario::ExperimentConfig& cfg, double v) {
            cfg.router_count = static_cast<std::size_t>(v);
          }};
}

inline std::vector<Series> pd_series() {
  std::vector<Series> out;
  for (const double pd : {0.9, 0.8, 0.7}) {
    out.push_back({"Pd=" + std::to_string(int(pd * 100)) + "%",
                   [pd](scenario::ExperimentConfig& cfg) {
                     cfg.mafic.drop_probability = pd;
                   }});
  }
  return out;
}

inline std::vector<Series> vt_series(std::vector<int> vts = {30, 70, 100}) {
  std::vector<Series> out;
  for (const int vt : vts) {
    out.push_back({"Vt=" + std::to_string(vt),
                   [vt](scenario::ExperimentConfig& cfg) {
                     cfg.total_flows = static_cast<std::size_t>(vt);
                   }});
  }
  return out;
}

inline std::vector<Series> tcp_share_series() {
  std::vector<Series> out;
  for (const int g : {95, 75, 55, 35}) {
    out.push_back({"TCP=" + std::to_string(g) + "%",
                   [g](scenario::ExperimentConfig& cfg) {
                     cfg.tcp_fraction = g / 100.0;
                   }});
  }
  return out;
}

}  // namespace mafic::bench
