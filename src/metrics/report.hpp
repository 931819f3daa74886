#pragma once

/// \file report.hpp
/// Computes the paper's five evaluation metrics from the ledger:
///
///   alpha   attack-packet dropping accuracy (Fig. 3)
///   beta    traffic reduction rate at the victim (Fig. 4a)
///   theta_p false positive rate (Fig. 5)
///   theta_n false negative rate (Fig. 6)
///   Lr      legitimate-packet dropping rate (Fig. 7)
///
/// Definitions (the paper's section IV metrics, computed over the
/// ledger's post-trigger window; docs/BENCHMARKS.md maps each metric to
/// the figure bench that reproduces it):
///   alpha   = malicious defense-drops / malicious offered (post-trigger)
///   beta    = 1 - victim offered-rate(post window) / offered-rate(pre)
///   theta_p = responsive-legit PDT drops / all offered (post-trigger)
///   theta_n = malicious packets passed by the defense / malicious offered
///   Lr      = legit defense-drops / legit offered (post-trigger)

#include <cmath>
#include <string>

#include "metrics/ledger.hpp"

namespace mafic::metrics {

struct Metrics {
  double alpha = std::numeric_limits<double>::quiet_NaN();
  double beta = std::numeric_limits<double>::quiet_NaN();
  double theta_p = std::numeric_limits<double>::quiet_NaN();
  double theta_n = std::numeric_limits<double>::quiet_NaN();
  double lr = std::numeric_limits<double>::quiet_NaN();

  // Supporting raw numbers (post-trigger unless noted).
  std::uint64_t malicious_offered = 0;
  std::uint64_t malicious_dropped = 0;
  std::uint64_t malicious_arrived = 0;
  std::uint64_t legit_offered = 0;
  std::uint64_t legit_dropped = 0;
  std::uint64_t legit_pdt_dropped = 0;  ///< responsive flows only
  std::uint64_t total_offered = 0;
  double pre_rate_bps = 0.0;
  double post_rate_bps = 0.0;
  double trigger_time = 0.0;
  bool triggered = false;
};

struct ReportWindows {
  double beta_pre_window = 0.4;   ///< seconds before the trigger
  double beta_post_skip = 0.04;   ///< lets in-flight packets drain first
  double beta_post_window = 0.1;  ///< probing phase + early PDT cutoff
};

/// Computes all metrics. NaNs indicate an undefined ratio (e.g. the
/// pushback never triggered or a denominator was zero).
Metrics compute_metrics(const PacketLedger& ledger,
                        const ReportWindows& windows = {});

/// One-paragraph human-readable rendering (examples use this).
std::string format_metrics(const Metrics& m);

}  // namespace mafic::metrics
