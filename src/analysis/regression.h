// Performance-regression detection between two trace populations.
//
// Canary rollouts, config changes, and A/B tests all reduce to the same
// question: did service latencies shift between population A (before /
// control) and population B (after / treatment)? This module compares the
// per-service latency samples of two reconstructed trace subsets with
// Welch's t-test and effect sizes, surfacing the services whose behaviour
// changed significantly -- the aggregate-trace workflow of §3 applied
// longitudinally.
#pragma once

#include <string>
#include <vector>

#include "analysis/trace_query.h"

namespace traceweaver {

struct ServiceShift {
  std::string service;
  double before_mean_ms = 0.0;
  double after_mean_ms = 0.0;
  /// after - before, milliseconds.
  double delta_ms = 0.0;
  /// Welch two-sided p-value for the mean shift.
  double p_value = 1.0;
  /// Cohen's d effect size (pooled-stddev normalized shift).
  double effect_size = 0.0;
  std::size_t before_samples = 0;
  std::size_t after_samples = 0;

  bool Significant(double alpha = 0.05) const { return p_value < alpha; }
};

struct RegressionReport {
  /// All services seen in either population, most significant first.
  std::vector<ServiceShift> shifts;

  /// Services with p < alpha and |delta| >= min_delta_ms.
  std::vector<ServiceShift> Regressions(double alpha = 0.05,
                                        double min_delta_ms = 0.0) const;
};

/// Compares per-service server-side latencies between two trace subsets
/// (typically from two TraceQuery instances over different time windows or
/// deployment versions).
RegressionReport CompareServiceLatencies(
    const TraceQuery& before_query,
    const std::vector<AnalyzedTrace>& before_subset,
    const TraceQuery& after_query,
    const std::vector<AnalyzedTrace>& after_subset);

}  // namespace traceweaver
