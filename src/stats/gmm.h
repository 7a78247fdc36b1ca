// Gaussian Mixture Model fitted by Expectation-Maximization, with BIC-based
// model selection (§4.1 step 3, later iterations).
//
// GMMs are universal density approximators; TraceWeaver sweeps the component
// count and keeps the model minimizing the Bayesian Information Criterion to
// avoid over-fitting the inferred delay samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/gaussian.h"

namespace traceweaver::obs {
struct GmmCounters;  // obs/pipeline_metrics.h
}

namespace traceweaver {

struct GmmComponent {
  double weight = 1.0;
  double mean = 0.0;
  double stddev = 1.0;
};

/// A fitted univariate Gaussian mixture.
///
/// Components are immutable after construction, so the per-component terms
/// LogPdf needs on every call -- floored stddev, log(stddev), log(weight)
/// -- are precomputed once here. LogPdf is the innermost operation of both
/// candidate scoring and EM/BIC fitting.
class GaussianMixture {
 public:
  GaussianMixture() = default;
  explicit GaussianMixture(std::vector<GmmComponent> components)
      : components_(std::move(components)) {
    BuildCache();
  }

  /// Builds a single-component mixture from a plain Gaussian.
  static GaussianMixture FromGaussian(const Gaussian& g);

  const std::vector<GmmComponent>& components() const { return components_; }
  std::size_t num_components() const { return components_.size(); }

  /// Log density at x; -inf is never returned (weights/stddevs are floored).
  double LogPdf(double x) const;
  /// Batched log density: out[i] = LogPdf(gaps[i]), bitwise-identical to the
  /// per-call overload on every input (denormals, ±inf, NaN included).
  /// Component constants are hoisted once, the per-component term loop is
  /// vectorized (stats/batch_kernels.h), and the log-sum-exp runs blocked
  /// over samples so component terms stay cache-resident. `out` must be at
  /// least gaps.size(); the two may not alias.
  void LogPdfBatch(std::span<const double> gaps, std::span<double> out) const;
  double Pdf(double x) const;
  /// Cumulative distribution at x (weight-mixed component CDFs).
  double Cdf(double x) const;

  /// Total log likelihood of a sample set.
  double LogLikelihood(const std::vector<double>& samples) const;

  /// Bayesian Information Criterion: k*ln(n) - 2*lnL with k = 3C - 1 free
  /// parameters (C means, C stddevs, C-1 independent weights).
  double Bic(const std::vector<double>& samples) const;

 private:
  void BuildCache();

  /// Precomputed per-component scoring terms (see class comment).
  struct ComponentCache {
    double stddev = 1.0;      ///< Floored.
    double log_stddev = 0.0;  ///< log(floored stddev).
    double log_weight = 0.0;  ///< log(max(weight, floor)).
  };

  std::vector<GmmComponent> components_;
  std::vector<ComponentCache> cache_;
};

struct GmmFitOptions {
  /// Maximum number of mixture components swept during model selection.
  std::size_t max_components = 5;
  /// EM iterations per candidate component count.
  std::size_t em_iterations = 50;
  /// Optional observability counters (EM iterations, BIC sweeps, selected
  /// component counts); fitting is unchanged when null. Handles are
  /// thread-safe, so concurrent refits may share one bundle.
  const obs::GmmCounters* obs = nullptr;
};

/// Fits a GMM with a fixed component count via EM (k-means++ init).
/// Degenerate inputs (fewer samples than components) fall back to fewer
/// components.
GaussianMixture FitGmm(const std::vector<double>& samples,
                       std::size_t num_components,
                       const GmmFitOptions& options = {});

/// Sweeps component counts 1..max_components and returns the fit minimizing
/// BIC (§4.1 step 3).
GaussianMixture FitGmmBicSweep(const std::vector<double>& samples,
                               const GmmFitOptions& options = {});

}  // namespace traceweaver
