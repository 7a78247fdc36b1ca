// Inter-span delay distributions (§4.1 step 3).
//
// One distribution per "dependency edge" at a handler: the gap between the
// event that enables a backend call (parent request arrival for stage 0,
// completion of the previous stage otherwise) and the call's departure,
// plus one distribution for the response gap (last child completion ->
// parent response departure). Iteration 1 uses seed Gaussians estimated
// without any mapping (difference of means + bucketed CLT variance);
// later iterations refit Gaussian mixtures (EM + BIC) on the gaps implied
// by the current mapping.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "stats/gaussian.h"
#include "stats/gmm.h"

namespace traceweaver {

/// Identifies one delay distribution at a handler. stage/call index the
/// InvocationPlan position; {-1, -1} is the response-gap distribution.
struct DelayKey {
  std::string service;
  std::string endpoint;
  int stage = 0;
  int call = 0;

  static DelayKey ResponseGap(std::string service, std::string endpoint) {
    return DelayKey{std::move(service), std::move(endpoint), -1, -1};
  }

  bool operator<(const DelayKey& o) const {
    if (service != o.service) return service < o.service;
    if (endpoint != o.endpoint) return endpoint < o.endpoint;
    if (stage != o.stage) return stage < o.stage;
    return call < o.call;
  }
  bool operator==(const DelayKey& o) const {
    return service == o.service && endpoint == o.endpoint &&
           stage == o.stage && call == o.call;
  }
};

/// The collection of per-edge delay distributions used for scoring.
class DelayModel {
 public:
  /// Installs a seed (single-Gaussian) distribution.
  void SetSeed(const DelayKey& key, const Gaussian& seed);

  /// Replaces the distribution with a BIC-selected GMM fit on `gaps`.
  /// Empty gap sets leave the existing distribution untouched.
  void Refit(const DelayKey& key, const std::vector<double>& gaps,
             const GmmFitOptions& options);

  /// Scoring view of one distribution: the mixture pointer (stable across
  /// Refit/Install -- map nodes are never moved) plus its cached peak
  /// log-density, the best score any gap can achieve. `LogPdf(gap) -
  /// max_log_pdf` is a unit-free likelihood ratio used to compare timing
  /// terms against discrete skip probabilities. Unknown keys yield
  /// {nullptr, FallbackLogPdf(0)} and score against a weak, wide fallback
  /// Gaussian so candidates stay comparable.
  struct DistView {
    const GaussianMixture* mixture = nullptr;
    double max_log_pdf = 0.0;
  };
  DistView View(const DelayKey& key) const;

  /// Log-density of the wide fallback distribution used for unknown keys
  /// (mean 0, stddev 50 ms), for views whose mixture is null.
  static double FallbackLogPdf(double gap);

  /// Batched flavour: out[i] = FallbackLogPdf(gaps[i]), bitwise identical
  /// per element (routes through Gaussian::LogPdfBatch). out must be at
  /// least gaps.size(); the two may not alias.
  static void FallbackLogPdfBatch(std::span<const double> gaps,
                                  std::span<double> out);

  /// Installs an externally fitted mixture (e.g. from a parallel refit);
  /// equivalent to Refit with a fit that produced `mixture`.
  void Install(const DelayKey& key, GaussianMixture mixture);

  bool Has(const DelayKey& key) const { return dists_.count(key) > 0; }
  std::size_t size() const { return dists_.size(); }

  /// Aggregate shape of the model, for observability/reports.
  struct Summary {
    std::size_t keys = 0;          ///< Distributions held.
    std::size_t mixture_keys = 0;  ///< Keys with more than one component.
    std::size_t components = 0;    ///< Total mixture components.
  };
  Summary Summarize() const;

  const GaussianMixture* Find(const DelayKey& key) const;

  /// Calls fn(key, mixture) for every distribution, in key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, entry] : dists_) fn(key, entry.mixture);
  }

 private:
  struct Entry {
    GaussianMixture mixture;
    double max_log_pdf = 0.0;
  };
  std::map<DelayKey, Entry> dists_;
};

}  // namespace traceweaver
