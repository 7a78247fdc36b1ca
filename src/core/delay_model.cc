#include "core/delay_model.h"

#include <algorithm>

#include "util/time_types.h"

namespace traceweaver {
namespace {

/// Wide fallback for keys with no learned distribution: mean 0, stddev
/// 50 ms. Keeps scores finite and comparable rather than vetoing.
const Gaussian& FallbackGaussian() {
  static const Gaussian g{0.0, static_cast<double>(Millis(50))};
  return g;
}

/// Approximates the mixture's peak log-density by evaluating it at every
/// component mean (exact for single Gaussians; a tight lower bound for
/// mixtures, which is all the likelihood-ratio normalization needs).
double PeakLogPdf(const GaussianMixture& m) {
  double best = m.LogPdf(0.0);
  for (const GmmComponent& c : m.components()) {
    best = std::max(best, m.LogPdf(c.mean));
  }
  return best;
}

}  // namespace

void DelayModel::SetSeed(const DelayKey& key, const Gaussian& seed) {
  Entry e;
  e.mixture = GaussianMixture::FromGaussian(seed);
  e.max_log_pdf = PeakLogPdf(e.mixture);
  dists_[key] = std::move(e);
}

void DelayModel::Refit(const DelayKey& key, const std::vector<double>& gaps,
                       const GmmFitOptions& options) {
  if (gaps.empty()) return;
  Install(key, FitGmmBicSweep(gaps, options));
}

void DelayModel::Install(const DelayKey& key, GaussianMixture mixture) {
  Entry e;
  e.mixture = std::move(mixture);
  e.max_log_pdf = PeakLogPdf(e.mixture);
  dists_[key] = std::move(e);
}

const GaussianMixture* DelayModel::Find(const DelayKey& key) const {
  auto it = dists_.find(key);
  return it == dists_.end() ? nullptr : &it->second.mixture;
}

DelayModel::DistView DelayModel::View(const DelayKey& key) const {
  auto it = dists_.find(key);
  if (it == dists_.end()) return {nullptr, FallbackGaussian().LogPdf(0.0)};
  return {&it->second.mixture, it->second.max_log_pdf};
}

double DelayModel::FallbackLogPdf(double gap) {
  return FallbackGaussian().LogPdf(gap);
}

void DelayModel::FallbackLogPdfBatch(std::span<const double> gaps,
                                     std::span<double> out) {
  FallbackGaussian().LogPdfBatch(gaps, out);
}

DelayModel::Summary DelayModel::Summarize() const {
  Summary s;
  s.keys = dists_.size();
  for (const auto& [key, entry] : dists_) {
    const std::size_t c = entry.mixture.num_components();
    s.components += c;
    if (c > 1) ++s.mixture_keys;
  }
  return s;
}

}  // namespace traceweaver
