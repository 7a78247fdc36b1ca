#include "stats/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/pipeline_metrics.h"
#include "stats/batch_kernels.h"
#include "stats/fast_exp.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

using stats_internal::ExpBatch;
using stats_internal::LogBatch;
using stats_internal::LogOne;

constexpr double kMinWeight = 1e-9;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Stack buffer for per-component terms in the common case (C <= 16);
/// mixtures larger than that spill to the heap.
constexpr std::size_t kStackComponents = 16;

/// EM convergence threshold on log-likelihood improvement.
constexpr double kTolerance = 1e-6;
/// Seed for the k-means++-style initialization.
constexpr std::uint64_t kInitSeed = 42;

/// Per-thread scratch reused across LogPdfBatch / LogLikelihood / EM calls
/// so the fitting hot path performs no steady-state heap allocation. The
/// batch and EM buffer sets are disjoint because Bic -> LogLikelihood ->
/// LogPdfBatch runs between FitGmm calls of the same sweep.
struct BatchScratch {
  std::vector<double> lt;   ///< LogPdfBatch component-term block.
  std::vector<double> pdf;  ///< LogLikelihood per-sample densities.
  std::vector<double> em_lt, em_ex, em_resp;      ///< [k][n] EM matrices.
  std::vector<double> em_mx, em_s, em_lse;        ///< [n] EM row buffers.
};

BatchScratch& Tls() {
  thread_local BatchScratch scratch;
  return scratch;
}

/// Numerically stable log-sum-exp over a small fixed array. Exponentials
/// and the final log go through ExpBatch / LogOne so per-call scoring and
/// the batched paths (LogPdfBatch, the EM E step) agree bitwise.
double LogSumExp(const double* xs, std::size_t n) {
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, xs[i]);
  if (!std::isfinite(mx)) return mx;
  double stack[kStackComponents];
  std::vector<double> heap;
  double* buf = stack;
  if (n > kStackComponents) {
    heap.resize(n);
    buf = heap.data();
  }
  for (std::size_t i = 0; i < n; ++i) buf[i] = xs[i] - mx;
  ExpBatch(buf, buf, n);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += buf[i];
  return mx + LogOne(s);
}

/// k-means++-style initialization: pick means spread across the data, then
/// set uniform weights and a shared stddev.
std::vector<GmmComponent> InitComponents(const std::vector<double>& samples,
                                         std::size_t k, Rng& rng) {
  std::vector<double> means;
  means.reserve(k);
  means.push_back(
      samples[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(samples.size()) - 1))]);
  std::vector<double> d2(samples.size());
  while (means.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (double m : means) {
        best = std::min(best, (samples[i] - m) * (samples[i] - m));
      }
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All remaining mass is on already-chosen points; duplicate one.
      means.push_back(means.back());
      continue;
    }
    double r = rng.Uniform(0.0, total);
    std::size_t pick = samples.size() - 1;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        pick = i;
        break;
      }
    }
    means.push_back(samples[pick]);
  }

  double lo = samples.front(), hi = samples.front();
  for (double s : samples) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  const double spread =
      std::max((hi - lo) / (2.0 * static_cast<double>(k)),
               kMinGaussianStddev);
  std::vector<GmmComponent> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    comps[c].weight = 1.0 / static_cast<double>(k);
    comps[c].mean = means[c];
    comps[c].stddev = spread;
  }
  return comps;
}

}  // namespace

GaussianMixture GaussianMixture::FromGaussian(const Gaussian& g) {
  return GaussianMixture({GmmComponent{1.0, g.mean,
                                       std::max(g.stddev,
                                                kMinGaussianStddev)}});
}

void GaussianMixture::BuildCache() {
  cache_.resize(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const double s = std::max(components_[c].stddev, kMinGaussianStddev);
    cache_[c].stddev = s;
    cache_[c].log_stddev = std::log(s);
    cache_[c].log_weight =
        std::log(std::max(components_[c].weight, kMinWeight));
  }
}

double GaussianMixture::LogPdf(double x) const {
  if (components_.empty()) return Gaussian{}.LogPdf(x);
  // Same arithmetic as summing log(weight) + Gaussian::LogPdf(x) per
  // component, with the x-independent terms read from the cache -- results
  // are bit-identical to the uncached path.
  const std::size_t k = components_.size();
  double stack[kStackComponents];
  std::vector<double> heap;
  double* terms = stack;
  if (k > kStackComponents) {
    heap.resize(k);
    terms = heap.data();
  }
  for (std::size_t c = 0; c < k; ++c) {
    const ComponentCache& cc = cache_[c];
    const double z = (x - components_[c].mean) / cc.stddev;
    terms[c] =
        cc.log_weight + (-0.5 * (kLogTwoPi + z * z) - cc.log_stddev);
  }
  return LogSumExp(terms, k);
}

void GaussianMixture::LogPdfBatch(std::span<const double> gaps,
                                  std::span<double> out) const {
  const std::size_t n = gaps.size();
  if (n == 0) return;
  if (components_.empty()) {
    Gaussian{}.LogPdfBatch(gaps, out);
    return;
  }
  const std::size_t k = components_.size();
  const double* xs = gaps.data();
  if (k == 1) {
    // One term: log-sum-exp degenerates to the term plus log(1.0) == +0.0.
    // The std::max against -inf and the isfinite guard reproduce the
    // per-call NaN / overflow semantics exactly, with zero libm calls.
    stats_internal::LogTermsKernel<true>(
        xs, n, components_[0].mean, cache_[0].stddev, cache_[0].log_weight,
        cache_[0].log_stddev, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double mx = std::max(kNegInf, out[i]);
      out[i] = std::isfinite(mx) ? mx + 0.0 : mx;
    }
    return;
  }
  // k >= 2: blocked over samples so the k x kBlock term matrix stays hot.
  // Arithmetic per sample is exactly LogPdf's: term fill in component
  // order, std::max scan, exp-sum in component order, mx + log(s). The max
  // component's exp(0.0) == 1.0 and log(1.0) == +0.0 are materialized
  // without libm calls; both identities are exact in IEEE-754.
  constexpr std::size_t kBlock = 256;
  auto& scr = Tls();
  scr.lt.resize(k * kBlock);
  double* lt = scr.lt.data();
  double mx[kBlock];
  double s[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t b = std::min(kBlock, n - base);
    for (std::size_t c = 0; c < k; ++c) {
      stats_internal::LogTermsKernel<true>(
          xs + base, b, components_[c].mean, cache_[c].stddev,
          cache_[c].log_weight, cache_[c].log_stddev, lt + c * kBlock);
    }
    for (std::size_t i = 0; i < b; ++i) mx[i] = kNegInf;
    for (std::size_t c = 0; c < k; ++c) {
      const double* row = lt + c * kBlock;
      for (std::size_t i = 0; i < b; ++i) mx[i] = std::max(mx[i], row[i]);
    }
    for (std::size_t i = 0; i < b; ++i) s[i] = 0.0;
    double ebuf[kBlock];
    for (std::size_t c = 0; c < k; ++c) {
      const double* row = lt + c * kBlock;
      for (std::size_t i = 0; i < b; ++i) ebuf[i] = row[i] - mx[i];
      ExpBatch(ebuf, ebuf, b);
      for (std::size_t i = 0; i < b; ++i) s[i] += ebuf[i];
    }
    LogBatch(s, s, b);  // LogBatch(1.0) == +0.0 exactly, matching LogOne
    for (std::size_t i = 0; i < b; ++i) {
      const double m = mx[i];
      out[base + i] = std::isfinite(m) ? m + s[i] : m;
    }
  }
}

double GaussianMixture::Pdf(double x) const { return std::exp(LogPdf(x)); }

double GaussianMixture::Cdf(double x) const {
  if (components_.empty()) return Gaussian{}.Cdf(x);
  double total = 0.0;
  for (const auto& c : components_) {
    total += c.weight * Gaussian{c.mean, c.stddev}.Cdf(x);
  }
  return std::clamp(total, 0.0, 1.0);
}

double GaussianMixture::LogLikelihood(
    const std::vector<double>& samples) const {
  // Batched evaluation, summed in sample order -- bit-identical to the
  // per-call loop because LogPdfBatch is bit-identical per element.
  auto& scr = Tls();
  scr.pdf.resize(samples.size());
  LogPdfBatch(samples, scr.pdf);
  double ll = 0.0;
  for (double v : scr.pdf) ll += v;
  return ll;
}

double GaussianMixture::Bic(const std::vector<double>& samples) const {
  const double n = static_cast<double>(samples.size());
  const double k = 3.0 * static_cast<double>(components_.size()) - 1.0;
  return k * std::log(std::max(n, 1.0)) - 2.0 * LogLikelihood(samples);
}

GaussianMixture FitGmm(const std::vector<double>& samples,
                       std::size_t num_components,
                       const GmmFitOptions& options) {
  if (samples.empty()) {
    return GaussianMixture::FromGaussian(Gaussian{});
  }
  const std::size_t k = std::min(num_components, samples.size());
  if (k <= 1) {
    return GaussianMixture::FromGaussian(Gaussian::Fit(samples));
  }

  Rng rng(kInitSeed);
  std::vector<GmmComponent> comps = InitComponents(samples, k, rng);

  const std::size_t n = samples.size();
  const double* xs = samples.data();
  // The E step runs transposed and batched: one dense [n] row per component
  // for the log terms (lt), the retained exp(term - max) values (ex), and
  // the responsibilities (resp[c*n + i]). Every per-sample arithmetic
  // sequence -- term fill in component order, std::max scan, exp-sum in
  // component order, lse, exp(term - lse) -- is identical to the previous
  // row-at-a-time form, so responsibilities and the log-likelihood are
  // bit-identical; the M step then reads each component's resp row
  // contiguously. Scratch is per-thread and reused across fits.
  auto& scr = Tls();
  scr.em_lt.resize(k * n);
  scr.em_ex.resize(k * n);
  scr.em_resp.resize(k * n);
  scr.em_mx.resize(n);
  scr.em_s.resize(n);
  scr.em_lse.resize(n);
  double* lt = scr.em_lt.data();
  double* ex = scr.em_ex.data();
  double* resp = scr.em_resp.data();
  double* mx = scr.em_mx.data();
  double* sb = scr.em_s.data();
  double* lse = scr.em_lse.data();
  double prev_ll = -std::numeric_limits<double>::infinity();

  std::vector<double> log_w(k), sigma(k), log_sigma(k);
  std::size_t iters_run = 0;
  bool converged = false;
  for (std::size_t iter = 0; iter < options.em_iterations; ++iter) {
    ++iters_run;
    // E step. The sample-independent terms -- log(weight), the floored
    // stddev and its log -- are hoisted out of the sample loop.
    for (std::size_t c = 0; c < k; ++c) {
      log_w[c] = std::log(std::max(comps[c].weight, kMinWeight));
      sigma[c] = std::max(comps[c].stddev, kMinGaussianStddev);
      log_sigma[c] = std::log(sigma[c]);
    }
    for (std::size_t c = 0; c < k; ++c) {
      stats_internal::LogTermsKernel<true>(xs, n, comps[c].mean, sigma[c],
                                           log_w[c], log_sigma[c], lt + c * n);
    }
    // Per-sample max over components, in component order (std::max keeps
    // the scalar scan's NaN semantics).
    for (std::size_t i = 0; i < n; ++i) mx[i] = kNegInf;
    for (std::size_t c = 0; c < k; ++c) {
      const double* row = lt + c * n;
      for (std::size_t i = 0; i < n; ++i) mx[i] = std::max(mx[i], row[i]);
    }
    // Vectorized exp(term - max), one dense row per component.
    for (std::size_t i = 0; i < n; ++i) sb[i] = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double* row = lt + c * n;
      double* erow = ex + c * n;
      for (std::size_t i = 0; i < n; ++i) erow[i] = row[i] - mx[i];
      ExpBatch(erow, erow, n);
      for (std::size_t i = 0; i < n; ++i) sb[i] += erow[i];
    }
    LogBatch(sb, sb, n);  // vectorized; LogBatch(1.0) == +0.0 exactly
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double m = mx[i];
      lse[i] = std::isfinite(m) ? m + sb[i] : m;
      ll += lse[i];
    }
    // Responsibilities, again one vectorized exp row per component.
    for (std::size_t c = 0; c < k; ++c) {
      const double* row = lt + c * n;
      double* rrow = resp + c * n;
      for (std::size_t i = 0; i < n; ++i) rrow[i] = row[i] - lse[i];
      ExpBatch(rrow, rrow, n);
    }

    // M step, reading contiguous responsibility rows.
    for (std::size_t c = 0; c < k; ++c) {
      const double* rrow = resp + c * n;
      double nc = 0.0, mu = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        nc += rrow[i];
        mu += rrow[i] * xs[i];
      }
      nc = std::max(nc, kMinWeight);
      mu /= nc;
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = xs[i] - mu;
        var += rrow[i] * d * d;
      }
      var /= nc;
      comps[c].weight = nc / static_cast<double>(n);
      comps[c].mean = mu;
      comps[c].stddev =
          std::max(std::sqrt(var), kMinGaussianStddev);
    }

    if (ll - prev_ll < kTolerance && iter > 0) {
      converged = true;
      break;
    }
    prev_ll = ll;
  }
  if (options.obs != nullptr) {
    options.obs->em_iterations.Inc(iters_run);
    if (!converged) options.obs->em_capped.Inc();
  }

  return GaussianMixture(std::move(comps));
}

GaussianMixture FitGmmBicSweep(const std::vector<double>& samples,
                               const GmmFitOptions& options) {
  if (samples.empty()) {
    return GaussianMixture::FromGaussian(Gaussian{});
  }
  GaussianMixture best;
  double best_bic = std::numeric_limits<double>::infinity();
  for (std::size_t c = 1; c <= options.max_components; ++c) {
    GaussianMixture m = FitGmm(samples, c, options);
    const double bic = m.Bic(samples);
    if (bic < best_bic) {
      best_bic = bic;
      best = std::move(m);
    }
  }
  if (options.obs != nullptr) {
    options.obs->fits.Inc();
    options.obs->components.Observe(best.num_components());
  }
  return best;
}

}  // namespace traceweaver
