#include <gtest/gtest.h>

#include <cmath>

#include "core/delay_model.h"
#include "util/rng.h"
#include "util/time_types.h"

namespace traceweaver {
namespace {

TEST(DelayModel, SeedRoundTrip) {
  DelayModel model;
  const DelayKey key{"A", "/a", 0, 0};
  model.SetSeed(key, Gaussian{1000.0, 100.0});
  EXPECT_TRUE(model.Has(key));
  const DelayModel::DistView view = model.View(key);
  ASSERT_NE(view.mixture, nullptr);
  EXPECT_NEAR(view.mixture->LogPdf(1000.0),
              (Gaussian{1000.0, 100.0}).LogPdf(1000.0), 1e-9);
}

TEST(DelayModel, UnknownKeyUsesWideFallback) {
  DelayModel model;
  const DelayKey key{"X", "/x", 0, 0};
  EXPECT_FALSE(model.Has(key));
  // Scores against the fallback Gaussian, whose peak the view caches.
  const DelayModel::DistView view = model.View(key);
  EXPECT_EQ(view.mixture, nullptr);
  EXPECT_EQ(view.max_log_pdf, DelayModel::FallbackLogPdf(0.0));
  // Finite, and nearly flat across plausible gaps.
  const double near = DelayModel::FallbackLogPdf(0.0);
  const double far =
      DelayModel::FallbackLogPdf(static_cast<double>(Millis(10)));
  EXPECT_TRUE(std::isfinite(near));
  EXPECT_TRUE(std::isfinite(far));
  EXPECT_LT(near - far, 1.0);
}

TEST(DelayModel, MaxLogScoreIsPeak) {
  DelayModel model;
  const DelayKey key{"A", "/a", 0, 0};
  model.SetSeed(key, Gaussian{500.0, 50.0});
  const DelayModel::DistView view = model.View(key);
  const double peak = view.max_log_pdf;
  EXPECT_NEAR(peak, view.mixture->LogPdf(500.0), 1e-9);
  for (double gap : {0.0, 400.0, 600.0, 1000.0}) {
    EXPECT_LE(view.mixture->LogPdf(gap), peak + 1e-9);
  }
}

TEST(DelayModel, MaxLogScoreCoversMixtureModes) {
  DelayModel model;
  const DelayKey key{"A", "/a", 1, 0};
  Rng rng(3);
  std::vector<double> gaps;
  for (int i = 0; i < 2000; ++i) {
    gaps.push_back(rng.Bernoulli(0.5) ? rng.Normal(100.0, 10.0)
                                      : rng.Normal(900.0, 10.0));
  }
  GmmFitOptions opts;
  opts.max_components = 4;
  model.Refit(key, gaps, opts);
  const DelayModel::DistView view = model.View(key);
  const double peak = view.max_log_pdf;
  EXPECT_GE(peak + 1e-9, view.mixture->LogPdf(100.0));
  EXPECT_GE(peak + 1e-9, view.mixture->LogPdf(900.0));
  // Normalized scores at both modes should be close to zero.
  EXPECT_GT(view.mixture->LogPdf(100.0) - peak, -1.0);
  EXPECT_GT(view.mixture->LogPdf(900.0) - peak, -1.0);
}

TEST(DelayModel, RefitReplacesSeed) {
  DelayModel model;
  const DelayKey key{"A", "/a", 0, 0};
  model.SetSeed(key, Gaussian{0.0, 1.0});
  Rng rng(5);
  std::vector<double> gaps;
  for (int i = 0; i < 500; ++i) gaps.push_back(rng.Normal(5000.0, 100.0));
  model.Refit(key, gaps, {});
  const GaussianMixture* refit = model.View(key).mixture;
  EXPECT_GT(refit->LogPdf(5000.0), refit->LogPdf(0.0));
}

TEST(DelayModel, RefitIgnoresEmptyGapSets) {
  DelayModel model;
  const DelayKey key{"A", "/a", 0, 0};
  model.SetSeed(key, Gaussian{42.0, 1.0});
  model.Refit(key, {}, {});
  EXPECT_NEAR(model.View(key).mixture->LogPdf(42.0),
              (Gaussian{42.0, 1.0}).LogPdf(42.0), 1e-9);
}

TEST(DelayKey, OrderingAndResponseGap) {
  const DelayKey a{"A", "/a", 0, 0};
  const DelayKey b{"A", "/a", 0, 1};
  const DelayKey r = DelayKey::ResponseGap("A", "/a");
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(r < a);  // stage -1 sorts first.
  EXPECT_EQ(r.stage, -1);
  EXPECT_EQ(r.call, -1);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == (DelayKey{"A", "/a", 0, 0}));
}

}  // namespace
}  // namespace traceweaver
