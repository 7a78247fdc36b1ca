#include "core/drift.h"

namespace traceweaver {
namespace {

/// Significance level below which a key counts as drifted.
constexpr double kAlpha = 0.01;
/// Minimum samples per key before testing (KS is unstable below this).
constexpr std::size_t kMinSamples = 30;

}  // namespace

std::vector<DriftFinding> DetectDrift(
    const DelayModel& model,
    const std::map<DelayKey, std::vector<double>>& recent_gaps) {
  std::vector<DriftFinding> findings;
  for (const auto& [key, gaps] : recent_gaps) {
    if (gaps.size() < kMinSamples) continue;
    const GaussianMixture* dist = model.Find(key);
    if (dist == nullptr) continue;

    DriftFinding finding;
    finding.key = key;
    finding.ks = KolmogorovSmirnovTest(
        gaps, [dist](double x) { return dist->Cdf(x); });
    finding.drifted = finding.ks.p_value < kAlpha;
    findings.push_back(std::move(finding));
  }
  return findings;
}

bool AnyDrift(const std::vector<DriftFinding>& findings) {
  for (const DriftFinding& f : findings) {
    if (f.drifted) return true;
  }
  return false;
}

}  // namespace traceweaver
