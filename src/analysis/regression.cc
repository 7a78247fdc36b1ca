#include "analysis/regression.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "stats/ttest.h"
#include "util/summary.h"

namespace traceweaver {
namespace {

/// Per-service *self-time* samples (milliseconds) over a trace subset:
/// span duration minus the time spent waiting on its children. Inclusive
/// durations would blame every ancestor of a slow service; self time
/// pins the shift on the service that actually changed.
std::map<std::string, std::vector<double>> LatencySamples(
    const TraceQuery& query, const std::vector<AnalyzedTrace>& subset) {
  std::map<std::string, std::vector<double>> out;
  const TraceForest& forest = query.forest();
  for (const AnalyzedTrace& r : subset) {
    std::vector<std::size_t> stack{r.root_node};
    while (!stack.empty()) {
      const std::size_t node = stack.back();
      stack.pop_back();
      const Span& s = forest.span_of(forest.nodes()[node]);
      DurationNs self = s.ServerDuration();
      for (std::size_t c : forest.nodes()[node].children) {
        self -= forest.span_of(forest.nodes()[c]).ClientDuration();
        stack.push_back(c);
      }
      // Parallel children can over-subtract; clamp (the attribution is
      // then conservative for fan-out-heavy services).
      if (self < 0) self = 0;
      out[s.callee].push_back(ToMillis(self));
    }
  }
  return out;
}

double CohensD(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const double sa = SampleStddev(a), sb = SampleStddev(b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double pooled = std::sqrt(
      ((na - 1.0) * sa * sa + (nb - 1.0) * sb * sb) / (na + nb - 2.0));
  if (pooled <= 0.0) return 0.0;
  return (Mean(b) - Mean(a)) / pooled;
}

}  // namespace

std::vector<ServiceShift> RegressionReport::Regressions(
    double alpha, double min_delta_ms) const {
  std::vector<ServiceShift> out;
  for (const ServiceShift& s : shifts) {
    if (s.Significant(alpha) && std::fabs(s.delta_ms) >= min_delta_ms) {
      out.push_back(s);
    }
  }
  return out;
}

RegressionReport CompareServiceLatencies(
    const TraceQuery& before_query,
    const std::vector<AnalyzedTrace>& before_subset,
    const TraceQuery& after_query,
    const std::vector<AnalyzedTrace>& after_subset) {
  const auto before = LatencySamples(before_query, before_subset);
  const auto after = LatencySamples(after_query, after_subset);

  std::set<std::string> services;
  for (const auto& [svc, xs] : before) services.insert(svc);
  for (const auto& [svc, xs] : after) services.insert(svc);

  RegressionReport report;
  static const std::vector<double> kEmpty;
  for (const std::string& svc : services) {
    const auto bit = before.find(svc);
    const auto ait = after.find(svc);
    const std::vector<double>& b = bit == before.end() ? kEmpty : bit->second;
    const std::vector<double>& a = ait == after.end() ? kEmpty : ait->second;

    ServiceShift shift;
    shift.service = svc;
    shift.before_mean_ms = Mean(b);
    shift.after_mean_ms = Mean(a);
    shift.delta_ms = shift.after_mean_ms - shift.before_mean_ms;
    shift.before_samples = b.size();
    shift.after_samples = a.size();
    shift.p_value = WelchTTest(b, a).p_value;
    shift.effect_size = CohensD(b, a);
    report.shifts.push_back(std::move(shift));
  }
  std::sort(report.shifts.begin(), report.shifts.end(),
            [](const ServiceShift& x, const ServiceShift& y) {
              if (x.p_value != y.p_value) return x.p_value < y.p_value;
              return x.service < y.service;
            });
  return report;
}

}  // namespace traceweaver
