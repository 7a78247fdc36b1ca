#include "obs/quality.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "stats/ks_test.h"
#include "stats/pearson.h"
#include "util/table.h"

namespace traceweaver::obs {
namespace {

constexpr std::size_t kCalibrationBins = 10;

/// Softmax temperature over the top-K log-likelihood scores. Raw log
/// scores sum many per-position terms, so margins are large; a
/// temperature > 1 flattens the posterior toward honest uncertainty.
constexpr double kTemperature = 1.0;
/// Multiplicative confidence penalty per §4.2 phantom skip in the chosen
/// mapping (each skip is an unobserved guess).
constexpr double kSkipPenalty = 0.95;
/// Multiplicative penalty when the batch's B&B solve hit its node budget
/// and fell back to the greedy incumbent.
constexpr double kFallbackPenalty = 0.9;
/// Weight of the MWIS greedy-vs-exact agreement factor in [0, 1]:
/// confidence *= (1 - w) + w * (greedy_weight / chosen_weight).
constexpr double kMwisGapWeight = 0.25;
/// Weight of the ambiguity-entropy factor in [0, 1]: confidence *=
/// 1 - w * H, with H the normalized entropy of the softmax over the kept
/// candidates.
constexpr double kEntropyWeight = 0.25;
/// Multiplicative per-trace penalty for a *suspicious* orphan fragment:
/// the root has a non-client caller (it observably had a parent that was
/// not reconstructed) AND some mapped parent of the caller's service both
/// covers the root's client window and skipped at least one plan position
/// -- a candidate parent existed and declined the span, so the broken
/// link is likely a reconstruction mistake.
constexpr double kOrphanPenalty = 0.05;
/// Penalty for the remaining (benign) orphan fragments: no covering
/// same-service parent with a free slot exists, so the true parent was
/// most plausibly never captured (dropped record, capture boundary) and
/// the fragment's internal links carry their own evidence.
constexpr double kFragmentPenalty = 0.9;
/// Slack on each side of the covering-parent window test above. Links
/// commonly break because clock jitter pushed the child's client window
/// slightly outside its true parent's server window; without slack such a
/// parent would not "cover" the orphan and the mistake would pass as
/// benign.
constexpr DurationNs kOrphanWindowSlack = Millis(1);

std::uint64_t Milli(double v) {
  return static_cast<std::uint64_t>(
      std::llround(std::clamp(v, 0.0, 1.0) * 1000.0));
}

std::size_t GradeIndex(char grade) {
  switch (grade) {
    case 'A': return 0;
    case 'B': return 1;
    case 'C': return 2;
    default: return 3;
  }
}

/// Softmax posterior of the chosen candidate at the given temperature and
/// the normalized Shannon entropy of the distribution, computed over the
/// candidates that were *live competition under the joint optimization*:
///   * compatible with the rest of the solution -- a candidate claiming a
///     child the final assignment gave to another parent was rejected by
///     the MWIS for that conflict, not on this parent's evidence, and
///   * not fill-dominated -- the MWIS objective maximizes filled (non-
///     skip) positions lexicographically before timing scores, so a
///     compatible candidate filling fewer positions than the chosen one
///     (e.g. the all-skip mapping, often the top *scored* candidate)
///     never competes.
/// This is the conditional posterior P(candidate | every other parent's
/// chosen mapping) under the solver's own preference order.
void Posterior(const std::vector<CandidateMapping>& ranked, int chosen,
               SpanId parent, const ParentAssignment& assignment,
               double* posterior, double* entropy) {
  const std::size_t k = ranked.size();
  if (k == 0 || chosen < 0) {
    *posterior = 0.0;
    *entropy = 0.0;
    return;
  }
  const auto filled = [](const CandidateMapping& m) {
    return m.children.size() - m.skips;
  };
  const std::size_t chosen_fill =
      filled(ranked[static_cast<std::size_t>(chosen)]);
  std::vector<double> scores;
  scores.reserve(k);
  std::size_t chosen_at = 0;
  for (std::size_t i = 0; i < k; ++i) {
    bool live = filled(ranked[i]) >= chosen_fill;
    if (live && i != static_cast<std::size_t>(chosen)) {
      for (const SpanId c : ranked[i].children) {
        if (c == kSkippedChild) continue;
        const auto it = assignment.find(c);
        if (it != assignment.end() && it->second != kInvalidSpanId &&
            it->second != parent) {
          live = false;
          break;
        }
      }
    }
    if (!live) continue;
    if (i == static_cast<std::size_t>(chosen)) chosen_at = scores.size();
    scores.push_back(ranked[i].score);
  }
  if (scores.size() <= 1) {
    *posterior = 1.0;
    *entropy = 0.0;
    return;
  }
  double max_score = scores[0];
  for (const double s : scores) max_score = std::max(max_score, s);
  double sum = 0.0;
  std::vector<double> w(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    w[i] = std::exp((scores[i] - max_score) / kTemperature);
    sum += w[i];
  }
  double h = 0.0;
  for (const double wi : w) {
    const double p = wi / sum;
    if (p > 0.0) h -= p * std::log(p);
  }
  *posterior = w[chosen_at] / sum;
  *entropy =
      std::clamp(h / std::log(static_cast<double>(scores.size())), 0.0, 1.0);
}

char GradeOf(double confidence) {
  if (confidence >= kGradeA) return 'A';
  if (confidence >= kGradeB) return 'B';
  if (confidence >= kGradeC) return 'C';
  return 'D';
}

/// Resolves each span's trace root by walking the predicted assignment,
/// memoized. A parent id missing from the population roots the walk there
/// (matching how TraceForest treats orphan fragments).
std::unordered_map<SpanId, SpanId> ResolveRoots(
    const std::vector<Span>& spans, const ParentAssignment& assignment) {
  std::unordered_set<SpanId> present;
  present.reserve(spans.size());
  for (const Span& s : spans) present.insert(s.id);

  std::unordered_map<SpanId, SpanId> root;
  root.reserve(spans.size());
  std::vector<SpanId> path;
  for (const Span& s : spans) {
    if (root.count(s.id) > 0) continue;
    path.clear();
    SpanId cur = s.id;
    SpanId found = kInvalidSpanId;
    while (true) {
      auto done = root.find(cur);
      if (done != root.end()) {
        found = done->second;
        break;
      }
      path.push_back(cur);
      auto it = assignment.find(cur);
      const SpanId parent =
          it == assignment.end() ? kInvalidSpanId : it->second;
      if (parent == kInvalidSpanId || present.count(parent) == 0 ||
          path.size() > spans.size()) {
        found = cur;  // cur is the root of this fragment.
        break;
      }
      cur = parent;
    }
    for (SpanId id : path) root[id] = found;
  }
  return root;
}

CalibrationResult Calibrate(const std::vector<double>& confidence,
                            const std::vector<double>& correct) {
  CalibrationResult r;
  r.samples = confidence.size();
  r.bins.resize(kCalibrationBins);
  for (std::size_t b = 0; b < kCalibrationBins; ++b) {
    r.bins[b].lower = static_cast<double>(b) / kCalibrationBins;
    r.bins[b].upper = static_cast<double>(b + 1) / kCalibrationBins;
  }
  if (confidence.empty()) return r;

  std::vector<double> conf_sum(kCalibrationBins, 0.0);
  std::vector<double> correct_sum(kCalibrationBins, 0.0);
  double brier = 0.0;
  for (std::size_t i = 0; i < confidence.size(); ++i) {
    const double c = std::clamp(confidence[i], 0.0, 1.0);
    std::size_t b = static_cast<std::size_t>(c * kCalibrationBins);
    if (b >= kCalibrationBins) b = kCalibrationBins - 1;
    ++r.bins[b].count;
    conf_sum[b] += c;
    correct_sum[b] += correct[i];
    const double err = c - correct[i];
    brier += err * err;
  }
  const double n = static_cast<double>(confidence.size());
  r.brier = brier / n;
  for (std::size_t b = 0; b < kCalibrationBins; ++b) {
    if (r.bins[b].count == 0) continue;
    const double cnt = static_cast<double>(r.bins[b].count);
    r.bins[b].mean_confidence = conf_sum[b] / cnt;
    r.bins[b].accuracy = correct_sum[b] / cnt;
    r.ece += (cnt / n) *
             std::fabs(r.bins[b].accuracy - r.bins[b].mean_confidence);
  }
  // Pearson degenerates when either series is near-constant: on a clean
  // run almost every trace is correct and confidence sits pinned high, so
  // the coefficient is driven by a handful of outliers and is pure
  // sampling noise (observed 0.21 at 97.4% accuracy). Require real spread
  // on both sides before reporting a value at all.
  constexpr double kMinStddev = 0.05;
  double conf_var = 0.0, correct_var = 0.0;
  const double mean_conf =
      std::accumulate(confidence.begin(), confidence.end(), 0.0) / n;
  const double mean_correct =
      std::accumulate(correct.begin(), correct.end(), 0.0) / n;
  for (std::size_t i = 0; i < confidence.size(); ++i) {
    conf_var += (confidence[i] - mean_conf) * (confidence[i] - mean_conf);
    correct_var +=
        (correct[i] - mean_correct) * (correct[i] - mean_correct);
  }
  conf_var /= n;
  correct_var /= n;
  if (conf_var >= kMinStddev * kMinStddev &&
      correct_var >= kMinStddev * kMinStddev) {
    r.pearson = PearsonCorrelation(confidence, correct);
    r.pearson_defined = true;
  }
  return r;
}

}  // namespace

QualityMetrics::QualityMetrics(MetricsRegistry& reg) {
  assignments = reg.GetCounter("tw_quality_assignments_total", "",
                               "Parent assignments scored for quality.", "1");
  unmapped = reg.GetCounter("tw_quality_unmapped_total", "",
                            "Assignments with no chosen mapping.", "1");
  confidence_milli = reg.GetHistogram(
      "tw_quality_confidence_milli", "",
      "Per-assignment confidence x1000.", "1");
  entropy_milli = reg.GetHistogram(
      "tw_quality_entropy_milli", "",
      "Per-assignment candidate ambiguity entropy x1000.", "1");
  traces = reg.GetCounter("tw_quality_traces_total", "",
                          "Stitched traces graded for quality.", "1");
  trace_confidence_milli = reg.GetHistogram(
      "tw_quality_trace_confidence_milli", "",
      "Per-trace confidence (product aggregation) x1000.", "1");
  static const char* kGradeLabels[4] = {"grade=\"a\"", "grade=\"b\"",
                                        "grade=\"c\"", "grade=\"d\""};
  for (std::size_t g = 0; g < 4; ++g) {
    grades[g] = reg.GetCounter("tw_quality_grade_total", kGradeLabels[g],
                               "Traces per quality grade.", "1");
  }
  monitor_windows = reg.GetCounter(
      "tw_quality_monitor_windows_total", "",
      "Confidence monitor windows closed.", "1");
  monitor_drift = reg.GetCounter(
      "tw_quality_monitor_drift_total", "",
      "Monitor windows whose confidence distribution drifted (KS).", "1");
  monitor_ks_milli = reg.GetHistogram(
      "tw_quality_monitor_ks_milli", "",
      "KS statistic of monitor windows vs the reference x1000.", "1");
}

double QualityReport::MeanAssignmentConfidence() const {
  if (assignments.empty()) return 0.0;
  double sum = 0.0;
  for (const AssignmentQuality& a : assignments) sum += a.confidence;
  return sum / static_cast<double>(assignments.size());
}

double QualityReport::MeanTraceConfidence() const {
  if (traces.empty()) return 0.0;
  double sum = 0.0;
  for (const TraceQuality& t : traces) sum += t.confidence;
  return sum / static_cast<double>(traces.size());
}

std::map<std::string, double> QualityReport::MeanConfidenceByService() const {
  struct Tally {
    double sum = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Tally> tallies;
  for (const AssignmentQuality& a : assignments) {
    Tally& t = tallies[a.service];
    t.sum += a.confidence;
    ++t.count;
  }
  std::map<std::string, double> out;
  for (const auto& [service, t] : tallies) {
    if (t.count == 0) continue;
    out[service] = t.sum / static_cast<double>(t.count);
  }
  return out;
}

std::vector<std::pair<std::string, double>> QualityReport::WorstServices(
    std::size_t worst) const {
  std::vector<std::pair<std::string, double>> all;
  for (const auto& [service, mean] : MeanConfidenceByService()) {
    all.emplace_back(service, mean);
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  if (all.size() > worst) all.resize(worst);
  return all;
}

QualityReport ComputeQuality(const std::vector<Span>& spans,
                             const std::vector<ContainerResult>& containers,
                             const ParentAssignment& assignment,
                             double sampling_rate,
                             const QualityMetrics* metrics) {
  static const QualityMetrics kInert;
  const QualityMetrics& qm = metrics != nullptr ? *metrics : kInert;

  QualityReport report;
  // Sampling-aware effective penalties. Guarded on rate < 1.0 so the
  // default stays bit-identical (pow(x, 1.0) and 1 - (1 - x) * 1.0 are
  // not bit-exact identities in general). With keep probability r, a skip
  // is a reconstruction guess only with probability r (else the child was
  // sampled out), a "suspicious" orphan's covering parent may have
  // declined a span whose true child was sampled out, and a benign
  // orphan's missing parent is the expected outcome.
  double skip_penalty = kSkipPenalty;
  double suspect_orphan_penalty = kOrphanPenalty;
  double fragment_penalty = kFragmentPenalty;
  if (sampling_rate < 1.0) {
    const double r = std::clamp(sampling_rate, 0.0, 1.0);
    skip_penalty = std::pow(kSkipPenalty, r);
    suspect_orphan_penalty = kOrphanPenalty * r + kFragmentPenalty * (1.0 - r);
    fragment_penalty = 1.0 - (1.0 - kFragmentPenalty) * r;
  }
  for (const ContainerResult& c : containers) {
    for (const ParentResult& r : c.parents) {
      AssignmentQuality q;
      q.parent = r.parent;
      q.service = c.instance.service;
      q.mapped = r.Mapped();
      q.top_choice = r.Mapped() && r.ChoseTop();
      q.candidates = r.candidates_considered;
      Posterior(r.ranked, r.chosen, r.parent, assignment, &q.posterior,
                &q.entropy);
      if (r.ranked.size() >= 2) {
        q.margin = std::max(r.ranked[0].score - r.ranked[1].score, 0.0);
      }
      if (q.mapped) {
        q.skips = r.ranked[static_cast<std::size_t>(r.chosen)].skips;
      }
      if (r.batch < c.batch_stats.size()) {
        const ContainerResult::BatchStats& bs = c.batch_stats[r.batch];
        if (bs.solved && bs.joint && bs.chosen_weight > 0.0) {
          q.agreement =
              std::clamp(bs.greedy_weight / bs.chosen_weight, 0.0, 1.0);
          q.optimal_batch = bs.optimal;
        }
      }
      if (q.mapped) {
        double conf = q.posterior;
        conf *= std::pow(skip_penalty, static_cast<double>(q.skips));
        if (!q.optimal_batch) conf *= kFallbackPenalty;
        conf *= (1.0 - kMwisGapWeight) + kMwisGapWeight * q.agreement;
        conf *= 1.0 - kEntropyWeight * q.entropy;
        q.confidence = std::clamp(conf, 0.0, 1.0);
      }
      qm.assignments.Inc();
      if (!q.mapped) qm.unmapped.Inc();
      qm.confidence_milli.Observe(Milli(q.confidence));
      qm.entropy_milli.Observe(Milli(q.entropy));
      report.assignments.push_back(std::move(q));
    }
  }

  // Windows of mapped parents that skipped at least one plan position,
  // per handler service: the evidence used to tell a suspicious orphan
  // (a would-be parent was present with a free slot and declined the
  // span) from a benign one (the parent was plausibly never captured).
  std::unordered_map<SpanId, const Span*> span_of;
  span_of.reserve(spans.size());
  for (const Span& s : spans) span_of.emplace(s.id, &s);
  std::map<std::string, std::vector<std::pair<TimeNs, TimeNs>>>
      skipped_windows;
  for (const AssignmentQuality& a : report.assignments) {
    if (!a.mapped || a.skips == 0) continue;
    const auto it = span_of.find(a.parent);
    if (it == span_of.end()) continue;
    skipped_windows[a.service].emplace_back(it->second->server_recv,
                                            it->second->server_send);
  }
  const auto covered_by_skipping_parent = [&](const Span& s) {
    const auto it = skipped_windows.find(s.caller);
    if (it == skipped_windows.end()) return false;
    for (const auto& [recv, send] : it->second) {
      if (recv - kOrphanWindowSlack <= s.client_send &&
          s.client_recv <= send + kOrphanWindowSlack) {
        return true;
      }
    }
    return false;
  };

  // Per-trace aggregation over the stitched forest: product of the parent
  // assignments that landed inside each trace, weakest link tracked
  // separately. std::map keeps roots in id order for determinism.
  const std::unordered_map<SpanId, SpanId> root_of =
      ResolveRoots(spans, assignment);
  std::map<SpanId, TraceQuality> by_root;
  for (const Span& s : spans) {
    auto it = root_of.find(s.id);
    if (it == root_of.end()) continue;
    TraceQuality& t = by_root[it->second];
    t.root = it->second;
    ++t.spans;
    // A root span with a non-client caller observably had a parent that
    // was not reconstructed: the fragment is known-incomplete.
    if (s.id == it->second && s.caller != kClientCaller) {
      t.orphan = true;
      t.suspect_orphan = covered_by_skipping_parent(s);
    }
  }
  for (const AssignmentQuality& a : report.assignments) {
    auto rit = root_of.find(a.parent);
    if (rit == root_of.end()) continue;
    auto tit = by_root.find(rit->second);
    if (tit == by_root.end()) continue;
    TraceQuality& t = tit->second;
    ++t.parents;
    t.skips += a.skips;
    // Only mapped assignments contribute links to this trace; an unmapped
    // parent leaves its children as separate (orphan-penalized) fragments
    // without invalidating the links that are present here.
    if (!a.mapped) continue;
    t.confidence *= a.confidence;
    t.min_confidence = std::min(t.min_confidence, a.confidence);
  }
  for (auto& [root, t] : by_root) {
    if (t.orphan) {
      t.confidence *= t.suspect_orphan ? suspect_orphan_penalty
                                       : fragment_penalty;
      t.min_confidence = std::min(t.min_confidence, t.confidence);
    }
    t.grade = GradeOf(t.confidence);
    qm.traces.Inc();
    qm.trace_confidence_milli.Observe(Milli(t.confidence));
    qm.grades[GradeIndex(t.grade)].Inc();
    report.traces.push_back(t);
  }
  return report;
}

std::string CalibrationResult::ReliabilityDiagram() const {
  TextTable table;
  table.SetHeader({"confidence", "n", "mean conf", "accuracy", "gap"});
  for (const CalibrationBin& b : bins) {
    if (b.count == 0) continue;
    table.AddRow({"[" + Fmt(b.lower, 1) + ", " + Fmt(b.upper, 1) + ")",
                  std::to_string(b.count), Fmt(b.mean_confidence, 3),
                  Fmt(b.accuracy, 3),
                  Fmt(b.accuracy - b.mean_confidence, 3)});
  }
  table.AddRow({"ece " + Fmt(ece, 4), std::to_string(samples),
                "brier " + Fmt(brier, 4),
                pearson_defined ? "pearson " + Fmt(pearson, 3)
                                : std::string("pearson n/a"),
                ""});
  return table.Render();
}

CalibrationResult CalibrateTraces(const std::vector<Span>& spans,
                                  const QualityReport& report,
                                  const ParentAssignment& predicted) {
  std::unordered_set<SpanId> present;
  present.reserve(spans.size());
  for (const Span& s : spans) present.insert(s.id);

  // Per predicted-trace correctness: every span of the trace got the
  // parent ground truth expects (a true parent missing from the
  // population is unmappable, so "unmapped" is the right answer there).
  const std::unordered_map<SpanId, SpanId> root_of =
      ResolveRoots(spans, predicted);
  std::unordered_map<SpanId, bool> trace_correct;
  for (const Span& s : spans) {
    const SpanId expected =
        (s.true_parent != kInvalidSpanId && present.count(s.true_parent) > 0)
            ? s.true_parent
            : kInvalidSpanId;
    auto it = predicted.find(s.id);
    const SpanId got = it == predicted.end() ? kInvalidSpanId : it->second;
    auto rit = root_of.find(s.id);
    if (rit == root_of.end()) continue;
    auto [tit, inserted] = trace_correct.emplace(rit->second, true);
    if (got != expected) tit->second = false;
  }

  std::vector<double> confidence;
  std::vector<double> correct;
  confidence.reserve(report.traces.size());
  correct.reserve(report.traces.size());
  for (const TraceQuality& t : report.traces) {
    auto it = trace_correct.find(t.root);
    if (it == trace_correct.end()) continue;
    confidence.push_back(t.confidence);
    correct.push_back(it->second ? 1.0 : 0.0);
  }
  return Calibrate(confidence, correct);
}

CalibrationResult CalibrateAssignments(
    const std::vector<Span>& spans,
    const std::vector<ContainerResult>& containers,
    const QualityReport& report) {
  // True children per parent, restricted to the population.
  std::unordered_map<SpanId, std::set<SpanId>> true_children;
  std::unordered_set<SpanId> present;
  present.reserve(spans.size());
  for (const Span& s : spans) present.insert(s.id);
  for (const Span& s : spans) {
    if (s.true_parent != kInvalidSpanId && present.count(s.true_parent) > 0) {
      true_children[s.true_parent].insert(s.id);
    }
  }

  std::vector<double> confidence;
  std::vector<double> correct;
  std::size_t idx = 0;
  for (const ContainerResult& c : containers) {
    for (const ParentResult& r : c.parents) {
      const AssignmentQuality& q = report.assignments[idx++];
      std::set<SpanId> got;
      if (r.Mapped()) {
        for (SpanId id :
             r.ranked[static_cast<std::size_t>(r.chosen)].children) {
          if (id != kSkippedChild) got.insert(id);
        }
      }
      static const std::set<SpanId> kEmpty;
      auto it = true_children.find(r.parent);
      const std::set<SpanId>& expected =
          it == true_children.end() ? kEmpty : it->second;
      confidence.push_back(q.confidence);
      correct.push_back(got == expected ? 1.0 : 0.0);
    }
  }
  return Calibrate(confidence, correct);
}

QualityMonitor::QualityMonitor() : QualityMonitor(Options()) {}

QualityMonitor::QualityMonitor(Options options, const QualityMetrics* metrics)
    : options_(options), metrics_(metrics) {
  if (options_.window == 0) options_.window = 1;
  if (options_.min_reference == 0) options_.min_reference = 1;
}

void QualityMonitor::Record(double confidence) {
  // Quantize to the tw_quality_* export resolution (milli). Confidence
  // distributions can be near point masses (everything ~1.0), where an
  // exact-valued KS test alarms on shifts far below any operational
  // meaning; at milli resolution those ties collapse and only real
  // movement registers.
  const double c =
      std::round(std::clamp(confidence, 0.0, 1.0) * 1000.0) / 1000.0;
  if (!reference_ready_) {
    reference_.push_back(c);
    if (reference_.size() >= options_.min_reference) {
      std::sort(reference_.begin(), reference_.end());
      reference_ready_ = true;
    }
    return;
  }
  window_.push_back(c);
  if (window_.size() >= options_.window) CloseWindow();
}

void QualityMonitor::RecordReport(const QualityReport& report) {
  for (const TraceQuality& t : report.traces) Record(t.confidence);
}

bool QualityMonitor::AnyDrift() const {
  for (const WindowResult& w : results_) {
    if (w.drifted) return true;
  }
  return false;
}

void QualityMonitor::CloseWindow() {
  WindowResult w;
  w.n = window_.size();
  double sum = 0.0;
  for (const double c : window_) sum += c;
  w.mean_confidence = sum / static_cast<double>(window_.size());
  // Two-sample KS: confidence values are heavily tied (quantized to
  // milli, often piled near 1.0), which the one-sample ECDF test cannot
  // handle -- see stats/ks_test.h.
  const KsResult ks = TwoSampleKolmogorovSmirnovTest(window_, reference_);
  w.statistic = ks.statistic;
  w.p_value = ks.p_value;
  w.drifted = ks.p_value < options_.alpha;
  if (metrics_ != nullptr) {
    metrics_->monitor_windows.Inc();
    if (w.drifted) metrics_->monitor_drift.Inc();
    metrics_->monitor_ks_milli.Observe(Milli(w.statistic));
  }
  results_.push_back(w);
  window_.clear();
}

}  // namespace traceweaver::obs
