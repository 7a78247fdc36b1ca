// The trace-quality subsystem: calibrated per-assignment and per-trace
// confidence for reconstructed traces (§6.3.2 generalized).
//
// The paper's confidence score is a per-service aggregate -- the fraction
// of incoming spans given their top-ranked mapping. Operators of a
// black-box tracer need a *per-trace* trust signal: which reconstructed
// traces can be believed, and why. This layer derives one from artifacts
// the optimizer already produces:
//
//   * the top-K score distribution of each assignment (softmax posterior
//     of the winner, runner-up margin, normalized ambiguity entropy),
//   * the MWIS objective gap of the batch it was solved in (greedy-vs-
//     exact agreement; a B&B budget fallback costs extra),
//   * §4.2 phantom-skip usage (each skipped call is a guess).
//
// Per-trace confidence is the product of its parents' assignment
// confidences (with the minimum tracked separately), bucketed into
// letter grades. Everything is exported through the tw_quality_* metric
// family, and a calibration harness scores the confidence against
// simulator ground truth (reliability diagram, ECE, Brier, Pearson) so
// the signal stays demonstrably informative rather than decorative.
//
// Determinism: quality is computed after reconstruction from per-slot
// results, iterated in container/task order -- it never feeds back into
// the pipeline, so assignments are bit-identical with the subsystem on or
// off and for any thread count.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "obs/metrics.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace traceweaver::obs {

/// Grade cut points over per-trace confidence (product aggregation):
/// A at or above kGradeA, B at or above kGradeB, C at or above kGradeC,
/// D below.
inline constexpr double kGradeA = 0.80;
inline constexpr double kGradeB = 0.50;
inline constexpr double kGradeC = 0.20;

/// Quality of one parent-span assignment.
struct AssignmentQuality {
  SpanId parent = kInvalidSpanId;
  std::string service;
  bool mapped = false;
  bool top_choice = false;
  std::size_t candidates = 0;  ///< Enumerated (pre top-K cut).
  std::size_t skips = 0;       ///< Phantom skips in the chosen mapping.
  double posterior = 0.0;   ///< Softmax_T mass of the chosen candidate.
  double margin = 0.0;      ///< Log-score gap winner vs runner-up (>= 0).
  double entropy = 0.0;     ///< Normalized softmax entropy in [0, 1].
  double agreement = 1.0;   ///< Batch greedy/exact MWIS objective ratio.
  bool optimal_batch = true;
  double confidence = 0.0;  ///< Composite, in [0, 1]; 0 when unmapped.
};

/// Quality of one stitched trace.
struct TraceQuality {
  SpanId root = kInvalidSpanId;
  std::size_t spans = 0;
  std::size_t parents = 0;  ///< Spans with an optimizer assignment.
  std::size_t skips = 0;
  bool orphan = false;  ///< Root has a non-client caller (fragment).
  /// Orphan whose parent was plausibly present: a mapped parent of the
  /// caller's service covers the root's window and skipped a position.
  bool suspect_orphan = false;
  double confidence = 1.0;      ///< Product over parent assignments.
  double min_confidence = 1.0;  ///< Weakest link.
  char grade = 'A';             ///< A/B/C/D from the kGrade* cuts.
};

struct QualityReport {
  /// Container order, task (arrival) order within each container.
  std::vector<AssignmentQuality> assignments;
  /// Sorted by root span id (deterministic across thread counts).
  std::vector<TraceQuality> traces;

  double MeanAssignmentConfidence() const;
  double MeanTraceConfidence() const;
  /// Mean assignment confidence per handler service; services with no
  /// assignments are omitted (never reported as 1.0).
  std::map<std::string, double> MeanConfidenceByService() const;
  /// The `worst` services by mean confidence, ascending.
  std::vector<std::pair<std::string, double>> WorstServices(
      std::size_t worst) const;
};

/// Pre-registered tw_quality_* handles; default-constructed = inert.
struct QualityMetrics {
  QualityMetrics() = default;
  explicit QualityMetrics(MetricsRegistry& registry);

  Counter assignments;         ///< tw_quality_assignments_total
  Counter unmapped;            ///< tw_quality_unmapped_total
  Histogram confidence_milli;  ///< tw_quality_confidence_milli (x1000)
  Histogram entropy_milli;     ///< tw_quality_entropy_milli (x1000)
  Counter traces;              ///< tw_quality_traces_total
  Histogram trace_confidence_milli;  ///< tw_quality_trace_confidence_milli
  Counter grades[4];  ///< tw_quality_grade_total{grade="a|b|c|d"}
  Counter monitor_windows;  ///< tw_quality_monitor_windows_total
  Counter monitor_drift;    ///< tw_quality_monitor_drift_total
  Histogram monitor_ks_milli;  ///< tw_quality_monitor_ks_milli (x1000)
};

/// Computes the quality report for one reconstruction. `sampling_rate`
/// is the known capture-sampling keep probability
/// (Parameters::sampling_rate): below 1.0, skips are expected absences so
/// the per-skip penalty softens (kSkipPenalty^rate), and the orphan split
/// loses its teeth -- a "suspicious" orphan's missing parent may simply
/// have been sampled out, so both orphan penalties interpolate toward
/// lenient with probability (1 - rate). 1.0 leaves every factor
/// bit-identical. `metrics` may be null (or inert); recording only
/// observes. Deterministic for a given (spans, containers, assignment)
/// regardless of thread count.
QualityReport ComputeQuality(const std::vector<Span>& spans,
                             const std::vector<ContainerResult>& containers,
                             const ParentAssignment& assignment,
                             double sampling_rate,
                             const QualityMetrics* metrics = nullptr);

// ---------------------------------------------------------------------------
// Calibration harness (simulator ground truth; §6 methodology).

struct CalibrationBin {
  double lower = 0.0;   ///< Confidence bin [lower, upper).
  double upper = 0.0;
  std::size_t count = 0;
  double mean_confidence = 0.0;
  double accuracy = 0.0;  ///< Empirical correctness rate in the bin.
};

struct CalibrationResult {
  std::vector<CalibrationBin> bins;  ///< 10 equal-width bins over [0, 1].
  double ece = 0.0;      ///< Expected calibration error (count-weighted).
  double brier = 0.0;    ///< Mean squared (confidence - correct).
  /// Correlation confidence vs correctness. Meaningful only when
  /// `pearson_defined`: with a near-constant series on either side (a
  /// clean run where nearly every trace is correct and confidence sits
  /// pinned high) the coefficient is sampling noise, so it is reported as
  /// undefined instead of a misleading number (JSON consumers emit null).
  double pearson = 0.0;
  bool pearson_defined = false;
  std::size_t samples = 0;

  /// Aligned text reliability diagram (one row per non-empty bin).
  std::string ReliabilityDiagram() const;
};

/// Scores per-trace confidence against ground truth: a trace is correct
/// when every one of its spans got its true parent. Requires spans that
/// carry true_parent (simulator output).
CalibrationResult CalibrateTraces(const std::vector<Span>& spans,
                                  const QualityReport& report,
                                  const ParentAssignment& predicted);

/// Scores per-assignment confidence: an assignment is correct when its
/// chosen children are exactly the parent's true children present in the
/// population (skips excluded).
CalibrationResult CalibrateAssignments(const std::vector<Span>& spans,
                                       const std::vector<ContainerResult>& containers,
                                       const QualityReport& report);

// ---------------------------------------------------------------------------
// Windowed quality monitoring (ops loop).

/// Rolling confidence monitor: the first `min_reference` samples become
/// the reference window; each subsequent full window of `window` samples
/// is KS-tested (stats/ks_test) against the reference ECDF and flagged as
/// drifted when p < alpha. Results surface through tw_quality_monitor_*.
class QualityMonitor {
 public:
  struct Options {
    std::size_t window = 256;
    std::size_t min_reference = 256;
    double alpha = 0.01;
  };

  struct WindowResult {
    double statistic = 0.0;
    double p_value = 1.0;
    bool drifted = false;
    std::size_t n = 0;
    double mean_confidence = 0.0;
  };

  QualityMonitor();  ///< Default options, no metrics.
  explicit QualityMonitor(Options options,
                          const QualityMetrics* metrics = nullptr);

  /// Feeds one confidence observation; closes a window when full.
  void Record(double confidence);
  /// Feeds every trace confidence of a report.
  void RecordReport(const QualityReport& report);

  bool ReferenceReady() const { return reference_ready_; }
  const std::vector<WindowResult>& results() const { return results_; }
  /// True if any closed window drifted.
  bool AnyDrift() const;

 private:
  void CloseWindow();

  Options options_;
  const QualityMetrics* metrics_;
  std::vector<double> reference_;  ///< Sorted once ready.
  bool reference_ready_ = false;
  std::vector<double> window_;
  std::vector<WindowResult> results_;
};

}  // namespace traceweaver::obs
