// Public facade: the TraceWeaver reconstruction system (§3).
//
// Construct with a CallGraph (operator-provided or inferred from test
// traces via callgraph/inference.h), then feed a span population captured
// non-intrusively; out come reconstructed request traces: a parent
// assignment, per-span ranked candidate mappings (top-K), and per-service
// confidence scores.
//
// Typical use:
//   CallGraph graph = InferCallGraph(test_spans);
//   TraceWeaver weaver(graph);
//   TraceWeaverOutput out = weaver.Reconstruct(production_spans);
//   TraceForest forest(production_spans, out.assignment);
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/mapper.h"
#include "callgraph/call_graph.h"
#include "core/optimizer.h"
#include "obs/quality.h"
#include "trace/trace.h"

namespace traceweaver::obs {
class MetricsRegistry;    // obs/metrics.h
struct PipelineMetrics;   // obs/pipeline_metrics.h
}

namespace traceweaver {

class ThreadPool;

/// Per-container delay models, as carried between window closes.
using ContainerModels = std::map<ServiceInstance, DelayModel>;

struct TraceWeaverOptions {
  OptimizerOptions optimizer;
  /// Worker threads for reconstruction, shared across every level of the
  /// pipeline: independent containers (§6.5), and within a container the
  /// per-span enumeration/ranking, per-run batch solving, and per-key GMM
  /// refits (see DESIGN.md, "Concurrency model"). Output is bit-identical
  /// for any thread count. 1 = fully serial, no pool is created.
  std::size_t num_threads = 1;
  /// Metrics registry for pipeline observability (see DESIGN.md,
  /// "Observability model"): every Reconstruct call records stage timings,
  /// work counters and distributions into it. Null (the default) disables
  /// recording; reconstruction output is bit-identical either way. Not
  /// owned; must outlive the TraceWeaver.
  obs::MetricsRegistry* metrics = nullptr;
  /// Compute the trace-quality report (obs/quality.h) after stitching:
  /// per-assignment confidence, per-trace grades, tw_quality_* metrics.
  /// Observation only -- reconstruction output is bit-identical with the
  /// subsystem on or off.
  bool compute_quality = false;
};

struct TraceWeaverOutput {
  /// child span id -> inferred parent span id (kInvalidSpanId: unmapped or
  /// root).
  ParentAssignment assignment;
  /// Per-container reconstruction detail (ranked candidates, statistics).
  std::vector<ContainerResult> containers;

  /// Trace-quality report (filled iff TraceWeaverOptions::compute_quality).
  obs::QualityReport quality;

  /// Per-service confidence score, exactly the paper's §6.3.2 metric:
  ///   confidence(s) = |{incoming spans of s whose *top-ranked* candidate
  ///                     mapping was selected}| / |{incoming spans of s}|.
  /// Equivalently 1 minus the fraction of incoming spans that were
  /// unmapped or assigned a lower-ranked mapping by the joint MWIS
  /// optimization. Services with zero incoming spans are omitted from the
  /// map (never reported as a vacuous 1.0). The paper reports this value
  /// correlates with per-service accuracy at r = 0.89; the calibrated
  /// per-assignment generalization lives in obs/quality.h.
  std::map<std::string, double> ConfidenceByService() const;
};

class TraceWeaver : public Mapper {
 public:
  explicit TraceWeaver(CallGraph graph, TraceWeaverOptions options = {});
  ~TraceWeaver() override;
  TraceWeaver(TraceWeaver&&) noexcept;
  TraceWeaver& operator=(TraceWeaver&&) noexcept;

  std::string name() const override { return "TraceWeaver"; }

  /// Mapper interface: uses input.call_graph when provided, else the
  /// constructor-supplied graph.
  ParentAssignment Map(const MapperInput& input) override;

  /// Full reconstruction with ranked candidates and statistics. `prior`
  /// holds each container's delay model from an earlier reconstruction
  /// (ContainerResult::model), handed to OptimizeContainer as that
  /// container's prior; containers it lacks, and a null prior, fit from
  /// scratch. Not owned.
  TraceWeaverOutput Reconstruct(const std::vector<Span>& spans,
                                const ContainerModels* prior = nullptr) const;

  const CallGraph& call_graph() const { return graph_; }
  const TraceWeaverOptions& options() const { return options_; }

 private:
  CallGraph graph_;
  TraceWeaverOptions options_;
  /// Shared worker pool (created iff num_threads > 1), reused across
  /// Reconstruct calls and all pipeline levels within them.
  std::unique_ptr<ThreadPool> pool_;
  /// Pre-registered metric handles (created iff options.metrics is set).
  std::unique_ptr<obs::PipelineMetrics> metrics_;
  /// tw_quality_* handles (created iff metrics set and compute_quality).
  std::unique_ptr<obs::QualityMetrics> quality_metrics_;
};

}  // namespace traceweaver
