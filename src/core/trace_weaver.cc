#include "core/trace_weaver.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/pipeline_metrics.h"
#include "obs/stage_timer.h"
#include "trace/trace_store.h"
#include "util/thread_pool.h"

namespace traceweaver {

std::map<std::string, double> TraceWeaverOutput::ConfidenceByService() const {
  struct Tally {
    std::size_t total = 0;
    std::size_t top = 0;
  };
  std::map<std::string, Tally> tallies;
  for (const ContainerResult& c : containers) {
    Tally& t = tallies[c.instance.service];
    for (const ParentResult& p : c.parents) {
      ++t.total;
      if (p.Mapped() && p.ChoseTop()) ++t.top;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [service, t] : tallies) {
    if (t.total == 0) continue;
    out[service] =
        static_cast<double>(t.top) / static_cast<double>(t.total);
  }
  return out;
}

TraceWeaver::TraceWeaver(CallGraph graph, TraceWeaverOptions options)
    : graph_(std::move(graph)), options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.metrics != nullptr) {
    metrics_ = std::make_unique<obs::PipelineMetrics>(*options_.metrics);
    if (options_.compute_quality) {
      quality_metrics_ =
          std::make_unique<obs::QualityMetrics>(*options_.metrics);
    }
  }
}

TraceWeaver::~TraceWeaver() = default;
TraceWeaver::TraceWeaver(TraceWeaver&&) noexcept = default;
TraceWeaver& TraceWeaver::operator=(TraceWeaver&&) noexcept = default;

TraceWeaverOutput TraceWeaver::Reconstruct(
    const std::vector<Span>& spans, const ContainerModels* prior) const {
  static const obs::PipelineMetrics kInertMetrics;
  const obs::PipelineMetrics& pm =
      metrics_ != nullptr ? *metrics_ : kInertMetrics;
  const auto timer = [&pm](obs::Stage s) {
    const auto i = static_cast<std::size_t>(s);
    return obs::StageTimer(pm.stage_wall_ns[i], pm.stage_cpu_ns[i]);
  };
  const std::uint64_t run_start =
      metrics_ != nullptr ? obs::WallNowNs() : 0;

  TraceWeaverOutput out;

  std::optional<SpanStore> store;
  std::vector<ContainerView> views;
  {
    auto t = timer(obs::Stage::kViews);
    store.emplace(spans);
    views = store->AllViews();
  }
  out.containers.resize(views.size());

  // Containers are independent problems; the same pool also serves the
  // stages inside each OptimizeContainer (the caller-participating
  // ParallelFor makes the nesting deadlock-free). Results land in
  // per-container slots and every stage is order-insensitive, so output is
  // bit-identical to a serial run.
  OptimizerOptions oopts = options_.optimizer;
  oopts.pool = pool_.get();
  if (oopts.metrics == nullptr) oopts.metrics = metrics_.get();
  if (options_.compute_quality) oopts.collect_quality = true;
  ThreadPool::Run(pool_.get(), views.size(), [&](std::size_t i) {
    const DelayModel* container_prior = nullptr;
    if (prior != nullptr) {
      const auto it = prior->find(views[i].instance);
      if (it != prior->end()) container_prior = &it->second;
    }
    out.containers[i] =
        OptimizeContainer(views[i], graph_, oopts, container_prior);
  });

  {
    auto t = timer(obs::Stage::kStitch);
    for (const Span& s : spans) out.assignment[s.id] = kInvalidSpanId;
    for (const ContainerResult& result : out.containers) {
      result.AppendAssignment(out.assignment);
    }
    // Instrumented links are authoritative: they override whatever the
    // optimization produced and cover parents outside any container view.
    if (options_.optimizer.pinned != nullptr) {
      for (const auto& [child, parent] : *options_.optimizer.pinned) {
        if (parent != kInvalidSpanId) out.assignment[child] = parent;
      }
    }
  }

  if (options_.compute_quality) {
    auto t = timer(obs::Stage::kQuality);
    // Parameters::sampling_rate is the single source of truth; the quality
    // layer inherits it so orphan/skip downgrades match the scoring model.
    out.quality = obs::ComputeQuality(
        spans, out.containers, out.assignment,
        options_.optimizer.params.sampling_rate, quality_metrics_.get());
  }

  pm.runs.Inc();
  pm.run_spans.Inc(spans.size());
  pm.run_containers.Inc(views.size());
  if (metrics_ != nullptr) {
    pm.run_wall_ns.Inc(obs::WallNowNs() - run_start);
    pm.threads.Set(static_cast<std::int64_t>(
        std::max<std::size_t>(options_.num_threads, 1)));
  }
  return out;
}

ParentAssignment TraceWeaver::Map(const MapperInput& input) {
  if (input.call_graph != nullptr) {
    TraceWeaver scoped(*input.call_graph, options_);
    return scoped.Reconstruct(*input.spans).assignment;
  }
  return Reconstruct(*input.spans).assignment;
}

}  // namespace traceweaver
