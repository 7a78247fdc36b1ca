// The observability layer: registry exactness under concurrency, log2
// histogram bucket geometry, Prometheus exposition, run-report golden
// JSON, and the central contract -- instrumentation never changes the
// reconstruction output, and every count-type metric is bit-identical
// across thread counts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/skew_estimator.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/prometheus.h"
#include "obs/provenance.h"
#include "obs/quality.h"
#include "obs/run_report.h"
#include "obs/stage_timer.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "store/store.h"
#include "store/tail_sampler.h"
#include "test_helpers.h"
#include "trace/span_validator.h"
#include "util/json.h"

namespace traceweaver {
namespace {

using obs::HistogramBucket;
using obs::HistogramBucketUpperBound;
using obs::kHistogramBuckets;
using obs::MetricsRegistry;
using obs::RegistrySnapshot;
using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::RandomHostileString;

// ---------------------------------------------------------------------------
// Registry basics.

TEST(MetricsRegistryTest, CounterGaugeRoundTrip) {
  MetricsRegistry reg;
  auto c = reg.GetCounter("tw_test_total", "", "help", "1");
  c.Inc();
  c.Inc(41);
  auto g = reg.GetGauge("tw_test_gauge", "", "help", "1");
  g.Set(7);
  g.Add(-2);

  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("tw_test_total"), 42);
  EXPECT_EQ(snap.Value("tw_test_gauge"), 5);
  EXPECT_EQ(snap.Value("tw_absent_total"), 0);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  auto a = reg.GetCounter("tw_dup_total", "k=\"v\"", "help", "1");
  auto b = reg.GetCounter("tw_dup_total", "k=\"v\"", "help", "1");
  a.Inc(1);
  b.Inc(2);
  EXPECT_EQ(reg.Snapshot().Value("tw_dup_total", "k=\"v\""), 3);
  // Same name, different labels -> distinct series.
  reg.GetCounter("tw_dup_total", "k=\"w\"", "help", "1").Inc(9);
  EXPECT_EQ(reg.Snapshot().Value("tw_dup_total", "k=\"v\""), 3);
  EXPECT_EQ(reg.Snapshot().Value("tw_dup_total", "k=\"w\""), 9);
  EXPECT_EQ(reg.Snapshot().SumAcrossLabels("tw_dup_total"), 12);
}

TEST(MetricsRegistryTest, InertHandlesAreSafe) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.Inc(5);
  g.Set(3);
  h.Observe(1);
  EXPECT_FALSE(static_cast<bool>(c));
  // The whole inert bundle, including cold per-service getters.
  obs::PipelineMetrics pm;
  pm.runs.Inc();
  pm.batch_size.Observe(4);
  pm.ServiceParents("svc").Inc();
  EXPECT_FALSE(static_cast<bool>(pm.ServiceMapped("svc")));
}

TEST(MetricsRegistryTest, ResetZeroesValuesKeepsDescriptors) {
  MetricsRegistry reg;
  reg.GetCounter("tw_r_total", "", "h", "1").Inc(10);
  const std::size_t n = reg.num_metrics();
  reg.Reset();
  EXPECT_EQ(reg.num_metrics(), n);
  EXPECT_EQ(reg.Snapshot().Value("tw_r_total"), 0);
}

// The exactness contract: concurrent increments from many threads are
// never lost (each thread writes its own shard; the snapshot merges by
// integer addition).
TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  auto c = reg.GetCounter("tw_conc_total", "", "h", "1");
  auto h = reg.GetHistogram("tw_conc_hist", "", "h", "1");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.Inc();
        h.Observe(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();

  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("tw_conc_total"),
            static_cast<std::int64_t>(kThreads * kPerThread));
  const auto* hist = snap.Find("tw_conc_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count, kThreads * kPerThread);
  // Sum of t over threads, kPerThread times each: exact integer identity.
  EXPECT_EQ(hist->histogram.sum, kPerThread * (kThreads * (kThreads - 1) / 2));
}

// ---------------------------------------------------------------------------
// Histogram geometry.

TEST(HistogramTest, BucketEdges) {
  // Bucket 0 is exactly the value 0.
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  // Bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = HistogramBucketUpperBound(b);
    EXPECT_EQ(hi, (std::uint64_t{1} << b) - 1);
    EXPECT_EQ(HistogramBucket(lo), b) << "lower edge of bucket " << b;
    EXPECT_EQ(HistogramBucket(hi), b) << "upper edge of bucket " << b;
    EXPECT_EQ(HistogramBucket(hi + 1), b + 1) << "first value past " << b;
  }
  // Everything at or past 2^(kHistogramBuckets-2) lands in the overflow
  // bucket, whose upper bound is unbounded.
  const std::uint64_t overflow_lo = std::uint64_t{1} << (kHistogramBuckets - 2);
  EXPECT_EQ(HistogramBucket(overflow_lo), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucket(UINT64_MAX), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketUpperBound(kHistogramBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, ObserveCountSumQuantile) {
  MetricsRegistry reg;
  auto h = reg.GetHistogram("tw_h", "", "h", "ns");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 1000ull}) {
    h.Observe(v);
  }
  const RegistrySnapshot snap = reg.Snapshot();
  const auto* s = snap.Find("tw_h");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->histogram.count, 6u);
  EXPECT_EQ(s->histogram.sum, 1106u);
  ASSERT_EQ(s->histogram.buckets.size(), kHistogramBuckets);
  EXPECT_EQ(s->histogram.buckets[HistogramBucket(0)], 1u);
  EXPECT_EQ(s->histogram.buckets[HistogramBucket(2)], 2u);  // 2 and 3
  // Quantile returns the inclusive upper edge of the covering bucket.
  EXPECT_EQ(s->histogram.Quantile(1.0), HistogramBucketUpperBound(
                                            HistogramBucket(1000)));
  EXPECT_EQ(s->histogram.Quantile(0.0), 0u);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusTest, TextFormat) {
  MetricsRegistry reg;
  reg.GetCounter("tw_x_total", "stage=\"rank\"", "Things ranked.", "1").Inc(3);
  reg.GetCounter("tw_x_total", "stage=\"solve\"", "Things ranked.", "1")
      .Inc(4);
  reg.GetGauge("tw_g", "", "A gauge.", "1").Set(-2);
  auto h = reg.GetHistogram("tw_lat", "", "Latency.", "ns");
  h.Observe(1);
  h.Observe(5);

  const std::string text = obs::PrometheusText(reg.Snapshot());
  // One HELP/TYPE header per family, every series under it.
  EXPECT_EQ(text.find("# HELP tw_x_total Things ranked."),
            text.rfind("# HELP tw_x_total"));
  EXPECT_NE(text.find("# TYPE tw_x_total counter"), std::string::npos);
  EXPECT_NE(text.find("tw_x_total{stage=\"rank\"} 3"), std::string::npos);
  EXPECT_NE(text.find("tw_x_total{stage=\"solve\"} 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tw_g gauge"), std::string::npos);
  EXPECT_NE(text.find("tw_g -2"), std::string::npos);
  // Histograms: cumulative buckets, mandatory +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE tw_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("tw_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tw_lat_bucket{le=\"7\"} 2"), std::string::npos);
  EXPECT_NE(text.find("tw_lat_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("tw_lat_sum 6"), std::string::npos);
  EXPECT_NE(text.find("tw_lat_count 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run report.

// Golden test of the empty report: pins the v1 schema, the key order and
// the fixed stage rows. Any schema change must update this string (and
// the schema version).
TEST(RunReportTest, EmptyReportGoldenJson) {
  const obs::RunReport report = obs::BuildRunReport(RegistrySnapshot{});
  const std::string json = obs::RunReportJson(report);
  EXPECT_EQ(json.substr(0, 40),
            std::string("{\"schema\":\"traceweaver.run_report.v7\",\"r")
                .substr(0, 40));
  // Every stage row is present even at zero, in pipeline order.
  const char* kStages[] = {"views", "setup",    "enumerate", "batch",
                           "seed",  "allocate", "rank",      "solve",
                           "refit", "stitch",   "quality"};
  std::size_t pos = 0;
  for (const char* s : kStages) {
    const std::size_t at = json.find("\"stage\":\"" + std::string(s) + "\"");
    ASSERT_NE(at, std::string::npos) << s;
    EXPECT_GT(at, pos) << "stage rows out of pipeline order at " << s;
    pos = at;
  }
  // Top-level sections, in schema order.
  for (const char* key :
       {"\"run\":", "\"ingest\":", "\"stages\":", "\"services\":",
        "\"enumeration\":", "\"batching\":", "\"delay_model\":",
        "\"ranking\":", "\"mwis\":", "\"iteration\":", "\"dynamism\":",
        "\"quality\":", "\"skew\":", "\"online\":", "\"provenance\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The empty provenance block renders with zero counts and no rows.
  EXPECT_NE(json.find("\"provenance\":{\"recorded\":0,\"dropped\":0,"
                      "\"pending_events\":0,\"events\":[]}"),
            std::string::npos);
  // Deterministic: the same (empty) snapshot renders byte-identically.
  EXPECT_EQ(json, obs::RunReportJson(obs::BuildRunReport(RegistrySnapshot{})));
}

/// Registers on `reg` every metric bundle the run report reads: the
/// pipeline (with two services), online, quality, provenance-ledger,
/// tail-sampler, store, span-validator and skew-estimator families.
void RegisterReportMetrics(MetricsRegistry& reg) {
  obs::PipelineMetrics pm(reg);
  for (const char* service : {"frontend", "search"}) {
    pm.ServiceParents(service);
    pm.ServiceMapped(service);
    pm.ServiceTopChoice(service);
    pm.ServiceCandidates(service);
  }
  obs::OnlineMetrics online(reg);
  obs::QualityMetrics quality(reg);
  obs::ProvenanceLedger ledger(obs::ProvenanceLedgerOptions{}, &reg);
  store::TailSampler sampler(store::TailSamplerOptions{}, &reg);
  SpanValidatorOptions validator_options;
  validator_options.metrics = &reg;
  SpanValidator(validator_options).Finish();
  SkewEstimator().FlushMetrics(reg);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tw_obs_test_store_" + std::to_string(::getpid()));
  {
    store::StoreOptions store_options;
    store_options.metrics = &reg;
    store::TraceStore trace_store(dir.string(), store_options);
  }
  std::filesystem::remove_all(dir);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Golden test of a fully populated report: every registered metric holds
// a distinct non-zero value derived from its name and labels (so adding a
// metric elsewhere moves no other value), every histogram is observed,
// two services and every provenance event type have rows. The sampler
// counters keep considered = shed + kept_interesting + kept_random, so
// the golden also passes tools/parse_report.py, which reads its key list
// from this file.
TEST(RunReportTest, FullReportGoldenJson) {
  MetricsRegistry reg;
  RegisterReportMetrics(reg);
  std::int64_t sampler_sum = 0;
  for (const obs::MetricSnapshot& m : reg.Snapshot().metrics) {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a.
    for (const char c : m.name + "{" + m.labels + "}") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    const std::int64_t v = 1 + static_cast<std::int64_t>(h % 997);
    switch (m.type) {
      case obs::MetricType::kCounter:
        if (m.name == "tw_sample_considered_total") break;
        if (m.name.rfind("tw_sample_", 0) == 0 &&
            m.name != "tw_sample_shed_spans_total") {
          sampler_sum += v;
        }
        reg.GetCounter(m.name, m.labels, m.help, m.unit).Inc(v);
        break;
      case obs::MetricType::kGauge:
        reg.GetGauge(m.name, m.labels, m.help, m.unit).Set(v);
        break;
      case obs::MetricType::kHistogram: {
        const obs::Histogram hist =
            reg.GetHistogram(m.name, m.labels, m.help, m.unit);
        hist.Observe(h % 7 + 1);
        hist.Observe(h % 300 + 1);
        hist.Observe(h % 9000 + 1);
        break;
      }
    }
  }
  reg.GetCounter("tw_sample_considered_total", "", "", "").Inc(sampler_sum);

  const std::string golden =
      ReadFile(std::string(TW_REPO_ROOT) + "/tests/golden/run_report_v7.json");
  ASSERT_FALSE(golden.empty());
  const std::string json =
      obs::RunReportJson(obs::BuildRunReport(reg.Snapshot()));
  const std::string actual = ::testing::TempDir() + "run_report_v7.json";
  // A deliberate schema change copies this file over the golden.
  if (json != golden) std::ofstream(actual) << json;
  EXPECT_EQ(json, golden) << "actual report written to " << actual;
}

TEST(RunReportTest, PopulatedFromPipelineNames) {
  MetricsRegistry reg;
  obs::PipelineMetrics pm(reg);
  pm.runs.Inc();
  pm.run_spans.Inc(120);
  pm.parents.Inc(30);
  pm.parents_mapped.Inc(28);
  pm.batches.Inc(5);
  pm.batch_size.Observe(6);
  pm.mwis_solves.Inc(2);
  pm.mwis_fallbacks.Inc(1);
  pm.stage_wall_ns[static_cast<std::size_t>(obs::Stage::kRank)].Inc(1000);
  pm.ServiceParents("frontend").Inc(30);
  pm.ServiceMapped("frontend").Inc(28);

  const obs::RunReport r = obs::BuildRunReport(reg.Snapshot());
  EXPECT_EQ(r.Get("run.runs"), 1);
  EXPECT_EQ(r.Get("run.spans"), 120);
  EXPECT_EQ(r.Get("enumeration.parents"), 30);
  EXPECT_EQ(r.Get("enumeration.mapped"), 28);
  EXPECT_EQ(r.Get("batching.batches"), 5);
  EXPECT_EQ(r.Histogram("batching.batch_size").count, 1u);
  EXPECT_EQ(r.Get("mwis.solves"), 2);
  EXPECT_EQ(r.Get("mwis.fallbacks"), 1);
  EXPECT_EQ(r.Ratio("mwis.fallback_rate"), 0.5);
  EXPECT_EQ(r.Get("stage_total.wall_ns"), 1000);
  ASSERT_EQ(r.services.size(), 1u);
  EXPECT_EQ(r.services[0].service, "frontend");
  EXPECT_EQ(r.services[0].parents, 30);
  EXPECT_EQ(r.services[0].mapped, 28);
  // Both renderings accept the populated report.
  EXPECT_NE(obs::RunReportJson(r).find("\"mapped\":28"), std::string::npos);
  const std::string table = obs::RunReportTable(r);
  EXPECT_NE(table.find("frontend"), std::string::npos);
  EXPECT_NE(table.find("mwis: solves 2, vertices 0, edges 0, bb_nodes 0, "
                       "fallbacks 1, fallback_rate 50.0%\n"),
            std::string::npos)
      << table;
  // All-zero sections are hidden.
  EXPECT_EQ(table.find("online"), std::string::npos) << table;
}

// A misspelled or wrongly typed field name fails loudly instead of
// reading as 0.
TEST(RunReportTest, AccessorsRejectUnknownNames) {
  const obs::RunReport r = obs::BuildRunReport(RegistrySnapshot{});
  EXPECT_EQ(r.Get("quality.grades.a"), 0);
  EXPECT_THROW(r.Get("enumeration.parent"), std::out_of_range);
  EXPECT_THROW(r.Get("parents"), std::out_of_range);
  EXPECT_THROW(r.Get("enumeration.candidates_per_parent"), std::out_of_range);
  EXPECT_THROW(r.Histogram("enumeration.parents"), std::out_of_range);
  EXPECT_THROW(r.Ratio("mwis.fallbacks"), std::out_of_range);
}

// Every report field reads a metric some bundle registers, with the
// registered type, so a misspelled metric name or label cannot silently
// render as 0. Ratios name two earlier fields.
TEST(RunReportTest, EveryFieldReadsARegisteredMetric) {
  MetricsRegistry reg;
  RegisterReportMetrics(reg);
  const RegistrySnapshot snap = reg.Snapshot();
  const obs::RunReport empty = obs::BuildRunReport(RegistrySnapshot{});
  for (const obs::ReportField& f : obs::ReportFields()) {
    const std::string field = std::string(f.path) + "." + f.key;
    const obs::MetricSnapshot* m = snap.Find(f.metric, f.labels);
    switch (f.kind) {
      case obs::FieldKind::kValue:
        ASSERT_NE(m, nullptr) << field << " reads unregistered " << f.metric
                              << "{" << f.labels << "}";
        EXPECT_NE(m->type, obs::MetricType::kHistogram) << field;
        break;
      case obs::FieldKind::kHistogram:
        ASSERT_NE(m, nullptr) << field << " reads unregistered " << f.metric
                              << "{" << f.labels << "}";
        EXPECT_EQ(m->type, obs::MetricType::kHistogram) << field;
        break;
      case obs::FieldKind::kRatio:
        EXPECT_NO_THROW(empty.Get(f.metric)) << field;
        EXPECT_NO_THROW(empty.Get(f.labels)) << field;
        break;
      default:  // Families: kSum and the variable-length rows.
        EXPECT_FALSE(snap.Family(f.metric).empty())
            << field << " reads unregistered family " << f.metric;
        break;
    }
  }
}

// v6: the provenance section rolls up tw_prov_* counters by event type,
// skipping zero rows, and renders in both JSON and table form.
TEST(RunReportTest, ProvenanceSectionFromLedgerMetrics) {
  MetricsRegistry reg;
  obs::ProvenanceLedger ledger(obs::ProvenanceLedgerOptions{}, &reg);
  ledger.Record(obs::ProvEventType::kSkewCorrect, SpanId{7}, 1500);
  ledger.Record(obs::ProvEventType::kSkewCorrect, SpanId{8}, -200);
  ledger.Record(obs::ProvEventType::kLateGraft, SpanId{9}, 0);
  ledger.Take(SpanId{7});  // Drained events stay counted, not pending.

  const obs::RunReport r = obs::BuildRunReport(reg.Snapshot());
  EXPECT_EQ(r.Get("provenance.recorded"), 3);
  EXPECT_EQ(r.Get("provenance.dropped"), 0);
  EXPECT_EQ(r.Get("provenance.pending_events"), 2);
  ASSERT_EQ(r.provenance_events.size(), 2u);
  // Family order is label-sorted, so late_graft precedes skew_correct.
  EXPECT_EQ(r.provenance_events[0].type, "late_graft");
  EXPECT_EQ(r.provenance_events[0].count, 1);
  EXPECT_EQ(r.provenance_events[1].type, "skew_correct");
  EXPECT_EQ(r.provenance_events[1].count, 2);

  const std::string json = obs::RunReportJson(r);
  EXPECT_NE(json.find("{\"type\":\"skew_correct\",\"count\":2}"),
            std::string::npos);
  EXPECT_NE(obs::RunReportTable(r).find(
                "provenance: recorded 3, dropped 0, pending_events 2, "
                "events late_graft=1 skew_correct=2\n"),
            std::string::npos);
}

TEST(RunReportTest, HostileNamesStayEscapedAndRecoverable) {
  Rng rng(1700);
  for (int trial = 0; trial < 500; ++trial) {
    obs::RunReport r;
    r.stages.push_back({RandomHostileString(rng), 1, 1, 0.5});
    r.services.push_back({RandomHostileString(rng), 2, 1, 1, 3});
    std::string json = obs::RunReportJson(r);
    while (!json.empty() && json.back() == '\n') json.pop_back();
    ASSERT_FALSE(HasRawControlByte(json)) << json;
    std::vector<std::string_view> stages, services;
    ASSERT_TRUE(json::SplitObjectArray(json, json::FindValue(json, "stages"),
                                       &stages)) << json;
    ASSERT_TRUE(json::SplitObjectArray(
        json, json::FindValue(json, "services"), &services)) << json;
    ASSERT_EQ(stages.size(), 1u);
    ASSERT_EQ(services.size(), 1u);
    EXPECT_EQ(json::FieldStr(stages[0], "stage"), r.stages[0].stage);
    EXPECT_EQ(json::FieldStr(services[0], "service"), r.services[0].service);
  }
}

// ---------------------------------------------------------------------------
// Integration with the reconstruction pipeline.

struct Pipeline {
  std::vector<Span> spans;
  CallGraph graph;
};

Pipeline RunPipeline(const sim::AppSpec& app, double rps, double seconds) {
  Pipeline p;
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  p.graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(app, iso).spans));
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = 31;
  p.spans = collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans);
  return p;
}

TraceWeaverOutput Reconstruct(const Pipeline& p, std::size_t threads,
                              MetricsRegistry* metrics) {
  TraceWeaverOptions opts;
  opts.num_threads = threads;
  opts.metrics = metrics;
  TraceWeaver weaver(p.graph, opts);
  return weaver.Reconstruct(p.spans);
}

// Enabling metrics must not change the reconstruction output at all --
// same assignment, same confidence -- at any thread count.
TEST(ObsIntegrationTest, MetricsLeaveReconstructionBitIdentical) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 1.5);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TraceWeaverOutput plain = Reconstruct(p, threads, nullptr);
    MetricsRegistry reg;
    const TraceWeaverOutput observed = Reconstruct(p, threads, &reg);
    EXPECT_EQ(plain.assignment, observed.assignment);
    EXPECT_EQ(plain.ConfidenceByService(), observed.ConfidenceByService());
    EXPECT_GT(reg.Snapshot().Value("tw_runs_total"), 0);
  }
}

/// True for metric names whose values are timing-derived and therefore
/// legitimately vary run to run (everything else must be bit-identical
/// across thread counts).
bool IsTimingMetric(const std::string& name) {
  return name.rfind("tw_stage_", 0) == 0 || name.rfind("tw_run_wall", 0) == 0;
}

// Every count-type metric -- candidates enumerated, batches formed, EM
// iterations, MWIS nodes, margins observed -- is bit-identical across
// thread counts, because the recorded quantities are integers and shard
// merging is commutative addition.
TEST(ObsIntegrationTest, CountMetricsIdenticalAcrossThreadCounts) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 1.5);

  auto collect = [&p](std::size_t threads) {
    MetricsRegistry reg;
    Reconstruct(p, threads, &reg);
    std::vector<obs::MetricSnapshot> kept;
    for (const auto& m : reg.Snapshot().metrics) {
      if (!IsTimingMetric(m.name) && m.name != "tw_threads") {
        kept.push_back(m);
      }
    }
    return kept;
  };

  const auto serial = collect(1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = collect(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const auto& a = serial[i];
      const auto& b = parallel[i];
      ASSERT_EQ(a.name, b.name);
      ASSERT_EQ(a.labels, b.labels);
      EXPECT_EQ(a.value, b.value) << a.name << "{" << a.labels << "}";
      EXPECT_EQ(a.histogram.count, b.histogram.count) << a.name;
      EXPECT_EQ(a.histogram.sum, b.histogram.sum) << a.name;
      EXPECT_EQ(a.histogram.buckets, b.histogram.buckets) << a.name;
    }
  }
}

// Serial stage timers nest strictly inside the run timer, so their summed
// wall time can never exceed the run wall time, and on any real workload
// the instrumented stages dominate it.
TEST(ObsIntegrationTest, SerialStageCoverage) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 1.5);
  MetricsRegistry reg;
  Reconstruct(p, 1, &reg);
  const obs::RunReport r = obs::BuildRunReport(reg.Snapshot());
  ASSERT_GT(r.Get("run.wall_ns"), 0);
  EXPECT_GT(r.Get("stage_total.wall_ns"), 0);
  EXPECT_LE(r.Get("stage_total.wall_ns"), r.Get("run.wall_ns"));
  EXPECT_GT(r.Ratio("stage_total.coverage_of_run_wall"), 0.5)
      << "stages cover too little of the run";
}

// The registry accumulates across runs: a second Reconstruct adds to the
// same counters (ops_loop relies on this).
TEST(ObsIntegrationTest, RegistryAccumulatesAcrossRuns) {
  const Pipeline p = RunPipeline(sim::MakeLinearChainApp(), 200, 1.0);
  MetricsRegistry reg;
  Reconstruct(p, 1, &reg);
  const std::int64_t spans1 = reg.Snapshot().Value("tw_run_spans_total");
  Reconstruct(p, 1, &reg);
  EXPECT_EQ(reg.Snapshot().Value("tw_runs_total"), 2);
  EXPECT_EQ(reg.Snapshot().Value("tw_run_spans_total"), 2 * spans1);
}

}  // namespace
}  // namespace traceweaver
