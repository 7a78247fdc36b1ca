// traceweaver -- command-line driver for the span-ingestion workflow
// (§5.3 offline mode) and the streaming `serve` deployment
// (serve/pipeline.h). kFlags below declares every flag once, with the
// commands that read it, and kCommands every command; Usage() prints
// both (run with no arguments).
//
// The reconstruction commands (reconstruct, evaluate, export-jaeger,
// explain) accept --threads=N and produce bit-identical output for every
// N. They and infer-graph run the ingestion validator (span_validator.h,
// --ingest=MODE); serve counts what it reads and repairs nothing.
// Observability flags are described in docs/METRICS.md.
//
// Apps: hotel | media | nodejs | chain | ab. Spans JSONL written by
// `simulate`/`replay` carries ground truth so `evaluate` can score
// reconstructions; `reconstruct` never reads those fields.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "callgraph/inference.h"
#include "core/online.h"
#include "core/skew_estimator.h"
#include "callgraph/serialization.h"
#include "collector/capture.h"
#include "core/accuracy.h"
#include "core/explain.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "obs/provenance.h"
#include "serve/http_server.h"
#include "serve/pipeline.h"
#include "serve/query_service.h"
#include "serve/self_trace.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "store/store.h"
#include "trace/jaeger_export.h"
#include "trace/jsonl_io.h"
#include "trace/span_validator.h"
#include "trace/trace_record.h"
#include "util/json.h"

namespace {

using namespace traceweaver;

int Usage();

/// Every command's settings, as the rows of kFlags set them.
struct CliFlags {
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  bool report = false;        ///< Run-report table to stderr.
  std::string report_json;    ///< Run-report JSON file ("" = off).
  std::string metrics_out;    ///< Prometheus text file ("" = off).
  IngestMode ingest = IngestMode::kLenient;
  bool auto_slack = false;    ///< Apply suggested slack to reconstruction.
  bool skew_correct = false;  ///< Estimate + correct per-vantage skew.
  bool per_edge_slack = false;  ///< Per-edge slack from skew spread.
  bool quality = false;       ///< Compute the trace-quality report.
  double min_confidence = -1.0;  ///< Warn below this mean (< 0 = off).
  bool json = false;          ///< explain: JSON instead of a table.
  double sampling_rate = 1.0;  ///< Known capture-sampling keep prob.
  long long twin_window_ns = 0;  ///< Duplicate-twin adoption window.

  /// Fault-injection spec (simulate / inject-faults only).
  sim::FaultSpec faults;

  // --- serve (streaming online mode).
  /// The pipeline's own flags; CmdServe adds the weaver options.
  serve::ServePipelineOptions serve;
  bool resume = false;
  int retries = 5;
  bool final_only = false;  ///< Emit only the EOF assignment union.
  int http_port = -1;                 ///< < 0 = HTTP off; 0 = ephemeral.
  std::size_t http_threads = 4;
  bool linger = false;   ///< Keep serving HTTP after EOF until a signal.

  // --- query subcommand ---
  store::TraceQuery query;  ///< CmdQuery adds the confidence floor.
  bool q_full = false;      ///< Full records instead of summaries.

  bool WantMetrics() const {
    return report || !report_json.empty() || !metrics_out.empty();
  }
};

/// One bit per command, for the set of commands that read a flag.
enum : unsigned {
  kSimulate = 1u << 0,
  kInjectFaults = 1u << 1,
  kReplay = 1u << 2,
  kInferGraph = 1u << 3,
  kReconstruct = 1u << 4,
  kEvaluate = 1u << 5,
  kExportJaeger = 1u << 6,
  kExplain = 1u << 7,
  kServe = 1u << 8,
  kQuery = 1u << 9,
  kProvenance = 1u << 10,
  kSortSpans = 1u << 11,
  kFaultCmds = kSimulate | kInjectFaults,
  kBatch = kReconstruct | kEvaluate | kExportJaeger | kExplain,
  kValidating = kSimulate | kReplay | kInferGraph | kBatch,
  kWeaving = kBatch | kServe,
};

/// How a flag value or a positional argument is parsed and checked.
enum Kind {
  kSwitch,       ///< No value.
  kUnsigned,     ///< Integer in [0, Flag::max].
  kSigned,       ///< Any 64-bit integer.
  kNumber,       ///< Any finite number.
  kMillis,       ///< Unsigned milliseconds whose ns fit a DurationNs.
  kProbability,  ///< Number in [0, 1].
  kRate,         ///< Number in (0, 1]: the keep rate of a sampled capture.
  kGrade,        ///< One letter A-D, in either case.
  kString,       ///< Any text.
  kEnum,         ///< One of the '|'-separated choices after the spec's '='.
};

/// A parsed value; the kind says which member holds it.
struct Value {
  std::uint64_t u = 0;  ///< kUnsigned; kEnum choice index; kGrade letter.
  long long i = 0;      ///< kSigned; kMillis in nanoseconds.
  double d = 0.0;       ///< kNumber, kProbability, kRate.
  std::string s;        ///< kString.
};

/// One row of the flag table. A positional argument is parsed as a row
/// with only `spec` (its name) and `kind`.
struct Flag {
  const char* spec;  ///< "--name" for a switch, else "--name=ARG".
  Kind kind;
  unsigned commands = 0;  ///< The commands that read the value.
  const char* help = "";  ///< One line for Usage().
  void (*set)(CliFlags&, const Value&) = nullptr;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();  ///< kUnsigned
};

constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

/// Every flag of every command. Usage() prints a section per run of rows
/// with the same command set. The setters are generic lambdas that
/// `Flag::set` instantiates for (CliFlags&, const Value&).
constexpr Flag kFlags[] = {
    {"--drop=P", kProbability, kFaultCmds, "per-record drop probability",
     [](auto& f, auto& v) { f.faults.drop_rate = v.d; }},
    {"--dup=P", kProbability, kFaultCmds, "per-record duplication probability",
     [](auto& f, auto& v) { f.faults.duplicate_rate = v.d; }},
    {"--skew-ns=N", kUnsigned, kFaultCmds, "per-vantage clock skew stddev (ns)",
     [](auto& f, auto& v) { f.faults.skew_stddev_ns = v.u; }, kInt64Max},
    {"--truncate-ns=N", kUnsigned, kFaultCmds,
     "timestamp truncation granularity (ns)",
     [](auto& f, auto& v) {
       f.faults.truncate_granularity_ns = v.u;
     }, kInt64Max},
    {"--garble=P", kProbability, kFaultCmds,
     "per-record field-garbling probability",
     [](auto& f, auto& v) { f.faults.garble_rate = v.d; }},
    {"--head-sample=P", kProbability, kFaultCmds,
     "per-trace keep probability (default 1 = off)",
     [](auto& f, auto& v) { f.faults.head_sample_rate = v.d; }},
    {"--span-sample=P", kProbability, kFaultCmds,
     "per-span keep probability (default 1 = off)",
     [](auto& f, auto& v) { f.faults.tail_sample_rate = v.d; }},
    {"--fault-seed=S", kUnsigned, kFaultCmds,
     "corruption RNG seed (default 17)",
     [](auto& f, auto& v) { f.faults.seed = v.u; }},

    {"--ingest=off|lenient|strict", kEnum, kValidating,
     "span validation at load (default lenient)",
     [](auto& f, auto& v) { f.ingest = static_cast<IngestMode>(v.u); }},

    {"--threads=N", kUnsigned, kWeaving,
     "worker threads (default all); output never varies",
     [](auto& f, auto& v) { f.threads = std::max<std::uint64_t>(1, v.u); }},
    {"--report", kSwitch, kWeaving, "print the run report to stderr",
     [](auto& f, auto&) { f.report = true; }},
    {"--report-json=FILE", kString, kWeaving,
     "write the run report as JSON to FILE",
     [](auto& f, auto& v) { f.report_json = v.s; }},
    {"--metrics-out=FILE", kString, kWeaving,
     "write all metrics as Prometheus text to FILE",
     [](auto& f, auto& v) { f.metrics_out = v.s; }},
    {"--quality", kSwitch, kWeaving, "compute the trace-quality report",
     [](auto& f, auto&) { f.quality = true; }},
    {"--skew-correct", kSwitch, kWeaving,
     "move spans into one clock frame before solving",
     [](auto& f, auto&) { f.skew_correct = true; }},
    // Slack derivation needs the estimator, so this implies correction.
    {"--per-edge-slack", kSwitch, kWeaving,
     "per-edge slack from skew spread (implies skew fix)",
     [](auto& f, auto&) { f.per_edge_slack = f.skew_correct = true; }},
    {"--sampling-rate=R", kRate, kWeaving,
     "known capture keep probability (default 1)",
     [](auto& f, auto& v) { f.sampling_rate = v.d; }},
    {"--twin-window-ns=N", kUnsigned, kWeaving,
     "duplicate-twin adoption window (default 0 = off)",
     [](auto& f, auto& v) { f.twin_window_ns = v.u; }, kInt64Max},

    {"--auto-slack", kSwitch, kBatch,
     "apply the validator's suggested constraint slack",
     [](auto& f, auto&) { f.auto_slack = true; }},

    {"--min-confidence=X", kNumber, kBatch | kQuery,
     "warn below this mean confidence (query: filter)",
     [](auto& f, auto& v) { f.min_confidence = v.d; f.quality = true; }},

    {"--json", kSwitch, kExplain, "print the candidate table as JSON",
     [](auto& f, auto&) { f.json = true; }},

    {"--window-ms=N", kMillis, kServe,
     "tumbling-window width, > 0 (default 2000)",
     [](auto& f, auto& v) { f.serve.online.window = v.i; }},
    {"--margin-ms=N", kMillis, kServe,
     "close margin past the window end (default 500)",
     [](auto& f, auto& v) { f.serve.online.margin = v.i; }},
    {"--deadline-ms=N", kMillis, kServe,
     "per-window close deadline (default 0 = off)",
     [](auto& f, auto& v) { f.serve.online.window_close_deadline = v.i; }},
    {"--max-buffer-spans=N", kUnsigned, kServe,
     "span-buffer budget in spans (0 = unbounded)",
     [](auto& f, auto& v) { f.serve.online.max_buffer_spans = v.u; }},
    {"--max-buffer-bytes=N", kUnsigned, kServe,
     "span-buffer budget in bytes (0 = unbounded)",
     [](auto& f, auto& v) { f.serve.online.max_buffer_bytes = v.u; }},
    {"--checkpoint-dir=D", kString, kServe,
     "write the state files to existing directory D",
     [](auto& f, auto& v) { f.serve.checkpoint_dir = v.s; }},
    {"--checkpoint-every=N", kUnsigned, kServe,
     "spans between checkpoints (default 2000)",
     [](auto& f, auto& v) { f.serve.checkpoint_every = v.u; }},
    {"--resume", kSwitch, kServe,
     "restore the checkpoint, continue at its offset",
     [](auto& f, auto&) { f.resume = true; }},
    {"--retries=N", kUnsigned, kServe, "source open/read retries (default 5)",
     [](auto& f, auto& v) { f.retries = v.u; }, kIntMax},
    {"--final", kSwitch, kServe,
     "print only the final assignment at end of input",
     [](auto& f, auto&) { f.final_only = true; }},
    {"--store-dir=D", kString, kServe,
     "commit settled traces to the store at D",
     [](auto& f, auto& v) { f.serve.store_dir = v.s; }},
    {"--store-segment-traces=N", kUnsigned, kServe,
     "traces per sealed segment (default 256)",
     [](auto& f, auto& v) {
       f.serve.store.segment_traces = std::max<std::uint64_t>(1, v.u);
     }},
    {"--cache-traces=N", kUnsigned, kServe,
     "hot-trace cache capacity (default 128)",
     [](auto& f, auto& v) { f.serve.store.cache_traces = v.u; }},
    {"--http-port=P", kUnsigned, kServe,
     "serve the HTTP API on 127.0.0.1:P (0 = any port)",
     [](auto& f, auto& v) { f.http_port = v.u; }, 65535},
    {"--http-threads=N", kUnsigned, kServe, "HTTP worker threads (default 4)",
     [](auto& f, auto& v) {
       f.http_threads = std::max<std::uint64_t>(1, v.u);
     }},
    {"--linger", kSwitch, kServe,
     "keep serving HTTP after the input until a signal",
     [](auto& f, auto&) { f.linger = true; }},
    {"--no-provenance", kSwitch, kServe, "record no decision provenance",
     [](auto& f, auto&) { f.serve.provenance = false; }},
    {"--self-trace", kSwitch, kServe,
     "commit one pipeline self trace per window",
     [](auto& f, auto&) { f.serve.self_trace = true; }},
    {"--tail-sample=P", kProbability, kServe,
     "keep confident boring traces with probability P",
     [](auto& f, auto& v) { f.serve.tail_sample = v.d; }},

    {"--service=S", kString, kQuery, "root service to match",
     [](auto& f, auto& v) { f.query.service = v.s; }},
    {"--from=NS", kSigned, kQuery, "time-range start (ns)",
     [](auto& f, auto& v) { f.query.from = v.i; }},
    {"--to=NS", kSigned, kQuery, "time-range end (ns)",
     [](auto& f, auto& v) { f.query.to = v.i; }},
    {"--grade=G", kGrade, kQuery, "worst grade to match (default D)",
     [](auto& f, auto& v) { f.query.max_grade = static_cast<char>(v.u); }},
    {"--limit=N", kUnsigned, kQuery, "stop after N matches (0 = all)",
     [](auto& f, auto& v) { f.query.limit = v.u; }},
    {"--full", kSwitch, kQuery, "print full trace records",
     [](auto& f, auto&) { f.q_full = true; }},
};

/// The "--name" part of a row's spec or of a flag argument.
std::string_view NameOf(std::string_view spec) {
  return spec.substr(0, spec.find('='));
}

/// Parses all of `text` into `v` with std::from_chars: no leading
/// whitespace or '+', a '-' only for signed types, no trailing bytes,
/// nothing out of range.
template <typename V>
bool ParseWhole(std::string_view text, V& v) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  return !text.empty() && ec == std::errc{} && end == last;
}

/// `value` (null when absent) checked against `flag`'s kind. A missing,
/// malformed or out-of-range value exits 2 with "<name>: expected <what>".
Value Parse(const Flag& flag, const char* value) {
  constexpr std::uint64_t kMaxMs = kInt64Max / kNsPerMs;
  const std::string_view name = NameOf(flag.spec);
  const std::string_view text = value == nullptr ? "" : value;
  bool ok = (value == nullptr) == (flag.kind == kSwitch);
  std::string expected;
  Value v;
  switch (flag.kind) {
    case kSwitch:
      expected = "no value";
      break;
    case kUnsigned:
      expected = "unsigned integer up to " + std::to_string(flag.max);
      ok = ok && ParseWhole(text, v.u) && v.u <= flag.max;
      break;
    case kSigned:
      expected = "integer";
      ok = ok && ParseWhole(text, v.i);
      break;
    case kNumber:
      expected = "number";
      ok = ok && ParseWhole(text, v.d) && std::isfinite(v.d);
      break;
    case kMillis:
      expected = "milliseconds from 0 to " + std::to_string(kMaxMs);
      ok = ok && ParseWhole(text, v.u) && v.u <= kMaxMs;
      v.i = Millis(static_cast<double>(v.u));
      break;
    case kProbability:
      expected = "number in [0, 1]";
      ok = ok && ParseWhole(text, v.d) && v.d >= 0.0 && v.d <= 1.0;
      break;
    case kRate:
      expected = "number in (0, 1]";
      ok = ok && ParseWhole(text, v.d) && v.d > 0.0 && v.d <= 1.0;
      break;
    case kGrade:
      expected = "grade A, B, C or D";
      v.u = text.size() == 1 ? std::toupper(static_cast<unsigned char>(text[0]))
                             : 0;
      ok = ok && v.u >= 'A' && v.u <= 'D';
      break;
    case kString:
      v.s = text;
      break;
    case kEnum: {
      std::string_view choices = flag.spec + name.size() + 1;
      expected = "one of " + std::string(choices);
      for (;; ++v.u) {
        const std::size_t bar = choices.find('|');
        if (choices.substr(0, bar) == text) break;
        ok = ok && bar != std::string_view::npos;
        if (!ok) break;
        choices.remove_prefix(bar + 1);
      }
      break;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "%.*s: expected %s\n", static_cast<int>(name.size()),
                 name.data(), expected.c_str());
    std::exit(2);
  }
  return v;
}

/// Prints one `{"span":child,"parent":parent}` assignment line.
void PrintEdge(SpanId child, SpanId parent) {
  std::printf("{\"span\":%llu,\"parent\":%llu}\n",
              static_cast<unsigned long long>(child),
              static_cast<unsigned long long>(parent));
}

/// Prints an assignment's lines in child order.
void PrintEdges(const ParentAssignment& assignment) {
  std::vector<std::pair<SpanId, SpanId>> rows(assignment.begin(),
                                              assignment.end());
  std::sort(rows.begin(), rows.end());
  for (const auto& [child, parent] : rows) PrintEdge(child, parent);
}

/// Batch-mode clock-skew handling (--skew-correct): feed the population
/// to the estimator, rewrite every timestamp into the solved global clock
/// frame, and (--per-edge-slack) derive per-(caller, callee) feasibility
/// slack from the observed spread. tw_skew_* gauges land in `registry`
/// when non-null; a one-line note on stderr reports what moved.
void ApplySkewCorrection(const CliFlags& flags, std::vector<Span>& spans,
                         TraceWeaverOptions& opts,
                         obs::MetricsRegistry* registry) {
  if (!flags.skew_correct) return;
  SkewEstimator estimator;
  for (const Span& s : spans) estimator.ObserveSpan(s);
  const std::size_t corrected = estimator.CorrectSpans(spans);
  if (flags.per_edge_slack) {
    opts.optimizer.params.edge_slack_ns = estimator.EdgeSlacks();
  }
  if (registry != nullptr) estimator.FlushMetrics(*registry);
  if (corrected > 0) {
    std::fprintf(stderr,
                 "note: skew correction moved %zu of %zu spans (max frame "
                 "offset %lld ns, %zu vantage pairs, %zu per-edge slacks)\n",
                 corrected, spans.size(),
                 static_cast<long long>(estimator.MaxFrameOffsetNs()),
                 estimator.pairs().size(),
                 flags.per_edge_slack ? estimator.EdgeSlacks().size()
                                      : std::size_t{0});
  }
}

TraceWeaverOptions WeaverOptions(const CliFlags& flags,
                                 obs::MetricsRegistry* registry,
                                 long long slack_ns = 0) {
  TraceWeaverOptions opts;
  opts.num_threads = flags.threads;
  if (flags.WantMetrics()) opts.metrics = registry;
  if (flags.auto_slack && slack_ns > 0) {
    opts.optimizer.params.constraint_slack_ns = slack_ns;
  }
  opts.optimizer.params.sampling_rate = flags.sampling_rate;
  opts.optimizer.params.duplicate_twin_window_ns = flags.twin_window_ns;
  opts.compute_quality = flags.quality;
  return opts;
}

/// One-line stderr warning when the mean assignment confidence of the run
/// falls below --min-confidence, naming the three weakest services
/// (mirrors the --auto-slack advisory UX).
void WarnLowConfidence(const CliFlags& flags, const TraceWeaverOutput& out) {
  if (flags.min_confidence < 0.0) return;
  const double mean = out.quality.MeanAssignmentConfidence();
  if (mean >= flags.min_confidence) return;
  std::string worst;
  for (const auto& [service, conf] : out.quality.WorstServices(3)) {
    if (!worst.empty()) worst += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.2f", service.c_str(), conf);
    worst += buf;
  }
  std::fprintf(stderr,
               "warning: mean assignment confidence %.2f below "
               "--min-confidence=%.2f; worst services: %s\n",
               mean, flags.min_confidence,
               worst.empty() ? "(none)" : worst.c_str());
}

/// tw.* Jaeger span tags from a quality report (export-jaeger --quality).
std::map<SpanId, JaegerSpanTags> QualityTags(const TraceWeaverOutput& out) {
  std::map<SpanId, JaegerSpanTags> tags;
  for (const obs::AssignmentQuality& a : out.quality.assignments) {
    JaegerSpanTags t;
    t.confidence = a.confidence;
    t.runner_up_margin = a.margin;
    t.candidates_considered = static_cast<std::int64_t>(a.candidates);
    tags[a.parent] = t;
  }
  return tags;
}

/// Emits whatever observability outputs the flags requested.
void EmitObservability(const CliFlags& flags,
                       const obs::MetricsRegistry& registry) {
  if (!flags.WantMetrics()) return;
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  if (flags.report) {
    const obs::RunReport report = obs::BuildRunReport(snapshot);
    std::fputs(obs::RunReportTable(report).c_str(), stderr);
  }
  if (!flags.report_json.empty()) {
    std::ofstream out(flags.report_json);
    if (!out) {
      std::fprintf(stderr, "cannot write report: %s\n",
                   flags.report_json.c_str());
    } else {
      out << obs::RunReportJson(obs::BuildRunReport(snapshot));
    }
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics: %s\n",
                   flags.metrics_out.c_str());
    } else {
      obs::WritePrometheusText(out, snapshot);
    }
  }
}

std::optional<sim::AppSpec> AppByName(const std::string& name) {
  if (name == "hotel") return sim::MakeHotelReservationApp();
  if (name == "media") return sim::MakeMediaMicroservicesApp();
  if (name == "nodejs") return sim::MakeNodejsApp();
  if (name == "chain") return sim::MakeLinearChainApp();
  if (name == "ab") return sim::MakeAbTestApp(0.05);
  return std::nullopt;
}

/// Prints the validator's findings to stderr (the CLI surface of the
/// ingestion layer); silent when the input was clean.
void WarnIngest(const IngestStats& ingest) {
  if (ingest.parse_errors > 0) {
    std::fprintf(stderr,
                 "warning: %llu malformed span lines dropped at parse\n",
                 static_cast<unsigned long long>(ingest.parse_errors));
  }
  if (ingest.repaired > 0 || ingest.quarantined > 0) {
    std::fprintf(stderr,
                 "warning: ingest sanitized %llu and quarantined %llu of "
                 "%llu spans (%llu timestamp clamps, %llu duplicate ids, "
                 "%llu empty names)\n",
                 static_cast<unsigned long long>(ingest.repaired),
                 static_cast<unsigned long long>(ingest.quarantined),
                 static_cast<unsigned long long>(ingest.input),
                 static_cast<unsigned long long>(ingest.timestamps_clamped),
                 static_cast<unsigned long long>(ingest.duplicate_ids),
                 static_cast<unsigned long long>(ingest.empty_names));
  }
  if (ingest.suggested_slack_ns > 0) {
    std::fprintf(stderr,
                 "note: observed capture-clock skew up to %lld ns; "
                 "suggested constraint_slack_ns=%lld (--auto-slack "
                 "applies it)\n",
                 static_cast<long long>(ingest.max_skew_ns),
                 static_cast<long long>(ingest.suggested_slack_ns));
    if (!ingest.skew_pairs.empty()) {
      // Name the worst service pair instead of blaming the deployment:
      // skew is per vantage pair, and usually one pair dominates.
      const IngestStats::PairSkew& worst = ingest.skew_pairs.front();
      std::fprintf(stderr,
                   "note: worst skew pair %s -> %s (%llu samples, "
                   "p99 %lld ns, max %lld ns) of %zu pair(s)\n",
                   worst.caller.c_str(), worst.callee.c_str(),
                   static_cast<unsigned long long>(worst.samples),
                   static_cast<long long>(worst.p99_skew_ns),
                   static_cast<long long>(worst.max_skew_ns),
                   ingest.skew_pairs.size());
    }
  }
}

/// Simulator output through the capture round trip, with the validator
/// riding along (a no-op on a healthy capture, reported otherwise).
std::vector<Span> Capture(const std::vector<Span>& spans,
                          const CliFlags& flags) {
  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  SpanValidator validator(vopts);
  auto captured = collector::CaptureRoundTrip(spans, {}, nullptr, &validator);
  WarnIngest(validator.Finish());
  return captured;
}

/// Reads a spans file unvalidated (inject-faults, sort-spans); malformed
/// lines are dropped with a warning.
std::optional<std::vector<Span>> ReadSpansFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", path);
    return std::nullopt;
  }
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed span lines dropped\n",
                 dropped);
  }
  return spans;
}

struct LoadedSpans {
  std::vector<Span> spans;
  IngestStats ingest;
};

/// Reads a span population and runs it through the ingestion validator
/// (the JSONL ingest path). Parse drops and sanitization are surfaced on
/// stderr; `tw_ingest_*` metrics land in `registry` when non-null.
std::optional<LoadedSpans> LoadSpans(const std::string& path,
                                     const CliFlags& flags,
                                     obs::MetricsRegistry* registry) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", path.c_str());
    return std::nullopt;
  }
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);

  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  vopts.metrics = registry;
  SpanValidator validator(vopts);
  validator.RecordParseErrors(dropped);
  LoadedSpans loaded;
  loaded.spans = validator.Sanitize(std::move(spans));
  loaded.ingest = validator.Finish();
  WarnIngest(loaded.ingest);
  return loaded;
}

std::optional<CallGraph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open call-graph file: %s\n", path.c_str());
    return std::nullopt;
  }
  std::size_t dropped = 0;
  CallGraph graph = ReadCallGraph(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed graph lines skipped\n",
                 dropped);
  }
  return graph;
}

int CmdSimulate(const CliFlags& flags, int argc, char** argv) {
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::OpenLoopOptions load;
  load.requests_per_sec = Parse({"rps", kNumber}, argv[2]).d;
  load.duration = Seconds(Parse({"seconds", kNumber}, argv[3]).d);
  load.seed = argc > 4 ? Parse({"seed", kUnsigned}, argv[4]).u : 31;
  if (load.requests_per_sec <= 0 || load.duration <= 0) return Usage();

  auto spans = Capture(sim::RunOpenLoop(*app, load).spans, flags);
  if (flags.faults.Active()) {
    sim::FaultStats fstats;
    spans = sim::InjectFaults(std::move(spans), flags.faults, &fstats);
    std::fprintf(stderr,
                 "faults: %zu in -> %zu out (%zu dropped, %zu duplicated, "
                 "%zu garbled, %zu vantage clocks)\n",
                 fstats.input, fstats.output, fstats.dropped,
                 fstats.duplicated, fstats.garbled, fstats.vantage_points);
  }
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return 0;
}

int CmdInjectFaults(const CliFlags& flags, int, char** argv) {
  // Deliberately no validation here: the point is to produce a corrupted
  // stream for downstream robustness runs.
  auto spans = ReadSpansFile(argv[1]);
  if (!spans) return 1;
  sim::FaultStats fstats;
  spans = sim::InjectFaults(std::move(*spans), flags.faults, &fstats);
  WriteSpansJsonl(std::cout, *spans, /*include_ground_truth=*/true);
  std::fprintf(stderr,
               "faults: %zu in -> %zu out (%zu dropped, %zu duplicated, "
               "%zu skewed, %zu truncated, %zu garbled, %zu head-sampled, "
               "%zu span-sampled)\n",
               fstats.input, fstats.output, fstats.dropped,
               fstats.duplicated, fstats.skewed, fstats.truncated,
               fstats.garbled, fstats.head_sampled_out,
               fstats.tail_sampled_out);
  return 0;
}

int CmdReplay(const CliFlags& flags, int argc, char** argv) {
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::IsolatedReplayOptions options;
  if (argc > 2) {
    options.requests_per_root =
        Parse({"requests_per_root", kUnsigned}, argv[2]).u;
  }
  const auto spans =
      Capture(sim::RunIsolatedReplay(*app, options).spans, flags);
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return 0;
}

int CmdInferGraph(const CliFlags& flags, int, char** argv) {
  auto loaded = LoadSpans(argv[1], flags, nullptr);
  if (!loaded) return 1;
  const CallGraph graph = InferCallGraph(loaded->spans);
  WriteCallGraph(std::cout, graph);
  return 0;
}

/// A batch command's reconstruction: the spans as ingested (and, with
/// --skew-correct, shifted into the common clock frame) and the output.
struct Batch {
  std::vector<Span> spans;
  TraceWeaverOutput out;
};

/// The prologue of reconstruct, export-jaeger, evaluate and explain:
/// load the graph and spans, build the weaver options (`tune` adds a
/// command's own last), correct skew, reconstruct, then emit the
/// observability outputs and the low-confidence warning.
std::optional<Batch> RunBatch(
    const CliFlags& flags, const char* graph_path, const char* spans_path,
    const std::function<void(TraceWeaverOptions&)>& tune = {}) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* reg = flags.WantMetrics() ? &registry : nullptr;
  auto graph = LoadGraph(graph_path);
  auto loaded = LoadSpans(spans_path, flags, reg);
  if (!graph || !loaded) return std::nullopt;
  TraceWeaverOptions wopts =
      WeaverOptions(flags, &registry, loaded->ingest.suggested_slack_ns);
  ApplySkewCorrection(flags, loaded->spans, wopts, reg);
  if (tune) tune(wopts);
  TraceWeaver weaver(*graph, wopts);
  TraceWeaverOutput out = weaver.Reconstruct(loaded->spans);
  EmitObservability(flags, registry);
  WarnLowConfidence(flags, out);
  return Batch{std::move(loaded->spans), std::move(out)};
}

int CmdReconstruct(const CliFlags& flags, int, char** argv) {
  const auto batch = RunBatch(flags, argv[1], argv[2]);
  if (!batch) return 1;
  const auto& [spans, out] = *batch;
  std::size_t mapped = 0;
  for (const Span& s : spans) {
    auto it = out.assignment.find(s.id);
    const SpanId parent =
        it == out.assignment.end() ? kInvalidSpanId : it->second;
    PrintEdge(s.id, parent);
    if (parent != kInvalidSpanId) ++mapped;
  }
  std::fprintf(stderr, "%zu of %zu spans mapped to a parent\n", mapped,
               spans.size());
  return 0;
}

int CmdExportJaeger(const CliFlags& flags, int, char** argv) {
  const auto batch = RunBatch(flags, argv[1], argv[2]);
  if (!batch) return 1;
  const auto& [spans, out] = *batch;
  if (flags.quality) {
    const auto tags = QualityTags(out);
    std::cout << TracesToJaegerJson(spans, out.assignment, &tags) << '\n';
  } else {
    std::cout << TracesToJaegerJson(spans, out.assignment) << '\n';
  }
  return 0;
}

int CmdEvaluate(const CliFlags& flags, int, char** argv) {
  const auto batch = RunBatch(flags, argv[1], argv[2]);
  if (!batch) return 1;
  const auto& [spans, out] = *batch;
  const AccuracyReport report = Evaluate(spans, out.assignment);
  std::printf("spans:   %zu considered, %zu correct (%.2f%%)\n",
              report.spans_considered, report.spans_correct,
              report.SpanAccuracy() * 100.0);
  std::printf("traces:  %zu considered, %zu fully correct (%.2f%%)\n",
              report.traces_considered, report.traces_correct,
              report.TraceAccuracy() * 100.0);
  std::printf("top-5 end-to-end: %.2f%%\n",
              TopKTraceAccuracy(spans, out, 5) * 100.0);
  std::printf("per-service confidence:\n");
  for (const auto& [service, confidence] : out.ConfidenceByService()) {
    std::printf("  %-24s %.1f%%\n", service.c_str(), confidence * 100.0);
  }
  if (flags.quality) {
    const obs::CalibrationResult acal =
        obs::CalibrateAssignments(spans, out.containers, out.quality);
    const auto pearson_str = [](const obs::CalibrationResult& c) {
      if (!c.pearson_defined) return std::string("n/a");
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", c.pearson);
      return std::string(buf);
    };
    std::printf(
        "calibration (assignment confidence vs correctness, %zu "
        "assignments):\n  pearson %s   ece %.4f   brier %.4f\n",
        acal.samples, pearson_str(acal).c_str(), acal.ece, acal.brier);
    std::fputs(acal.ReliabilityDiagram().c_str(), stdout);
    const obs::CalibrationResult calib =
        obs::CalibrateTraces(spans, out.quality, out.assignment);
    std::printf(
        "calibration (trace confidence vs correctness, %zu traces):\n"
        "  pearson %s   ece %.4f   brier %.4f\n",
        calib.samples, pearson_str(calib).c_str(), calib.ece, calib.brier);
    std::fputs(calib.ReliabilityDiagram().c_str(), stdout);
  }
  return 0;
}

int CmdExplain(const CliFlags& flags, int, char** argv) {
  const SpanId target = Parse({"parent_span_id", kUnsigned}, argv[3]).u;
  ExplainCapture capture;
  const auto batch =
      RunBatch(flags, argv[1], argv[2], [&](TraceWeaverOptions& opts) {
        opts.optimizer.explain_parent = target;
        opts.optimizer.explain_out = &capture;
      });
  if (!batch) return 1;
  if (flags.json) {
    std::fputs(ExplainJson(capture).c_str(), stdout);
  } else {
    std::fputs(ExplainTable(capture).c_str(), stdout);
  }
  return capture.found ? 0 : 1;
}

/// Reorders a span file into completion (client_recv) order -- the
/// arrival order a live collector produces and the one `serve` expects.
int CmdSortSpans(const CliFlags&, int, char** argv) {
  auto spans = ReadSpansFile(argv[1]);
  if (!spans) return 1;
  std::sort(spans->begin(), spans->end(), [](const Span& a, const Span& b) {
    return a.client_recv != b.client_recv ? a.client_recv < b.client_recv
                                          : a.id < b.id;
  });
  WriteSpansJsonl(std::cout, *spans, /*include_ground_truth=*/true);
  return 0;
}

// ---------------------------------------------------------------------
// serve: the resilient streaming loop (core/online.h).

/// Opens `path` (seeking to `offset`) with exponential-backoff retry; an
/// unopened stream after `retries` attempts signals giving up.
std::ifstream OpenWithRetry(const std::string& path, int retries,
                            std::uint64_t offset) {
  for (int attempt = 0;; ++attempt) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      if (offset > 0) in.seekg(static_cast<std::streamoff>(offset));
      if (in) return in;
    }
    if (attempt >= retries) return std::ifstream();
    const long long backoff_ms = std::min(100LL << attempt, 5000LL);
    std::fprintf(stderr,
                 "serve: cannot read %s (attempt %d/%d), retrying in "
                 "%lld ms\n",
                 path.c_str(), attempt + 1, retries, backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

/// SIGINT/SIGTERM latch for the serve loop: first signal requests a
/// graceful checkpoint-and-exit (and ends --linger).
std::atomic<bool> g_stop{false};
void HandleStopSignal(int) { g_stop.store(true); }

/// Prints the per-window output of serve and flushes it, so every line
/// is out before a later checkpoint moves the source offset past it: a
/// resumed run starts after that offset and never prints it again.
void EmitWindowResults(const std::vector<WindowResult>& results) {
  for (const WindowResult& r : results) {
    std::printf(
        "{\"window_start\":%lld,\"window_end\":%lld,\"committed\":%zu,"
        "\"shed\":%s,\"level\":%d,\"grafted\":%zu,\"orphans\":%zu}\n",
        static_cast<long long>(r.window_start),
        static_cast<long long>(r.window_end), r.parents_committed,
        r.shed ? "true" : "false", r.degradation_level, r.late_grafted,
        r.orphans.size());
    PrintEdges(r.assignment);
    for (SpanId id : r.orphans) PrintEdge(id, kInvalidSpanId);
  }
  if (!results.empty()) std::fflush(stdout);
}

int CmdServe(const CliFlags& flags, int, char** argv) {
  serve::ServePipelineOptions popts = flags.serve;
  OnlineOptions& oopts = popts.online;
  const bool store_enabled = !popts.store_dir.empty();
  const bool http_enabled = flags.http_port >= 0;
  for (const auto& [on, flag] : {std::pair{http_enabled, "--http-port"},
                                 {popts.self_trace, "--self-trace"},
                                 {popts.tail_sample >= 0.0, "--tail-sample"}}) {
    if (on && !store_enabled) {
      std::fprintf(stderr, "serve: %s requires --store-dir\n", flag);
      return 2;
    }
  }
  // Malformed and negative values are rejected at parse; not a zero.
  if (oopts.window <= 0) {
    std::fprintf(stderr, "serve: --window-ms must be > 0\n");
    return 2;
  }
  // Every checkpoint writes into this directory; failing then would skip
  // every checkpoint of the run.
  const std::string& ckpt_dir = popts.checkpoint_dir;
  if (!ckpt_dir.empty() && (!std::filesystem::is_directory(ckpt_dir) ||
                            ::access(ckpt_dir.c_str(), W_OK) != 0)) {
    std::fprintf(stderr,
                 "serve: --checkpoint-dir %s is not a writable directory\n",
                 ckpt_dir.c_str());
    return 2;
  }
  if (flags.resume && ckpt_dir.empty()) {
    std::fprintf(stderr, "serve: --resume requires --checkpoint-dir\n");
    return 2;
  }
  auto graph = LoadGraph(argv[1]);
  if (!graph) return 1;
  const std::string source = argv[2];

  obs::MetricsRegistry registry;
  // The store/HTTP layers always record into the registry (the /metrics
  // endpoint scrapes it); file/report outputs still need the flags.
  popts.metrics = flags.WantMetrics() || store_enabled ? &registry : nullptr;
  oopts.weaver = WeaverOptions(flags, &registry);
  oopts.weaver.metrics = popts.metrics;
  // The store indexes A-D grades and calibrated confidence, so committing
  // turns the quality layer on; without a store it stays a paid opt-in.
  oopts.weaver.compute_quality = flags.quality || store_enabled;
  // serve's --skew-correct runs the streaming estimator: every ingested
  // span is observed raw, corrected into the global frame, and the
  // per-edge slack map refreshes at each window close.
  oopts.skew_correct = flags.skew_correct;
  if (!flags.final_only) popts.on_results = EmitWindowResults;
  serve::ServePipeline pipeline(*graph, popts);

  std::string err;
  const auto opened = pipeline.Open(flags.resume, &err);
  if (!opened) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return 1;
  }
  if (store_enabled) {
    if (opened->store.segments_rejected > 0) {
      std::fprintf(stderr, "serve: store skipped %zu damaged segment(s)\n",
                   opened->store.segments_rejected);
    }
    std::fprintf(stderr, "serve: store %s: %zu traces in %zu segments\n",
                 popts.store_dir.c_str(), opened->store.traces_loaded,
                 opened->store.segments_loaded);
  }
  if (opened->resumed) {
    std::fprintf(stderr,
                 "serve: resumed from %s at source offset %llu (all state "
                 "files restored)\n",
                 ckpt_dir.c_str(),
                 static_cast<unsigned long long>(opened->source_offset));
  } else if (flags.resume) {
    std::fprintf(stderr, "serve: no checkpoint in %s, starting fresh\n",
                 ckpt_dir.c_str());
  }

  std::unique_ptr<serve::QueryService> query_service;
  std::unique_ptr<serve::HttpServer> http;
  if (http_enabled) {
    serve::QueryServiceOptions qopts;
    qopts.explain_weaver = oopts.weaver;
    query_service = std::make_unique<serve::QueryService>(
        pipeline.store(), &*graph, &registry, qopts);
    serve::HttpServerOptions hopts;
    hopts.port = flags.http_port;
    hopts.worker_threads = flags.http_threads;
    hopts.metrics = &registry;
    http = std::make_unique<serve::HttpServer>(
        [&query_service](const serve::HttpRequest& rq,
                         serve::HttpResponse& rs) {
          query_service->Handle(rq, rs);
        },
        hopts);
    if (!http->Start(&err)) {
      std::fprintf(stderr, "serve: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "serve: http query api on http://%s:%d/\n",
                 hopts.bind_address.c_str(), http->port());
  }

  g_stop.store(false);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::uint64_t offset = opened->source_offset;
  std::ifstream in = OpenWithRetry(source, flags.retries, offset);
  if (!in) {
    std::fprintf(stderr, "serve: giving up on %s\n", source.c_str());
    if (http != nullptr) http->Stop();
    return 1;
  }
  std::string line;
  while (!g_stop.load()) {
    if (!std::getline(in, line)) {
      if (in.eof()) break;
      // Transient read failure: reopen at the last consumed offset.
      in = OpenWithRetry(source, flags.retries, offset);
      if (!in) break;
      continue;
    }
    const std::streamoff pos = in.tellg();
    offset = pos >= 0 ? static_cast<std::uint64_t>(pos)
                      : offset + line.size() + 1;
    if (line.empty()) continue;
    auto span = SpanFromJson(line);
    if (!span) {
      pipeline.NoteParseError();
    } else if (!pipeline.Step(std::move(*span), offset, &err)) {
      std::fprintf(stderr, "serve: checkpoint failed: %s\n", err.c_str());
    }
  }

  // A graceful stop mid-stream only checkpoints, so a --resume run
  // continues exactly where this one stopped: flushing here would commit
  // still-settling traces as premature fragments.
  const bool interrupted = g_stop.load();
  if (interrupted) {
    std::fprintf(stderr, "serve: interrupted, checkpointing and exiting\n");
  }
  if (!pipeline.Finish(!interrupted, &err)) {
    std::fprintf(stderr, "serve: checkpoint failed: %s\n", err.c_str());
  }
  if (flags.final_only && !interrupted) {
    PrintEdges(pipeline.weaver().assignment());
  }
  EmitObservability(flags, registry);

  const OnlineTraceWeaver::Stats& st = pipeline.weaver().stats();
  std::fprintf(
      stderr,
      "serve: %llu ingested (%llu parse errors), %llu windows closed, "
      "%llu parents committed; shed %llu windows / %llu spans, %llu "
      "admission drops; late %llu (%llu grafted, %llu orphaned, %llu "
      "dropped); %llu watermark regressions, %llu deadline misses, "
      "ladder %llu up / %llu down (level %d)\n",
      static_cast<unsigned long long>(st.ingested),
      static_cast<unsigned long long>(pipeline.ingest().parse_errors),
      static_cast<unsigned long long>(st.windows_closed),
      static_cast<unsigned long long>(st.parents_committed),
      static_cast<unsigned long long>(st.windows_shed),
      static_cast<unsigned long long>(st.spans_shed),
      static_cast<unsigned long long>(st.admission_drops),
      static_cast<unsigned long long>(st.late_spans),
      static_cast<unsigned long long>(st.late_grafted),
      static_cast<unsigned long long>(st.late_orphans),
      static_cast<unsigned long long>(st.late_dropped),
      static_cast<unsigned long long>(st.watermark_regressions),
      static_cast<unsigned long long>(st.deadline_misses),
      static_cast<unsigned long long>(st.degrade_up_steps),
      static_cast<unsigned long long>(st.degrade_down_steps),
      pipeline.weaver().degradation_level());
  if (const store::TraceStore* tstore = pipeline.store()) {
    std::fprintf(
        stderr,
        "serve: store holds %zu traces (%zu sealed segments, %zu active"
        "%s)\n",
        tstore->size(), tstore->sealed_segments(), tstore->active_traces(),
        pipeline.committer()->pending_spans() > 0 ? ", settling spans pending"
                                                  : "");
  }
  if (const store::TailSampler* sampler = pipeline.sampler()) {
    std::fprintf(stderr,
                 "serve: tail sampler considered %zu traces: kept %zu "
                 "(%zu interesting, %zu by coin), shed %zu\n",
                 sampler->considered(), sampler->kept(),
                 sampler->kept_interesting(), sampler->kept_random(),
                 sampler->shed());
  }
  if (const obs::ProvenanceLedger* ledger = pipeline.ledger()) {
    std::fprintf(stderr,
                 "serve: provenance ledger recorded %llu events (%llu "
                 "dropped, %zu spans still pending)\n",
                 static_cast<unsigned long long>(ledger->recorded()),
                 static_cast<unsigned long long>(ledger->dropped()),
                 ledger->pending_spans());
  }
  if (const serve::SelfTracer* self_tracer = pipeline.self_tracer()) {
    std::fprintf(stderr, "serve: committed %zu pipeline self traces\n",
                 self_tracer->committed());
  }

  if (http != nullptr && flags.linger && !interrupted) {
    std::fprintf(
        stderr,
        "serve: source drained; serving queries until SIGINT/SIGTERM\n");
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (http != nullptr) http->Stop();
  return 0;
}

/// Opens the store at `dir` for `cmd` (query, provenance); null, with
/// the reason on stderr, when the directory is unusable.
std::unique_ptr<store::TraceStore> OpenStore(const char* cmd,
                                             const char* dir) {
  auto tstore = std::make_unique<store::TraceStore>(dir);
  std::string err;
  const auto ostats = tstore->Open(&err);
  if (!ostats) {
    std::fprintf(stderr, "%s: cannot open store %s: %s\n", cmd, dir,
                 err.c_str());
    return nullptr;
  }
  if (ostats->segments_rejected > 0) {
    std::fprintf(stderr, "%s: skipped %zu damaged segment(s)\n", cmd,
                 ostats->segments_rejected);
  }
  return tstore;
}

/// The stored line of the record the positional `id` names (its index
/// entry in *summary when given); null, reported on stderr, when there is
/// none.
store::RecordLine GetTrace(const char* cmd, const store::TraceStore& tstore,
                           const char* id,
                           store::TraceSummary* summary = nullptr) {
  auto line = tstore.GetLine(Parse({"trace_id", kUnsigned}, id).u, summary);
  if (line == nullptr) {
    std::fprintf(stderr, "%s: trace %s not found\n", cmd, id);
  }
  return line;
}

/// Writes one stored line and its newline to stdout, as stored.
void PrintLine(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
}

/// query: offline access to a trace store (no server). Summaries by
/// default, one full record with an explicit id, --full to stream records.
int CmdQuery(const CliFlags& flags, int argc, char** argv) {
  if (flags.query.from > flags.query.to) {
    std::fprintf(stderr, "query: bad range: --from is after --to\n");
    return 2;
  }
  const auto opened = OpenStore("query", argv[1]);
  if (!opened) return 1;
  const store::TraceStore& tstore = *opened;
  if (argc > 2) {
    const auto line = GetTrace("query", tstore, argv[2]);
    if (line == nullptr) return 1;
    PrintLine(*line);
    return 0;
  }

  store::TraceQuery query = flags.query;
  query.min_confidence = std::max(0.0, flags.min_confidence);

  std::size_t matched = 0;
  if (flags.q_full) {
    matched = tstore.Query(
        query, [](const store::TraceSummary&, const store::RecordLine& line) {
          if (line != nullptr) PrintLine(*line);
          return true;
        });
  } else {
    for (const store::TraceSummary& s : tstore.QuerySummaries(query)) {
      std::printf(
          "{\"trace\":%llu,\"root_service\":%s,\"root_endpoint\":"
          "%s,\"start\":%lld,\"end\":%lld,\"grade\":\"%c\","
          "\"confidence\":%.6f,\"orphan\":%s,\"span_count\":%zu}\n",
          static_cast<unsigned long long>(s.trace_id),
          json::Str(s.root_service).c_str(),
          json::Str(s.root_endpoint).c_str(),
          static_cast<long long>(s.start), static_cast<long long>(s.end),
          s.grade, s.confidence, s.orphan ? "true" : "false", s.span_count);
      ++matched;
    }
  }
  std::fprintf(stderr, "%zu of %zu stored traces matched\n", matched,
               tstore.size());
  return 0;
}

/// provenance: print one stored trace's decision ledger as the same
/// `traceweaver.provenance.v1` document GET /traces/{id}/provenance
/// serves (docs/API.md).
int CmdProvenance(const CliFlags&, int, char** argv) {
  const auto opened = OpenStore("provenance", argv[1]);
  if (!opened) return 1;
  store::TraceSummary summary;
  const auto line = GetTrace("provenance", *opened, argv[2], &summary);
  if (line == nullptr) return 1;
  const auto body = serve::ProvenanceJson(summary, *line);
  if (!body) {
    std::fprintf(stderr, "provenance: trace %s is unreadable\n", argv[2]);
    return 1;
  }
  PrintLine(*body);
  return 0;
}

/// One row per command. `args` is the positional synopsis Usage()
/// prints: Arity() reads one required argument per "<", one optional per
/// "[".
struct Command {
  const char* name;
  unsigned bit;  ///< The command's bit in Flag::commands.
  const char* args;
  int (*run)(const CliFlags& flags, int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"simulate", kSimulate,
     "<hotel|media|nodejs|chain|ab> <rps> <seconds> [seed]", CmdSimulate},
    {"replay", kReplay, "<hotel|media|nodejs|chain|ab> [requests_per_root]",
     CmdReplay},
    {"inject-faults", kInjectFaults, "<spans.jsonl>", CmdInjectFaults},
    {"infer-graph", kInferGraph, "<spans.jsonl>", CmdInferGraph},
    {"reconstruct", kReconstruct, "<graph.txt> <spans.jsonl>", CmdReconstruct},
    {"evaluate", kEvaluate, "<graph.txt> <spans.jsonl>", CmdEvaluate},
    {"export-jaeger", kExportJaeger, "<graph.txt> <spans.jsonl>",
     CmdExportJaeger},
    {"explain", kExplain, "<graph.txt> <spans.jsonl> <parent_span_id>",
     CmdExplain},
    {"serve", kServe, "<graph.txt> <spans.jsonl>", CmdServe},
    {"query", kQuery, "<store-dir> [trace_id]", CmdQuery},
    {"provenance", kProvenance, "<store-dir> <trace_id>", CmdProvenance},
    {"sort-spans", kSortSpans, "<spans.jsonl>", CmdSortSpans},
};

/// Prints every command's synopsis, then the flag table in sections of
/// rows that the same commands read.
int Usage() {
  std::fputs("usage: traceweaver <command> [flags] <arguments>\n", stderr);
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %-14s %s\n", c.name, c.args);
  }
  unsigned section = 0;
  for (const Flag& f : kFlags) {
    if (f.commands != section) {
      section = f.commands;
      std::string names;
      for (const Command& c : kCommands) {
        if ((c.bit & section) == 0) continue;
        names += (names.empty() ? "" : ", ") + std::string(c.name);
      }
      std::fprintf(stderr, "\nflags (%s):\n", names.c_str());
    }
    std::fprintf(stderr, "  %-26s %s\n", f.spec, f.help);
  }
  return 2;
}

/// Consumes the leading "--" arguments, shifting argv. Each must name a
/// row of kFlags that `command` reads, with a value of the row's kind;
/// anything else exits 2.
CliFlags ParseFlags(const Command& command, int& argc, char**& argv) {
  CliFlags flags;
  while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
    const std::string_view name = NameOf(argv[1]);
    const Flag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return NameOf(f.spec) == name; });
    const int len = static_cast<int>(name.size());
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "unknown flag '%.*s'\n", len, name.data());
      std::exit(2);
    }
    if ((flag->commands & command.bit) == 0) {
      std::fprintf(stderr, "%s: %.*s does not apply\n", command.name, len,
                   name.data());
      std::exit(2);
    }
    const char* rest = argv[1] + name.size();  // "" or "=value"
    flag->set(flags, Parse(*flag, *rest == '=' ? rest + 1 : nullptr));
    --argc;
    ++argv;
    argv[0] = argv[-1];  // Keep argv[0] pointing at a program name.
  }
  return flags;
}

/// Whether the `argc - 1` positionals left by ParseFlags fit `command`'s
/// synopsis. Names the first extra one on stderr: a flag after the
/// positionals would otherwise be dropped silently.
bool Arity(const Command& command, int argc, char** argv) {
  const std::string_view args = command.args;
  const int min = static_cast<int>(std::count(args.begin(), args.end(), '<'));
  const int max =
      min + static_cast<int>(std::count(args.begin(), args.end(), '['));
  if (argc - 1 > max) {
    std::fprintf(stderr,
                 "unexpected argument '%s' (flags go before the positional "
                 "arguments)\n",
                 argv[max + 1]);
    return false;
  }
  return argc - 1 >= min;
}

}  // namespace

int main(int argc, char** argv) {
  for (const Command& command : kCommands) {
    if (argc < 2 || command.name != std::string_view(argv[1])) continue;
    --argc;
    ++argv;
    const CliFlags flags = ParseFlags(command, argc, argv);
    if (!Arity(command, argc, argv)) return Usage();
    return command.run(flags, argc, argv);
  }
  return Usage();
}
