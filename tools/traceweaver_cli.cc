// traceweaver -- command-line driver for the span-ingestion workflow
// (§5.3 offline mode) and the streaming `serve` deployment
// (serve/pipeline.h). Usage() below lists every command and flag; run
// with no arguments to print it.
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

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  traceweaver simulate [fault flags] <hotel|media|nodejs|chain|ab> "
      "<rps> <seconds> [seed]\n"
      "  traceweaver replay <hotel|media|nodejs|chain|ab> "
      "[requests_per_root]\n"
      "  traceweaver inject-faults [fault flags] <spans.jsonl>\n"
      "  traceweaver infer-graph <spans.jsonl>\n"
      "  traceweaver reconstruct [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver evaluate [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver export-jaeger [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver explain [flags] <graph.txt> <spans.jsonl> "
      "<parent_span_id>\n"
      "  traceweaver serve [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver query [flags] <store-dir> [trace_id]\n"
      "  traceweaver provenance <store-dir> <trace_id>\n"
      "  traceweaver sort-spans <spans.jsonl>\n"
      "\n"
      "flags (serve):\n"
      "  --window-ms=N        tumbling-window width (default 2000)\n"
      "  --margin-ms=N        close margin past the window end (default "
      "500)\n"
      "  --deadline-ms=N      per-window close deadline driving the\n"
      "                       overload degradation ladder (0 = off)\n"
      "  --max-buffer-spans=N / --max-buffer-bytes=N\n"
      "                       span-buffer budget; breach sheds oldest\n"
      "                       windows as orphans (0 = unbounded)\n"
      "  --checkpoint-dir=D   seal the store, then write the CRC-guarded\n"
      "                       state files in D as one unit (all .tmp\n"
      "                       files, then the renames); D must be an\n"
      "                       existing writable directory\n"
      "  --checkpoint-every=N spans between snapshots (default 2000)\n"
      "  --resume             restore all of --checkpoint-dir's state\n"
      "                       files (exit 1 naming a missing or bad one)\n"
      "                       and continue at the saved source offset\n"
      "  --retries=N          source open/read retries with exponential\n"
      "                       backoff (default 5)\n"
      "  --final              emit only the final assignment union at\n"
      "                       EOF instead of per-window streaming lines\n"
      "  --store-dir=D        commit settled traces to the queryable\n"
      "                       store at D (implies --quality; segment\n"
      "                       files docs/OPERATIONS.md)\n"
      "  --store-segment-traces=N\n"
      "                       traces per sealed segment (default 256)\n"
      "  --cache-traces=N     hot-trace LRU capacity (default 128)\n"
      "  --http-port=P        serve the HTTP query API (docs/API.md) on\n"
      "                       127.0.0.1:P (0 = ephemeral, printed on\n"
      "                       stderr; requires --store-dir)\n"
      "  --http-threads=N     HTTP worker threads (default 4)\n"
      "  --linger             after EOF keep serving HTTP until SIGINT/\n"
      "                       SIGTERM\n"
      "  --no-provenance      disable the decision-provenance ledger\n"
      "                       (default on with --store-dir; committed\n"
      "                       traces then carry no provenance block)\n"
      "  --self-trace         commit one synthetic pipeline trace per\n"
      "                       window under the reserved root service\n"
      "                       _tw.pipeline (requires --store-dir)\n"
      "  --tail-sample=P      confidence-driven tail sampler (requires\n"
      "                       --store-dir): keep anomalous / low-grade /\n"
      "                       high-latency / shed-adjacent traces, keep\n"
      "                       confident boring ones with probability P,\n"
      "                       shed the rest before store commit\n"
      "                       (tw_sample_* counters, provenance\n"
      "                       sampled_out; state rides the checkpoint)\n"
      "\n"
      "flags (query):\n"
      "  --service=S          exact root-service match\n"
      "  --from=NS / --to=NS  time-range overlap filter (nanoseconds)\n"
      "  --grade=G            worst acceptable grade A..D (default D)\n"
      "  --min-confidence=X   minimum trace confidence\n"
      "  --limit=N            stop after N matches\n"
      "  --full               print full trace records instead of\n"
      "                       summaries\n"
      "\n"
      "flags (reconstruction commands):\n"
      "  --threads=N         worker threads (default: all hardware\n"
      "                      threads); output is identical for every N\n"
      "  --quality           compute the trace-quality report (confidence\n"
      "                      grades, tw_quality_* metrics; adds tw.* span\n"
      "                      tags to export-jaeger, calibration to\n"
      "                      evaluate)\n"
      "  --min-confidence=X  warn on stderr when the mean assignment\n"
      "                      confidence falls below X (implies --quality)\n"
      "  --json              explain only: emit the candidate table as\n"
      "                      JSON (schema traceweaver.explain.v1)\n"
      "  --ingest=MODE       span validation at load: lenient (default),\n"
      "                      strict, off (serve only counts spans and\n"
      "                      parse errors, whatever the mode)\n"
      "  --auto-slack        apply the validator's suggested\n"
      "                      constraint_slack_ns (observed clock skew)\n"
      "  --sampling-rate=R   known capture-sampling keep probability of\n"
      "                      the input stream (0 < R <= 1, default 1):\n"
      "                      missing children become expected absences\n"
      "                      (skip budget floor, re-derived skip/keep\n"
      "                      priors, softened orphan penalties)\n"
      "  --twin-window-ns=N  duplicate-twin adoption window: an unassigned\n"
      "                      span whose same-pool sibling was assigned\n"
      "                      within N ns joins that sibling's parent\n"
      "                      (retry/hedge duplicates; default 0 = off)\n"
      "  --skew-correct      estimate per-vantage clock offsets from\n"
      "                      cross-vantage gaps and rewrite timestamps\n"
      "                      into a common frame before reconstruction\n"
      "                      (serve: streaming, checkpointed)\n"
      "  --per-edge-slack    per-(caller, callee) feasibility slack from\n"
      "                      each pair's observed skew spread (implies\n"
      "                      --skew-correct; serve applies it always)\n"
      "  --report            print a run report (stage times, pipeline\n"
      "                      counters) to stderr after reconstruction\n"
      "  --report-json=FILE  write the run report as JSON to FILE\n"
      "  --metrics-out=FILE  write all metrics in Prometheus text format\n"
      "\n"
      "fault flags (simulate, inject-faults):\n"
      "  --drop=P --dup=P    per-record drop / duplication probability\n"
      "  --skew-ns=N         per-vantage clock skew stddev (ns)\n"
      "  --truncate-ns=N     timestamp truncation granularity (ns)\n"
      "  --garble=P          per-record field-garbling probability\n"
      "  --head-sample=P     per-trace keep probability (head sampling,\n"
      "                      whole-trace coherent; default 1.0 = off)\n"
      "  --span-sample=P     per-span keep probability (tail sampling,\n"
      "                      trace-splitting; default 1.0 = off)\n"
      "  --fault-seed=S      corruption RNG seed (default 17)\n");
  return 2;
}

/// Flags shared by the reconstruction commands.
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

  // --- serve (streaming online mode; the store options serve query too).
  /// The pipeline's own flags; CmdServe adds the weaver options.
  serve::ServePipelineOptions serve;
  bool resume = false;
  int retries = 5;
  bool final_only = false;  ///< Emit only the EOF assignment union.
  int http_port = -1;                 ///< < 0 = HTTP off; 0 = ephemeral.
  std::size_t http_threads = 4;
  bool linger = false;   ///< Keep serving HTTP after EOF until a signal.

  // --- query subcommand ---
  std::string q_service;              ///< query: --service=.
  long long q_from = std::numeric_limits<long long>::min();
  long long q_to = std::numeric_limits<long long>::max();
  char q_grade = 'D';
  std::size_t q_limit = 0;            ///< 0 = unlimited.
  bool q_full = false;                ///< query: full records.

  bool WantMetrics() const {
    return report || !report_json.empty() || !metrics_out.empty();
  }
};

/// Parses all of `arg` past `prefix` into `v` with std::from_chars: no
/// leading whitespace or '+', a '-' only for signed types, no trailing
/// bytes, nothing out of range.
template <typename V>
bool ParseWhole(const std::string& arg, std::size_t prefix, V& v) {
  const char* first = arg.data() + prefix;
  const char* last = arg.data() + arg.size();
  const auto [end, ec] = std::from_chars(first, last, v);
  return first != last && ec == std::errc{} && end == last;
}

/// Rejects the value of a numeric `--flag=value` argument: exit 2.
[[noreturn]] void BadNumber(const std::string& arg, std::size_t prefix,
                            const char* type) {
  std::fprintf(stderr, "%s: expected %s\n",
               arg.substr(0, prefix - 1).c_str(), type);
  std::exit(2);
}

/// The flag value as a non-negative T.
template <typename T>
T Unsigned(const std::string& arg, std::size_t prefix) {
  std::uint64_t v = 0;
  if (!ParseWhole(arg, prefix, v) ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    BadNumber(arg, prefix, "unsigned integer");
  }
  return static_cast<T>(v);
}

long long Signed(const std::string& arg, std::size_t prefix) {
  long long v = 0;
  if (!ParseWhole(arg, prefix, v)) BadNumber(arg, prefix, "integer");
  return v;
}

double Number(const std::string& arg, std::size_t prefix) {
  double v = 0.0;
  if (!ParseWhole(arg, prefix, v) || !std::isfinite(v)) {
    BadNumber(arg, prefix, "number");
  }
  return v;
}

/// Parses the positional argument `value` with a flag-value parser
/// (Unsigned<T>, Number) as if it were `--name=value`: a malformed value
/// exits 2 with "<name>: expected <type>".
template <typename Parse>
auto Positional(const char* name, const char* value, Parse parse) {
  const std::string arg = std::string(name) + '=' + value;
  return parse(arg, std::strlen(name) + 1);
}

/// Whether the `argc - 1` positionals left by ParseFlags number from
/// `min` to `max`. Names the first extra one on stderr: a flag after the
/// positionals would otherwise be dropped silently.
bool Arity(int argc, char** argv, int min, int max) {
  if (argc - 1 > max) {
    std::fprintf(stderr,
                 "unexpected argument '%s' (flags go before the positional "
                 "arguments)\n",
                 argv[max + 1]);
    return false;
  }
  return argc - 1 >= min;
}

/// Consumes leading flag arguments (any order), shifting argv. A malformed
/// numeric flag value exits 2.
CliFlags ParseFlags(int& argc, char**& argv) {
  CliFlags flags;
  while (argc > 1) {
    const std::string arg = argv[1];
    if (arg.rfind("--threads=", 0) == 0) {
      flags.threads = Unsigned<std::size_t>(arg, 10);
      if (flags.threads == 0) flags.threads = 1;
    } else if (arg == "--report") {
      flags.report = true;
    } else if (arg.rfind("--report-json=", 0) == 0) {
      flags.report_json = arg.substr(14);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      flags.metrics_out = arg.substr(14);
    } else if (arg == "--ingest=lenient") {
      flags.ingest = IngestMode::kLenient;
    } else if (arg == "--ingest=strict") {
      flags.ingest = IngestMode::kStrict;
    } else if (arg == "--ingest=off") {
      flags.ingest = IngestMode::kOff;
    } else if (arg == "--auto-slack") {
      flags.auto_slack = true;
    } else if (arg == "--skew-correct") {
      flags.skew_correct = true;
    } else if (arg == "--per-edge-slack") {
      // Slack derivation needs the estimator, so this implies correction.
      flags.per_edge_slack = true;
      flags.skew_correct = true;
    } else if (arg == "--quality") {
      flags.quality = true;
    } else if (arg.rfind("--min-confidence=", 0) == 0) {
      flags.min_confidence = Number(arg, 17);
      flags.quality = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg.rfind("--sampling-rate=", 0) == 0) {
      flags.sampling_rate = Number(arg, 16);
      if (flags.sampling_rate <= 0.0 || flags.sampling_rate > 1.0) {
        flags.sampling_rate = 1.0;
      }
    } else if (arg.rfind("--twin-window-ns=", 0) == 0) {
      flags.twin_window_ns = Unsigned<long long>(arg, 17);
    } else if (arg.rfind("--drop=", 0) == 0) {
      flags.faults.drop_rate = Number(arg, 7);
    } else if (arg.rfind("--dup=", 0) == 0) {
      flags.faults.duplicate_rate = Number(arg, 6);
    } else if (arg.rfind("--skew-ns=", 0) == 0) {
      flags.faults.skew_stddev_ns = Unsigned<DurationNs>(arg, 10);
    } else if (arg.rfind("--truncate-ns=", 0) == 0) {
      flags.faults.truncate_granularity_ns = Unsigned<DurationNs>(arg, 14);
    } else if (arg.rfind("--garble=", 0) == 0) {
      flags.faults.garble_rate = Number(arg, 9);
    } else if (arg.rfind("--head-sample=", 0) == 0) {
      flags.faults.head_sample_rate = Number(arg, 14);
    } else if (arg.rfind("--span-sample=", 0) == 0) {
      flags.faults.tail_sample_rate = Number(arg, 14);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      flags.faults.seed = Unsigned<std::uint64_t>(arg, 13);
    } else if (arg.rfind("--window-ms=", 0) == 0) {
      flags.serve.online.window = Millis(Unsigned<long long>(arg, 12));
    } else if (arg.rfind("--margin-ms=", 0) == 0) {
      flags.serve.online.margin = Millis(Unsigned<long long>(arg, 12));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      flags.serve.online.window_close_deadline =
          Millis(Unsigned<long long>(arg, 14));
    } else if (arg.rfind("--max-buffer-spans=", 0) == 0) {
      flags.serve.online.max_buffer_spans = Unsigned<std::size_t>(arg, 19);
    } else if (arg.rfind("--max-buffer-bytes=", 0) == 0) {
      flags.serve.online.max_buffer_bytes = Unsigned<std::size_t>(arg, 19);
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      flags.serve.checkpoint_dir = arg.substr(17);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      flags.serve.checkpoint_every = Unsigned<std::size_t>(arg, 19);
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (arg.rfind("--retries=", 0) == 0) {
      flags.retries = Unsigned<int>(arg, 10);
    } else if (arg == "--final") {
      flags.final_only = true;
    } else if (arg.rfind("--store-dir=", 0) == 0) {
      flags.serve.store_dir = arg.substr(12);
    } else if (arg.rfind("--store-segment-traces=", 0) == 0) {
      flags.serve.store.segment_traces =
          std::max<std::size_t>(1, Unsigned<std::size_t>(arg, 23));
    } else if (arg.rfind("--cache-traces=", 0) == 0) {
      flags.serve.store.cache_traces = Unsigned<std::size_t>(arg, 15);
    } else if (arg.rfind("--http-port=", 0) == 0) {
      flags.http_port = Unsigned<int>(arg, 12);
    } else if (arg.rfind("--http-threads=", 0) == 0) {
      flags.http_threads = Unsigned<std::size_t>(arg, 15);
      if (flags.http_threads == 0) flags.http_threads = 1;
    } else if (arg == "--linger") {
      flags.linger = true;
    } else if (arg == "--no-provenance") {
      flags.serve.provenance = false;
    } else if (arg == "--self-trace") {
      flags.serve.self_trace = true;
    } else if (arg.rfind("--tail-sample=", 0) == 0) {
      const double p = Number(arg, 14);
      flags.serve.tail_sample = p <= 1.0 ? p : -1.0;  // < 0: sampler off.
    } else if (arg.rfind("--service=", 0) == 0) {
      flags.q_service = arg.substr(10);
    } else if (arg.rfind("--from=", 0) == 0) {
      flags.q_from = Signed(arg, 7);
    } else if (arg.rfind("--to=", 0) == 0) {
      flags.q_to = Signed(arg, 5);
    } else if (arg.rfind("--grade=", 0) == 0 && arg.size() == 9) {
      flags.q_grade = static_cast<char>(
          std::toupper(static_cast<unsigned char>(arg[8])));
    } else if (arg.rfind("--limit=", 0) == 0) {
      flags.q_limit = Unsigned<std::size_t>(arg, 8);
    } else if (arg == "--full") {
      flags.q_full = true;
    } else {
      break;
    }
    --argc;
    ++argv;
    argv[0] = argv[-1];  // Keep argv[0] pointing at a program name.
  }
  return flags;
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

int CmdSimulate(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 3, 4)) return Usage();
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::OpenLoopOptions load;
  load.requests_per_sec = Positional("rps", argv[2], Number);
  load.duration = Seconds(Positional("seconds", argv[3], Number));
  load.seed = argc > 4 ? Positional("seed", argv[4], Unsigned<std::uint64_t>)
                       : 31;
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

int CmdInjectFaults(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 1, 1)) return Usage();
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

int CmdReplay(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 1, 2)) return Usage();
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::IsolatedReplayOptions options;
  if (argc > 2) {
    options.requests_per_root =
        Positional("requests_per_root", argv[2], Unsigned<std::size_t>);
  }
  const auto spans =
      Capture(sim::RunIsolatedReplay(*app, options).spans, flags);
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return 0;
}

int CmdInferGraph(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 1, 1)) return Usage();
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

int CmdReconstruct(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 2, 2)) return Usage();
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

int CmdExportJaeger(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 2, 2)) return Usage();
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

int CmdEvaluate(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 2, 2)) return Usage();
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

int CmdExplain(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 3, 3)) return Usage();
  const SpanId target =
      Positional("parent_span_id", argv[3], Unsigned<SpanId>);
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
int CmdSortSpans(int argc, char** argv) {
  ParseFlags(argc, argv);
  if (!Arity(argc, argv, 1, 1)) return Usage();
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

int CmdServe(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 2, 2)) return Usage();
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
  // Non-numeric values are rejected at parse, so this catches a zero.
  if (oopts.window <= 0 || oopts.margin < 0) {
    std::fprintf(stderr,
                 "serve: --window-ms must be > 0 and --margin-ms >= 0\n");
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
std::unique_ptr<store::TraceStore> OpenStore(const char* cmd, const char* dir,
                                             const CliFlags& flags) {
  auto tstore = std::make_unique<store::TraceStore>(dir, flags.serve.store);
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

/// The stored record the positional `id` names; null, reported on
/// stderr, when there is none.
std::shared_ptr<const TraceRecord> GetTrace(const char* cmd,
                                            const store::TraceStore& tstore,
                                            const char* id) {
  auto record = tstore.Get(Positional("trace_id", id, Unsigned<SpanId>));
  if (record == nullptr) {
    std::fprintf(stderr, "%s: trace %s not found\n", cmd, id);
  }
  return record;
}

/// query: offline access to a trace store (no server). Summaries by
/// default, one full record with an explicit id, --full to stream records.
int CmdQuery(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 1, 2)) return Usage();
  const auto opened = OpenStore("query", argv[1], flags);
  if (!opened) return 1;
  const store::TraceStore& tstore = *opened;
  if (argc > 2) {
    const auto record = GetTrace("query", tstore, argv[2]);
    if (record == nullptr) return 1;
    std::printf("%s\n", TraceRecordToJson(*record).c_str());
    return 0;
  }

  store::TraceQuery query;
  query.service = flags.q_service;
  query.from = static_cast<TimeNs>(flags.q_from);
  query.to = static_cast<TimeNs>(flags.q_to);
  query.max_grade =
      flags.q_grade >= 'A' && flags.q_grade <= 'D' ? flags.q_grade : 'D';
  query.min_confidence = std::max(0.0, flags.min_confidence);
  query.limit = flags.q_limit;

  std::size_t matched = 0;
  if (flags.q_full) {
    matched = tstore.Query(
        query, [](const store::TraceSummary&,
                  const std::shared_ptr<const TraceRecord>& record) {
          if (record != nullptr) {
            std::printf("%s\n", TraceRecordToJson(*record).c_str());
          }
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
int CmdProvenance(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (!Arity(argc, argv, 2, 2)) return Usage();
  const auto opened = OpenStore("provenance", argv[1], flags);
  if (!opened) return 1;
  const auto record = GetTrace("provenance", *opened, argv[2]);
  if (record == nullptr) return 1;
  std::printf("%s\n", serve::ProvenanceJson(*record).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "simulate") return CmdSimulate(argc - 1, argv + 1);
  if (cmd == "inject-faults") return CmdInjectFaults(argc - 1, argv + 1);
  if (cmd == "replay") return CmdReplay(argc - 1, argv + 1);
  if (cmd == "infer-graph") return CmdInferGraph(argc - 1, argv + 1);
  if (cmd == "reconstruct") return CmdReconstruct(argc - 1, argv + 1);
  if (cmd == "evaluate") return CmdEvaluate(argc - 1, argv + 1);
  if (cmd == "export-jaeger") return CmdExportJaeger(argc - 1, argv + 1);
  if (cmd == "explain") return CmdExplain(argc - 1, argv + 1);
  if (cmd == "serve") return CmdServe(argc - 1, argv + 1);
  if (cmd == "query") return CmdQuery(argc - 1, argv + 1);
  if (cmd == "provenance") return CmdProvenance(argc - 1, argv + 1);
  if (cmd == "sort-spans") return CmdSortSpans(argc - 1, argv + 1);
  return Usage();
}
