// traceweaver — command-line driver for the span-ingestion workflow (§5.3
// offline mode).
//
//   traceweaver simulate <app> <rps> <seconds> [seed]   spans JSONL -> stdout
//   traceweaver replay <app> [requests_per_root]        isolated-replay spans
//   traceweaver inject-faults [flags] <spans.jsonl>     corrupted JSONL
//   traceweaver infer-graph <spans.jsonl>               call graph -> stdout
//   traceweaver reconstruct <graph.txt> <spans.jsonl>   assignment JSONL
//   traceweaver evaluate <graph.txt> <spans.jsonl>      accuracy vs ground
//                                                       truth in the file
//   traceweaver export-jaeger <graph.txt> <spans.jsonl> Jaeger UI JSON
//   traceweaver explain <graph.txt> <spans.jsonl> <id>  candidate table for
//                                                       one parent span
//   traceweaver serve <graph.txt> <spans.jsonl>         streaming online
//                                                       mode (§5.3) with
//                                                       bounded memory,
//                                                       overload ladder and
//                                                       checkpoint/restore;
//                                                       --store-dir commits
//                                                       settled traces to a
//                                                       queryable store and
//                                                       --http-port serves
//                                                       the query API
//                                                       (docs/API.md)
//   traceweaver query <store-dir> [trace_id]            query a trace store
//                                                       offline: summaries
//                                                       (filters below), a
//                                                       full record by id,
//                                                       or --full records
//   traceweaver sort-spans <spans.jsonl>                completion-ordered
//                                                       JSONL -> stdout (a
//                                                       live collector's
//                                                       arrival order; feed
//                                                       this to serve)
//
// The reconstruction commands accept --threads=N (default: all hardware
// threads); reconstruction output is bit-identical for every N. Every
// span-loading command runs the ingestion validator (span_validator.h):
//   --ingest=MODE         lenient (default: repair and keep), strict
//                         (quarantine anything inconsistent), off
//   --auto-slack          apply the validator's suggested
//                         constraint_slack_ns (derived from observed
//                         capture-clock skew) to reconstruction
//   --skew-correct        estimate per-vantage clock offsets
//                         (core/skew_estimator.h) and rewrite all
//                         timestamps into one frame before running
//   --per-edge-slack      per-edge feasibility slack from the observed
//                         skew spread (implies --skew-correct)
// They also accept observability flags (docs/METRICS.md):
//   --report              print a run report (stage times, pipeline
//                         counters) to stderr after reconstruction
//   --report-json=FILE    write the run report as JSON to FILE
//   --metrics-out=FILE    write all metrics in Prometheus text format
//
// `simulate` and `inject-faults` take fault-injection flags
// (sim/fault_injector.h): --drop=P --dup=P --skew-ns=N --truncate-ns=N
// --garble=P --fault-seed=S.
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
#include "serve/query_service.h"
#include "serve/self_trace.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "store/committer.h"
#include "store/store.h"
#include "trace/checkpoint.h"
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
      "  --checkpoint-dir=D   write CRC-guarded checkpoints to\n"
      "                       D/checkpoint.jsonl (tmp+rename atomic);\n"
      "                       D must be an existing writable directory\n"
      "  --checkpoint-every=N spans between snapshots (default 2000)\n"
      "  --resume             restore from --checkpoint-dir and continue\n"
      "                       at the saved source offset\n"
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
      "                      strict, off\n"
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

  // --- serve (streaming online mode) ---
  long long window_ms = 2000;
  long long margin_ms = 500;
  long long deadline_ms = 0;          ///< 0 = degradation ladder off.
  std::size_t max_buffer_spans = 0;   ///< 0 = unbounded.
  std::size_t max_buffer_bytes = 0;   ///< 0 = unbounded.
  std::string checkpoint_dir;         ///< "" = checkpointing off.
  std::size_t checkpoint_every = 2000;
  bool resume = false;
  int retries = 5;
  bool final_only = false;  ///< Emit only the EOF assignment union.

  // --- trace store + HTTP query API (serve), query subcommand ---
  std::string store_dir;              ///< "" = store off.
  std::size_t store_segment_traces = 256;
  std::size_t cache_traces = 128;
  int http_port = -1;                 ///< < 0 = HTTP off; 0 = ephemeral.
  std::size_t http_threads = 4;
  bool linger = false;   ///< Keep serving HTTP after EOF until a signal.
  bool no_provenance = false;  ///< serve: decision ledger off.
  bool self_trace = false;     ///< serve: per-window pipeline self traces.
  double tail_sample = -1.0;   ///< serve: boring-trace keep rate (< 0 = off).
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
      flags.window_ms = Unsigned<long long>(arg, 12);
    } else if (arg.rfind("--margin-ms=", 0) == 0) {
      flags.margin_ms = Unsigned<long long>(arg, 12);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      flags.deadline_ms = Unsigned<long long>(arg, 14);
    } else if (arg.rfind("--max-buffer-spans=", 0) == 0) {
      flags.max_buffer_spans = Unsigned<std::size_t>(arg, 19);
    } else if (arg.rfind("--max-buffer-bytes=", 0) == 0) {
      flags.max_buffer_bytes = Unsigned<std::size_t>(arg, 19);
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      flags.checkpoint_dir = arg.substr(17);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      flags.checkpoint_every = Unsigned<std::size_t>(arg, 19);
      if (flags.checkpoint_every == 0) flags.checkpoint_every = 1;
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (arg.rfind("--retries=", 0) == 0) {
      flags.retries = Unsigned<int>(arg, 10);
    } else if (arg == "--final") {
      flags.final_only = true;
    } else if (arg.rfind("--store-dir=", 0) == 0) {
      flags.store_dir = arg.substr(12);
    } else if (arg.rfind("--store-segment-traces=", 0) == 0) {
      flags.store_segment_traces = Unsigned<std::size_t>(arg, 23);
      if (flags.store_segment_traces == 0) flags.store_segment_traces = 1;
    } else if (arg.rfind("--cache-traces=", 0) == 0) {
      flags.cache_traces = Unsigned<std::size_t>(arg, 15);
    } else if (arg.rfind("--http-port=", 0) == 0) {
      flags.http_port = Unsigned<int>(arg, 12);
    } else if (arg.rfind("--http-threads=", 0) == 0) {
      flags.http_threads = Unsigned<std::size_t>(arg, 15);
      if (flags.http_threads == 0) flags.http_threads = 1;
    } else if (arg == "--linger") {
      flags.linger = true;
    } else if (arg == "--no-provenance") {
      flags.no_provenance = true;
    } else if (arg == "--self-trace") {
      flags.self_trace = true;
    } else if (arg.rfind("--tail-sample=", 0) == 0) {
      flags.tail_sample = Number(arg, 14);
      if (flags.tail_sample < 0.0 || flags.tail_sample > 1.0) {
        flags.tail_sample = -1.0;  // Out of range: sampler stays off.
      }
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
  if (argc < 4) return Usage();
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::OpenLoopOptions load;
  load.requests_per_sec = Positional("rps", argv[2], Number);
  load.duration = Seconds(Positional("seconds", argv[3], Number));
  load.seed = argc > 4 ? Positional("seed", argv[4], Unsigned<std::uint64_t>)
                       : 31;
  if (load.requests_per_sec <= 0 || load.duration <= 0) return Usage();

  // Simulator-output ingest path: the validator rides along with span
  // assembly (a no-op on a healthy capture, reported on stderr otherwise).
  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  SpanValidator validator(vopts);
  auto spans = collector::CaptureRoundTrip(sim::RunOpenLoop(*app, load).spans,
                                           {}, nullptr, &validator);
  WarnIngest(validator.Finish());

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
  if (argc < 2) return Usage();
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", argv[1]);
    return 1;
  }
  // Deliberately no validation here: the point is to produce a corrupted
  // stream for downstream robustness runs.
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed span lines dropped\n",
                 dropped);
  }
  sim::FaultStats fstats;
  spans = sim::InjectFaults(std::move(spans), flags.faults, &fstats);
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
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
  if (argc < 2) return Usage();
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::IsolatedReplayOptions options;
  if (argc > 2) {
    options.requests_per_root =
        Positional("requests_per_root", argv[2], Unsigned<std::size_t>);
  }
  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  SpanValidator validator(vopts);
  const auto spans =
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(*app, options).spans,
                                  {}, nullptr, &validator);
  WarnIngest(validator.Finish());
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return 0;
}

int CmdInferGraph(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (argc < 2) return Usage();
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
  if (argc < 3) return Usage();
  const auto batch = RunBatch(flags, argv[1], argv[2]);
  if (!batch) return 1;
  const auto& [spans, out] = *batch;
  std::size_t mapped = 0;
  for (const Span& s : spans) {
    auto it = out.assignment.find(s.id);
    const SpanId parent =
        it == out.assignment.end() ? kInvalidSpanId : it->second;
    std::printf("{\"span\":%llu,\"parent\":%llu}\n",
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(parent));
    if (parent != kInvalidSpanId) ++mapped;
  }
  std::fprintf(stderr, "%zu of %zu spans mapped to a parent\n", mapped,
               spans.size());
  return 0;
}

int CmdExportJaeger(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (argc < 3) return Usage();
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
  if (argc < 3) return Usage();
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
  if (argc < 4) return Usage();
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
  const CliFlags flags = ParseFlags(argc, argv);
  (void)flags;
  if (argc < 2) return Usage();
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", argv[1]);
    return 1;
  }
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed span lines dropped\n",
                 dropped);
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.client_recv != b.client_recv ? a.client_recv < b.client_recv
                                          : a.id < b.id;
  });
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
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

/// Restores one state file for --resume: runs `load(in, &err)` on
/// `path`. A rejected file is reported on stderr as
/// `serve: <what> rejected (<reason>)<then>` and the component starts
/// fresh. Returns nullopt when there is no file, else whether it loaded.
template <typename Load>
std::optional<bool> ResumeState(const std::string& path, const char* what,
                                const char* then, Load&& load) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string err;
  if (load(in, &err)) return true;
  std::fprintf(stderr, "serve: %s rejected (%s)%s\n", what, err.c_str(),
               then);
  return false;
}

/// SIGINT/SIGTERM latch for the serve loop: first signal requests a
/// graceful checkpoint-and-exit (and ends --linger).
std::atomic<bool> g_stop{false};
void HandleStopSignal(int) { g_stop.store(true); }

void EmitWindowResults(const std::vector<WindowResult>& results) {
  for (const WindowResult& r : results) {
    std::printf(
        "{\"window_start\":%lld,\"window_end\":%lld,\"committed\":%zu,"
        "\"shed\":%s,\"level\":%d,\"grafted\":%zu,\"orphans\":%zu}\n",
        static_cast<long long>(r.window_start),
        static_cast<long long>(r.window_end), r.parents_committed,
        r.shed ? "true" : "false", r.degradation_level, r.late_grafted,
        r.orphans.size());
    std::vector<std::pair<SpanId, SpanId>> rows(r.assignment.begin(),
                                                r.assignment.end());
    std::sort(rows.begin(), rows.end());
    for (const auto& [child, parent] : rows) {
      std::printf("{\"span\":%llu,\"parent\":%llu}\n",
                  static_cast<unsigned long long>(child),
                  static_cast<unsigned long long>(parent));
    }
    for (SpanId id : r.orphans) {
      std::printf("{\"span\":%llu,\"parent\":%llu}\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(kInvalidSpanId));
    }
  }
}

int CmdServe(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (argc < 3) return Usage();
  const bool store_enabled = !flags.store_dir.empty();
  const bool http_enabled = flags.http_port >= 0;
  if (http_enabled && !store_enabled) {
    std::fprintf(stderr, "serve: --http-port requires --store-dir\n");
    return 2;
  }
  obs::MetricsRegistry registry;
  // The store/HTTP layers always record into the registry (the /metrics
  // endpoint scrapes it); file/report outputs still need the flags.
  obs::MetricsRegistry* reg =
      flags.WantMetrics() || store_enabled ? &registry : nullptr;
  if (flags.self_trace && !store_enabled) {
    std::fprintf(stderr, "serve: --self-trace requires --store-dir\n");
    return 2;
  }
  if (flags.tail_sample >= 0.0 && !store_enabled) {
    std::fprintf(stderr, "serve: --tail-sample requires --store-dir\n");
    return 2;
  }
  // Non-numeric values parse as 0, so this also rejects --window-ms=abc.
  if (flags.window_ms <= 0 || flags.margin_ms < 0) {
    std::fprintf(stderr,
                 "serve: --window-ms must be > 0 and --margin-ms >= 0\n");
    return 2;
  }
  // Every checkpoint writes into this directory; failing then would skip
  // every checkpoint of the run.
  if (!flags.checkpoint_dir.empty() &&
      (!std::filesystem::is_directory(flags.checkpoint_dir) ||
       ::access(flags.checkpoint_dir.c_str(), W_OK) != 0)) {
    std::fprintf(stderr,
                 "serve: --checkpoint-dir %s is not a writable directory\n",
                 flags.checkpoint_dir.c_str());
    return 2;
  }
  auto graph = LoadGraph(argv[1]);
  if (!graph) return 1;
  const std::string source = argv[2];

  // Decision provenance (obs/provenance.h): on by default whenever
  // commits happen, since only committed records can carry the ledger.
  std::unique_ptr<obs::ProvenanceLedger> ledger;
  if (store_enabled && !flags.no_provenance) {
    ledger = std::make_unique<obs::ProvenanceLedger>(
        obs::ProvenanceLedgerOptions{}, reg);
  }

  OnlineOptions oopts;
  oopts.window = Millis(flags.window_ms);
  oopts.margin = Millis(flags.margin_ms);
  oopts.window_close_deadline = Millis(flags.deadline_ms);
  oopts.max_buffer_spans = flags.max_buffer_spans;
  oopts.max_buffer_bytes = flags.max_buffer_bytes;
  oopts.weaver = WeaverOptions(flags, &registry);
  oopts.weaver.metrics = reg;
  // The store indexes A-D grades and calibrated confidence, so committing
  // turns the quality layer on; without a store it stays a paid opt-in.
  oopts.weaver.compute_quality = flags.quality || store_enabled;
  // serve's --skew-correct runs the streaming estimator: every ingested
  // span is observed raw, corrected into the global frame, and the
  // per-edge slack map refreshes at each window close.
  oopts.skew_correct = flags.skew_correct;
  oopts.metrics = reg;
  oopts.provenance = ledger.get();
  OnlineTraceWeaver weaver(*graph, oopts);
  obs::OnlineMetrics ometrics;
  if (reg != nullptr) ometrics = obs::OnlineMetrics(*reg);

  std::unique_ptr<store::TraceStore> tstore;
  std::unique_ptr<store::TraceCommitter> committer;
  std::unique_ptr<store::TailSampler> sampler;
  if (store_enabled) {
    store::StoreOptions sopts;
    sopts.segment_traces = flags.store_segment_traces;
    sopts.cache_traces = flags.cache_traces;
    sopts.metrics = reg;
    tstore = std::make_unique<store::TraceStore>(flags.store_dir, sopts);
    std::string err;
    const auto ostats = tstore->Open(&err);
    if (!ostats) {
      std::fprintf(stderr, "serve: cannot open store %s: %s\n",
                   flags.store_dir.c_str(), err.c_str());
      return 1;
    }
    if (ostats->segments_rejected > 0) {
      std::fprintf(stderr, "serve: store skipped %zu damaged segment(s)\n",
                   ostats->segments_rejected);
    }
    std::fprintf(stderr, "serve: store %s: %zu traces in %zu segments\n",
                 flags.store_dir.c_str(), ostats->traces_loaded,
                 ostats->segments_loaded);
    store::CommitterOptions copts;
    copts.window = oopts.window;
    copts.margin = oopts.margin;
    copts.provenance = ledger.get();
    if (flags.tail_sample >= 0.0) {
      store::TailSamplerOptions topts;
      topts.keep_rate = flags.tail_sample;
      topts.window = oopts.window;
      sampler = std::make_unique<store::TailSampler>(topts, reg);
      copts.sampler = sampler.get();
    }
    committer =
        std::make_unique<store::TraceCommitter>(copts, tstore.get());
  }
  std::unique_ptr<serve::SelfTracer> self_tracer;
  if (flags.self_trace) {
    self_tracer = std::make_unique<serve::SelfTracer>(tstore.get());
  }

  std::uint64_t offset = 0;
  const std::string& ckpt_dir = flags.checkpoint_dir;
  if (flags.resume && !ckpt_dir.empty()) {
    const std::string path = ckpt_dir + "/checkpoint.jsonl";
    std::map<std::string, std::uint64_t> extra;
    const auto resumed = ResumeState(
        path, "checkpoint", ", starting fresh",
        [&](std::istream& in, std::string* err) {
          return weaver.LoadCheckpoint(in, err, &extra);
        });
    if (!resumed) {
      std::fprintf(stderr, "serve: no checkpoint at %s, starting fresh\n",
                   path.c_str());
    } else if (*resumed) {
      const auto it = extra.find("source_offset");
      offset = it != extra.end() ? it->second : 0;
      ometrics.restores.Inc();
      std::fprintf(stderr, "serve: resumed from %s at source offset %llu\n",
                   path.c_str(), static_cast<unsigned long long>(offset));
    }
    const std::string cpath = ckpt_dir + "/committer.jsonl";
    if (committer != nullptr &&
        ResumeState(cpath, "committer state",
                    "; settling traces will be recovered from replay",
                    [&](std::istream& in, std::string* err) {
                      return committer->LoadState(in, err);
                    }).value_or(false)) {
      std::fprintf(stderr, "serve: restored %zu pending spans from %s\n",
                   committer->pending_spans(), cpath.c_str());
    }
    const std::string spath = ckpt_dir + "/sampler.jsonl";
    if (sampler != nullptr &&
        ResumeState(spath, "sampler state",
                    "; decisions restart from a fresh horizon",
                    [&](std::istream& in, std::string* err) {
                      return sampler->LoadState(in, err);
                    }).value_or(false)) {
      std::fprintf(stderr,
                   "serve: restored tail sampler state from %s "
                   "(%zu considered, %zu shed)\n",
                   spath.c_str(), sampler->considered(), sampler->shed());
    }
  }

  std::unique_ptr<serve::QueryService> query_service;
  std::unique_ptr<serve::HttpServer> http;
  if (http_enabled) {
    serve::QueryServiceOptions qopts;
    qopts.explain_weaver = oopts.weaver;
    query_service = std::make_unique<serve::QueryService>(
        tstore.get(), &*graph, &registry, qopts);
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
    std::string err;
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

  // Seal-before-checkpoint: everything the checkpoint's source offset
  // considers consumed must be durable (sealed segments + pending
  // committer state) before the offset moves, or a crash right after the
  // checkpoint would lose traces the resume will never replay.
  const auto checkpoint_impl = [&]() {
    if (ckpt_dir.empty()) return;
    // Window results printed so far must be out of the stdio buffer before
    // the saved offset passes them: a resumed run starts after it and never
    // prints them again.
    if (std::fflush(stdout) != 0) {
      std::fprintf(stderr, "serve: stdout flush failed\n");
      return;
    }
    if (tstore != nullptr) {
      std::string serr;
      if (!tstore->Seal(&serr)) {
        std::fprintf(stderr, "serve: store seal failed: %s\n", serr.c_str());
        return;  // Keep the previous checkpoint; never outrun durability.
      }
      if (committer != nullptr &&
          !WriteFileAtomic(ckpt_dir + "/committer.jsonl",
                           [&](std::ostream& o) { committer->SaveState(o); })) {
        std::fprintf(stderr, "serve: committer state write failed\n");
        return;
      }
      if (sampler != nullptr &&
          !WriteFileAtomic(ckpt_dir + "/sampler.jsonl",
                           [&](std::ostream& o) { sampler->SaveState(o); })) {
        std::fprintf(stderr, "serve: sampler state write failed\n");
        return;
      }
    }
    if (WriteFileAtomic(ckpt_dir + "/checkpoint.jsonl",
                        [&](std::ostream& o) {
                          weaver.SaveCheckpoint(o, {{"source_offset", offset}});
                        })) {
      ometrics.checkpoints.Inc();
    } else {
      std::fprintf(stderr, "serve: checkpoint write to %s failed\n",
                   ckpt_dir.c_str());
    }
  };
  const auto checkpoint = [&]() {
    const auto begin = std::chrono::steady_clock::now();
    checkpoint_impl();
    if (self_tracer != nullptr) {
      self_tracer->Record(
          serve::SelfStage::kSeal,
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - begin)
              .count());
    }
  };

  std::ifstream in = OpenWithRetry(source, flags.retries, offset);
  if (!in) {
    std::fprintf(stderr, "serve: giving up on %s\n", source.c_str());
    if (http != nullptr) http->Stop();
    return 1;
  }

  std::string line;
  std::uint64_t parse_errors = 0;
  std::size_t since_checkpoint = 0;
  TimeNs watermark = weaver.high_watermark();
  using SteadyClock = std::chrono::steady_clock;
  const auto wall_ns = [](SteadyClock::time_point a, SteadyClock::time_point b) {
    return static_cast<DurationNs>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  // Running total of tw_stage_wall_ns_total{stage="enumerate"} at the
  // last window batch, so the self trace can attribute the enumerate
  // share of each close from the stage-timer delta.
  std::int64_t enum_wall_seen = 0;
  // Splits one Advance()/Flush() call into self-trace stage buckets:
  // windowing = the call minus its window closes; the enumerate share of
  // a close comes from the stage-timer delta, graft from the results,
  // and the remainder is the solve share (score + assignment + commit
  // bookkeeping inside the weaver).
  const auto record_advance = [&](DurationNs advance_wall,
                                  const std::vector<WindowResult>& results) {
    DurationNs close = 0;
    DurationNs graft = 0;
    for (const WindowResult& r : results) {
      close += r.close_wall_ns;
      graft += r.graft_wall_ns;
    }
    DurationNs enumerate = 0;
    if (!results.empty() && reg != nullptr) {
      const std::int64_t seen = registry.Snapshot().Value(
          "tw_stage_wall_ns_total", "stage=\"enumerate\"");
      enumerate = std::max<std::int64_t>(0, seen - enum_wall_seen);
      enum_wall_seen = seen;
    }
    enumerate = std::min(enumerate, std::max<DurationNs>(0, close - graft));
    self_tracer->Record(serve::SelfStage::kWindow,
                        std::max<DurationNs>(0, advance_wall - close));
    self_tracer->Record(serve::SelfStage::kEnumerate, enumerate);
    self_tracer->Record(serve::SelfStage::kSolve,
                        std::max<DurationNs>(0, close - graft - enumerate));
    self_tracer->Record(serve::SelfStage::kGraft, graft);
  };
  while (!g_stop.load()) {
    const auto t_read = self_tracer != nullptr ? SteadyClock::now()
                                               : SteadyClock::time_point{};
    if (!std::getline(in, line)) {
      if (in.eof()) break;
      // Transient read failure: reopen at the last consumed offset.
      in = OpenWithRetry(source, flags.retries, offset);
      if (!in) break;
      continue;
    }
    const std::streamoff pos = in.tellg();
    if (pos >= 0) {
      offset = static_cast<std::uint64_t>(pos);
    } else {
      offset += line.size() + 1;
    }
    if (line.empty()) continue;
    const auto span = SpanFromJson(line);
    if (!span) {
      ++parse_errors;
      continue;
    }
    const auto t_parsed = self_tracer != nullptr ? SteadyClock::now()
                                                 : SteadyClock::time_point{};
    weaver.Ingest(*span);
    if (committer != nullptr) committer->OnSpan(*span);
    if (self_tracer != nullptr) {
      self_tracer->Record(serve::SelfStage::kIngest,
                          wall_ns(t_read, t_parsed));
      self_tracer->Record(serve::SelfStage::kValidate,
                          wall_ns(t_parsed, SteadyClock::now()));
    }
    // client_send drives the watermark: a conservative lower bound
    // (client_send <= client_recv) on completion-ordered streams, so
    // windows never close while their candidates are still in flight.
    // The running max keeps Advance()'s regression counter reserved for
    // genuine source regressions.
    watermark = std::max(watermark, span->client_send);
    const auto t_advance = self_tracer != nullptr ? SteadyClock::now()
                                                  : SteadyClock::time_point{};
    const auto results = weaver.Advance(watermark);
    if (self_tracer != nullptr) {
      record_advance(wall_ns(t_advance, SteadyClock::now()), results);
    }
    const auto t_commit = self_tracer != nullptr ? SteadyClock::now()
                                                 : SteadyClock::time_point{};
    if (committer != nullptr) committer->OnResults(results);
    if (self_tracer != nullptr) {
      self_tracer->Record(serve::SelfStage::kCommit,
                          wall_ns(t_commit, SteadyClock::now()));
    }
    if (!flags.final_only) EmitWindowResults(results);
    if (!ckpt_dir.empty() &&
        ++since_checkpoint >= flags.checkpoint_every) {
      since_checkpoint = 0;
      checkpoint();
    }
    if (self_tracer != nullptr) {
      // One self trace per closed window; a multi-window batch drains the
      // accumulated stage buckets into its first window.
      for (const WindowResult& r : results) {
        self_tracer->CommitWindow(r.window_start);
      }
    }
  }

  const bool interrupted = g_stop.load();
  if (interrupted) {
    // Graceful stop mid-stream: checkpoint (seal + committer state +
    // weaver + offset) and exit without flushing, so a --resume run
    // continues exactly where this one stopped -- flushing here would
    // commit still-settling traces as premature fragments.
    std::fprintf(stderr, "serve: interrupted, checkpointing and exiting\n");
    checkpoint();
  } else {
    const auto t_flush = self_tracer != nullptr ? SteadyClock::now()
                                                : SteadyClock::time_point{};
    const auto tail = weaver.Flush();
    if (self_tracer != nullptr) {
      record_advance(wall_ns(t_flush, SteadyClock::now()), tail);
    }
    const auto t_commit = self_tracer != nullptr ? SteadyClock::now()
                                                 : SteadyClock::time_point{};
    if (committer != nullptr) {
      committer->OnResults(tail);
      committer->Finalize();
    }
    if (self_tracer != nullptr) {
      self_tracer->Record(serve::SelfStage::kCommit,
                          wall_ns(t_commit, SteadyClock::now()));
      // Before the final seal, so the self traces land durably too.
      for (const WindowResult& r : tail) {
        self_tracer->CommitWindow(r.window_start);
      }
    }
    if (!flags.final_only) EmitWindowResults(tail);
    if (tstore != nullptr) {
      std::string serr;
      if (!tstore->Seal(&serr)) {
        std::fprintf(stderr, "serve: store seal failed: %s\n", serr.c_str());
      }
    }
    checkpoint();
    if (flags.final_only) {
      std::vector<std::pair<SpanId, SpanId>> rows(weaver.assignment().begin(),
                                                  weaver.assignment().end());
      std::sort(rows.begin(), rows.end());
      for (const auto& [child, parent] : rows) {
        std::printf("{\"span\":%llu,\"parent\":%llu}\n",
                    static_cast<unsigned long long>(child),
                    static_cast<unsigned long long>(parent));
      }
    }
  }
  EmitObservability(flags, registry);

  const OnlineTraceWeaver::Stats& st = weaver.stats();
  std::fprintf(
      stderr,
      "serve: %llu ingested (%llu parse errors), %llu windows closed, "
      "%llu parents committed; shed %llu windows / %llu spans, %llu "
      "admission drops; late %llu (%llu grafted, %llu orphaned, %llu "
      "dropped); %llu watermark regressions, %llu deadline misses, "
      "ladder %llu up / %llu down (level %d)\n",
      static_cast<unsigned long long>(st.ingested),
      static_cast<unsigned long long>(parse_errors),
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
      weaver.degradation_level());
  if (tstore != nullptr) {
    std::fprintf(
        stderr,
        "serve: store holds %zu traces (%zu sealed segments, %zu active"
        "%s)\n",
        tstore->size(), tstore->sealed_segments(), tstore->active_traces(),
        committer != nullptr && committer->pending_spans() > 0
            ? ", settling spans pending"
            : "");
  }
  if (sampler != nullptr) {
    std::fprintf(stderr,
                 "serve: tail sampler considered %zu traces: kept %zu "
                 "(%zu interesting, %zu by coin), shed %zu\n",
                 sampler->considered(), sampler->kept(),
                 sampler->kept_interesting(), sampler->kept_random(),
                 sampler->shed());
  }
  if (ledger != nullptr) {
    std::fprintf(stderr,
                 "serve: provenance ledger recorded %llu events (%llu "
                 "dropped, %zu spans still pending)\n",
                 static_cast<unsigned long long>(ledger->recorded()),
                 static_cast<unsigned long long>(ledger->dropped()),
                 ledger->pending_spans());
  }
  if (self_tracer != nullptr) {
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

/// query: offline access to a trace store (no server). Summaries by
/// default, one full record with an explicit id, --full to stream records.
int CmdQuery(int argc, char** argv) {
  const CliFlags flags = ParseFlags(argc, argv);
  if (argc < 2) return Usage();
  store::StoreOptions sopts;
  sopts.cache_traces = flags.cache_traces;
  store::TraceStore tstore(argv[1], sopts);
  std::string err;
  const auto ostats = tstore.Open(&err);
  if (!ostats) {
    std::fprintf(stderr, "query: cannot open store %s: %s\n", argv[1],
                 err.c_str());
    return 1;
  }
  if (ostats->segments_rejected > 0) {
    std::fprintf(stderr, "query: skipped %zu damaged segment(s)\n",
                 ostats->segments_rejected);
  }

  if (argc > 2) {
    const SpanId id = Positional("trace_id", argv[2], Unsigned<SpanId>);
    const auto record = tstore.Get(id);
    if (record == nullptr) {
      std::fprintf(stderr, "query: trace %s not found\n", argv[2]);
      return 1;
    }
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
  if (argc < 3) return Usage();
  store::StoreOptions sopts;
  sopts.cache_traces = flags.cache_traces;
  store::TraceStore tstore(argv[1], sopts);
  std::string err;
  const auto ostats = tstore.Open(&err);
  if (!ostats) {
    std::fprintf(stderr, "provenance: cannot open store %s: %s\n", argv[1],
                 err.c_str());
    return 1;
  }
  const SpanId id = Positional("trace_id", argv[2], Unsigned<SpanId>);
  const auto record = tstore.Get(id);
  if (record == nullptr) {
    std::fprintf(stderr, "provenance: trace %s not found\n", argv[2]);
    return 1;
  }
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
