// Span assembly from network events (§5.1.2).
//
// ExplodeSpans turns a simulated span population into the four network
// events per RPC a capture layer would log, assigning RPCs to HTTP/1.1-
// style connections (at most one outstanding request per connection, with
// per-container-pair connection pooling). CaptureFaults optionally injects
// clock jitter, event drops, and delivery reordering.
//
// AssembleSpans inverts the process: it pairs requests with responses per
// (connection, vantage) in FIFO order, zips the caller-side and callee-side
// halves of each connection, and emits reconstructed spans. This is the
// ingestion path every experiment runs through, so capture imperfections
// propagate into reconstruction exactly as they would in production.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "collector/net_event.h"
#include "core/skew_estimator.h"
#include "trace/span.h"
#include "trace/span_validator.h"
#include "util/rng.h"

namespace traceweaver::collector {

struct CaptureFaults {
  /// Gaussian clock jitter applied independently to each event timestamp.
  DurationNs jitter_stddev = 0;
  /// Probability an individual event is lost.
  double drop_probability = 0.0;
  /// Constant per-vantage clock offset, drawn once per (service, replica)
  /// capture point from N(0, stddev). This is the capture-regime skew
  /// model: each vantage's clock is internally consistent but disagrees
  /// with every other vantage by a fixed amount, which is exactly what
  /// the skew estimator corrects (DESIGN.md §4i).
  DurationNs vantage_skew_stddev = 0;
  std::uint64_t seed = 99;
};

/// Explodes spans into a time-sorted network event stream.
std::vector<NetEvent> ExplodeSpans(const std::vector<Span>& spans,
                                   const CaptureFaults& faults = {});

/// Assigns each span to an HTTP/1.1-style connection (one outstanding
/// request per connection, per-container-pair pooling). Shared by the
/// event-level and wire-level capture paths.
std::map<SpanId, std::uint64_t> AssignSpanConnections(
    const std::vector<Span>& spans);

struct AssemblyStats {
  std::size_t spans_assembled = 0;
  /// Requests with no matching response (dropped events, in-flight at
  /// capture end).
  std::size_t unmatched_requests = 0;
  std::size_t unmatched_responses = 0;
  /// Connections whose caller-side and callee-side halves disagreed in
  /// length (possible under event loss).
  std::size_t misaligned_connections = 0;
  /// Responses delivered (by timestamp) before their own request and
  /// matched through the bounded reorder buffer.
  std::size_t reordered_responses = 0;
  /// Spans whose timestamps were shifted by skew correction.
  std::size_t skew_corrected_spans = 0;
};

/// Skew correction of the span-assembly step (off by default, which keeps
/// in-order, skew-free input bit-identical).
struct AssemblyOptions {
  /// Estimate per-vantage clock offsets from this batch's cross-vantage
  /// gaps and shift every half-span into a common frame *before* the
  /// caller/callee alignment and timestamp sanitization (DESIGN.md §4i),
  /// so downstream candidate pruning sees skew-corrected gaps.
  bool skew_correct = false;
  /// Estimator accumulating the skew evidence (and carrying the learned
  /// offsets out to per-edge slack derivation). Optional: when null and
  /// skew_correct is set, a batch-local estimator is used. Not owned.
  SkewEstimator* estimator = nullptr;
};

/// Reassembles spans from an event stream (any order; sorted internally).
/// Timestamps are sanitized so client_send <= server_recv <= server_send <=
/// client_recv even under jitter. When a `validator` is supplied, every
/// assembled span is additionally run through it (the wire-capture ingest
/// path of the span validation layer); quarantined spans are excluded.
std::vector<Span> AssembleSpans(std::vector<NetEvent> events,
                                AssemblyStats* stats = nullptr,
                                SpanValidator* validator = nullptr,
                                const AssemblyOptions& options = {});

/// Convenience: spans -> events -> spans, the full ingestion round trip.
std::vector<Span> CaptureRoundTrip(const std::vector<Span>& spans,
                                   const CaptureFaults& faults = {},
                                   AssemblyStats* stats = nullptr,
                                   SpanValidator* validator = nullptr,
                                   const AssemblyOptions& options = {});

}  // namespace traceweaver::collector
