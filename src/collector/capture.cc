#include "collector/capture.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <tuple>

namespace traceweaver::collector {
namespace {

/// Key for a connection pool: one pool per (caller container, callee
/// container) pair.
using PoolKey = std::tuple<std::string, int, std::string, int>;

struct Connection {
  std::uint64_t id = 0;
  TimeNs busy_until = 0;  ///< Last response time on this connection.
};

}  // namespace

std::map<SpanId, std::uint64_t> AssignSpanConnections(
    const std::vector<Span>& spans) {
  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& s : spans) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const Span* a, const Span* b) {
              return SpanClientSendOrder{}(*a, *b);
            });

  std::map<PoolKey, std::vector<Connection>> pools;
  std::map<SpanId, std::uint64_t> assignment;
  std::uint64_t next_conn = 1;
  for (const Span* s : ordered) {
    PoolKey key{s->caller, s->caller_replica, s->callee, s->callee_replica};
    auto& pool = pools[key];
    Connection* chosen = nullptr;
    for (Connection& c : pool) {
      if (c.busy_until <= s->client_send) {
        chosen = &c;
        break;
      }
    }
    if (chosen == nullptr) {
      pool.push_back(Connection{next_conn++, 0});
      chosen = &pool.back();
    }
    chosen->busy_until = s->client_recv;
    assignment[s->id] = chosen->id;
  }
  return assignment;
}

namespace {

/// How far (ns) a same-stream response may precede its request before
/// the reorder buffer gives up on it (delivery reordering within the
/// jitter/skew window); older pending responses count as unmatched.
constexpr DurationNs kReorderWindow = Micros(500);
/// Pending reordered responses held per (connection, vantage) stream.
constexpr std::size_t kReorderCapacity = 8;
/// Nesting-alignment slack between the caller and callee windows of one
/// RPC (tolerates cross-vantage skew during the half-span zip).
constexpr DurationNs kAlignSlack = Micros(500);
/// Skew-evidence pairing window: a caller half and a callee half count as
/// the same RPC for the estimator only when their request timestamps
/// agree within this bound. Must exceed any plausible skew + jitter and
/// stay below per-connection RPC spacing; the two-pointer walk advances
/// the earlier side otherwise, so it re-synchronizes right after an event
/// loss instead of mis-pairing every later RPC on the connection.
constexpr DurationNs kSkewMatchWindow = Millis(1);

NetEvent MakeEvent(const Span& s, std::uint64_t conn, EventKind kind,
                   Vantage vantage, TimeNs ts) {
  NetEvent e;
  e.connection_id = conn;
  e.kind = kind;
  e.vantage = vantage;
  e.timestamp = ts;
  e.src_service = s.caller;
  e.src_replica = s.caller_replica;
  e.dst_service = s.callee;
  e.dst_replica = s.callee_replica;
  e.endpoint = s.endpoint;
  e.thread = (vantage == Vantage::kCallerSide) ? s.caller_thread
                                               : s.handler_thread;
  e.truth_span = s.id;
  e.truth_parent = s.true_parent;
  e.truth_trace = s.true_trace;
  return e;
}

}  // namespace

std::vector<NetEvent> ExplodeSpans(const std::vector<Span>& spans,
                                   const CaptureFaults& faults) {
  const auto assignment = AssignSpanConnections(spans);
  Rng rng(faults.seed);

  // Constant clock offset per capture vantage, drawn on first encounter
  // (deterministic for a given span population and seed).
  std::map<VantageKey, DurationNs> vantage_offsets;
  const auto vantage_skew = [&](const NetEvent& ev) -> DurationNs {
    if (faults.vantage_skew_stddev <= 0) return 0;
    const VantageKey key = ev.vantage == Vantage::kCallerSide
                               ? VantageKey{ev.src_service, ev.src_replica}
                               : VantageKey{ev.dst_service, ev.dst_replica};
    const auto [it, inserted] = vantage_offsets.emplace(key, 0);
    if (inserted) {
      it->second = static_cast<DurationNs>(rng.Normal(
          0.0, static_cast<double>(faults.vantage_skew_stddev)));
    }
    return it->second;
  };

  std::vector<NetEvent> events;
  std::vector<TimeNs> true_ts;  // Pre-jitter timestamps, parallel to events.
  events.reserve(spans.size() * 4);
  true_ts.reserve(spans.size() * 4);
  for (const Span& s : spans) {
    const std::uint64_t conn = assignment.at(s.id);
    const NetEvent all[4] = {
        MakeEvent(s, conn, EventKind::kRequest, Vantage::kCallerSide,
                  s.client_send),
        MakeEvent(s, conn, EventKind::kRequest, Vantage::kCalleeSide,
                  s.server_recv),
        MakeEvent(s, conn, EventKind::kResponse, Vantage::kCalleeSide,
                  s.server_send),
        MakeEvent(s, conn, EventKind::kResponse, Vantage::kCallerSide,
                  s.client_recv),
    };
    for (NetEvent e : all) {
      if (faults.drop_probability > 0.0 &&
          rng.Bernoulli(faults.drop_probability)) {
        continue;
      }
      true_ts.push_back(e.timestamp);
      if (faults.jitter_stddev > 0) {
        e.timestamp += static_cast<DurationNs>(
            rng.Normal(0.0, static_cast<double>(faults.jitter_stddev)));
      }
      // A constant per-vantage shift keeps each stream's order intact, so
      // the monotonicity clamp below is indifferent to it.
      e.timestamp += vantage_skew(e);
      events.push_back(std::move(e));
    }
  }

  if (faults.jitter_stddev > 0) {
    // A capture point's local clock is monotonic: jitter skews timestamps
    // but never reorders events observed at the same vantage on the same
    // connection. Enforce per-(connection, vantage) monotonicity by
    // clamping along each stream in true (pre-jitter) emission order.
    std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> streams;
    for (std::size_t i = 0; i < events.size(); ++i) {
      streams[{events[i].connection_id,
               static_cast<int>(events[i].vantage)}]
          .push_back(i);
    }
    for (auto& [key, indices] : streams) {
      std::sort(indices.begin(), indices.end(),
                [&true_ts](std::size_t a, std::size_t b) {
                  return true_ts[a] < true_ts[b];
                });
      TimeNs floor_ts = std::numeric_limits<TimeNs>::min();
      for (std::size_t i : indices) {
        // Strictly increasing: equal timestamps would leave request vs
        // response ordering within the stream to sort tie-breaking.
        events[i].timestamp =
            std::max(events[i].timestamp,
                     floor_ts == std::numeric_limits<TimeNs>::min()
                         ? floor_ts
                         : floor_ts + 1);
        floor_ts = events[i].timestamp;
      }
    }
  }
  std::sort(events.begin(), events.end(), NetEventOrder{});
  return events;
}

std::vector<Span> AssembleSpans(std::vector<NetEvent> events,
                                AssemblyStats* stats,
                                SpanValidator* validator,
                                const AssemblyOptions& options) {
  std::sort(events.begin(), events.end(), NetEventOrder{});

  // Per (connection, vantage): FIFO pairing of requests and responses.
  struct HalfSpan {
    TimeNs request_ts = 0;
    TimeNs response_ts = 0;
    const NetEvent* request = nullptr;
  };
  struct VantageState {
    std::vector<HalfSpan> halves;
    // At most one outstanding request per connection and vantage
    // (HTTP/1.1 keep-alive semantics enforced by the connection pooler).
    const NetEvent* open = nullptr;
    // Responses delivered (by timestamp) with no request outstanding.
    // Historically these were written off as unmatched immediately, which
    // mis-paired the stream whenever delivery reordering inverted a
    // request/response pair by a few microseconds: the orphaned response
    // was dropped AND its request later closed against the *next* RPC's
    // response. Holding them briefly lets the true request claim them.
    std::deque<const NetEvent*> pending;
    // Reorder claims are sound only when the stream's request/response
    // counts balance: an early response then *must* be an inversion. With
    // unequal counts (event loss) the same local signature is an orphaned
    // response, and claiming it would shift every later pairing by one.
    bool claims_enabled = false;
  };
  struct ConnState {
    VantageState caller;
    VantageState callee;
    VantageKey src;  ///< Caller-side capture vantage (service, replica).
    VantageKey dst;  ///< Callee-side capture vantage.
    bool has_meta = false;
    bool corrected = false;  ///< Any half shifted by skew correction.
  };
  std::map<std::uint64_t, ConnState> conns;

  // Per-stream request/response parity, gating the reorder claims below.
  std::map<std::pair<std::uint64_t, int>, long long> parity;
  for (const NetEvent& e : events) {
    parity[{e.connection_id, static_cast<int>(e.vantage)}] +=
        e.kind == EventKind::kRequest ? 1 : -1;
  }

  AssemblyStats local;
  for (const NetEvent& e : events) {
    ConnState& st = conns[e.connection_id];
    if (!st.has_meta) {
      st.src = {e.src_service, e.src_replica};
      st.dst = {e.dst_service, e.dst_replica};
      st.has_meta = true;
      st.caller.claims_enabled =
          parity[{e.connection_id,
                  static_cast<int>(Vantage::kCallerSide)}] == 0;
      st.callee.claims_enabled =
          parity[{e.connection_id,
                  static_cast<int>(Vantage::kCalleeSide)}] == 0;
    }
    VantageState& side =
        (e.vantage == Vantage::kCallerSide) ? st.caller : st.callee;
    if (e.kind == EventKind::kRequest) {
      if (side.open != nullptr) {
        // A new request while another is outstanding means the previous
        // response event was lost: close the stale request as unmatched
        // instead of letting every later pairing shift by one.
        ++local.unmatched_requests;
        side.open = nullptr;
      }
      // Pending responses too old to belong to this request were real
      // orphans (their request event was dropped).
      while (!side.pending.empty() &&
             side.pending.front()->timestamp + kReorderWindow <
                 e.timestamp) {
        side.pending.pop_front();
        ++local.unmatched_responses;
      }
      if (!side.pending.empty() && side.claims_enabled) {
        // A response the stream delivered just before its own request
        // (timestamps inverted within the reorder window): pair them.
        const NetEvent* resp = side.pending.front();
        side.pending.pop_front();
        // The pair is only ever inverted because jitter flipped two close
        // timestamps; restore the physical order (request before response)
        // instead of emitting a negative-duration half.
        side.halves.push_back(
            HalfSpan{std::min(e.timestamp, resp->timestamp),
                     std::max(e.timestamp, resp->timestamp), &e});
        ++local.reordered_responses;
      } else {
        side.open = &e;
      }
    } else {
      if (side.open == nullptr) {
        side.pending.push_back(&e);
        if (side.pending.size() > kReorderCapacity) {
          side.pending.pop_front();
          ++local.unmatched_responses;
        }
        continue;
      }
      side.halves.push_back(
          HalfSpan{side.open->timestamp, e.timestamp, side.open});
      side.open = nullptr;
    }
  }
  for (auto& [conn_id, st] : conns) {
    local.unmatched_requests += (st.caller.open != nullptr ? 1u : 0u) +
                                (st.callee.open != nullptr ? 1u : 0u);
    local.unmatched_responses +=
        st.caller.pending.size() + st.callee.pending.size();
  }

  if (options.skew_correct) {
    // Estimate per-vantage clock offsets from this batch's cross-vantage
    // gaps, then shift every half-span into the common frame *before* the
    // nesting alignment and timestamp sanitization below -- both compare
    // timestamps across vantages and silently corrupt intra-vantage gaps
    // when the frames disagree (the capture-regime accuracy collapse).
    SkewEstimator batch_local;
    SkewEstimator& est =
        options.estimator != nullptr ? *options.estimator : batch_local;
    for (const auto& [conn_id, st] : conns) {
      // Pair the two sides by request-timestamp proximity, not by index:
      // a naive zip mis-pairs every RPC after an event loss, and the wild
      // cross-RPC gaps (off by whole inter-request times) hijack the
      // quantile floors far beyond what their outlier skip absorbs. The
      // two-pointer walk below advances the earlier side whenever the
      // request stamps disagree by more than the match window, so one
      // lost half skips exactly one observation and the streams re-sync.
      std::size_t i = 0, j = 0;
      while (i < st.caller.halves.size() && j < st.callee.halves.size()) {
        const HalfSpan& a = st.caller.halves[i];
        const HalfSpan& b = st.callee.halves[j];
        const std::int64_t dreq = b.request_ts - a.request_ts;
        if (dreq > kSkewMatchWindow) {
          ++i;  // Caller half too old: its callee events were lost.
          continue;
        }
        if (dreq < -kSkewMatchWindow) {
          ++j;  // Callee half too old: its caller events were lost.
          continue;
        }
        est.ObserveGaps(st.src, st.dst, dreq,
                        a.response_ts - b.response_ts);
        ++i;
        ++j;
      }
    }
    for (auto& [conn_id, st] : conns) {
      const std::int64_t src_off = est.FrameOffsetNs(st.src);
      const std::int64_t dst_off = est.FrameOffsetNs(st.dst);
      st.corrected = src_off != 0 || dst_off != 0;
      if (src_off != 0) {
        for (HalfSpan& h : st.caller.halves) {
          h.request_ts -= src_off;
          h.response_ts -= src_off;
        }
      }
      if (dst_off != 0) {
        for (HalfSpan& h : st.callee.halves) {
          h.request_ts -= dst_off;
          h.response_ts -= dst_off;
        }
      }
    }
  }

  std::vector<Span> out;
  for (auto& [conn_id, st] : conns) {
    if (st.caller.halves.size() != st.callee.halves.size()) {
      ++local.misaligned_connections;
    }
    // Align the two vantage points' half-spans by nesting, not by index:
    // a callee half belongs to the caller half whose window contains it.
    // Event loss then drops individual spans instead of shifting every
    // later pair on the connection.
    std::vector<std::pair<const HalfSpan*, const HalfSpan*>> pairs;
    {
      // A connection serializes its RPCs, so a caller half and a callee
      // half belong to the same RPC exactly when their windows overlap
      // (callee nested in caller, modulo vantage clock skew).
      std::size_t i = 0, j = 0;
      while (i < st.caller.halves.size() && j < st.callee.halves.size()) {
        const HalfSpan& caller = st.caller.halves[i];
        const HalfSpan& callee = st.callee.halves[j];
        if (callee.response_ts < caller.request_ts - kAlignSlack) {
          // Callee window lies entirely before the caller window: the
          // matching caller record was lost.
          ++j;
          continue;
        }
        if (callee.request_ts > caller.response_ts + kAlignSlack) {
          // Callee window entirely after: this caller's callee events were
          // lost.
          ++i;
          continue;
        }
        pairs.emplace_back(&caller, &callee);
        ++i;
        ++j;
      }
    }
    for (const auto& [caller_half, callee_half] : pairs) {
      const HalfSpan& caller = *caller_half;
      const HalfSpan& callee = *callee_half;
      const NetEvent* req = caller.request;
      const NetEvent* srv_req = callee.request;

      Span s;
      s.id = req->truth_span;
      s.caller = req->src_service;
      s.caller_replica = req->src_replica;
      s.callee = req->dst_service;
      s.callee_replica = req->dst_replica;
      s.endpoint = req->endpoint;
      s.true_parent = req->truth_parent;
      s.true_trace = req->truth_trace;
      s.caller_thread = req->thread;
      s.handler_thread = srv_req->thread;

      // Sanitize ordering under jitter: each timestamp is clamped to be no
      // earlier than its predecessor.
      s.client_send = caller.request_ts;
      s.server_recv = std::max(callee.request_ts, s.client_send);
      s.server_send = std::max(callee.response_ts, s.server_recv);
      s.client_recv = std::max(caller.response_ts, s.server_send);
      out.push_back(std::move(s));
      ++local.spans_assembled;
      if (st.corrected) ++local.skew_corrected_spans;
    }
  }
  if (stats != nullptr) *stats = local;
  if (validator != nullptr) out = validator->Sanitize(std::move(out));
  return out;
}

std::vector<Span> CaptureRoundTrip(const std::vector<Span>& spans,
                                   const CaptureFaults& faults,
                                   AssemblyStats* stats,
                                   SpanValidator* validator,
                                   const AssemblyOptions& options) {
  return AssembleSpans(ExplodeSpans(spans, faults), stats, validator,
                       options);
}

}  // namespace traceweaver::collector
