#include "core/online.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "trace/checkpoint.h"
#include "trace/jsonl_io.h"
#include "util/json.h"

namespace traceweaver {
namespace {

/// Approximate heap footprint of one buffered span, for the byte budget.
std::size_t ApproxSpanBytes(const Span& s) {
  return sizeof(Span) + s.caller.size() + s.callee.size() +
         s.endpoint.size();
}

/// Wraps a serialized span line with checkpoint type tags: inserts
/// `"ckpt":"<tag>"[,extra]` right after the opening brace so the span
/// parser still sees its own keys at top level.
std::string WrapSpanLine(const char* tag, const Span& span,
                         const std::string& extra_fields) {
  std::string span_json = SpanToJson(span, /*include_ground_truth=*/true);
  std::string out = "{\"ckpt\":\"";
  out += tag;
  out += '"';
  if (!extra_fields.empty()) {
    out += ',';
    out += extra_fields;
  }
  out += ',';
  out += span_json.substr(1);  // Drop the original '{'.
  return out;
}

/// Graft-reject deadline of an id from a legacy `commit` record, whose
/// server_recv the record does not carry: it is never forgotten.
constexpr TimeNs kNoDeadline = std::numeric_limits<TimeNs>::max();

}  // namespace

OnlineTraceWeaver::OnlineTraceWeaver(CallGraph graph, OnlineOptions options)
    : graph_(std::move(graph)), options_(options),
      prov_(options.provenance) {
  if (options_.metrics != nullptr) {
    metrics_ = obs::OnlineMetrics(*options_.metrics);
  }
}

OnlineTraceWeaver::~OnlineTraceWeaver() = default;
OnlineTraceWeaver::OnlineTraceWeaver(OnlineTraceWeaver&&) noexcept = default;
OnlineTraceWeaver& OnlineTraceWeaver::operator=(OnlineTraceWeaver&&) noexcept =
    default;

void OnlineTraceWeaver::Ingest(const Span& span) {
  if (options_.skew_correct) {
    // Observe before correcting: the estimator must see raw cross-vantage
    // gaps, and the ordering replays identically from a checkpoint.
    skew_estimator_.ObserveSpan(span);
    Span corrected = span;
    if (skew_estimator_.CorrectSpan(corrected) && prov_) {
      // The applied correction is the callee vantage's frame offset (the
      // caller side moved by its own frame's); both are stream-derived,
      // so a checkpoint replay re-records the identical event.
      prov_.Record(obs::ProvEventType::kSkewCorrect, span.id,
                   skew_estimator_.FrameOffsetNs(
                       {span.callee, span.callee_replica}),
                   span.callee + '@' +
                       std::to_string(span.callee_replica));
    }
    IngestCorrected(corrected);
    return;
  }
  IngestCorrected(span);
}

void OnlineTraceWeaver::IngestCorrected(const Span& span) {
  ++stats_.ingested;
  metrics_.spans_ingested.Inc();
  if (!started_) {
    // First span anchors the window grid.
    next_window_start_ = span.client_send;
    started_ = true;
  }
  if (span.server_recv < next_window_start_) {
    if (stats_.windows_closed == 0 && stats_.windows_shed == 0) {
      // Nothing committed yet: slide the grid anchor back instead of
      // misrouting early arrivals (completion-ordered streams deliver
      // the first request's fast leaves before its root).
      next_window_start_ = std::min(next_window_start_, span.client_send);
    } else {
      // Its committing window already closed (or was shed): a child's
      // server_recv is never earlier than its parent's, so the parent
      // can no longer be committed normally -- route to the graft path.
      HandleLate(span);
      return;
    }
  }
  buffer_bytes_ += ApproxSpanBytes(span);
  buffer_.push_back(span);
  EnforceBudget();
  UpdateBufferGauges();
}

bool OnlineTraceWeaver::OverBudget() const {
  return (options_.max_buffer_spans > 0 &&
          buffer_.size() > options_.max_buffer_spans) ||
         (options_.max_buffer_bytes > 0 &&
          buffer_bytes_ > options_.max_buffer_bytes);
}

void OnlineTraceWeaver::EnforceBudget() {
  while (OverBudget()) {
    TimeNs max_recv = std::numeric_limits<TimeNs>::min();
    for (const Span& s : buffer_) max_recv = std::max(max_recv, s.server_recv);
    if (max_recv >= next_window_start_ + options_.window) {
      ShedOldestWindow();
      continue;
    }
    // The backlog fits a single window and is still over budget: reject
    // the newest arrival instead of corrupting the window mid-fill.
    buffer_bytes_ -= ApproxSpanBytes(buffer_.back());
    pending_orphans_.push_back(buffer_.back().id);
    prov_.Record(obs::ProvEventType::kAdmissionDrop, buffer_.back().id);
    buffer_.pop_back();
    ++stats_.admission_drops;
    metrics_.admission_drops.Inc();
    break;
  }
}

void OnlineTraceWeaver::ShedOldestWindow() {
  const TimeNs shed_end = next_window_start_ + options_.window;
  WindowResult shed;
  shed.window_start = next_window_start_;
  shed.window_end = shed_end;
  shed.shed = true;
  shed.degradation_level = level_;

  // Shed the whole time-prefix up to the boundary: the oldest unclosed
  // window plus any dead tails of already-closed windows. Children are
  // never earlier than their parents, so surviving windows keep complete
  // candidate sets.
  std::vector<Span> remaining;
  remaining.reserve(buffer_.size());
  for (Span& s : buffer_) {
    if (s.server_recv < shed_end) {
      buffer_bytes_ -= ApproxSpanBytes(s);
      shed.orphans.push_back(s.id);
    } else {
      remaining.push_back(std::move(s));
    }
  }
  buffer_ = std::move(remaining);
  std::sort(shed.orphans.begin(), shed.orphans.end());
  for (const SpanId id : shed.orphans) {
    prov_.Record(obs::ProvEventType::kWindowShed, id, shed.window_start);
  }
  next_window_start_ = shed_end;

  stats_.windows_shed += 1;
  stats_.spans_shed += shed.orphans.size();
  metrics_.windows_shed.Inc();
  metrics_.spans_shed.Inc(shed.orphans.size());
  pending_results_.push_back(std::move(shed));
}

void OnlineTraceWeaver::HandleLate(const Span& span) {
  ++stats_.late_spans;
  metrics_.late_spans.Inc();
  // Retention counts from the span's own window (the one its server_recv
  // fell in), not from its arrival, so grafts and expiries stay within
  // the store committer's settle horizon (DESIGN.md §4f). Unsigned
  // (modular) arithmetic, so no input timestamp can overflow it.
  const auto w = static_cast<std::uint64_t>(options_.window);
  const auto first_open = static_cast<std::uint64_t>(next_window_start_);
  const std::uint64_t retention = kGraftRetentionWindows;
  const std::uint64_t behind =
      (first_open - static_cast<std::uint64_t>(span.server_recv) - 1) / w + 1;
  LateSpan late{span, GraftDeadline(next_window_start_, span.server_recv)};
  if (behind >= retention) {
    ExpireLate(late, pending_orphans_);
    return;
  }
  if (late_pool_.size() >= kMaxLateSpans && !late_pool_.empty()) {
    // Bounded pool: the oldest entry makes room and becomes an orphan.
    pending_orphans_.push_back(late_pool_.front().span.id);
    prov_.Record(obs::ProvEventType::kLateDrop, late_pool_.front().span.id);
    late_pool_.erase(late_pool_.begin());
    ++stats_.late_dropped;
    metrics_.late_dropped.Inc();
  }
  late_pool_.push_back(std::move(late));
}

TimeNs OnlineTraceWeaver::GraftDeadline(TimeNs anchor,
                                        TimeNs server_recv) const {
  // Unsigned (modular) arithmetic, as in HandleLate, so no input
  // timestamp can overflow it.
  const auto w = static_cast<std::uint64_t>(options_.window);
  const auto a = static_cast<std::uint64_t>(anchor);
  const auto t = static_cast<std::uint64_t>(server_recv);
  const std::uint64_t own = server_recv < anchor
                                ? a - ((a - t - 1) / w + 1) * w
                                : a + (t - a) / w * w;
  return static_cast<TimeNs>(own + kGraftRetentionWindows * w);
}

void OnlineTraceWeaver::RejectGrafts(SpanId id, TimeNs until) {
  const auto [it, inserted] = graft_rejects_.try_emplace(id, until);
  if (!inserted) it->second = std::max(it->second, until);
}

long long OnlineTraceWeaver::GraftSlack(const std::string& caller,
                                        const std::string& callee) const {
  if (options_.skew_correct) {
    // Query the estimator directly instead of the map cached at the last
    // window close: the current estimator state is exactly what a
    // checkpoint restores, so grafting stays bit-identical across a kill
    // between two closes.
    const auto slacks = skew_estimator_.EdgeSlacks();
    const auto it = slacks.find({caller, callee});
    if (it != slacks.end()) return it->second;
    return options_.weaver.optimizer.params.constraint_slack_ns;
  }
  return options_.weaver.optimizer.params.SlackFor(caller, callee);
}

SpanId OnlineTraceWeaver::TryGraft(const Span& span) {
  const long long slack = GraftSlack(span.caller, span.callee);
  int best = -1;
  TimeNs best_gap = 0;
  for (std::size_t i = 0; i < graft_slots_.size(); ++i) {
    const GraftSlot& s = graft_slots_[i];
    if (s.call_service != span.callee || s.call_endpoint != span.endpoint) {
      continue;
    }
    if (s.parent_service != span.caller) continue;
    if (s.callee_replica != span.caller_replica) continue;
    if (span.client_send + slack < s.server_recv) continue;
    if (span.client_recv > s.server_send + slack) continue;
    const TimeNs gap = span.client_send - s.server_recv;
    const bool better =
        best < 0 || gap < best_gap ||
        (gap == best_gap &&
         std::tie(s.parent, s.stage, s.call) <
             std::tie(graft_slots_[static_cast<std::size_t>(best)].parent,
                      graft_slots_[static_cast<std::size_t>(best)].stage,
                      graft_slots_[static_cast<std::size_t>(best)].call));
    if (better) {
      best = static_cast<int>(i);
      best_gap = gap;
    }
  }
  if (best < 0) return kInvalidSpanId;
  const SpanId parent = graft_slots_[static_cast<std::size_t>(best)].parent;
  graft_slots_.erase(graft_slots_.begin() + best);
  return parent;
}

void OnlineTraceWeaver::ExpireLate(const LateSpan& late,
                                   std::vector<SpanId>& orphans) {
  orphans.push_back(late.span.id);
  prov_.Record(obs::ProvEventType::kLateExpire, late.span.id, late.deadline);
  ++stats_.late_orphans;
  metrics_.late_orphans.Inc();
}

bool OnlineTraceWeaver::GraftLate(const LateSpan& late, WindowResult& result) {
  const SpanId id = late.span.id;
  if (graft_rejects_.count(id) > 0) {
    // Already committed. This copy stays in the pool until its own
    // deadline, so the id must be refused at least that long (a skew-
    // corrected copy may fall in a later window than the original).
    RejectGrafts(id, late.deadline);
    return false;
  }
  const SpanId parent = TryGraft(late.span);
  if (parent == kInvalidSpanId) return false;
  committed_[id] = parent;
  RejectGrafts(id, late.deadline);
  result.assignment[id] = parent;
  prov_.Record(obs::ProvEventType::kLateGraft, id,
               static_cast<std::int64_t>(parent));
  ++result.late_grafted;
  ++stats_.late_grafted;
  metrics_.late_grafted.Inc();
  return true;
}

void OnlineTraceWeaver::ServiceLatePool(WindowResult& result) {
  std::vector<LateSpan> keep;
  keep.reserve(late_pool_.size());
  for (LateSpan& late : late_pool_) {
    if (next_window_start_ >= late.deadline) {
      ExpireLate(late, result.orphans);
    } else if (!GraftLate(late, result)) {
      keep.push_back(std::move(late));
    }
  }
  late_pool_ = std::move(keep);

  // Forget committed ids whose late copies are expired from this close on
  // (after the retries above, which may have extended some deadlines).
  std::erase_if(graft_rejects_, [&](const auto& entry) {
    return next_window_start_ >= entry.second;
  });

  // Prune graft slots too old for any in-flight child to still match.
  const TimeNs cutoff =
      next_window_start_ - kGraftRetentionWindows * options_.window;
  graft_slots_.erase(
      std::remove_if(graft_slots_.begin(), graft_slots_.end(),
                     [&](const GraftSlot& s) {
                       return s.server_send + options_.margin < cutoff;
                     }),
      graft_slots_.end());
}

TraceWeaver& OnlineTraceWeaver::WeaverForLevel() {
  if (weaver_cache_ == nullptr || weaver_cache_level_ != level_) {
    TraceWeaverOptions opts = options_.weaver;
    opts.optimizer.params = opts.optimizer.params.DegradedForOverload(level_);
    if (level_ >= 3) {
      // The ladder's GMM rung also caps EM work inside each refit.
      opts.optimizer.gmm.em_iterations =
          std::min<std::size_t>(opts.optimizer.gmm.em_iterations, 10);
    }
    weaver_cache_ = std::make_unique<TraceWeaver>(graph_, opts);
    weaver_cache_level_ = level_;
  }
  return *weaver_cache_;
}

void OnlineTraceWeaver::UpdateBufferGauges() {
  metrics_.buffer_spans.Set(static_cast<std::int64_t>(buffer_.size()));
  metrics_.buffer_bytes.Set(static_cast<std::int64_t>(buffer_bytes_));
}

WindowResult OnlineTraceWeaver::CloseWindow(TimeNs window_start,
                                            TimeNs window_end) {
  const auto t0 = std::chrono::steady_clock::now();
  WindowResult result;
  result.window_start = window_start;
  result.window_end = window_end;
  result.degradation_level = level_;
  result.orphans = std::move(pending_orphans_);
  pending_orphans_.clear();

  if (options_.skew_correct) {
    // Refresh the per-edge slack map from the estimator's current spread;
    // the cached weaver is rebuilt only when the map actually changes.
    auto slacks = skew_estimator_.EdgeSlacks();
    if (slacks != options_.weaver.optimizer.params.edge_slack_ns) {
      options_.weaver.optimizer.params.edge_slack_ns = std::move(slacks);
      weaver_cache_.reset();
    }
  }

  if (!buffer_.empty()) {
    // Reconstruct over the full buffer (children of closing parents may
    // have been buffered in earlier windows' tails), then commit only the
    // parents whose processing window lies within the closed window.
    TraceWeaverOutput out = WeaverForLevel().Reconstruct(buffer_, &models_);
    for (ContainerResult& c : out.containers) {
      if (!c.parents.empty()) models_[c.instance] = std::move(c.model);
    }
    if (options_.weaver.compute_quality) {
      result.trace_quality = out.quality.traces;
    }

    std::map<SpanId, const Span*> by_id;
    for (const Span& s : buffer_) by_id[s.id] = &s;

    std::unordered_set<SpanId> closing;
    for (const Span& s : buffer_) {
      if (s.server_recv >= window_start && s.server_recv < window_end &&
          s.client_recv <= window_end + options_.margin) {
        closing.insert(s.id);
      }
    }

    std::unordered_set<SpanId> consumed;
    for (const ContainerResult& c : out.containers) {
      // Twin adoptions ride their parent's commit: when the parent closes
      // in this window, the adopted duplicate is committed and consumed
      // with the regularly-assigned children.
      std::unordered_map<SpanId, std::vector<SpanId>> adopted_of;
      for (const auto& [child, parent] : c.adopted) {
        adopted_of[parent].push_back(child);
      }
      for (const ParentResult& p : c.parents) {
        if (closing.count(p.parent) == 0 || !p.Mapped()) continue;
        ++result.parents_committed;
        if (level_ > 0) {
          prov_.Record(obs::ProvEventType::kDegradedSolve, p.parent, level_);
        }
        const CandidateMapping& m =
            p.ranked[static_cast<std::size_t>(p.chosen)];
        const auto commit = [&](SpanId child) {
          result.assignment[child] = p.parent;
          committed_[child] = p.parent;
          RejectGrafts(child, GraftDeadline(window_start,
                                            by_id.at(child)->server_recv));
          consumed.insert(child);
        };
        for (SpanId child : m.children) {
          if (child != kSkippedChild) commit(child);
        }
        if (const auto ait = adopted_of.find(p.parent);
            ait != adopted_of.end()) {
          for (SpanId child : ait->second) commit(child);
        }
        const Span* parent_span = by_id.at(p.parent);
        const InvocationPlan* plan =
            graph_.PlanFor({parent_span->callee, parent_span->endpoint});
        if (plan == nullptr) continue;
        // Skipped positions stay open for late-span grafting.
        const auto positions = plan->Positions();
        const std::size_t n =
            std::min(m.children.size(), positions.size());
        for (std::size_t i = 0; i < n; ++i) {
          if (m.children[i] != kSkippedChild) continue;
          const BackendCall& call = plan->At(positions[i]);
          GraftSlot slot;
          slot.parent = p.parent;
          slot.parent_service = parent_span->callee;
          slot.parent_endpoint = parent_span->endpoint;
          slot.server_recv = parent_span->server_recv;
          slot.server_send = parent_span->server_send;
          slot.callee_replica = parent_span->callee_replica;
          slot.stage = static_cast<int>(positions[i].stage);
          slot.call = static_cast<int>(positions[i].call);
          slot.call_service = call.service;
          slot.call_endpoint = call.endpoint;
          graft_slots_.push_back(std::move(slot));
        }
      }
    }

    // Drop consumed children and fully-expired closing parents from the
    // buffer; keep spans that may still serve later windows.
    std::vector<Span> remaining;
    remaining.reserve(buffer_.size());
    for (Span& s : buffer_) {
      const bool expired =
          closing.count(s.id) > 0 || consumed.count(s.id) > 0 ||
          s.client_recv + options_.margin < window_start;
      if (expired) {
        buffer_bytes_ -= ApproxSpanBytes(s);
      } else {
        remaining.push_back(std::move(s));
      }
    }
    buffer_ = std::move(remaining);
  }

  {
    const auto graft_t0 = std::chrono::steady_clock::now();
    ServiceLatePool(result);
    result.graft_wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - graft_t0)
            .count();
  }

  ++stats_.windows_closed;
  stats_.parents_committed += result.parents_committed;
  metrics_.windows_closed.Inc();
  metrics_.parents_committed.Inc(result.parents_committed);
  UpdateBufferGauges();
  if (options_.skew_correct && options_.metrics != nullptr) {
    skew_estimator_.FlushMetrics(*options_.metrics);
  }

  const DurationNs wall =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  result.close_wall_ns = wall;
  metrics_.window_close_ns.Observe(static_cast<std::uint64_t>(wall));
  if (options_.window_close_deadline > 0) {
    if (wall > options_.window_close_deadline) {
      ++stats_.deadline_misses;
      metrics_.deadline_misses.Inc();
      if (level_ < kMaxOverloadLevel) {
        ++level_;
        ++stats_.degrade_up_steps;
        metrics_.degrade_steps_up.Inc();
      }
    } else if (wall * 2 < options_.window_close_deadline && level_ > 0) {
      --level_;
      ++stats_.degrade_down_steps;
      metrics_.degrade_steps_down.Inc();
    }
    metrics_.degradation_level.Set(level_);
  }
  return result;
}

std::vector<WindowResult> OnlineTraceWeaver::Advance(TimeNs watermark) {
  std::vector<WindowResult> results;
  if (!started_) return results;
  if (watermark < high_watermark_) {
    // Out-of-order source: never roll the grid back; clamp and count.
    ++stats_.watermark_regressions;
    metrics_.watermark_regressions.Inc();
    watermark = high_watermark_;
  } else {
    high_watermark_ = watermark;
  }
  if (!pending_results_.empty()) {
    results = std::move(pending_results_);
    pending_results_.clear();
  }
  while (next_window_start_ + options_.window + options_.margin <=
         watermark) {
    const TimeNs start = next_window_start_;
    const TimeNs end = start + options_.window;
    results.push_back(CloseWindow(start, end));
    next_window_start_ = end;
  }
  return results;
}

std::vector<WindowResult> OnlineTraceWeaver::Flush() {
  std::vector<WindowResult> results;
  if (!started_) return results;
  if (!pending_results_.empty()) {
    results = std::move(pending_results_);
    pending_results_.clear();
  }
  while (!buffer_.empty()) {
    TimeNs max_recv = buffer_.front().client_recv;
    for (const Span& s : buffer_) max_recv = std::max(max_recv, s.client_recv);
    const TimeNs start = next_window_start_;
    const TimeNs end = std::max(start + options_.window, max_recv + 1);
    results.push_back(CloseWindow(start, end));
    next_window_start_ = end;
    if (results.back().parents_committed == 0 &&
        results.back().assignment.empty()) {
      // Nothing more can make progress (e.g. only orphan children remain).
      break;
    }
  }

  // End of stream: whatever is still held becomes an explicit orphan.
  if (!buffer_.empty() || !late_pool_.empty() || !pending_orphans_.empty()) {
    if (results.empty()) {
      WindowResult tail;
      tail.window_start = next_window_start_;
      tail.window_end = next_window_start_;
      tail.degradation_level = level_;
      results.push_back(std::move(tail));
    }
    WindowResult& last = results.back();
    for (Span& s : buffer_) last.orphans.push_back(s.id);
    buffer_.clear();
    buffer_bytes_ = 0;
    for (const LateSpan& late : late_pool_) {
      if (!GraftLate(late, last)) ExpireLate(late, last.orphans);
    }
    late_pool_.clear();
    for (SpanId id : pending_orphans_) last.orphans.push_back(id);
    pending_orphans_.clear();
    UpdateBufferGauges();
  }
  return results;
}

// ---------------------------------------------------------------------
// Checkpoint/restore (schema traceweaver.checkpoint.v1; IO layer and the
// field-list convention in trace/checkpoint.h).

namespace {

template <class F, class S>
void StatsFields(F& f, S& s) {
  f("ingested", s.ingested);
  f("windows_closed", s.windows_closed);
  f("parents_committed", s.parents_committed);
  f("windows_shed", s.windows_shed);
  f("spans_shed", s.spans_shed);
  f("admission_drops", s.admission_drops);
  f("late_spans", s.late_spans);
  f("late_grafted", s.late_grafted);
  f("late_orphans", s.late_orphans);
  f("late_dropped", s.late_dropped);
  f("watermark_regressions", s.watermark_regressions);
  f("deadline_misses", s.deadline_misses);
  f("degrade_up_steps", s.degrade_up_steps);
  f("degrade_down_steps", s.degrade_down_steps);
}

/// A graft-reject entry: a committed id and when it may be forgotten.
template <class F, class Entry>
void RecentFields(F& f, Entry& id_deadline) {
  f("id", id_deadline.first);
  f("deadline", id_deadline.second);
}

/// The legacy `commit` record (one committed edge), read but not written.
template <class F, class Edge>
void CommitFields(F& f, Edge& child_parent) {
  f("child", child_parent.first);
  f("parent", child_parent.second);
}

template <class F, class Slot>
void SlotFields(F& f, Slot& s) {
  f("parent", s.parent);
  f("parent_service", s.parent_service);
  f("parent_endpoint", s.parent_endpoint);
  f("server_recv", s.server_recv);
  f("server_send", s.server_send);
  f("replica", s.callee_replica);
  f("stage", s.stage);
  f("call", s.call);
  f("service", s.call_service);
  f("endpoint", s.call_endpoint);
}

/// A carried model's key; its `components` array follows by hand.
template <class F, class Instance, class Key>
void ModelKeyFields(F& f, Instance& instance, Key& key) {
  f("service", instance.service);
  f("replica", instance.replica);
  f("key_service", key.service);
  f("endpoint", key.endpoint);
  f("stage", key.stage);
  f("call", key.call);
}

/// A shed window awaiting delivery; its orphans follow as `pendingo`.
template <class F, class Window>
void PendingWindowFields(F& f, Window& w) {
  f("start", w.window_start);
  f("end", w.window_end);
  f("shed", w.shed);
  f("level", w.degradation_level);
}

/// The `pendingo` and `orphan` records.
template <class F, class Id>
void IdFields(F& f, Id& id) {
  f("id", id);
}

template <class F, class Entry>
void ExtraFields(F& f, Entry& key_value) {
  f("key", key_value.first);
  f("value", key_value.second);
}

}  // namespace

template <class F, class Self>
void OnlineTraceWeaver::HeaderFields(F& f, Self& self) {
  f("started", self.started_);
  f("next_window_start", self.next_window_start_);
  f("high_watermark", self.high_watermark_);
  f("level", self.level_);
}

void OnlineTraceWeaver::SaveCheckpoint(
    std::ostream& out,
    const std::map<std::string, std::uint64_t>& extra) const {
  ChecksummedWriter w(out, kCheckpointSchema);
  std::string line;  // One buffer for every record line.
  const auto record = [&](std::string_view tag, const auto& fields) {
    RecordWriter r(line, tag);
    fields(r);
    w.WriteLine(r.Finish());
  };
  record("", [&](auto& f) {
    f("schema", kCheckpointSchema);
    HeaderFields(f, *this);
  });
  record("stats", [&](auto& f) { StatsFields(f, stats_); });
  for (const Span& s : buffer_) {
    w.WriteLine(WrapSpanLine("buffer", s, ""));
  }
  for (const LateSpan& late : late_pool_) {
    w.WriteLine(WrapSpanLine(
        "late", late.span,
        "\"deadline\":" + std::to_string(late.deadline)));
  }
  // Sorted so identical state always serializes to identical bytes.
  std::vector<std::pair<SpanId, TimeNs>> rejects(graft_rejects_.begin(),
                                                 graft_rejects_.end());
  std::sort(rejects.begin(), rejects.end());
  for (const auto& entry : rejects) {
    record("recent", [&](auto& f) { RecentFields(f, entry); });
  }
  for (const GraftSlot& s : graft_slots_) {
    record("slot", [&](auto& f) { SlotFields(f, s); });
  }
  for (const std::string& skew : skew_estimator_.CheckpointLines()) {
    w.WriteLine(skew);
  }
  if (options_.provenance != nullptr) {
    // Pending (uncommitted) decision-provenance events ride the same
    // stream, so a kill -9 resume reproduces byte-identical provenance.
    for (const std::string& prov : options_.provenance->CheckpointLines()) {
      w.WriteLine(prov);
    }
  }
  for (const auto& [instance, model] : models_) {
    model.ForEach([&](const DelayKey& key, const GaussianMixture& mixture) {
      record("model", [&](auto& f) {
        ModelKeyFields(f, instance, key);
        line += ",\"components\":[";
        for (std::size_t c = 0; c < mixture.num_components(); ++c) {
          const GmmComponent& comp = mixture.components()[c];
          line += c > 0 ? ",{\"w\":" : "{\"w\":";
          json::AppendExact(line, comp.weight);
          line += ",\"m\":";
          json::AppendExact(line, comp.mean);
          line += ",\"s\":";
          json::AppendExact(line, comp.stddev);
          line += '}';
        }
        line += ']';
      });
    });
  }
  for (const WindowResult& pending : pending_results_) {
    record("pendingw", [&](auto& f) { PendingWindowFields(f, pending); });
    for (const SpanId id : pending.orphans) {
      record("pendingo", [&](auto& f) { IdFields(f, id); });
    }
  }
  for (const SpanId id : pending_orphans_) {
    record("orphan", [&](auto& f) { IdFields(f, id); });
  }
  for (const auto& entry : extra) {
    record("extra", [&](auto& f) { ExtraFields(f, entry); });
  }
  w.Finish();
}

bool OnlineTraceWeaver::LoadCheckpoint(
    std::istream& in, std::string* error,
    std::map<std::string, std::uint64_t>* extra) {
  const auto lines = ReadChecksummedLines(in, kCheckpointSchema, error);
  if (!lines) return false;
  if (lines->empty()) {
    if (error != nullptr) *error = "checkpoint has no header line";
    return false;
  }
  // Parse into fresh state first so a malformed record leaves this weaver
  // (and the caller's `extra`) untouched.
  OnlineTraceWeaver fresh(graph_, options_);
  std::vector<obs::ProvEvent> prov_events;
  std::vector<std::pair<std::string, std::uint64_t>> extras;
  std::string schema;
  RecordReader header((*lines)[0]);
  header("schema", schema);
  HeaderFields(header, fresh);
  if (schema != kCheckpointSchema || !header.ok()) {
    if (error != nullptr) {
      *error = schema != kCheckpointSchema
                   ? "checkpoint header schema mismatch"
                   : "checkpoint header malformed: field " +
                         std::string(header.bad_key());
    }
    return false;
  }

  WindowResult* open_pending = nullptr;
  for (std::size_t i = 1; i < lines->size(); ++i) {
    const std::string& line = (*lines)[i];
    const auto type = json::FieldStr(line, "ckpt");
    if (!type) {
      if (error != nullptr) {
        *error = "checkpoint record " + std::to_string(i) + " has no type";
      }
      return false;
    }
    const auto bad = [&](std::string_view what) {
      if (error != nullptr) {
        *error = "checkpoint record " + std::to_string(i) +
                 " malformed: " + std::string(what);
      }
      return false;
    };
    // Records are read into `fresh`, which a failure discards, so a
    // branch may store what it read before the check below.
    RecordReader r(line);
    const auto bad_field = [&] {
      return bad(*type + " field " + std::string(r.bad_key()));
    };
    if (*type == "buffer" || *type == "late") {
      const auto span = SpanFromJson(line);
      if (!span) return bad("unparseable span");
      if (*type == "buffer") {
        fresh.buffer_bytes_ += ApproxSpanBytes(*span);
        fresh.buffer_.push_back(*span);
      } else {
        LateSpan late{*span};
        r("deadline", late.deadline);
        fresh.late_pool_.push_back(std::move(late));
      }
    } else if (*type == "recent") {
      std::pair<SpanId, TimeNs> entry;
      RecentFields(r, entry);
      fresh.RejectGrafts(entry.first, entry.second);
    } else if (*type == "commit") {
      // Older checkpoints carry every edge ever committed. The record has
      // no server_recv to derive a deadline from, so the id is refused
      // forever (DESIGN.md §4f); no new commit record is ever written.
      std::pair<SpanId, SpanId> edge;
      CommitFields(r, edge);
      fresh.RejectGrafts(edge.first, kNoDeadline);
    } else if (*type == "slot") {
      GraftSlot slot;
      SlotFields(r, slot);
      fresh.graft_slots_.push_back(std::move(slot));
    } else if (*type == "posterior") {
      // Older checkpoints carry per-key delay posteriors that nothing
      // reads; accept and drop them so those checkpoints still resume.
    } else if (*type == "model") {
      ServiceInstance instance;
      DelayKey key;
      ModelKeyFields(r, instance, key);
      if (!r.ok()) return bad_field();
      const std::size_t at = json::FindValue(line, "components");
      std::vector<std::string_view> elements;
      if (at == std::string::npos ||
          !json::SplitObjectArray(line, at, &elements) || elements.empty()) {
        return bad("model components");
      }
      std::vector<GmmComponent> components;
      for (const std::string_view e : elements) {
        const auto weight = json::FieldF64(e, "w");
        const auto mean = json::FieldF64(e, "m");
        const auto stddev = json::FieldF64(e, "s");
        if (!weight || !mean || !stddev) return bad("model component");
        components.push_back(GmmComponent{*weight, *mean, *stddev});
      }
      fresh.models_[instance].Install(key,
                                      GaussianMixture(std::move(components)));
    } else if (*type == "stats") {
      StatsFields(r, fresh.stats_);
    } else if (*type == "pendingw") {
      fresh.pending_results_.emplace_back();
      open_pending = &fresh.pending_results_.back();
      PendingWindowFields(r, *open_pending);
    } else if (*type == "pendingo") {
      if (open_pending == nullptr) return bad("stray pending orphan");
      IdFields(r, open_pending->orphans.emplace_back());
    } else if (*type == "orphan") {
      IdFields(r, fresh.pending_orphans_.emplace_back());
    } else if (*type == "skew") {
      if (!fresh.skew_estimator_.LoadCheckpointLine(line)) {
        return bad("skew record");
      }
    } else if (*type == "prov") {
      auto event = obs::ProvEventFromJson(line);
      if (!event) return bad("prov record");
      prov_events.push_back(std::move(*event));
    } else if (*type == "extra") {
      ExtraFields(r, extras.emplace_back());
    } else {
      return bad("unknown record type");
    }
    if (!r.ok()) return bad_field();
  }

  // Re-derive the per-edge slack map from the restored estimator state so
  // grafting and the next window close behave exactly as they would have
  // without the restart.
  if (fresh.options_.skew_correct) {
    fresh.options_.weaver.optimizer.params.edge_slack_ns =
        fresh.skew_estimator_.EdgeSlacks();
  }

  // Only mutate shared state once the whole checkpoint parsed; a
  // malformed record above leaves it (like the weaver) untouched.
  if (options_.provenance != nullptr) {
    options_.provenance->RestorePending(std::move(prov_events));
  }
  if (extra != nullptr) {
    for (auto& [key, value] : extras) (*extra)[key] = value;
  }

  *this = std::move(fresh);
  UpdateBufferGauges();
  return true;
}

}  // namespace traceweaver
