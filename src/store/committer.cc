#include "store/committer.h"

#include <algorithm>

#include "trace/checkpoint.h"
#include "trace/jsonl_io.h"

namespace traceweaver::store {

TraceCommitter::TraceCommitter(CommitterOptions options, TraceStore* store)
    : options_(options),
      store_(store),
      settle_(options.window * kSettleWindows + options.margin) {}

TimeNs TraceCommitter::DueTime(const Span& span) const {
  // A fragment root waits one window beyond the rooted-trace horizon, so
  // a slow root commit always wins over a fragment split.
  return span.client_recv +
         (span.IsRoot() ? settle_ : settle_ + options_.window);
}

void TraceCommitter::OnSpan(const Span& span) {
  spans_[span.id] = span;
  due_.emplace(DueTime(span), span.id);
}

bool TraceCommitter::CommitTrace(SpanId root, obs::ProvEventType outcome) {
  const auto root_it = spans_.find(root);
  if (root_it == spans_.end()) return false;

  TraceRecord record;
  record.trace_id = root;
  record.root_service = root_it->second.callee;
  record.root_endpoint = root_it->second.endpoint;
  record.orphan = !root_it->second.IsRoot();

  if (const auto q = quality_.find(root); q != quality_.end()) {
    record.grade = q->second.grade;
    record.confidence = q->second.confidence;
    record.min_confidence = q->second.min_confidence;
    record.suspect = q->second.suspect_orphan;
  }

  // Root-first walk; children ordered by id so the record is identical
  // regardless of the order assignments arrived in.
  std::vector<SpanId> stack{root};
  while (!stack.empty()) {
    const SpanId id = stack.back();
    stack.pop_back();
    const auto it = spans_.find(id);
    if (it == spans_.end()) continue;  // Child committed or shed earlier.
    record.spans.push_back(it->second);
    if (id != root) {
      record.parents.emplace_back(id, parent_of_.at(id));
    }
    if (const auto kids = children_.find(id); kids != children_.end()) {
      std::vector<SpanId> ordered = kids->second;
      std::sort(ordered.begin(), ordered.end(), std::greater<SpanId>());
      stack.insert(stack.end(), ordered.begin(), ordered.end());
    }
  }
  std::sort(record.parents.begin(), record.parents.end());

  record.start = record.spans.front().client_send;
  record.end = record.spans.front().client_recv;
  for (const Span& s : record.spans) {
    record.start = std::min(record.start, s.client_send);
    record.end = std::max(record.end, s.client_recv);
  }

  for (const Span& s : record.spans) {
    children_.erase(s.id);
    parent_of_.erase(s.id);
    spans_.erase(s.id);
    quality_.erase(s.id);
  }

  if (options_.sampler != nullptr) {
    const TailSampler::Decision d = options_.sampler->Decide(record);
    if (!d.keep) {
      if (options_.provenance != nullptr) {
        // Free the members' pending ledger events and stamp the shed, so
        // tw_prov_events_total{type="sampled_out"} accounts for the trace
        // even though no stored record carries its provenance.
        for (const Span& s : record.spans) options_.provenance->Take(s.id);
        options_.provenance->Emit(
            obs::ProvEventType::kSampledOut, root,
            static_cast<std::int64_t>(record.spans.size()), d.reason);
      }
      return false;
    }
  }

  if (options_.provenance != nullptr) {
    // Drain each member span's pending events (commit-walk order), then
    // stamp the settle outcome last -- the guarantee that every committed
    // trace explains itself with at least one event.
    for (const Span& s : record.spans) {
      std::vector<obs::ProvEvent> events = options_.provenance->Take(s.id);
      record.provenance.insert(record.provenance.end(),
                               std::make_move_iterator(events.begin()),
                               std::make_move_iterator(events.end()));
    }
    if (outcome == obs::ProvEventType::kSettled && record.orphan) {
      outcome = obs::ProvEventType::kOrphanCommit;
    }
    record.provenance.push_back(options_.provenance->Emit(
        outcome, root, static_cast<std::int64_t>(record.spans.size())));
  }
  // A replayed trace the store already holds was committed before a
  // crash; counting it keeps committed() equal across a resume.
  return store_->Commit(std::move(record)) || store_->Contains(root);
}

std::size_t TraceCommitter::SweepSettled() {
  // Lazy deletion (see the class comment): a popped entry counts only if
  // it still describes a due span. A re-ingest with a new completion
  // time strands the old entry, and its own entry takes over.
  std::vector<SpanId> due;
  while (!due_.empty() && due_.top().first <= last_closed_end_) {
    const auto [when, id] = due_.top();
    due_.pop();
    const auto it = spans_.find(id);
    if (it == spans_.end() || DueTime(it->second) != when) continue;
    if (!it->second.IsRoot() && parent_of_.count(id) > 0) continue;
    due.push_back(id);
  }
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());
  std::size_t committed = 0;
  for (SpanId id : due) {
    if (CommitTrace(id)) ++committed;
  }
  return committed;
}

std::size_t TraceCommitter::OnResults(
    const std::vector<WindowResult>& results) {
  std::size_t committed = 0;
  for (const WindowResult& r : results) {
    if (options_.sampler != nullptr && r.shed) {
      options_.sampler->NoteShed(r.window_end);
    }
    for (const auto& [child, parent] : r.assignment) {
      if (parent_of_.emplace(child, parent).second) {
        children_[parent].push_back(child);
      }
    }
    // A row whose root already committed (or never arrived) can never
    // reach a record.
    for (const obs::TraceQuality& tq : r.trace_quality) {
      if (spans_.count(tq.root) > 0) quality_[tq.root] = tq;
    }
    last_closed_end_ = std::max(last_closed_end_, r.window_end);
    // Spans the weaver gave up on are final now: commit what is known of
    // their subtrees as orphan fragments instead of dropping them.
    std::vector<SpanId> lost(r.orphans);
    std::sort(lost.begin(), lost.end());
    for (SpanId id : lost) {
      if (spans_.count(id) > 0 && parent_of_.count(id) == 0 &&
          CommitTrace(id, obs::ProvEventType::kOrphanCommit)) {
        ++committed;
      }
    }
  }
  committed += SweepSettled();
  committed_ += committed;
  return committed;
}

std::size_t TraceCommitter::Finalize() {
  std::size_t committed = 0;
  // Roots first (true roots, then fragment roots), repeated until the
  // pending set drains; ordering by id keeps the output deterministic.
  while (!spans_.empty()) {
    std::vector<SpanId> due;
    for (const auto& [id, span] : spans_) {
      const auto p = parent_of_.find(id);
      if (span.IsRoot() || p == parent_of_.end() ||
          spans_.count(p->second) == 0) {
        due.push_back(id);
      }
    }
    if (due.empty()) break;  // Defensive: an assignment cycle.
    std::sort(due.begin(), due.end());
    for (SpanId id : due) {
      if (spans_.count(id) > 0 &&
          CommitTrace(id, obs::ProvEventType::kFinalized)) {
        ++committed;
      }
    }
  }
  committed_ += committed;
  return committed;
}

namespace {

// Field lists of the state records (trace/checkpoint.h).

/// The header: section sizes and the committer's scalars.
struct StateHeader {
  std::uint64_t spans = 0, edges = 0, quality = 0;
  TimeNs last_closed_end = 0;
  std::uint64_t committed = 0;
};

template <class F, class Header>
void HeaderFields(F& f, Header& h) {
  f("spans", h.spans);
  f("edges", h.edges);
  f("quality", h.quality);
  f("last_closed_end", h.last_closed_end);
  f("committed", h.committed);
}

template <class F, class Edge>
void EdgeFields(F& f, Edge& child_parent) {
  f("child", child_parent.first);
  f("parent", child_parent.second);
}

template <class F, class Quality>
void QualityFields(F& f, Quality& q) {
  f("root", q.root);
  f("tspans", q.spans);
  f("tparents", q.parents);
  f("skips", q.skips);
  f("orphan", q.orphan);
  f("suspect", q.suspect_orphan);
  f("confidence", q.confidence);
  f("min_confidence", q.min_confidence);
  f("grade", q.grade);
}

}  // namespace

void TraceCommitter::SaveState(std::ostream& out) const {
  ChecksummedWriter writer(out, kStateSchema);
  std::string line;  // One buffer for every record line.
  {
    const StateHeader header{spans_.size(), parent_of_.size(),
                             quality_.size(), last_closed_end_, committed_};
    RecordWriter r(line);
    r("schema", kStateSchema);
    HeaderFields(r, header);
    writer.WriteLine(r.Finish());
  }

  // Deterministic order (sorted by id) within each positional section:
  // `spans` span lines, then `edges` edge lines, then `quality` rows.
  std::vector<SpanId> ids;
  ids.reserve(spans_.size());
  for (const auto& [id, span] : spans_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (SpanId id : ids) {
    writer.WriteLine(SpanToJson(spans_.at(id), /*include_ground_truth=*/true));
  }

  std::vector<std::pair<SpanId, SpanId>> edges(parent_of_.begin(),
                                               parent_of_.end());
  std::sort(edges.begin(), edges.end());
  for (const auto& edge : edges) {
    RecordWriter r(line);
    EdgeFields(r, edge);
    writer.WriteLine(r.Finish());
  }

  ids.clear();
  for (const auto& [root, tq] : quality_) ids.push_back(root);
  std::sort(ids.begin(), ids.end());
  for (SpanId root : ids) {
    RecordWriter r(line);
    QualityFields(r, quality_.at(root));
    writer.WriteLine(r.Finish());
  }
  writer.Finish();
}

bool TraceCommitter::LoadState(std::istream& in, std::string* error) {
  const auto lines = ReadChecksummedLines(in, kStateSchema, error);
  if (!lines || lines->empty()) {
    if (error != nullptr && lines) *error = "empty committer state";
    return false;
  }
  StateHeader header;
  RecordReader header_reader((*lines)[0]);
  HeaderFields(header_reader, header);
  // Each count is bounded before the sum, so hostile counts cannot wrap
  // it into a match and walk past the end of `lines`.
  const std::uint64_t n = lines->size();
  if (!header_reader.ok() || header.spans >= n || header.edges >= n ||
      header.quality >= n ||
      1 + header.spans + header.edges + header.quality != n) {
    if (error != nullptr) *error = "committer state header mismatch";
    return false;
  }

  std::unordered_map<SpanId, Span> spans;
  std::unordered_map<SpanId, SpanId> parent_of;
  std::unordered_map<SpanId, std::vector<SpanId>> children;
  std::unordered_map<SpanId, obs::TraceQuality> quality;
  std::size_t i = 1;
  for (std::uint64_t k = 0; k < header.spans; ++k, ++i) {
    const auto span = SpanFromJson((*lines)[i]);
    if (!span) {
      if (error != nullptr) *error = "bad span line in committer state";
      return false;
    }
    spans[span->id] = *span;
  }
  for (std::uint64_t k = 0; k < header.edges; ++k, ++i) {
    std::pair<SpanId, SpanId> edge;
    RecordReader r((*lines)[i]);
    EdgeFields(r, edge);
    if (!r.ok()) {
      if (error != nullptr) *error = "bad edge line in committer state";
      return false;
    }
    if (parent_of.emplace(edge).second) {
      children[edge.second].push_back(edge.first);
    }
  }
  for (std::uint64_t k = 0; k < header.quality; ++k, ++i) {
    obs::TraceQuality tq;
    RecordReader r((*lines)[i]);
    QualityFields(r, tq);
    if (!r.ok()) {
      if (error != nullptr) {
        *error = "bad quality line in committer state (field " +
                 std::string(r.bad_key()) + ")";
      }
      return false;
    }
    // Rows of roots that are no longer pending are dead (older versions
    // could save such rows after Finalize).
    if (spans.count(tq.root) > 0) quality[tq.root] = tq;
  }

  std::vector<DueEntry> due;
  due.reserve(spans.size());
  for (const auto& [id, span] : spans) due.emplace_back(DueTime(span), id);
  spans_ = std::move(spans);
  parent_of_ = std::move(parent_of);
  children_ = std::move(children);
  quality_ = std::move(quality);
  due_ = DueQueue(std::greater<DueEntry>(), std::move(due));
  last_closed_end_ = header.last_closed_end;
  committed_ = static_cast<std::size_t>(header.committed);
  return true;
}

}  // namespace traceweaver::store
