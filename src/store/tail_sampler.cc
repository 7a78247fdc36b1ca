#include "store/tail_sampler.h"

#include <algorithm>
#include <limits>
#include <string>

#include "trace/checkpoint.h"

namespace traceweaver::store {
namespace {

/// Windows on each side of an overload shed whose traces are always kept
/// (rule 2).
constexpr int kShedAdjacentWindows = 2;
/// Grades strictly worse than this are always kept (rule 3).
constexpr char kMinBoringGrade = 'B';
/// Confidences strictly below this are always kept (rule 3).
constexpr double kMinBoringConfidence = 0.5;
/// Traces at least this long are always kept (rule 4).
constexpr DurationNs kLatencyKeepNs = Millis(50);
/// Hash seed for the rule-5 coin; fixed so replays agree.
constexpr std::uint64_t kCoinSeed = 0x7477736d706c72ULL;

/// splitmix64 finalizer, the same order-independent construction the
/// fault injector uses: one well-mixed word per trace id, no RNG state.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool HashKeep(std::uint64_t id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  const double u = static_cast<double>(Mix64(id ^ kCoinSeed) >> 11) *
                   0x1.0p-53;  // 53 uniform bits in [0, 1).
  return u < rate;
}

}  // namespace

TailSampler::TailSampler(TailSamplerOptions options,
                         obs::MetricsRegistry* metrics)
    : options_(options) {
  if (metrics == nullptr) return;
  m_considered_ = metrics->GetCounter(
      "tw_sample_considered_total", "",
      "Traces evaluated by the tail sampler at commit time", "1");
  m_shed_ = metrics->GetCounter(
      "tw_sample_shed_total", "",
      "Confident boring traces shed before store commit", "1");
  m_shed_spans_ = metrics->GetCounter(
      "tw_sample_shed_spans_total", "",
      "Spans belonging to tail-sampler-shed traces", "1");
  m_kept_interesting_ = metrics->GetCounter(
      "tw_sample_kept_interesting_total", "",
      "Traces kept by an always-keep rule (orphan, shed-adjacent, "
      "low grade, high latency)",
      "1");
  m_kept_random_ = metrics->GetCounter(
      "tw_sample_kept_random_total", "",
      "Boring traces kept by the probabilistic coin", "1");
}

void TailSampler::NoteShed(TimeNs window_end) {
  last_shed_end_ = std::max(last_shed_end_, window_end);
}

TailSampler::Decision TailSampler::Decide(const TraceRecord& record) {
  ++considered_;
  m_considered_.Inc();

  Decision d;
  if (record.orphan || record.suspect) {
    d.reason = "orphan";
  } else if (last_shed_end_ != std::numeric_limits<TimeNs>::min() &&
             record.end + options_.window * kShedAdjacentWindows >=
                 last_shed_end_) {
    // The trace's window reaches into the shed-adjacency horizon: it
    // documents the pressure event (sheds only move forward in stream
    // time, so one high-water mark suffices).
    d.reason = "shed_adjacent";
  } else if (record.grade > kMinBoringGrade ||
             record.confidence < kMinBoringConfidence) {
    d.reason = "low_grade";
  } else if (record.Duration() >= kLatencyKeepNs) {
    d.reason = "high_latency";
  } else if (HashKeep(static_cast<std::uint64_t>(record.trace_id),
                      options_.keep_rate)) {
    d.reason = "random";
    ++kept_random_;
    m_kept_random_.Inc();
    return d;
  } else {
    d.keep = false;
    d.reason = "boring";
    ++shed_;
    m_shed_.Inc();
    m_shed_spans_.Inc(record.spans.size());
    return d;
  }
  ++kept_interesting_;
  m_kept_interesting_.Inc();
  return d;
}

template <class F, class Self>
void TailSampler::StateFields(F& f, Self& self, TimeNs& last_shed_end) {
  f("considered", self.considered_);
  f("shed", self.shed_);
  f("kept_interesting", self.kept_interesting_);
  f("kept_random", self.kept_random_);
  f("last_shed_end", last_shed_end);
}

void TailSampler::SaveState(std::ostream& out) const {
  ChecksummedWriter writer(out, kStateSchema);
  // The no-shed sentinel is spelled -1 on disk.
  TimeNs last_shed =
      last_shed_end_ == std::numeric_limits<TimeNs>::min() ? -1
                                                           : last_shed_end_;
  std::string line;
  RecordWriter r(line);
  r("schema", kStateSchema);
  StateFields(r, *this, last_shed);
  writer.WriteLine(r.Finish());
  writer.Finish();
}

bool TailSampler::LoadState(std::istream& in, std::string* error) {
  const auto lines = ReadChecksummedLines(in, kStateSchema, error);
  if (!lines || lines->empty()) {
    if (error != nullptr && lines) *error = "empty sampler state";
    return false;
  }
  TailSampler fresh = *this;
  TimeNs last_shed = 0;
  RecordReader r((*lines)[0]);
  StateFields(r, fresh, last_shed);
  if (!r.ok()) {
    if (error != nullptr) *error = "sampler state header mismatch";
    return false;
  }
  fresh.last_shed_end_ =
      last_shed < 0 ? std::numeric_limits<TimeNs>::min() : last_shed;
  // Counters restored above are process-lifetime tallies; the metric
  // handles re-count from zero after restart, which matches how every
  // other tw_* counter behaves across resumes.
  *this = std::move(fresh);
  return true;
}

}  // namespace traceweaver::store
