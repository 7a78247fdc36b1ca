// Trace store (src/store): segment commit atomicity, index-vs-scan
// equivalence, LRU bounds, reader-while-ingest safety, and the
// online -> store committer (its settle-time index checked against a
// full-scan reference and across save/restore at every call).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "mutator.h"
#include "state_fuzz.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"
#include "test_helpers.h"
#include "trace/checkpoint.h"
#include "trace/jsonl_io.h"
#include "trace/trace_record.h"
#include "util/json.h"

namespace traceweaver::store {
namespace {

namespace fs = std::filesystem;
using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::HostileTraceRecord;
using ::traceweaver::testing::MakeSpan;
using ::traceweaver::testing::ReencodedLine;
using ::traceweaver::testing::RandomHostileString;

/// Fresh per-test directory under the build tree's temp space.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tw_store_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

/// A deterministic record: root span + one child, fields derived from id.
TraceRecord MakeRecord(SpanId id, const std::string& service = "A",
                       char grade = 'A', double confidence = 0.9) {
  const TimeNs base = static_cast<TimeNs>(id) * Millis(10);
  TraceRecord r;
  r.trace_id = id;
  r.root_service = service;
  r.root_endpoint = "/a";
  r.grade = grade;
  r.confidence = confidence;
  r.min_confidence = confidence;
  r.spans = {
      MakeSpan(id, kClientCaller, service, "/a", base + 100, base + 900),
      MakeSpan(id + 1000000, service, "B", "/b", base + 200, base + 700),
  };
  r.parents = {{id + 1000000, id}};
  r.start = r.spans[0].client_send;
  r.end = r.spans[0].client_recv;
  return r;
}

bool SameRecord(const TraceRecord& a, const TraceRecord& b) {
  return TraceRecordToJson(a) == TraceRecordToJson(b);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(StoreTest, RecordJsonRoundtrip) {
  const TraceRecord r = MakeRecord(7, "front\"end\\svc", 'B', 0.5);
  const std::string line = TraceRecordToJson(r);
  const auto back = TraceRecordFromJson(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_id, 7u);
  EXPECT_EQ(back->root_service, "front\"end\\svc");
  EXPECT_EQ(back->grade, 'B');
  EXPECT_EQ(back->spans.size(), 2u);
  EXPECT_EQ(back->parents.size(), 1u);
  EXPECT_EQ(TraceRecordToJson(*back), line);

  EXPECT_FALSE(TraceRecordFromJson("{}").has_value());
  EXPECT_FALSE(TraceRecordFromJson("not json").has_value());
  EXPECT_FALSE(
      TraceRecordFromJson("{\"schema\":\"traceweaver.trace.v2\"}").has_value());
}

TEST_F(StoreTest, RecordJsonRoundTripsHostileStrings) {
  // Root names, span names and provenance details all come from outside
  // the program; none of them may break the one-line record framing.
  Rng rng(20240807);
  for (SpanId id = 1; id <= 500; ++id) {
    TraceRecord r = MakeRecord(id);
    r.root_service = RandomHostileString(rng);
    r.root_endpoint = RandomHostileString(rng);
    for (Span& span : r.spans) {
      span.caller = RandomHostileString(rng);
      span.callee = RandomHostileString(rng);
      span.endpoint = RandomHostileString(rng);
    }
    r.provenance = {
        {obs::ProvEventType::kSkewCorrect, id, -1500,
         RandomHostileString(rng)},
        {obs::ProvEventType::kValidatorQuarantine, id + 1000000, 0,
         RandomHostileString(rng)},
    };
    const std::string line = TraceRecordToJson(r);
    ASSERT_FALSE(HasRawControlByte(line)) << line;
    const auto back = TraceRecordFromJson(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->root_service, r.root_service);
    EXPECT_EQ(back->root_endpoint, r.root_endpoint);
    ASSERT_EQ(back->spans.size(), r.spans.size());
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      EXPECT_EQ(back->spans[i].caller, r.spans[i].caller);
      EXPECT_EQ(back->spans[i].callee, r.spans[i].callee);
      EXPECT_EQ(back->spans[i].endpoint, r.spans[i].endpoint);
    }
    EXPECT_EQ(back->provenance, r.provenance);
    EXPECT_EQ(TraceRecordToJson(*back), line);
  }
}

TEST_F(StoreTest, CommitGetRoundtrip) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  const TraceRecord r = MakeRecord(1);
  EXPECT_TRUE(store.Commit(r));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  const auto got = store.Get(1);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(SameRecord(*got, r));
  EXPECT_EQ(store.Get(99), nullptr);
}

TEST_F(StoreTest, DuplicateCommitDropped) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  EXPECT_TRUE(store.Commit(MakeRecord(1, "A", 'A', 0.9)));
  // A duplicate -- even with different content -- must not replace the
  // first commit (checkpoint replay must be a no-op).
  EXPECT_FALSE(store.Commit(MakeRecord(1, "Z", 'D', 0.1)));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(1)->root_service, "A");
}

TEST_F(StoreTest, SealReopenPersists) {
  {
    TraceStore store(Dir());
    ASSERT_TRUE(store.Open().has_value());
    for (SpanId id = 1; id <= 5; ++id) store.Commit(MakeRecord(id));
    ASSERT_TRUE(store.Seal());
    EXPECT_EQ(store.sealed_segments(), 1u);
    EXPECT_EQ(store.active_traces(), 0u);
  }
  TraceStore reopened(Dir());
  const auto stats = reopened.Open();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->segments_loaded, 1u);
  EXPECT_EQ(stats->traces_loaded, 5u);
  EXPECT_EQ(stats->segments_rejected, 0u);
  for (SpanId id = 1; id <= 5; ++id) {
    const auto got = reopened.Get(id);
    ASSERT_NE(got, nullptr) << "trace " << id;
    EXPECT_TRUE(SameRecord(*got, MakeRecord(id)));
  }
  // Unsealed (active) records are not durable -- only sealed ones return.
  EXPECT_FALSE(reopened.Commit(MakeRecord(1)));  // Still a duplicate.
}

TEST_F(StoreTest, AutoSealsAtSegmentSize) {
  StoreOptions opts;
  opts.segment_traces = 4;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 10; ++id) store.Commit(MakeRecord(id));
  EXPECT_EQ(store.sealed_segments(), 2u);
  EXPECT_EQ(store.active_traces(), 2u);
  EXPECT_EQ(store.size(), 10u);
  for (SpanId id = 1; id <= 10; ++id) EXPECT_NE(store.Get(id), nullptr);
}

/// Every query result must equal a brute-force linear scan of the same
/// records through the same predicate: fixed filters, then random ranges
/// that touch segment bounds exactly, services that some segments lack,
/// and limits from 1 up (the sort and the limit cut).
TEST_F(StoreTest, IndexMatchesLinearScan) {
  StoreOptions opts;
  opts.segment_traces = 7;  // Mix of sealed and active.
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());

  std::vector<TraceRecord> all;
  const char grades[] = {'A', 'B', 'C', 'D'};
  const char* services[] = {"front", "mid", "back"};
  for (SpanId id = 1; id <= 60; ++id) {
    TraceRecord r = MakeRecord(id, services[id % 3], grades[id % 4],
                               0.1 + 0.015 * static_cast<double>(id % 60));
    all.push_back(r);
    ASSERT_TRUE(store.Commit(r));
  }
  // Late "tail" traces back-dated onto earlier starts: segment 9 holds
  // only "tail", segments 0-7 none, and the late segments' time bounds
  // cover early ones (ties on start break by trace id).
  for (SpanId id = 61; id <= 75; ++id) {
    TraceRecord r = MakeRecord(id, "tail", grades[id % 4], 0.5);
    const TimeNs shift = static_cast<TimeNs>(id - (id * 7 % 60 + 1)) *
                         Millis(10);
    for (Span& span : r.spans) {
      span.client_send -= shift;
      span.server_recv -= shift;
      span.server_send -= shift;
      span.client_recv -= shift;
    }
    r.start -= shift;
    r.end -= shift;
    all.push_back(r);
    ASSERT_TRUE(store.Commit(r));
  }
  ASSERT_EQ(store.sealed_segments(), 10u);

  const auto brute = [&all](const TraceQuery& q) {
    std::vector<const TraceRecord*> hits;
    for (const TraceRecord& r : all) {
      if (!q.service.empty() && r.root_service != q.service) continue;
      if (r.end < q.from || r.start > q.to) continue;
      if (r.grade > q.max_grade) continue;
      if (r.confidence < q.min_confidence) continue;
      hits.push_back(&r);
    }
    std::sort(hits.begin(), hits.end(),
              [](const TraceRecord* a, const TraceRecord* b) {
                return std::make_pair(a->start, a->trace_id) <
                       std::make_pair(b->start, b->trace_id);
              });
    if (q.limit > 0 && hits.size() > q.limit) hits.resize(q.limit);
    return hits;
  };

  std::vector<TraceQuery> queries(7);
  queries[1].service = "mid";
  queries[2].max_grade = 'B';
  queries[3].min_confidence = 0.5;
  queries[4].from = Millis(100);
  queries[4].to = Millis(300);
  queries[5].service = "front";
  queries[5].max_grade = 'C';
  queries[5].min_confidence = 0.3;
  queries[5].from = Millis(50);
  queries[5].to = Millis(450);
  queries[6].limit = 5;

  // Range ends drawn from the records' own bounds (so a range can end
  // exactly where a segment starts, or begin where one ends), one off
  // them, or anywhere.
  std::vector<TimeNs> edges;
  for (const TraceRecord& r : all) {
    for (const TimeNs t : {r.start, r.end}) {
      edges.insert(edges.end(), {t - 1, t, t + 1});
    }
  }
  Rng rng(4242);
  const auto pick = [&]() -> TimeNs {
    if (rng.UniformInt(0, 4) == 0) {
      return static_cast<TimeNs>(rng.Uniform(0.0, 800.0 * 1e6));
    }
    return edges[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(edges.size()) - 1))];
  };
  const char* any_service[] = {"", "front", "mid", "back", "tail", "none"};
  for (int n = 0; n < 400; ++n) {
    TraceQuery q;
    q.service = any_service[rng.UniformInt(0, 5)];
    if (rng.UniformInt(0, 3) > 0) q.from = pick();
    if (rng.UniformInt(0, 3) > 0) q.to = pick();
    if (rng.UniformInt(0, 3) == 0) q.max_grade = grades[rng.UniformInt(0, 3)];
    q.limit = static_cast<std::size_t>(rng.UniformInt(0, 12));
    queries.push_back(q);
  }
  // A range that ends exactly where a record starts, and one that begins
  // exactly where a record ends, each match that record.
  for (const TraceRecord& r : {all[20], all[65]}) {
    TraceQuery ends_at_start;
    ends_at_start.to = r.start;
    ends_at_start.from = r.start;
    queries.push_back(ends_at_start);
    TraceQuery begins_at_end;
    begins_at_end.from = r.end;
    begins_at_end.to = r.end;
    queries.push_back(begins_at_end);
  }

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expect = brute(queries[qi]);
    if (qi >= queries.size() - 4) {
      EXPECT_FALSE(expect.empty()) << "query " << qi;
    }
    const auto summaries = store.QuerySummaries(queries[qi]);
    ASSERT_EQ(summaries.size(), expect.size()) << "query " << qi;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(summaries[i].trace_id, expect[i]->trace_id) << "query " << qi;
    }
    // Query() (record-fetching path) agrees with QuerySummaries.
    std::size_t at = 0;
    store.Query(queries[qi],
                [&](const TraceSummary& s, const RecordLine& line) {
                  EXPECT_LT(at, expect.size()) << "query " << qi;
                  if (at >= expect.size()) return false;
                  EXPECT_EQ(s.trace_id, expect[at]->trace_id);
                  EXPECT_NE(line, nullptr);
                  if (line != nullptr) {
                    EXPECT_EQ(*line, TraceRecordToJson(*expect[at]))
                        << "query " << qi << " trace " << s.trace_id;
                  }
                  ++at;
                  return true;
                });
    EXPECT_EQ(at, expect.size()) << "query " << qi;
  }
}

TEST_F(StoreTest, QueryEmitCanStopEarly) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 10; ++id) store.Commit(MakeRecord(id));
  std::size_t seen = 0;
  const std::size_t emitted = store.Query(
      TraceQuery{},
      [&seen](const TraceSummary&, const RecordLine&) {
        return ++seen < 3;
      });
  EXPECT_EQ(emitted, 3u);
}

TEST_F(StoreTest, LruCacheBoundedWithMetrics) {
  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.segment_traces = 100;
  opts.cache_traces = 2;
  opts.metrics = &registry;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 6; ++id) store.Commit(MakeRecord(id));
  ASSERT_TRUE(store.Seal());

  // Sealed fetches go disk -> cache; with capacity 2, cycling 3 ids
  // evicts, and re-reading a hot id hits.
  EXPECT_NE(store.Get(1), nullptr);
  EXPECT_NE(store.Get(2), nullptr);
  EXPECT_NE(store.Get(1), nullptr);  // Hit.
  EXPECT_NE(store.Get(3), nullptr);  // Evicts 2.
  EXPECT_NE(store.Get(2), nullptr);  // Miss again.

  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("tw_store_cache_hits_total", ""), 1);
  EXPECT_EQ(snapshot.Value("tw_store_cache_misses_total", ""), 4);
  EXPECT_GE(snapshot.Value("tw_store_cache_evictions_total", ""), 2);
  EXPECT_EQ(snapshot.Value("tw_store_segment_reads_total", ""), 4);
  EXPECT_EQ(snapshot.Value("tw_store_traces", ""), 6);
}

/// A listing reads each sealed segment that holds a match once, however
/// many of its matches miss the cache, and never one that holds none.
TEST_F(StoreTest, ListingReadsEachSegmentOnce) {
  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.segment_traces = 5;
  opts.cache_traces = 0;  // Every sealed record is a miss.
  opts.metrics = &registry;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 42; ++id) {
    ASSERT_TRUE(store.Commit(MakeRecord(id, id % 4 == 0 ? "B" : "A")));
  }
  ASSERT_EQ(store.sealed_segments(), 8u);  // Ids 41-42 stay active.

  const auto reads = [&registry] {
    return registry.Snapshot().Value("tw_store_segment_reads_total", "");
  };
  std::vector<TraceQuery> queries(5);
  queries[0].from = Millis(30);  // Ids 3-19: segments 0-3.
  queries[0].to = Millis(190);
  queries[1].service = "B";      // Every fourth id, every segment.
  queries[2].from = Millis(120);  // Ids 12-18: segments 2-3.
  queries[2].limit = 7;
  queries[3].from = Millis(380);  // Ids 38-42: segment 7 and active.
  queries[4].from = Millis(1000);  // Nothing.
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<SpanId> ids;
    std::set<std::uint32_t> segments;
    for (const TraceSummary& s : store.QuerySummaries(queries[qi])) {
      ids.push_back(s.trace_id);
      if (s.segment != TraceSummary::kActiveSegment) {
        segments.insert(s.segment);
      }
    }
    const std::int64_t before = reads();
    std::vector<SpanId> streamed;
    std::vector<std::string> bodies;
    store.Query(queries[qi],
                [&](const TraceSummary& s, const RecordLine& line) {
                  streamed.push_back(s.trace_id);
                  bodies.push_back(line ? *line : "null");
                  return true;
                });
    EXPECT_EQ(reads() - before, static_cast<std::int64_t>(segments.size()))
        << "query " << qi;
    EXPECT_EQ(streamed, ids) << "query " << qi;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      const auto got = store.Get(streamed[i]);
      ASSERT_NE(got, nullptr) << "trace " << streamed[i];
      EXPECT_EQ(bodies[i], TraceRecordToJson(*got)) << "trace " << streamed[i];
    }
  }
  EXPECT_EQ(store.QuerySummaries(queries[0]).size(), 17u);
  EXPECT_EQ(store.QuerySummaries(queries[4]).size(), 0u);
  EXPECT_EQ(registry.Snapshot().Value("tw_store_segment_load_failures_total",
                                      ""),
            0);
}

/// A sealed segment that goes missing after Open nulls exactly its own
/// records, and a byte flipped in one of a segment's record lines nulls
/// exactly that record: a listing still returns every other record, Get
/// returns null for the lost ids, and every failed read is counted.
TEST_F(StoreTest, UnreadableSegmentNullsOnlyItsRecords) {
  StoreOptions opts;
  opts.segment_traces = 4;
  {
    TraceStore store(Dir(), opts);
    ASSERT_TRUE(store.Open().has_value());
    for (SpanId id = 1; id <= 22; ++id) store.Commit(MakeRecord(id));
    ASSERT_TRUE(store.Seal());
  }
  obs::MetricsRegistry registry;
  opts.metrics = &registry;
  TraceStore store(Dir(), opts);
  const auto stats = store.Open();
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->segments_loaded, 6u);

  // Ids 5-8 live in segment 1 and ids 13-16 in segment 3.
  ASSERT_TRUE(fs::remove(Dir() + "/segment-000001.jsonl"));
  SpanId damaged = kInvalidSpanId;
  {
    const std::string file = Dir() + "/segment-000003.jsonl";
    const std::string bytes = ReadFileBytes(file);
    const std::size_t mid = bytes.size() / 2;
    // Line 0 is the header, so the flipped byte's line k holds record
    // k - 1 of the segment, id 13 + (k - 1).
    const auto line = static_cast<SpanId>(
        std::count(bytes.begin(), bytes.begin() + mid, '\n'));
    ASSERT_GE(line, 1u);
    ASSERT_LE(line, 4u);
    damaged = 13 + (line - 1);
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(mid));
    f.put(bytes[mid] == '7' ? '8' : '7');
  }
  const auto lost = [damaged](SpanId id) {
    return (id >= 5 && id <= 8) || id == damaged;
  };
  const auto failures = [&registry] {
    return registry.Snapshot().Value("tw_store_segment_load_failures_total",
                                     "");
  };

  std::vector<SpanId> streamed;
  store.Query(TraceQuery{},
              [&](const TraceSummary& s, const RecordLine& line) {
                streamed.push_back(s.trace_id);
                if (lost(s.trace_id)) {
                  EXPECT_EQ(line, nullptr) << "trace " << s.trace_id;
                } else {
                  EXPECT_NE(line, nullptr) << "trace " << s.trace_id;
                  if (line != nullptr) {
                    EXPECT_EQ(*line, TraceRecordToJson(MakeRecord(s.trace_id)));
                  }
                }
                return true;
              });
  EXPECT_EQ(streamed.size(), 22u);
  // One for the file that cannot be opened, one for the damaged record.
  EXPECT_EQ(failures(), 2);

  for (SpanId id = 1; id <= 22; ++id) {
    const auto got = store.Get(id);
    if (lost(id)) {
      EXPECT_EQ(got, nullptr) << "trace " << id;
    } else {
      ASSERT_NE(got, nullptr) << "trace " << id;
      EXPECT_TRUE(SameRecord(*got, MakeRecord(id)));
    }
  }
  EXPECT_EQ(failures(), 2 + 5);  // Get reads the file per lost id.
}

TEST_F(StoreTest, CorruptedSegmentRejectedOnOpen) {
  StoreOptions opts;
  opts.segment_traces = 3;
  {
    TraceStore store(Dir(), opts);
    ASSERT_TRUE(store.Open().has_value());
    for (SpanId id = 1; id <= 6; ++id) store.Commit(MakeRecord(id));
    EXPECT_EQ(store.sealed_segments(), 2u);
  }
  // Flip a byte in the middle of the first segment: the CRC footer (or
  // the record parser) must catch it.
  const std::string victim = Dir() + "/segment-000000.jsonl";
  std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto mid = static_cast<std::streamoff>(f.tellg()) / 2;
  f.seekg(mid);
  const char was = static_cast<char>(f.get());
  f.seekp(mid);
  f.put(was == 'X' ? 'Y' : 'X');
  f.close();

  TraceStore reopened(Dir(), opts);
  const auto stats = reopened.Open();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->segments_rejected, 1u);
  EXPECT_EQ(stats->segments_loaded, 1u);
  EXPECT_EQ(stats->traces_loaded, 3u);
  // Traces from the surviving segment still resolve.
  EXPECT_NE(reopened.Get(4), nullptr);
  EXPECT_EQ(reopened.Get(1), nullptr);
}

// --- Per-record reads through the per-line index --------------------------

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The offset of every line of `bytes`, then bytes.size() past the last.
std::vector<std::size_t> LineStarts(const std::string& bytes) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') starts.push_back(i + 1);
  }
  if (starts.back() != bytes.size()) starts.push_back(bytes.size());
  return starts;
}

/// A record with hostile names, provenance and a span count that varies
/// with `id`, so lines differ in length and content.
TraceRecord HostileRecord(SpanId id, Rng& rng) {
  TraceRecord r = MakeRecord(id, RandomHostileString(rng));
  r.root_endpoint = RandomHostileString(rng);
  for (SpanId extra = 0; extra < id % 4; ++extra) {
    Span child = r.spans.back();
    child.id += 1000 * (extra + 1);
    child.callee = RandomHostileString(rng);
    r.spans.push_back(child);
    r.parents.emplace_back(child.id, id);
  }
  std::sort(r.parents.begin(), r.parents.end());
  for (const Span& span : r.spans) {
    r.provenance.push_back(
        {obs::ProvEventType::kSettled, span.id, 7, RandomHostileString(rng)});
  }
  return r;
}

/// GetLine(id) for each of `records`' ids, as the stored line or "null".
std::vector<std::string> Fetch(const TraceStore& store,
                               const std::vector<TraceRecord>& records) {
  std::vector<std::string> bodies;
  for (const TraceRecord& r : records) {
    const RecordLine got = store.GetLine(r.trace_id);
    bodies.push_back(got ? *got : "null");
  }
  return bodies;
}

/// Query(all) as the stored lines or "null", in (start, trace_id) order.
std::vector<std::string> ListAll(const TraceStore& store) {
  std::vector<std::string> bodies;
  store.Query(TraceQuery{},
              [&bodies](const TraceSummary&, const RecordLine& line) {
                bodies.push_back(line ? *line : "null");
                return true;
              });
  return bodies;
}

/// What a fetch of each of `records` should return when exactly the
/// records `readable` accepts can still be read.
template <typename Readable>
std::vector<std::string> Expected(const std::vector<TraceRecord>& records,
                                  Readable readable) {
  std::vector<std::string> bodies;
  for (std::size_t k = 0; k < records.size(); ++k) {
    bodies.push_back(readable(k) ? TraceRecordToJson(records[k]) : "null");
  }
  return bodies;
}

/// Five records (ids 1-5, start order = commit order) sealed as one
/// segment in `dir`.
std::vector<TraceRecord> SealFive(const std::string& dir) {
  std::vector<TraceRecord> records;
  TraceStore store(dir);
  EXPECT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 5; ++id) {
    records.push_back(MakeRecord(id));
    EXPECT_TRUE(store.Commit(records.back()));
  }
  EXPECT_TRUE(store.Seal());
  return records;
}

/// After Open, a byte flipped in any one record line of a segment nulls
/// that record and no other, from Get and from a listing alike.
TEST_F(StoreTest, EachDamagedRecordLineNullsOnlyItsRecord) {
  const std::vector<TraceRecord> records = SealFive(Dir());
  const std::string file = Dir() + "/segment-000000.jsonl";
  const std::string pristine = ReadFileBytes(file);
  const std::vector<std::size_t> starts = LineStarts(pristine);
  ASSERT_EQ(starts.size(), 8u);  // Header, 5 records, footer, end.

  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.cache_traces = 0;  // Every fetch reads the file.
  opts.metrics = &registry;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  for (std::size_t k = 0; k < records.size(); ++k) {
    std::string bytes = pristine;
    const std::size_t at = (starts[k + 1] + starts[k + 2]) / 2;
    bytes[at] = bytes[at] == '7' ? '8' : '7';
    WriteFileBytes(file, bytes);
    const auto expect =
        Expected(records, [k](std::size_t i) { return i != k; });
    EXPECT_EQ(Fetch(store, records), expect) << "damaged record " << k;
    EXPECT_EQ(ListAll(store), expect) << "damaged record " << k;
  }
  // One failure per null fetch: two per damaged record.
  EXPECT_EQ(registry.Snapshot().Value("tw_store_segment_load_failures_total",
                                      ""),
            10);
}

/// The header and footer are verified at Open and never read again: a
/// byte flipped in either afterwards nulls nothing.
TEST_F(StoreTest, DamagedHeaderOrFooterAfterOpenNullsNothing) {
  const std::vector<TraceRecord> records = SealFive(Dir());
  const std::string file = Dir() + "/segment-000000.jsonl";
  const std::string pristine = ReadFileBytes(file);
  const std::vector<std::size_t> starts = LineStarts(pristine);
  ASSERT_EQ(starts.size(), 8u);

  StoreOptions opts;
  opts.cache_traces = 0;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  const auto all = Expected(records, [](std::size_t) { return true; });
  for (const std::size_t line : {std::size_t{0}, std::size_t{6}}) {
    std::string bytes = pristine;
    const std::size_t at = (starts[line] + starts[line + 1]) / 2;
    bytes[at] = bytes[at] == '7' ? '8' : '7';
    WriteFileBytes(file, bytes);
    EXPECT_EQ(Fetch(store, records), all) << "line " << line;
    EXPECT_EQ(ListAll(store), all) << "line " << line;
  }
}

/// After Open, a file cut short nulls exactly the records whose line or
/// newline lies past the cut.
TEST_F(StoreTest, TruncationAfterOpenNullsRecordsPastTheCut) {
  const std::vector<TraceRecord> records = SealFive(Dir());
  const std::string file = Dir() + "/segment-000000.jsonl";
  const std::string pristine = ReadFileBytes(file);
  const std::vector<std::size_t> starts = LineStarts(pristine);
  ASSERT_EQ(starts.size(), 8u);

  StoreOptions opts;
  opts.cache_traces = 0;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  std::set<std::size_t> cuts;
  for (std::size_t cut = 0; cut <= pristine.size(); cut += 11) {
    cuts.insert(cut);
  }
  for (const std::size_t start : starts) {
    for (const std::size_t cut : {start - 1, start, start + 1}) {
      if (cut <= pristine.size()) cuts.insert(cut);
    }
  }
  for (const std::size_t cut : cuts) {
    WriteFileBytes(file, pristine.substr(0, cut));
    // Record k is line k + 1; its newline ends at starts[k + 2].
    const auto expect = Expected(
        records, [&](std::size_t k) { return starts[k + 2] <= cut; });
    EXPECT_EQ(Fetch(store, records), expect) << "cut " << cut;
    EXPECT_EQ(ListAll(store), expect) << "cut " << cut;
  }
}

/// A segment file swapped after Open for another valid segment of the
/// same id nulls every record whose own line is not byte for byte where
/// the index put it, and keeps every record whose line is.
TEST_F(StoreTest, SwappedSegmentNullsRecordsThatDiffer) {
  const std::vector<TraceRecord> records = SealFive(Dir());
  const std::string file = Dir() + "/segment-000000.jsonl";
  const std::string pristine = ReadFileBytes(file);
  const std::vector<std::size_t> starts = LineStarts(pristine);
  StoreOptions opts;
  opts.cache_traces = 0;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());

  // Same header; record 2 (id 3) gets a same-length service, record 4
  // another trace of the same length; or record 1 (id 2) a longer
  // service, shifting every line after it.
  const std::vector<std::vector<TraceRecord>> swaps = {
      {MakeRecord(1), MakeRecord(2), MakeRecord(3, "B"), MakeRecord(4),
       MakeRecord(6)},
      {MakeRecord(1), MakeRecord(2, "AA"), MakeRecord(3), MakeRecord(4),
       MakeRecord(5)},
  };
  const std::vector<std::vector<bool>> readable = {
      {true, true, false, true, false},
      {true, false, false, false, false},
  };
  for (std::size_t w = 0; w < swaps.size(); ++w) {
    const std::string other = Dir() + "/other";
    fs::remove_all(other);
    {
      TraceStore writer(other);
      ASSERT_TRUE(writer.Open().has_value());
      for (const TraceRecord& r : swaps[w]) ASSERT_TRUE(writer.Commit(r));
      ASSERT_TRUE(writer.Seal());
    }
    const std::string bytes = ReadFileBytes(other + "/segment-000000.jsonl");
    fs::copy_file(other + "/segment-000000.jsonl", file,
                  fs::copy_options::overwrite_existing);
    const auto expect = Expected(records, [&](std::size_t k) {
      const std::size_t at = starts[k + 1];
      const std::size_t size = starts[k + 2] - at;
      // The rule the store applies, and the case this swap was built for.
      const bool same = bytes.compare(at, size, pristine, at, size) == 0;
      EXPECT_EQ(same, readable[w][k]) << "swap " << w << " record " << k;
      return same;
    });
    EXPECT_EQ(Fetch(store, records), expect) << "swap " << w;
    EXPECT_EQ(ListAll(store), expect) << "swap " << w;
  }
}

/// The seal builds a segment's line index from the bytes it writes and
/// Open from the bytes it reads; both read back the same records.
TEST_F(StoreTest, SealBuiltIndexReadsLikeOpenBuiltIndex) {
  StoreOptions opts;
  opts.segment_traces = 4;
  opts.cache_traces = 0;
  Rng rng(26);
  std::vector<TraceRecord> records;
  std::vector<std::string> sealed;
  {
    TraceStore store(Dir(), opts);
    ASSERT_TRUE(store.Open().has_value());
    for (SpanId id = 1; id <= 14; ++id) {
      records.push_back(HostileRecord(id, rng));
      ASSERT_TRUE(store.Commit(records.back()));
    }
    ASSERT_TRUE(store.Seal());
    ASSERT_EQ(store.sealed_segments(), 4u);
    sealed = Fetch(store, records);
    EXPECT_EQ(ListAll(store), sealed);
  }
  EXPECT_EQ(sealed, Expected(records, [](std::size_t) { return true; }));
  TraceStore reopened(Dir(), opts);
  ASSERT_TRUE(reopened.Open().has_value());
  EXPECT_EQ(Fetch(reopened, records), sealed);
  EXPECT_EQ(ListAll(reopened), sealed);
}

/// Sealed parts whose time bounds miss a query's range are skipped; a
/// range that touches a part's earliest start or latest end exactly still
/// returns that part's matches.
TEST_F(StoreTest, QueryTouchingPartBoundsKeepsItsMatches) {
  StoreOptions opts;
  opts.segment_traces = 4;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  // Durations vary, so a part's latest end is often not its last
  // record's, and parts overlap in time.
  std::vector<TraceRecord> all;
  for (SpanId id = 1; id <= 16; ++id) {
    TraceRecord r = MakeRecord(id);
    r.end = r.start + Millis(1) + static_cast<TimeNs>(id * 7 % 5) * Millis(25);
    all.push_back(r);
    ASSERT_TRUE(store.Commit(r));
  }
  ASSERT_EQ(store.sealed_segments(), 4u);
  const auto brute = [&all](const TraceQuery& q) {
    std::vector<SpanId> ids;
    for (const TraceRecord& r : all) {
      if (r.end >= q.from && r.start <= q.to) ids.push_back(r.trace_id);
    }
    std::sort(ids.begin(), ids.end(), [&all](SpanId a, SpanId b) {
      return all[a - 1].start < all[b - 1].start;
    });
    return ids;
  };
  for (std::size_t part = 0; part < 4; ++part) {
    TimeNs min_start = std::numeric_limits<TimeNs>::max();
    TimeNs max_end = std::numeric_limits<TimeNs>::min();
    for (std::size_t i = 4 * part; i < 4 * part + 4; ++i) {
      min_start = std::min(min_start, all[i].start);
      max_end = std::max(max_end, all[i].end);
    }
    std::vector<TraceQuery> queries(4);
    queries[0].from = queries[0].to = min_start;
    queries[1].from = queries[1].to = max_end;
    queries[2].to = min_start;
    queries[3].from = max_end;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto expect = brute(queries[qi]);
      std::vector<SpanId> got;
      for (const TraceSummary& s : store.QuerySummaries(queries[qi])) {
        got.push_back(s.trace_id);
        EXPECT_NE(store.Get(s.trace_id), nullptr);
      }
      EXPECT_EQ(got, expect) << "part " << part << " query " << qi;
      // The record at the touched bound is among the matches.
      const bool has_part = std::any_of(got.begin(), got.end(), [&](SpanId id) {
        return id > 4 * part && id <= 4 * part + 4;
      });
      EXPECT_TRUE(has_part) << "part " << part << " query " << qi;
    }
  }
}

// --- Mutated segment files ------------------------------------------------

/// Keys for the mutator: the segment header and footer, and every key a
/// store record holds.
std::vector<std::string_view> SegmentKeys() {
  std::vector<std::string_view> keys = {"schema", "segment", "traces",
                                        "footer", "lines",   "crc32"};
  for (const std::string_view k :
       {"trace", "root_service", "root_endpoint", "start", "end", "grade",
        "confidence", "min_confidence", "orphan", "suspect", "span_count",
        "spans", "parents", "provenance"}) {
    keys.push_back(k);
  }
  keys.insert(keys.end(), kSpanJsonKeys.begin(), kSpanJsonKeys.end());
  keys.insert(keys.end(), obs::kProvEventJsonKeys.begin(),
              obs::kProvEventJsonKeys.end());
  return keys;
}

/// Three hostile records sealed as segment 0 of `dir`; returns them.
std::vector<TraceRecord> SealHostile(const std::string& dir) {
  Rng rng(7);
  std::vector<TraceRecord> records;
  TraceStore store(dir);
  EXPECT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 3; ++id) {
    records.push_back(HostileRecord(id, rng));
    EXPECT_TRUE(store.Commit(records.back()));
  }
  EXPECT_TRUE(store.Seal());
  return records;
}

/// ReadChecksummedLines on 1-3 seeded mutations of a segment returns
/// nullopt or exactly the original lines and running CRCs.
TEST_F(StoreTest, MutatedChecksummedLinesAreRejectedOrOriginal) {
  SealHostile(Dir());
  const std::string pristine =
      ReadFileBytes(Dir() + "/segment-000000.jsonl");
  std::vector<std::uint32_t> original_crcs;
  std::istringstream clean(pristine);
  const auto original = ReadChecksummedLines(
      clean, TraceStore::kSegmentSchema, nullptr, &original_crcs);
  ASSERT_TRUE(original.has_value());
  ASSERT_EQ(original_crcs.size(), original->size());

  const std::vector<std::string_view> keys = SegmentKeys();
  Rng rng(2026);
  std::size_t accepted = 0;
  constexpr std::size_t kTrials = 4000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    std::string bytes = pristine;
    for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      ::traceweaver::testing::Mutate(bytes, keys, rng);
    }
    std::istringstream in(bytes);
    std::vector<std::uint32_t> crcs;
    const auto lines = ReadChecksummedLines(in, TraceStore::kSegmentSchema,
                                            nullptr, &crcs);
    if (!lines) continue;
    ++accepted;
    EXPECT_EQ(*lines, *original) << "trial " << t;
    EXPECT_EQ(crcs, original_crcs) << "trial " << t;
  }
  // Mutations past the footer leave a file that still verifies.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kTrials / 2);
}

/// Open of a mutated segment rejects it whole or loads it unchanged.
TEST_F(StoreTest, OpenOfMutatedSegmentRejectsOrLoadsUnchanged) {
  const std::vector<TraceRecord> records = SealHostile(Dir());
  const std::string file = Dir() + "/segment-000000.jsonl";
  const std::string pristine = ReadFileBytes(file);
  const auto all = Expected(records, [](std::size_t) { return true; });
  const std::vector<std::string_view> keys = SegmentKeys();
  Rng rng(2027);
  StoreOptions opts;
  opts.cache_traces = 0;
  std::size_t loaded = 0;
  constexpr std::size_t kTrials = 800;
  for (std::size_t t = 0; t < kTrials; ++t) {
    std::string bytes = pristine;
    for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      ::traceweaver::testing::Mutate(bytes, keys, rng);
    }
    WriteFileBytes(file, bytes);
    TraceStore store(Dir(), opts);
    const auto stats = store.Open();
    ASSERT_TRUE(stats.has_value());
    if (stats->segments_rejected == 1) {
      EXPECT_EQ(stats->traces_loaded, 0u) << "trial " << t;
      continue;
    }
    ++loaded;
    EXPECT_EQ(stats->traces_loaded, records.size()) << "trial " << t;
    EXPECT_EQ(Fetch(store, records), all) << "trial " << t;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kTrials / 2);
}

/// After Open, 1-3 seeded mutations of a segment file leave every Get and
/// listing record either null or byte-equal to the original record with
/// that id, never another record.
TEST_F(StoreTest, MutatedSegmentAfterOpenReadsOriginalOrNull) {
  const std::vector<TraceRecord> records = SealHostile(Dir());
  const std::string file = Dir() + "/segment-000000.jsonl";
  const std::string pristine = ReadFileBytes(file);
  std::map<SpanId, std::string> original;
  for (const TraceRecord& r : records) {
    original[r.trace_id] = TraceRecordToJson(r);
  }
  StoreOptions opts;
  opts.cache_traces = 0;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  const std::vector<std::string_view> keys = SegmentKeys();
  Rng rng(2028);
  std::size_t nulls = 0;
  std::size_t whole = 0;
  for (std::size_t t = 0; t < 3000; ++t) {
    std::string bytes = pristine;
    for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      ::traceweaver::testing::Mutate(bytes, keys, rng);
    }
    WriteFileBytes(file, bytes);
    const auto got = Fetch(store, records);
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (got[k] == "null") {
        ++nulls;
      } else {
        ++whole;
        EXPECT_EQ(got[k], TraceRecordToJson(records[k])) << "trial " << t;
      }
    }
    const std::size_t listed = store.Query(
        TraceQuery{}, [&](const TraceSummary& s, const RecordLine& line) {
          if (line != nullptr) {
            EXPECT_EQ(*line, original[s.trace_id]) << "trial " << t;
          }
          return true;
        });
    EXPECT_EQ(listed, records.size()) << "trial " << t;
  }
  EXPECT_GT(nulls, 0u);
  EXPECT_GT(whole, 0u);
}

// --- Bytes served equal bytes stored ---------------------------------------

/// Every tier a record can be read from -- active, just sealed (cached by
/// the seal), cold on disk, cached after a cold read, and after a reopen
/// -- serves the same bytes, exactly sized, with an index entry whose
/// provenance offset is json::FindValue's; Get decodes them.
TEST_F(StoreTest, EveryTierServesReencodedBytes) {
  Rng rng(28);
  std::vector<TraceRecord> records;
  for (SpanId id = 1; id <= 10; ++id) {
    records.push_back(HostileTraceRecord(id, rng));
  }
  const auto check = [&](const TraceStore& store, std::size_t count,
                         const std::string& tier) {
    std::vector<std::string> listed;
    for (std::size_t k = 0; k < count; ++k) {
      const TraceRecord& r = records[k];
      const std::string want = ReencodedLine(r);
      ASSERT_EQ(want, TraceRecordToJson(r)) << tier << " " << r.trace_id;
      TraceSummary summary;
      const RecordLine line = store.GetLine(r.trace_id, &summary);
      ASSERT_NE(line, nullptr) << tier << " " << r.trace_id;
      EXPECT_EQ(*line, want) << tier << " " << r.trace_id;
      EXPECT_EQ(line->capacity(), line->size()) << tier << " " << r.trace_id;
      const std::size_t at = json::FindValue(*line, "provenance");
      EXPECT_EQ(summary.provenance, at == std::string::npos ? 0 : at)
          << tier << " " << r.trace_id;
      EXPECT_EQ(summary.trace_id, r.trace_id) << tier;
      const auto rec = store.Get(r.trace_id);
      ASSERT_NE(rec, nullptr) << tier << " " << r.trace_id;
      EXPECT_EQ(TraceRecordToJson(*rec), want) << tier << " " << r.trace_id;
      listed.push_back(want);
    }
    // Commit order is start order here.
    EXPECT_EQ(ListAll(store), listed) << tier;
  };

  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.segment_traces = 4;
  opts.cache_traces = 64;
  opts.metrics = &registry;
  const auto value = [&registry](const char* name) {
    return registry.Snapshot().Value(name, "");
  };
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  for (std::size_t k = 0; k < 3; ++k) ASSERT_TRUE(store.Commit(records[k]));
  check(store, 3, "active");
  ASSERT_TRUE(store.Commit(records[3]));  // Seals segment 0.
  ASSERT_EQ(store.sealed_segments(), 1u);
  check(store, 4, "just sealed");
  EXPECT_EQ(value("tw_store_segment_reads_total"), 0);
  for (std::size_t k = 4; k < records.size(); ++k) {
    ASSERT_TRUE(store.Commit(records[k]));
  }
  ASSERT_TRUE(store.Seal());
  check(store, records.size(), "sealed");

  StoreOptions cold = opts;
  cold.cache_traces = 0;
  cold.metrics = nullptr;
  TraceStore uncached(Dir(), cold);
  ASSERT_TRUE(uncached.Open().has_value());
  check(uncached, records.size(), "cold");

  obs::MetricsRegistry reopened_registry;
  StoreOptions again = opts;
  again.metrics = &reopened_registry;
  TraceStore reopened(Dir(), again);
  ASSERT_TRUE(reopened.Open().has_value());
  check(reopened, records.size(), "reopened");
  const auto hits = [&reopened_registry] {
    return reopened_registry.Snapshot().Value("tw_store_cache_hits_total",
                                              "");
  };
  const std::int64_t before = hits();
  check(reopened, records.size(), "cached");
  // Each record: GetLine, Get and the listing, all from the cache.
  EXPECT_EQ(hits() - before, static_cast<std::int64_t>(3 * records.size()));
}

/// The record codec is a fixed point on every line it accepts: encoding a
/// decoded record and decoding that again gives the same bytes. So a line
/// the store keeps as encoded is the line any decode-and-encode of it
/// would give. Each decoded record is also committed, and its index entry
/// must hold json::FindValue's provenance offset.
TEST_F(StoreTest, RecordCodecIsAFixedPointOnMutatedInputs) {
  Rng rng(2029);
  std::vector<std::string> base;
  for (SpanId id = 1; id <= 12; ++id) {
    base.push_back(TraceRecordToJson(HostileTraceRecord(id, rng)));
  }
  StoreOptions opts;
  opts.cache_traces = 0;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());
  const std::vector<std::string_view> keys = SegmentKeys();
  std::size_t decoded = 0;
  std::size_t committed = 0;
  constexpr std::size_t kTrials = 12000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    std::string line = base[t % base.size()];
    for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      ::traceweaver::testing::Mutate(line, keys, rng);
    }
    const auto record = TraceRecordFromJson(line);
    if (!record) continue;
    ++decoded;
    const std::string once = TraceRecordToJson(*record);
    const auto again = TraceRecordFromJson(once);
    ASSERT_TRUE(again.has_value()) << once;
    EXPECT_EQ(TraceRecordToJson(*again), once) << "trial " << t;
    if (!store.Commit(*record)) continue;
    ++committed;
    TraceSummary summary;
    const RecordLine stored = store.GetLine(record->trace_id, &summary);
    ASSERT_NE(stored, nullptr) << "trial " << t;
    EXPECT_EQ(*stored, once) << "trial " << t;
    const std::size_t at = json::FindValue(once, "provenance");
    EXPECT_EQ(summary.provenance, at == std::string::npos ? 0 : at)
        << "trial " << t;
  }
  EXPECT_GT(decoded, kTrials / 5);
  EXPECT_LT(decoded, kTrials * 4 / 5);
  EXPECT_GT(committed, 10u);
}

/// Kill-point property: truncate a sealed segment at every prefix length;
/// reopen must never surface a partial trace -- the segment is either
/// whole (full length only) or rejected entirely. Leftover .tmp files are
/// ignored.
TEST_F(StoreTest, SealKillPointsNeverYieldPartialSegments) {
  StoreOptions opts;
  opts.segment_traces = 4;
  {
    TraceStore store(Dir(), opts);
    ASSERT_TRUE(store.Open().has_value());
    for (SpanId id = 1; id <= 4; ++id) store.Commit(MakeRecord(id));
  }
  const std::string seg = Dir() + "/segment-000000.jsonl";
  std::string full;
  {
    std::ifstream in(seg, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  ASSERT_GT(full.size(), 0u);

  // A crash before rename leaves only the tmp file: Open must ignore it.
  fs::remove(seg);
  std::ofstream(seg + ".tmp", std::ios::binary) << full;
  {
    TraceStore store(Dir(), opts);
    const auto stats = store.Open();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->segments_loaded, 0u);
    EXPECT_EQ(stats->segments_rejected, 0u);
  }
  fs::remove(seg + ".tmp");

  // A crash mid-write (simulated at every truncation point, stepping a
  // few bytes at a time) is all-or-nothing: either the payload and CRC
  // footer are intact (only possible right at the end, e.g. a missing
  // final newline) and every trace loads, or the segment is rejected
  // whole. A partially-loaded segment is never acceptable.
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    std::ofstream(seg, std::ios::binary | std::ios::trunc)
        << full.substr(0, cut);
    TraceStore store(Dir(), opts);
    const auto stats = store.Open();
    ASSERT_TRUE(stats.has_value()) << "cut=" << cut;
    if (stats->segments_rejected == 1) {
      EXPECT_EQ(stats->traces_loaded, 0u) << "cut=" << cut;
    } else {
      EXPECT_GE(cut, full.size() - 2) << "cut=" << cut
                                      << ": short file accepted";
      EXPECT_EQ(stats->traces_loaded, 4u) << "cut=" << cut;
      for (SpanId id = 1; id <= 4; ++id) {
        EXPECT_NE(store.Get(id), nullptr) << "cut=" << cut;
      }
    }
  }

  // The full file loads all four traces.
  std::ofstream(seg, std::ios::binary | std::ios::trunc) << full;
  TraceStore store(Dir(), opts);
  const auto stats = store.Open();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->traces_loaded, 4u);
}

/// Readers race the ingesting writer: every Get/Query observes only whole
/// records and monotonically growing sizes (snapshot isolation).
TEST_F(StoreTest, ConcurrentReadersWhileIngesting) {
  StoreOptions opts;
  opts.segment_traces = 16;
  opts.cache_traces = 8;
  TraceStore store(Dir(), opts);
  ASSERT_TRUE(store.Open().has_value());

  constexpr SpanId kTraces = 400;
  std::atomic<bool> done{false};
  std::atomic<SpanId> committed{0};

  std::thread writer([&] {
    for (SpanId id = 1; id <= kTraces; ++id) {
      ASSERT_TRUE(store.Commit(MakeRecord(id)));
      committed.store(id, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> reads{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::size_t last_size = 0;
      while (!done.load(std::memory_order_acquire) || t == 0) {
        const SpanId upto = committed.load(std::memory_order_acquire);
        if (upto > 0) {
          const SpanId id = 1 + (reads.fetch_add(1) % upto);
          const auto rec = store.Get(id);
          ASSERT_NE(rec, nullptr) << "committed trace " << id << " missing";
          ASSERT_EQ(rec->trace_id, id);
          ASSERT_EQ(rec->spans.size(), 2u);
          ASSERT_EQ(rec->spans.front().id, id);
        }
        const std::size_t size = store.size();
        ASSERT_GE(size, last_size) << "size went backwards";
        ASSERT_GE(size, static_cast<std::size_t>(upto));
        last_size = size;
        TraceQuery q;
        q.limit = 10;
        store.Query(q, [](const TraceSummary& s, const RecordLine& line) {
          EXPECT_NE(line, nullptr);
          if (line != nullptr) {
            EXPECT_EQ(json::FieldU64(*line, "trace"), s.trace_id);
          }
          return true;
        });
        // A listing of the newest traces spans segments the writer is
        // sealing and the cache has dropped: exactly ids lo..upto
        // overlap [lo, upto] * 10 ms, and all of them are committed.
        if (upto > 1) {
          const SpanId lo = upto > 40 ? upto - 40 : 1;
          TraceQuery recent;
          recent.service = "A";
          recent.from = static_cast<TimeNs>(lo) * Millis(10);
          recent.to = static_cast<TimeNs>(upto) * Millis(10);
          SpanId want = lo;
          store.Query(recent,
                      [&want](const TraceSummary& s, const RecordLine& line) {
                        EXPECT_EQ(s.trace_id, want);
                        EXPECT_NE(line, nullptr);
                        if (line != nullptr) {
                          EXPECT_EQ(*line, TraceRecordToJson(MakeRecord(want)));
                        }
                        ++want;
                        return true;
                      });
          ASSERT_EQ(want, upto + 1) << "listing of ids " << lo << ".." << upto;
        }
        if (t == 0 && done.load(std::memory_order_acquire)) break;
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kTraces));
}

// ---------------------------------------------------------------------
// TraceCommitter: the online -> store bridge.

WindowResult Window(TimeNs start, TimeNs end,
                    std::vector<std::pair<SpanId, SpanId>> edges = {},
                    std::vector<SpanId> orphans = {}) {
  WindowResult r;
  r.window_start = start;
  r.window_end = end;
  for (const auto& [child, parent] : edges) r.assignment[child] = parent;
  r.orphans = std::move(orphans);
  return r;
}

TEST_F(StoreTest, CommitterSettlesRootedTrace) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  CommitterOptions copts;
  copts.window = Millis(100);
  copts.margin = Millis(10);
  TraceCommitter committer(copts, &store);

  const Span root = MakeSpan(1, kClientCaller, "A", "/a", Millis(1), Millis(9));
  const Span child = MakeSpan(2, "A", "B", "/b", Millis(3), Millis(7));
  committer.OnSpan(root);
  committer.OnSpan(child);

  // Root completes ~9ms; settle = window + margin = 110ms past that.
  committer.OnResults({Window(0, Millis(100), {{2, 1}})});
  EXPECT_EQ(store.size(), 0u) << "not settled yet";
  committer.OnResults({Window(Millis(100), Millis(200))});
  EXPECT_EQ(store.size(), 1u);
  const auto rec = store.Get(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->spans.size(), 2u);
  EXPECT_EQ(rec->spans.front().id, 1u);  // Root first.
  ASSERT_EQ(rec->parents.size(), 1u);
  EXPECT_EQ(rec->parents[0], (std::pair<SpanId, SpanId>{2, 1}));
  EXPECT_FALSE(rec->orphan);
  EXPECT_EQ(committer.pending_spans(), 0u);
}

TEST_F(StoreTest, CommitterCommitsWeaverOrphansImmediately) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  CommitterOptions copts;
  copts.window = Millis(100);
  TraceCommitter committer(copts, &store);

  const Span lost = MakeSpan(5, "A", "B", "/b", Millis(2), Millis(8));
  committer.OnSpan(lost);
  committer.OnResults({Window(0, Millis(100), {}, {5})});
  EXPECT_EQ(store.size(), 1u);
  const auto rec = store.Get(5);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->orphan);  // Non-client caller, no reconstructed parent.
}

TEST_F(StoreTest, CommitterFinalizeDrainsEverything) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TraceCommitter committer(CommitterOptions{}, &store);
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", 100, 900));
  committer.OnSpan(MakeSpan(2, "A", "B", "/b", 200, 800));
  committer.OnResults({Window(0, Millis(1), {{2, 1}})});
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(committer.Finalize(), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(1)->spans.size(), 2u);
  EXPECT_EQ(committer.pending_spans(), 0u);
}

TEST_F(StoreTest, CommitterQualityRowsReachTheRecord) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TraceCommitter committer(CommitterOptions{}, &store);
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", 100, 900));

  WindowResult w = Window(0, Millis(1));
  obs::TraceQuality tq;
  tq.root = 1;
  tq.grade = 'C';
  tq.confidence = 0.42;
  tq.min_confidence = 0.17;
  w.trace_quality.push_back(tq);
  committer.OnResults({w});
  committer.Finalize();

  const auto rec = store.Get(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->grade, 'C');
  EXPECT_NEAR(rec->confidence, 0.42, 1e-9);
  EXPECT_NEAR(rec->min_confidence, 0.17, 1e-9);
}

TEST_F(StoreTest, CommitterStateRoundtrip) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  CommitterOptions copts;
  copts.window = Millis(100);
  copts.margin = Millis(10);
  TraceCommitter committer(copts, &store);
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", Millis(1), Millis(9)));
  committer.OnSpan(MakeSpan(2, "A", "B", "/b", Millis(3), Millis(7)));
  WindowResult w = Window(0, Millis(100), {{2, 1}});
  obs::TraceQuality tq;
  tq.root = 1;
  tq.grade = 'B';
  tq.confidence = 0.75;
  tq.min_confidence = 0.6;
  w.trace_quality.push_back(tq);
  committer.OnResults({w});
  ASSERT_EQ(store.size(), 0u) << "trace must still be pending";

  std::stringstream state;
  committer.SaveState(state);

  // A fresh committer restored from the state file settles the trace at
  // the same point with the same record.
  TraceCommitter restored(copts, &store);
  std::string err;
  ASSERT_TRUE(restored.LoadState(state, &err)) << err;
  EXPECT_EQ(restored.pending_spans(), 2u);
  restored.OnResults({Window(Millis(100), Millis(200))});
  EXPECT_EQ(store.size(), 1u);
  const auto rec = store.Get(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->grade, 'B');
  EXPECT_EQ(rec->spans.size(), 2u);
  ASSERT_EQ(rec->parents.size(), 1u);

  // Corrupted state is rejected, never half-loaded.
  std::stringstream bad("garbage\n");
  TraceCommitter reject(copts, &store);
  EXPECT_FALSE(reject.LoadState(bad, &err));
  EXPECT_EQ(reject.pending_spans(), 0u);
}


TEST_F(StoreTest, CommitterFinalizeLeavesNoQualityRows) {
  // Span 2 is first reported as the root of its own fragment (quality
  // row for 2), then grafted under root 1. Finalize commits it inside 1's
  // subtree, and its row must go with it.
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TraceCommitter committer(CommitterOptions{}, &store);
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", 100, 900));
  committer.OnSpan(MakeSpan(2, "A", "B", "/b", 200, 800));
  WindowResult w = Window(0, Millis(1));
  obs::TraceQuality tq;
  tq.root = 2;
  tq.grade = 'D';
  w.trace_quality.push_back(tq);
  committer.OnResults({w, Window(Millis(1), Millis(2), {{2, 1}})});
  EXPECT_EQ(committer.Finalize(), 1u);

  std::stringstream state;
  committer.SaveState(state);
  std::string err;
  const auto lines =
      ReadChecksummedLines(state, TraceCommitter::kStateSchema, &err);
  ASSERT_TRUE(lines.has_value()) << err;
  ASSERT_EQ(lines->size(), 1u) << "only the header may remain";
  EXPECT_EQ(json::FieldU64(lines->front(), "spans"), 0u);
  EXPECT_EQ(json::FieldU64(lines->front(), "edges"), 0u);
  EXPECT_EQ(json::FieldU64(lines->front(), "quality"), 0u);
}

TEST_F(StoreTest, CommitterAndSamplerStateBytesArePinned) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TailSamplerOptions sopts;
  sopts.window = Millis(100);
  TailSampler sampler(sopts);
  CommitterOptions copts;
  copts.window = Millis(100);
  copts.margin = Millis(10);
  copts.sampler = &sampler;
  TraceCommitter committer(copts, &store);
  // Trace 5 settles (and is offered to the sampler); root 1 stays
  // pending with an edge from a child not yet ingested.
  committer.OnSpan(MakeSpan(5, kClientCaller, "A", "/a", 0, Millis(1)));
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", Millis(300),
                            Millis(301)));
  WindowResult w = Window(0, Millis(200), {{2, 1}});
  w.shed = true;
  obs::TraceQuality tq;
  tq.root = 1;
  tq.spans = 2;
  tq.parents = 1;
  tq.grade = 'B';
  tq.confidence = 0.1;
  tq.min_confidence = 0.25;
  w.trace_quality.push_back(tq);
  ASSERT_EQ(committer.OnResults({w}), 1u);

  std::stringstream committer_state;
  committer.SaveState(committer_state);
  EXPECT_EQ(
      committer_state.str(),
      "{\"schema\":\"traceweaver.committer.v1\",\"spans\":1,\"edges\":1,"
      "\"quality\":1,\"last_closed_end\":200000000,\"committed\":1}\n"
      "{\"id\":1,\"caller\":\"client\",\"callee\":\"A\",\"endpoint\":"
      "\"/a\",\"client_send\":299900000,\"server_recv\":300000000,"
      "\"server_send\":301000000,\"client_recv\":301100000,"
      "\"caller_replica\":0,\"callee_replica\":0,"
      "\"true_parent\":18446744073709551615,"
      "\"true_trace\":18446744073709551615}\n"
      "{\"child\":2,\"parent\":1}\n"
      "{\"root\":1,\"tspans\":2,\"tparents\":1,\"skips\":0,\"orphan\":0,"
      "\"suspect\":0,\"confidence\":0.10000000000000001,"
      "\"min_confidence\":0.25,\"grade\":\"B\"}\n"
      "{\"footer\":\"traceweaver.committer.v1\",\"lines\":4,"
      "\"crc32\":1077831024}\n");

  std::stringstream sampler_state;
  sampler.SaveState(sampler_state);
  EXPECT_EQ(sampler_state.str(),
            "{\"schema\":\"traceweaver.sampler.v1\",\"considered\":1,"
            "\"shed\":0,\"kept_interesting\":1,\"kept_random\":0,"
            "\"last_shed_end\":200000000}\n"
            "{\"footer\":\"traceweaver.sampler.v1\",\"lines\":1,"
            "\"crc32\":3597692960}\n");
}

/// Committer state written by hand, every record type in the saver's
/// section order: hostile strings in a span, -0 and a denormal in a
/// quality row, and grades that need escaping.
std::vector<std::string> CommitterGoldenLines() {
  const std::string hostile =
      R"j("h\"o\\s\n\t\r\b\f\u0001\u001f)j"
      "\xc3\xa9\xf0\x9f\x98\x80/"
      R"j(x\",\"tspans\":9,{}[]:")j";
  return {
      R"({"schema":"traceweaver.committer.v1","spans":2,"edges":2,)"
      R"("quality":2,"last_closed_end":200000000,"committed":3})",
      R"({"id":1,"caller":"client","callee":)" + hostile +
          R"(,"endpoint":"/a","client_send":299900000,)"
          R"("server_recv":300000000,"server_send":301000000,)"
          R"("client_recv":301100000,"caller_replica":0,)"
          R"("callee_replica":3,"true_parent":18446744073709551615,)"
          R"("true_trace":18446744073709551615})",
      R"({"id":7,"caller":"client","callee":"A","endpoint":)" + hostile +
          R"(,"client_send":-5,"server_recv":0,"server_send":10,)"
          R"("client_recv":20,"caller_replica":1,"callee_replica":0,)"
          R"("true_parent":0,"true_trace":7})",
      R"({"child":2,"parent":1})",
      R"({"child":3,"parent":1})",
      R"({"root":1,"tspans":3,"tparents":2,"skips":1,"orphan":1,)"
      R"("suspect":0,"confidence":-0,)"
      R"("min_confidence":4.9406564584124654e-324,"grade":"\u0001"})",
      R"({"root":7,"tspans":1,"tparents":0,"skips":0,"orphan":0,)"
      R"("suspect":1,"confidence":0.10000000000000001,)"
      R"("min_confidence":0.25,"grade":"\""})",
  };
}

std::string FrameCommitter(const std::vector<std::string>& lines) {
  std::stringstream out;
  ChecksummedWriter w(out, TraceCommitter::kStateSchema);
  for (const std::string& l : lines) w.WriteLine(l);
  w.Finish();
  return out.str();
}

TEST_F(StoreTest, CommitterFormatGoldenReSavesByteForByte) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TraceCommitter committer(CommitterOptions{}, &store);
  const std::string golden = FrameCommitter(CommitterGoldenLines());
  std::stringstream in(golden);
  std::string err;
  ASSERT_TRUE(committer.LoadState(in, &err)) << err;
  EXPECT_EQ(committer.pending_spans(), 2u);
  std::stringstream out;
  committer.SaveState(out);
  EXPECT_EQ(out.str(), golden);
}

TEST_F(StoreTest, CommitterQualityRowMissingFieldRejected) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TraceCommitter committer(CommitterOptions{}, &store);
  std::vector<std::string> lines = CommitterGoldenLines();
  const std::string golden = FrameCommitter(lines);
  std::stringstream in(golden);
  std::string err;
  ASSERT_TRUE(committer.LoadState(in, &err)) << err;

  // The first quality row without its `tspans` count.
  std::string& row = lines[5];
  ASSERT_EQ(row.rfind("{\"root\":1,", 0), 0u) << row;
  const std::size_t at = row.find(",\"tspans\":3");
  ASSERT_NE(at, std::string::npos);
  row.erase(at, std::string(",\"tspans\":3").size());
  std::stringstream damaged(FrameCommitter(lines));
  err.clear();
  EXPECT_FALSE(committer.LoadState(damaged, &err));
  EXPECT_NE(err.find("quality"), std::string::npos) << err;
  std::stringstream out;
  committer.SaveState(out);
  EXPECT_EQ(out.str(), golden);
}

TEST_F(StoreTest, CommitterStateWithWrappingCountsRejected) {
  // Section counts whose sum wraps around to the real line count (2^64-1
  // spans + 3 edges + the header == 3 lines) must not send the loader
  // past the two span lines that are really there.
  std::vector<std::string> lines = CommitterGoldenLines();
  lines = {R"({"schema":"traceweaver.committer.v1",)"
           R"("spans":18446744073709551615,"edges":3,"quality":0,)"
           R"("last_closed_end":0,"committed":0})",
           lines[1], lines[2]};
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  TraceCommitter committer(CommitterOptions{}, &store);
  std::stringstream in(FrameCommitter(lines));
  std::string err;
  EXPECT_FALSE(committer.LoadState(in, &err));
  EXPECT_EQ(committer.pending_spans(), 0u);
}

// ---------------------------------------------------------------------
// The settle-time index against a full-scan reference.

/// The committer as it was before the settle-time index: every OnResults
/// rescans the whole pending set for due roots and fragment roots, then
/// prunes the quality rows of roots no longer pending. A brute-force
/// oracle for the indexed sweep (provenance left out).
class ScanCommitter {
 public:
  ScanCommitter(CommitterOptions options, TraceStore* store)
      : options_(options), store_(store) {}

  void OnSpan(const Span& span) { spans_[span.id] = span; }

  std::size_t OnResults(const std::vector<WindowResult>& results) {
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
      for (const obs::TraceQuality& tq : r.trace_quality) {
        quality_[tq.root] = tq;
      }
      last_closed_end_ = std::max(last_closed_end_, r.window_end);
      std::vector<SpanId> lost(r.orphans);
      std::sort(lost.begin(), lost.end());
      for (SpanId id : lost) {
        if (spans_.count(id) > 0 && parent_of_.count(id) == 0 &&
            CommitTrace(id)) {
          ++committed;
        }
      }
    }
    const DurationNs settle = options_.window * kSettleWindows + options_.margin;
    std::vector<SpanId> due;
    for (const auto& [id, span] : spans_) {
      if (span.IsRoot() && span.client_recv + settle <= last_closed_end_) {
        due.push_back(id);
      }
    }
    for (const auto& [id, span] : spans_) {
      if (span.IsRoot() || parent_of_.count(id) > 0) continue;
      if (span.client_recv + settle + options_.window <= last_closed_end_) {
        due.push_back(id);
      }
    }
    std::sort(due.begin(), due.end());
    for (SpanId id : due) {
      if (CommitTrace(id)) ++committed;
    }
    for (auto it = quality_.begin(); it != quality_.end();) {
      it = spans_.count(it->first) == 0 ? quality_.erase(it) : std::next(it);
    }
    committed_ += committed;
    return committed;
  }

  void SaveState(std::ostream& out) const {
    ChecksummedWriter writer(out, TraceCommitter::kStateSchema);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"schema\":\"%s\",\"spans\":%zu,\"edges\":%zu,"
                  "\"quality\":%zu,\"last_closed_end\":%" PRId64
                  ",\"committed\":%zu}",
                  TraceCommitter::kStateSchema, spans_.size(),
                  parent_of_.size(), quality_.size(),
                  static_cast<std::int64_t>(last_closed_end_), committed_);
    writer.WriteLine(buf);
    for (const auto& [id, span] : spans_) {
      writer.WriteLine(SpanToJson(span, /*include_ground_truth=*/true));
    }
    for (const auto& [child, parent] : parent_of_) {
      std::snprintf(buf, sizeof(buf),
                    "{\"child\":%" PRIu64 ",\"parent\":%" PRIu64 "}", child,
                    parent);
      writer.WriteLine(buf);
    }
    for (const auto& [root, tq] : quality_) {
      std::snprintf(buf, sizeof(buf),
                    "{\"root\":%" PRIu64
                    ",\"tspans\":%zu,\"tparents\":%zu,\"skips\":%zu,"
                    "\"orphan\":%d,\"suspect\":%d,\"confidence\":%.17g,"
                    "\"min_confidence\":%.17g,\"grade\":\"%c\"}",
                    root, tq.spans, tq.parents, tq.skips, tq.orphan ? 1 : 0,
                    tq.suspect_orphan ? 1 : 0, tq.confidence,
                    tq.min_confidence, tq.grade);
      writer.WriteLine(buf);
    }
    writer.Finish();
  }

 private:
  bool CommitTrace(SpanId root) {
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
    std::vector<SpanId> stack{root};
    while (!stack.empty()) {
      const SpanId id = stack.back();
      stack.pop_back();
      const auto it = spans_.find(id);
      if (it == spans_.end()) continue;
      record.spans.push_back(it->second);
      if (id != root) record.parents.emplace_back(id, parent_of_.at(id));
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
    }
    quality_.erase(root);
    if (options_.sampler != nullptr && !options_.sampler->Decide(record).keep) {
      return false;
    }
    // An id the store already holds counts too, as in TraceCommitter.
    return store_->Commit(std::move(record)) || store_->Contains(root);
  }

  CommitterOptions options_;
  TraceStore* store_;
  // Ordered maps: SaveState walks them in id order.
  std::map<SpanId, Span> spans_;
  std::map<SpanId, SpanId> parent_of_;
  std::map<SpanId, std::vector<SpanId>> children_;
  std::map<SpanId, obs::TraceQuality> quality_;
  TimeNs last_closed_end_ = 0;
  std::size_t committed_ = 0;
};

/// One committer input stream: before call k, ingest[k] goes to OnSpan;
/// then results[k] goes to OnResults.
struct CommitterStream {
  std::vector<std::vector<Span>> ingest;
  std::vector<std::vector<WindowResult>> results;
};

/// Random roots, children and orphans over `calls` OnResults calls of
/// 0-2 windows of `window` each. Completion times straddle the closed
/// clock, so some spans arrive late (already due). Some spans are
/// re-ingested with a shifted completion time; edges, orphans and
/// quality rows name ids at random, including spans not yet ingested or
/// already committed. Every third id is a client root, and, as from the
/// weaver, roots never get a parent edge.
CommitterStream RandomCommitterStream(Rng& rng, int calls, DurationNs window) {
  CommitterStream stream;
  std::vector<Span> known;
  SpanId next_id = 1;
  TimeNs window_end = 0;
  const auto is_root = [](SpanId id) { return id % 3 == 0; };
  const auto any_id = [&] {
    return static_cast<SpanId>(
        rng.UniformInt(1, static_cast<std::int64_t>(next_id) + 3));
  };
  for (int k = 0; k < calls; ++k) {
    std::vector<Span>& batch = stream.ingest.emplace_back();
    for (std::int64_t n = rng.UniformInt(0, 8); n > 0; --n) {
      const TimeNs recv = window_end + rng.UniformInt(-2 * window, window);
      const TimeNs send = recv + rng.UniformInt(Millis(1), Millis(60));
      known.push_back(MakeSpan(next_id, is_root(next_id) ? kClientCaller : "A",
                               "B", "/b", recv, send));
      ++next_id;
      batch.push_back(known.back());
    }
    if (!known.empty() && rng.Bernoulli(0.3)) {
      Span again = known[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(known.size()) - 1))];
      again.client_recv += rng.UniformInt(-window, window);
      batch.push_back(again);
    }

    std::vector<WindowResult>& results = stream.results.emplace_back();
    for (std::int64_t n = rng.UniformInt(0, 2); n > 0; --n) {
      const TimeNs start = window_end;
      if (rng.Bernoulli(0.8)) window_end += window;
      WindowResult r = Window(start, window_end);
      r.shed = rng.Bernoulli(0.1);
      for (std::int64_t e = rng.UniformInt(0, 5); e > 0; --e) {
        const SpanId child = any_id();
        // Parents precede children, so assignments never form a cycle.
        if (child > 1 && !is_root(child)) {
          r.assignment[child] = static_cast<SpanId>(
              rng.UniformInt(1, static_cast<std::int64_t>(child) - 1));
        }
      }
      for (std::int64_t o = rng.UniformInt(0, 2); o > 0; --o) {
        r.orphans.push_back(any_id());
      }
      for (std::int64_t q = rng.UniformInt(0, 4); q > 0; --q) {
        obs::TraceQuality tq;
        tq.root = any_id();
        tq.spans = static_cast<std::size_t>(rng.UniformInt(1, 9));
        tq.grade = static_cast<char>('A' + rng.UniformInt(0, 3));
        tq.confidence = rng.Uniform(0.0, 1.0);
        tq.min_confidence = tq.confidence * rng.Uniform(0.0, 1.0);
        tq.suspect_orphan = rng.Bernoulli(0.1);
        r.trace_quality.push_back(tq);
      }
      results.push_back(std::move(r));
    }
  }
  return stream;
}

/// Every sealed segment of the store in `dir`, concatenated in order.
std::string SegmentBytes(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("segment-", 0) == 0 && entry.path().extension() == ".jsonl") {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  std::string bytes;
  for (const std::string& name : names) bytes += ReadFileBytes(dir + "/" + name);
  return bytes;
}

TEST_F(StoreTest, CommitterSettleIndexMatchesFullScan) {
  const DurationNs window = Millis(100);
  std::uint64_t seed = 0;
  for (const bool sampled : {false, true}) {
    for (int stream_no = 0; stream_no < 36; ++stream_no) {
      Rng rng(20261017 + ++seed);
      const CommitterStream stream = RandomCommitterStream(rng, 40, window);
      SCOPED_TRACE(::testing::Message()
                   << "sampled=" << sampled << " stream=" << stream_no);

      const std::string indexed_dir = Dir() + "/indexed";
      const std::string scan_dir = Dir() + "/scan";
      fs::remove_all(Dir());
      TraceStore indexed_store(indexed_dir);
      TraceStore scan_store(scan_dir);
      ASSERT_TRUE(indexed_store.Open().has_value());
      ASSERT_TRUE(scan_store.Open().has_value());
      TailSamplerOptions sopts;
      sopts.window = window;
      sopts.keep_rate = 0.5;
      TailSampler indexed_sampler(sopts);
      TailSampler scan_sampler(sopts);
      CommitterOptions copts;
      copts.window = window;
      copts.margin = Millis(10);
      copts.sampler = sampled ? &indexed_sampler : nullptr;
      TraceCommitter indexed(copts, &indexed_store);
      copts.sampler = sampled ? &scan_sampler : nullptr;
      ScanCommitter scan(copts, &scan_store);

      for (std::size_t k = 0; k < stream.results.size(); ++k) {
        for (const Span& span : stream.ingest[k]) {
          indexed.OnSpan(span);
          scan.OnSpan(span);
        }
        ASSERT_EQ(indexed.OnResults(stream.results[k]),
                  scan.OnResults(stream.results[k]))
            << "call " << k;
        // Sealing after every call makes each call's commits (ids,
        // order and records) one segment file to compare.
        ASSERT_TRUE(indexed_store.Seal());
        ASSERT_TRUE(scan_store.Seal());
        ASSERT_EQ(SegmentBytes(indexed_dir), SegmentBytes(scan_dir))
            << "call " << k;
        std::stringstream indexed_state;
        std::stringstream scan_state;
        indexed.SaveState(indexed_state);
        scan.SaveState(scan_state);
        ASSERT_EQ(indexed_state.str(), scan_state.str()) << "call " << k;
        std::stringstream indexed_sampler_state;
        std::stringstream scan_sampler_state;
        indexed_sampler.SaveState(indexed_sampler_state);
        scan_sampler.SaveState(scan_sampler_state);
        ASSERT_EQ(indexed_sampler_state.str(), scan_sampler_state.str());
      }
    }
  }
}

TEST_F(StoreTest, CommitterRestoreAtEveryCallMatchesUninterruptedRun) {
  const DurationNs window = Millis(100);
  CommitterOptions copts;
  copts.window = window;
  copts.margin = Millis(10);
  Rng rng(9117);
  CommitterStream stream = RandomCommitterStream(rng, 30, window);
  // A fragment root no window result ever names: due at client_recv +
  // settle + window (~230 ms), past the end of the first call's windows
  // (at most 200 ms), so a restore after that call must find it through
  // the rebuilt index.
  constexpr SpanId kFragment = 1000000;
  stream.ingest[0].push_back(
      MakeSpan(kFragment, "A", "B", "/b", Millis(5), Millis(20)));

  struct Outcome {
    std::string state;     ///< SaveState before Finalize.
    std::string segments;  ///< Sealed store after Finalize.
  };
  // Runs the stream, restoring into a fresh committer after call `split`
  // (-1: never).
  const auto run = [&](const std::string& dir, int split) {
    TraceStore store(dir);
    EXPECT_TRUE(store.Open().has_value());
    auto committer = std::make_unique<TraceCommitter>(copts, &store);
    for (std::size_t k = 0; k < stream.results.size(); ++k) {
      for (const Span& span : stream.ingest[k]) committer->OnSpan(span);
      committer->OnResults(stream.results[k]);
      if (k == 0) {
        EXPECT_FALSE(store.Contains(kFragment)) << "fragment due too early";
      }
      if (static_cast<int>(k) == split) {
        std::stringstream saved;
        committer->SaveState(saved);
        committer = std::make_unique<TraceCommitter>(copts, &store);
        std::string err;
        EXPECT_TRUE(committer->LoadState(saved, &err)) << err;
      }
    }
    EXPECT_TRUE(store.Contains(kFragment)) << "fragment never settled";
    Outcome out;
    std::stringstream state;
    committer->SaveState(state);
    out.state = state.str();
    committer->Finalize();
    EXPECT_TRUE(store.Seal());
    out.segments = SegmentBytes(dir);
    return out;
  };

  const Outcome reference = run(Dir() + "/reference", -1);
  for (int split = 0; split < static_cast<int>(stream.results.size());
       ++split) {
    const std::string dir = Dir() + "/split" + std::to_string(split);
    const Outcome restored = run(dir, split);
    EXPECT_EQ(restored.state, reference.state) << "split after call " << split;
    EXPECT_EQ(restored.segments, reference.segments)
        << "split after call " << split;
  }
}

/// Committer and sampler state files under seeded mutation (raw bytes,
/// and one record line framed again past the CRC check): each load
/// rejects the file with the state untouched, or loads the original
/// state, or loads exactly what a fresh object loads from it.
TEST_F(StoreTest, MutatedCommitterAndSamplerStateRejectsOrLoadsWhole) {
  const DurationNs window = Millis(100);
  CommitterOptions copts;
  copts.window = window;
  copts.margin = Millis(10);
  TailSamplerOptions sopts;
  sopts.window = window;
  sopts.keep_rate = 0.5;
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  // Saved states of a committer and sampler run over the first `calls`
  // calls of a random stream.
  const auto run = [&](std::uint64_t seed, int calls) {
    Rng rng(seed);
    const CommitterStream stream = RandomCommitterStream(rng, calls, window);
    TraceStore scratch(Dir() + "/run" + std::to_string(seed));
    EXPECT_TRUE(scratch.Open().has_value());
    TailSampler sampler(sopts);
    CommitterOptions o = copts;
    o.sampler = &sampler;
    TraceCommitter committer(o, &scratch);
    for (std::size_t k = 0; k < stream.results.size(); ++k) {
      for (const Span& span : stream.ingest[k]) committer.OnSpan(span);
      committer.OnResults(stream.results[k]);
    }
    std::stringstream c;
    committer.SaveState(c);
    std::stringstream t;
    sampler.SaveState(t);
    return std::make_pair(c.str(), t.str());
  };
  const auto [committer_state, sampler_state] = run(31, 24);
  const auto [committer_before, sampler_before] = run(32, 12);
  ASSERT_NE(committer_state, committer_before);
  ASSERT_NE(sampler_state, sampler_before);

  using ::traceweaver::testing::FuzzStateFile;
  Rng rng(2030);
  const auto committers = FuzzStateFile<TraceCommitter>(
      committer_state, committer_before, TraceCommitter::kStateSchema, 2000,
      rng, [&] { return std::make_unique<TraceCommitter>(copts, &store); },
      [](TraceCommitter& c, const std::string& bytes) {
        std::istringstream in(bytes);
        return c.LoadState(in);
      },
      [](const TraceCommitter& c) {
        std::ostringstream out;
        c.SaveState(out);
        return out.str();
      });
  // About 1,600 rejected, 30 raw and 360 re-framed files loaded.
  EXPECT_GT(committers.rejected, 1000u);
  EXPECT_GT(committers.accepted_raw, 0u);
  EXPECT_GT(committers.accepted_reframed, 100u);

  const auto samplers = FuzzStateFile<TailSampler>(
      sampler_state, sampler_before, TailSampler::kStateSchema, 2000, rng,
      [&] { return std::make_unique<TailSampler>(sopts); },
      [](TailSampler& t, const std::string& bytes) {
        std::istringstream in(bytes);
        return t.LoadState(in);
      },
      [](const TailSampler& t) {
        std::ostringstream out;
        t.SaveState(out);
        return out.str();
      });
  // About 1,700 rejected, 40 raw and 280 re-framed files loaded.
  EXPECT_GT(samplers.rejected, 1000u);
  EXPECT_GT(samplers.accepted_raw, 0u);
  EXPECT_GT(samplers.accepted_reframed, 100u);
}

}  // namespace
}  // namespace traceweaver::store
