// Trace store (src/store): segment commit atomicity, index-vs-scan
// equivalence, LRU bounds, reader-while-ingest safety, and the
// online -> store committer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "store/committer.h"
#include "store/store.h"
#include "test_helpers.h"
#include "trace/trace_record.h"

namespace traceweaver::store {
namespace {

namespace fs = std::filesystem;
using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::MakeSpan;
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
/// records through the same predicate.
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

  const auto brute = [&all](const TraceQuery& q) {
    std::vector<SpanId> ids;
    for (const TraceRecord& r : all) {
      if (!q.service.empty() && r.root_service != q.service) continue;
      if (r.end < q.from || r.start > q.to) continue;
      if (r.grade > q.max_grade) continue;
      if (r.confidence < q.min_confidence) continue;
      ids.push_back(r.trace_id);
    }
    // Store order is (start, trace_id); MakeRecord start grows with id.
    std::sort(ids.begin(), ids.end());
    if (q.limit > 0 && ids.size() > q.limit) ids.resize(q.limit);
    return ids;
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

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expect = brute(queries[qi]);
    const auto summaries = store.QuerySummaries(queries[qi]);
    ASSERT_EQ(summaries.size(), expect.size()) << "query " << qi;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(summaries[i].trace_id, expect[i]) << "query " << qi;
    }
    // Query() (record-fetching path) agrees with QuerySummaries.
    std::vector<SpanId> streamed;
    store.Query(queries[qi],
                [&streamed](const TraceSummary& s,
                            const std::shared_ptr<const TraceRecord>& rec) {
                  EXPECT_NE(rec, nullptr);
                  if (rec != nullptr) {
                    EXPECT_EQ(rec->trace_id, s.trace_id);
                  }
                  streamed.push_back(s.trace_id);
                  return true;
                });
    EXPECT_EQ(streamed, expect) << "query " << qi;
  }
}

TEST_F(StoreTest, QueryEmitCanStopEarly) {
  TraceStore store(Dir());
  ASSERT_TRUE(store.Open().has_value());
  for (SpanId id = 1; id <= 10; ++id) store.Commit(MakeRecord(id));
  std::size_t seen = 0;
  const std::size_t emitted = store.Query(
      TraceQuery{},
      [&seen](const TraceSummary&,
              const std::shared_ptr<const TraceRecord>&) {
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
        store.Query(q, [](const TraceSummary& s,
                          const std::shared_ptr<const TraceRecord>& rec) {
          EXPECT_NE(rec, nullptr);
          if (rec != nullptr) {
            EXPECT_EQ(rec->trace_id, s.trace_id);
          }
          return true;
        });
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
  copts.settle_windows = 1;
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

}  // namespace
}  // namespace traceweaver::store
