// Checkpoint/restore tests: the CRC-guarded JSONL container
// (trace/checkpoint.h) and the online weaver's full-state round trip,
// including the crash-consistency property -- restoring at a random kill
// point never loses or duplicates a committed assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "core/online.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "test_helpers.h"
#include "trace/checkpoint.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::RandomHostileString;

// ---------------------------------------------------------------------
// CRC-32 and the checksummed container.

TEST(Crc32Test, KnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox\njumps over\n";
  const std::uint32_t whole = Crc32(data.data(), data.size());
  std::uint32_t inc = 0;
  for (char c : data) inc = Crc32(&c, 1, inc);
  EXPECT_EQ(inc, whole);
}

TEST(ChecksummedContainer, RoundTripPreservesLinesInOrder) {
  std::stringstream file;
  ChecksummedWriter w(file, "test.v1");
  w.WriteLine("{\"schema\":\"test.v1\"}");
  w.WriteLine("{\"a\":1}");
  w.WriteLine("{\"b\":\"two\"}");
  w.Finish();
  EXPECT_EQ(w.lines_written(), 3u);

  std::string error;
  const auto lines = ReadChecksummedLines(file, "test.v1", &error);
  ASSERT_TRUE(lines.has_value()) << error;
  ASSERT_EQ(lines->size(), 3u);
  EXPECT_EQ((*lines)[0], "{\"schema\":\"test.v1\"}");
  EXPECT_EQ((*lines)[1], "{\"a\":1}");
  EXPECT_EQ((*lines)[2], "{\"b\":\"two\"}");
}

std::string MakeContainer() {
  std::stringstream file;
  ChecksummedWriter w(file, "test.v1");
  w.WriteLine("{\"schema\":\"test.v1\"}");
  w.WriteLine("{\"payload\":42}");
  w.Finish();
  return file.str();
}

TEST(ChecksummedContainer, MissingFooterRejected) {
  std::string text = MakeContainer();
  text.resize(text.rfind("{\"footer\":"));  // Drop the footer line.
  std::stringstream file(text);
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v1", &error).has_value());
  EXPECT_NE(error.find("footer missing"), std::string::npos);
}

TEST(ChecksummedContainer, DroppedLineRejected) {
  std::string text = MakeContainer();
  const std::size_t cut = text.find("{\"payload\":42}\n");
  text.erase(cut, std::string("{\"payload\":42}\n").size());
  std::stringstream file(text);
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v1", &error).has_value());
  EXPECT_NE(error.find("line count mismatch"), std::string::npos);
}

TEST(ChecksummedContainer, FlippedByteRejected) {
  std::string text = MakeContainer();
  text[text.find("42")] = '9';  // Same length, different payload bytes.
  std::stringstream file(text);
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v1", &error).has_value());
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos);
}

TEST(ChecksummedContainer, SchemaMismatchRejected) {
  std::stringstream file(MakeContainer());
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v2", &error).has_value());
  EXPECT_NE(error.find("schema mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------
// Field extraction helpers.

TEST(CkptFields, ScalarExtraction) {
  const std::string line =
      "{\"u\":18446744073709551615,\"i\":-42,\"f\":1.5,\"s\":\"hi\"}";
  EXPECT_EQ(ckpt::FieldU64(line, "u"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ckpt::FieldI64(line, "i"), -42);
  EXPECT_EQ(ckpt::FieldF64(line, "f"), 1.5);
  EXPECT_EQ(ckpt::FieldStr(line, "s"), "hi");
  EXPECT_FALSE(ckpt::FieldU64(line, "absent").has_value());
}

TEST(CkptFields, KeyInsideStringValueNeverMatches) {
  // A hostile service name that embeds what looks like another field.
  const std::string line =
      "{\"service\":\"x\\\",\\\"parent\\\":9\",\"parent\":7}";
  EXPECT_EQ(ckpt::FieldU64(line, "parent"), 7u);
  EXPECT_EQ(ckpt::FieldStr(line, "service"), "x\",\"parent\":9");
}

TEST(CkptFields, AppendStrFieldRoundTripsEscapes) {
  const std::string value = "a\"b\\c\nd\te\x01f";
  std::string line = "{";
  ckpt::AppendStrField(line, "k", value);
  line += "}";
  EXPECT_EQ(ckpt::FieldStr(line, "k"), value);
}

TEST(CkptFields, HostileStringsRoundTripOnOneLine) {
  Rng rng(20241017);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string service = RandomHostileString(rng);
    const std::string endpoint = RandomHostileString(rng);
    std::string line = "{\"ckpt\":\"slot\",";
    ckpt::AppendStrField(line, "service", service);
    line += ",\"stage\":3,";
    ckpt::AppendStrField(line, "endpoint", endpoint);
    line += '}';
    ASSERT_FALSE(HasRawControlByte(line)) << line;
    EXPECT_EQ(ckpt::FieldStr(line, "service"), service) << line;
    EXPECT_EQ(ckpt::FieldStr(line, "endpoint"), endpoint) << line;
    EXPECT_EQ(ckpt::FieldI64(line, "stage"), 3) << line;
  }
}

// ---------------------------------------------------------------------
// Online weaver checkpoint round trip.

struct Stream {
  std::vector<Span> spans;
  CallGraph graph;
};

Stream MakeStream(double rps, double seconds) {
  Stream s;
  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  s.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = 21;
  s.spans = sim::RunOpenLoop(app, load).spans;
  std::sort(s.spans.begin(), s.spans.end(),
            [](const Span& a, const Span& b) {
              return a.client_recv < b.client_recv;
            });
  return s;
}

OnlineOptions MidStreamOptions() {
  OnlineOptions opts;
  opts.window = Millis(500);
  return opts;
}

TEST(OnlineCheckpoint, RoundTripIsByteIdenticalAndCarriesExtra) {
  Stream s = MakeStream(150, 2);
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  TimeNs watermark = 0;
  for (std::size_t i = 0; i < s.spans.size() / 2; ++i) {
    a.Ingest(s.spans[i]);
    watermark = std::max(watermark, s.spans[i].client_send);
    a.Advance(watermark);
  }
  ASSERT_GT(a.assignment().size(), 0u);  // Mid-stream: some commits...
  ASSERT_GT(a.buffered(), 0u);           // ...and a live buffer.

  std::stringstream ck;
  a.SaveCheckpoint(ck, {{"source_offset", 123456u}});

  OnlineTraceWeaver b(s.graph, MidStreamOptions());
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(b.LoadCheckpoint(ck, &error, &extra)) << error;
  EXPECT_EQ(extra.at("source_offset"), 123456u);

  EXPECT_EQ(b.assignment(), a.assignment());
  EXPECT_EQ(b.buffered(), a.buffered());
  EXPECT_EQ(b.buffered_bytes(), a.buffered_bytes());
  EXPECT_EQ(b.high_watermark(), a.high_watermark());
  EXPECT_EQ(b.late_pool_size(), a.late_pool_size());
  EXPECT_EQ(b.stats().ingested, a.stats().ingested);
  EXPECT_EQ(b.stats().parents_committed, a.stats().parents_committed);
  EXPECT_EQ(b.delay_posteriors().size(), a.delay_posteriors().size());

  // Checkpoints are byte-deterministic, so "restored state == saved
  // state" is checkable exactly: re-saving must reproduce the bytes.
  std::stringstream ra, rb;
  a.SaveCheckpoint(ra, {{"source_offset", 123456u}});
  b.SaveCheckpoint(rb, {{"source_offset", 123456u}});
  EXPECT_EQ(ra.str(), rb.str());
}

TEST(OnlineCheckpoint, RandomKillPointsNeverLoseOrDuplicateCommits) {
  Stream s = MakeStream(150, 2);
  const auto replay = [&](std::size_t from, std::size_t to,
                          OnlineTraceWeaver& w, TimeNs watermark) {
    for (std::size_t i = from; i < to; ++i) {
      w.Ingest(s.spans[i]);
      watermark = std::max(watermark, s.spans[i].client_send);
      w.Advance(watermark);
    }
    return watermark;
  };

  // Reference: one uninterrupted run.
  OnlineTraceWeaver ref(s.graph, MidStreamOptions());
  replay(0, s.spans.size(), ref, 0);
  ref.Flush();
  ASSERT_GT(ref.assignment().size(), 0u);

  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> dist(1, s.spans.size() - 1);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t kill = dist(rng);
    OnlineTraceWeaver before(s.graph, MidStreamOptions());
    const TimeNs watermark = replay(0, kill, before, 0);
    const ParentAssignment at_kill = before.assignment();
    std::stringstream ck;
    before.SaveCheckpoint(ck);

    OnlineTraceWeaver resumed(s.graph, MidStreamOptions());
    std::string error;
    ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error))
        << "kill=" << kill << ": " << error;
    replay(kill, s.spans.size(), resumed, watermark);
    resumed.Flush();

    // Every assignment committed before the kill survives unchanged (no
    // loss, and -- because ParentAssignment is a map keyed by child --
    // no double commit can overwrite it with a different parent).
    for (const auto& [child, parent] : at_kill) {
      auto it = resumed.assignment().find(child);
      ASSERT_NE(it, resumed.assignment().end())
          << "kill=" << kill << " lost child " << child;
      EXPECT_EQ(it->second, parent) << "kill=" << kill;
    }
    // And the resumed run converges to the uninterrupted result exactly.
    EXPECT_EQ(resumed.assignment(), ref.assignment()) << "kill=" << kill;
  }
}

TEST(OnlineCheckpoint, TruncatedFileRejectedWithStateUntouched) {
  Stream s = MakeStream(100, 1);
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  TimeNs watermark = 0;
  for (const Span& span : s.spans) {
    a.Ingest(span);
    watermark = std::max(watermark, span.client_send);
    a.Advance(watermark);
  }
  std::stringstream full;
  a.SaveCheckpoint(full);
  const std::string bytes = full.str();

  // The victim has its own in-flight state; a failed restore must leave
  // every byte of it alone.
  OnlineTraceWeaver victim(s.graph, MidStreamOptions());
  for (std::size_t i = 0; i < s.spans.size() / 3; ++i) {
    victim.Ingest(s.spans[i]);
  }
  std::stringstream pre;
  victim.SaveCheckpoint(pre);

  for (double frac : {0.1, 0.5, 0.9}) {
    std::stringstream truncated(
        bytes.substr(0, static_cast<std::size_t>(bytes.size() * frac)));
    std::string error;
    EXPECT_FALSE(victim.LoadCheckpoint(truncated, &error));
    EXPECT_FALSE(error.empty());
  }
  std::string error;
  std::stringstream wrong_schema(MakeContainer());
  EXPECT_FALSE(victim.LoadCheckpoint(wrong_schema, &error));

  std::stringstream post;
  victim.SaveCheckpoint(post);
  EXPECT_EQ(post.str(), pre.str());
}

// The ISSUE acceptance for skew correction in serve: a kill -9 between
// two window closes must resume bit-identically with the estimator's
// state (gap buffers, Welford moments) carried through the checkpoint.
TEST(OnlineCheckpoint, SkewEstimatorStateSurvivesResumeBitIdentically) {
  Stream s = MakeStream(150, 2);
  // Give the estimator real work: constant per-vantage clock offsets.
  sim::FaultSpec spec;
  spec.skew_stddev_ns = Micros(100);
  s.spans = sim::InjectFaults(std::move(s.spans), spec);
  std::sort(s.spans.begin(), s.spans.end(),
            [](const Span& a, const Span& b) {
              return a.client_recv != b.client_recv
                         ? a.client_recv < b.client_recv
                         : a.id < b.id;
            });

  OnlineOptions opts = MidStreamOptions();
  opts.skew_correct = true;

  const auto replay = [&](std::size_t from, std::size_t to,
                          OnlineTraceWeaver& w, TimeNs watermark) {
    for (std::size_t i = from; i < to; ++i) {
      w.Ingest(s.spans[i]);
      watermark = std::max(watermark, s.spans[i].client_send);
      w.Advance(watermark);
    }
    return watermark;
  };

  // Reference: one uninterrupted run.
  OnlineTraceWeaver ref(s.graph, opts);
  replay(0, s.spans.size(), ref, 0);
  ref.Flush();
  ASSERT_GT(ref.assignment().size(), 0u);
  ASSERT_GT(ref.skew_estimator().observations(), 0u);

  // Kill mid-stream (not on a window boundary), checkpoint, resume.
  const std::size_t kill = s.spans.size() / 2 + 7;
  OnlineTraceWeaver before(s.graph, opts);
  const TimeNs watermark = replay(0, kill, before, 0);
  std::stringstream ck;
  before.SaveCheckpoint(ck);
  ASSERT_NE(ck.str().find("\"ckpt\":\"skew\""), std::string::npos)
      << "estimator state missing from the checkpoint";

  OnlineTraceWeaver resumed(s.graph, opts);
  std::string error;
  ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error)) << error;
  EXPECT_EQ(resumed.skew_estimator().observations(),
            before.skew_estimator().observations());
  replay(kill, s.spans.size(), resumed, watermark);
  resumed.Flush();

  // The resumed run converges to the uninterrupted result exactly, and
  // the final checkpoints are byte-equal -- estimator state included.
  EXPECT_EQ(resumed.assignment(), ref.assignment());
  std::stringstream a, b;
  ref.SaveCheckpoint(a);
  resumed.SaveCheckpoint(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace traceweaver
