// Checkpoint/restore tests: the CRC-guarded JSONL container
// (trace/checkpoint.h) and the online weaver's full-state round trip,
// including the crash-consistency property -- restoring at a random kill
// point never loses or duplicates a committed assignment.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "core/online.h"
#include "core/skew_estimator.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "state_fuzz.h"
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

/// One bit at a time from the polynomial, sharing no table with Crc32:
/// the running register before the final inversion.
std::uint32_t BitwiseCrcStep(std::uint32_t reg, unsigned char byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1u) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

TEST(Crc32Test, EveryAlignmentAndSplitMatchesBitwiseReference) {
  // Crc32 folds 8 bytes per step and finishes bytewise, so every start
  // alignment and every cut between a prefix and a suffix (each fold
  // boundary and each tail length) must give the bitwise answer.
  std::mt19937 rng(20261019);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* data = buf.data() + offset;
    const std::size_t n = 4096;
    std::uint32_t reg = 0xFFFFFFFFu;
    std::vector<std::uint32_t> prefix_ref(n + 1);
    for (std::size_t k = 0; k <= n; ++k) {
      prefix_ref[k] = reg ^ 0xFFFFFFFFu;
      if (k < n) reg = BitwiseCrcStep(reg, data[k]);
    }
    const std::uint32_t whole_ref = prefix_ref[n];
    for (std::size_t k = 0; k <= n; ++k) {
      const std::uint32_t prefix = Crc32(data, k);
      ASSERT_EQ(prefix, prefix_ref[k]) << "offset " << offset << " k " << k;
      ASSERT_EQ(Crc32(data + k, n - k, prefix), whole_ref)
          << "offset " << offset << " split " << k;
    }
  }
}

TEST(Crc32Test, OneMebibyteKnownAnswer) {
  // zlib.crc32 of the same bytes; long enough that nearly every byte goes
  // through the 8-byte fold.
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 7 + (i >> 9));
  }
  EXPECT_EQ(Crc32(buf.data(), buf.size()), 0xDC8C9935u);
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
// WriteFilesAtomic / RecoverFilesAtomic: a three-file set is replaced
// whole or not at all.

namespace fs = std::filesystem;

/// A checksummed file whose payload names its set and member.
std::string SetMember(const std::string& set, int member) {
  std::stringstream file;
  ChecksummedWriter w(file, "test.v1");
  w.WriteLine("{\"set\":\"" + set + "\",\"member\":" +
              std::to_string(member) + "}");
  w.Finish();
  return file.str();
}

class FileSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tw_file_set_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (int i = 0; i < 3; ++i) {
      paths_.push_back((dir_ / ("member" + std::to_string(i))).string());
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The WriteFilesAtomic members writing set `set`.
  std::vector<FileWrite> Writes(const std::string& set) const {
    std::vector<FileWrite> writes;
    for (int i = 0; i < 3; ++i) {
      writes.push_back({paths_[i], [set, i](std::ostream& o) {
                          o << SetMember(set, i);
                        }});
    }
    return writes;
  }

  static void Put(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  /// Recovers, then names the set on disk: "old", "new", or "mixed".
  std::string Recover() const {
    EXPECT_TRUE(RecoverFilesAtomic(paths_, "test.v1"));
    std::string found;
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(fs::exists(paths_[i] + ".tmp")) << paths_[i];
      std::ifstream in(paths_[i], std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      const std::string set = bytes.str() == SetMember("old", i)   ? "old"
                              : bytes.str() == SetMember("new", i) ? "new"
                                                                   : "?";
      if (found.empty()) found = set;
      if (found != set) return "mixed";
    }
    return found;
  }

  fs::path dir_;
  std::vector<std::string> paths_;
};

TEST_F(FileSetTest, WriteReplacesTheWholeSetAndLeavesNoTempFile) {
  ASSERT_TRUE(WriteFilesAtomic(Writes("old")));
  ASSERT_TRUE(WriteFilesAtomic(Writes("new")));
  EXPECT_EQ(Recover(), "new");
}

TEST_F(FileSetTest, EveryCrashImageRecoversToTheOldOrTheNewSet) {
  std::size_t images = 0;
  // Prepare step: members before `m` have complete `.tmp` files and
  // member `m` is cut at every length (m == 3: the prepare finished).
  for (int m = 0; m <= 3; ++m) {
    const std::string partial = m < 3 ? SetMember("new", m) : "";
    for (std::size_t cut = 0; cut <= partial.size(); ++cut) {
      ASSERT_TRUE(WriteFilesAtomic(Writes("old")));
      for (int i = 0; i < m; ++i) Put(paths_[i] + ".tmp", SetMember("new", i));
      if (m < 3) Put(paths_[m] + ".tmp", partial.substr(0, cut));
      // A whole last member is the marker of a finished prepare.
      const bool finished = m == 3 || (m == 2 && cut == partial.size());
      EXPECT_EQ(Recover(), finished ? "new" : "old") << m << " " << cut;
      ++images;
      if (m == 3) break;
    }
  }
  // Commit step: the first `k` members renamed, the rest still `.tmp`.
  for (int k = 0; k <= 3; ++k) {
    ASSERT_TRUE(WriteFilesAtomic(Writes("old")));
    for (int i = 0; i < 3; ++i) {
      Put(i < k ? paths_[i] : paths_[i] + ".tmp", SetMember("new", i));
    }
    EXPECT_EQ(Recover(), "new") << k;
    ++images;
  }
  EXPECT_GT(images, 100u);
}

TEST_F(FileSetTest, StaleMarkerNeverVouchesForANewPrepare) {
  ASSERT_TRUE(WriteFilesAtomic(Writes("old")));
  // A complete marker left behind by an earlier failed commit...
  Put(paths_[2] + ".tmp", SetMember("stale", 2));
  // ...then a crash while preparing member 1 of the next write.
  std::vector<FileWrite> writes = Writes("new");
  writes[1].write = [](std::ostream& o) {
    o << "{\"set\"";
    throw std::runtime_error("killed");
  };
  EXPECT_THROW(WriteFilesAtomic(writes), std::runtime_error);
  EXPECT_EQ(Recover(), "old");
}

// ---------------------------------------------------------------------
// Field extraction helpers.

TEST(CkptFields, ScalarExtraction) {
  const std::string line =
      "{\"u\":18446744073709551615,\"i\":-42,\"f\":1.5,\"s\":\"hi\"}";
  EXPECT_EQ(json::FieldU64(line, "u"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(json::FieldI64(line, "i"), -42);
  EXPECT_EQ(json::FieldF64(line, "f"), 1.5);
  EXPECT_EQ(json::FieldStr(line, "s"), "hi");
  EXPECT_FALSE(json::FieldU64(line, "absent").has_value());
}

TEST(CkptFields, KeyInsideStringValueNeverMatches) {
  // A hostile service name that embeds what looks like another field.
  const std::string line =
      "{\"service\":\"x\\\",\\\"parent\\\":9\",\"parent\":7}";
  EXPECT_EQ(json::FieldU64(line, "parent"), 7u);
  EXPECT_EQ(json::FieldStr(line, "service"), "x\",\"parent\":9");
}

TEST(CkptFields, AppendStrFieldRoundTripsEscapes) {
  const std::string value = "a\"b\\c\nd\te\x01f";
  std::string line = "{";
  json::AppendStrField(line, "k", value);
  line += "}";
  EXPECT_EQ(json::FieldStr(line, "k"), value);
}

TEST(CkptFields, HostileStringsRoundTripOnOneLine) {
  Rng rng(20241017);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string service = RandomHostileString(rng);
    const std::string endpoint = RandomHostileString(rng);
    std::string line = "{\"ckpt\":\"slot\",";
    json::AppendStrField(line, "service", service);
    line += ",\"stage\":3,";
    json::AppendStrField(line, "endpoint", endpoint);
    line += '}';
    ASSERT_FALSE(HasRawControlByte(line)) << line;
    EXPECT_EQ(json::FieldStr(line, "service"), service) << line;
    EXPECT_EQ(json::FieldStr(line, "endpoint"), endpoint) << line;
    EXPECT_EQ(json::FieldI64(line, "stage"), 3) << line;
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

constexpr const char* kSchema = OnlineTraceWeaver::kCheckpointSchema;

OnlineOptions MidStreamOptions() {
  OnlineOptions opts;
  opts.window = Millis(500);
  return opts;
}

/// The resume contract of assignment(): the edges the killed process
/// returned before its checkpoint and the ones the resumed process returns
/// after it are disjoint, and together they are the uninterrupted run's.
void ExpectFoldsCompose(const ParentAssignment& before_kill,
                        const ParentAssignment& resumed,
                        const ParentAssignment& uninterrupted) {
  ParentAssignment joined = before_kill;
  for (const auto& [child, parent] : resumed) {
    EXPECT_TRUE(joined.emplace(child, parent).second)
        << "child " << child << " committed both before and after the kill";
  }
  EXPECT_EQ(joined, uninterrupted);
}

/// Feeds spans [from, to) of `s` to `w`, advancing to the running maximum
/// client_send; returns the watermark reached.
TimeNs Replay(const Stream& s, std::size_t from, std::size_t to,
              OnlineTraceWeaver& w, TimeNs watermark) {
  for (std::size_t i = from; i < to; ++i) {
    w.Ingest(s.spans[i]);
    watermark = std::max(watermark, s.spans[i].client_send);
    w.Advance(watermark);
  }
  return watermark;
}

/// Runs both weavers over the rest of `s` and flushes them: `a` is the
/// uninterrupted run, `b` the one resumed from `a`'s checkpoint at `kill`.
void FinishBoth(const Stream& s, std::size_t kill, TimeNs watermark,
                OnlineTraceWeaver& a, OnlineTraceWeaver& b) {
  for (OnlineTraceWeaver* w : {&a, &b}) {
    Replay(s, kill, s.spans.size(), *w, watermark);
    w->Flush();
  }
}

TEST(OnlineCheckpoint, RoundTripIsByteIdenticalAndCarriesExtra) {
  Stream s = MakeStream(150, 2);
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  const std::size_t kill = s.spans.size() / 2;
  const TimeNs watermark = Replay(s, 0, kill, a, 0);
  ASSERT_GT(a.assignment().size(), 0u);  // Mid-stream: some commits...
  ASSERT_GT(a.buffered(), 0u);           // ...and a live buffer.

  std::stringstream ck;
  a.SaveCheckpoint(ck, {{"source_offset", 123456u}});

  OnlineTraceWeaver b(s.graph, MidStreamOptions());
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(b.LoadCheckpoint(ck, &error, &extra)) << error;
  EXPECT_EQ(extra.at("source_offset"), 123456u);

  EXPECT_TRUE(b.assignment().empty());  // Nothing returned since the load.
  EXPECT_EQ(b.buffered(), a.buffered());
  EXPECT_EQ(b.buffered_bytes(), a.buffered_bytes());
  EXPECT_EQ(b.high_watermark(), a.high_watermark());
  EXPECT_EQ(b.late_pool_size(), a.late_pool_size());
  EXPECT_EQ(b.stats().ingested, a.stats().ingested);
  EXPECT_EQ(b.stats().parents_committed, a.stats().parents_committed);

  // Checkpoints are byte-deterministic, so "restored state == saved
  // state" is checkable exactly: re-saving must reproduce the bytes.
  std::stringstream ra, rb;
  a.SaveCheckpoint(ra, {{"source_offset", 123456u}});
  b.SaveCheckpoint(rb, {{"source_offset", 123456u}});
  EXPECT_EQ(ra.str(), rb.str());

  const ParentAssignment before_kill = a.assignment();
  FinishBoth(s, kill, watermark, a, b);
  ExpectFoldsCompose(before_kill, b.assignment(), a.assignment());
}

/// Re-frames a weaver checkpoint with `record` inserted after the header,
/// as a CRC-valid stream.
std::string WithRecord(const std::string& checkpoint,
                       const std::string& record) {
  std::stringstream in(checkpoint);
  std::string error;
  const auto lines = ReadChecksummedLines(in, kSchema, &error);
  EXPECT_TRUE(lines.has_value()) << error;
  std::stringstream out;
  ChecksummedWriter w(out, kSchema);
  for (std::size_t i = 0; lines && i < lines->size(); ++i) {
    w.WriteLine((*lines)[i]);
    if (i == 0) w.WriteLine(record);
  }
  w.Finish();
  return out.str();
}

TEST(OnlineCheckpoint, LegacyPosteriorRecordsLoadAndAreDropped) {
  Stream s = MakeStream(150, 2);
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  const std::size_t kill = s.spans.size() / 2;
  const TimeNs watermark = Replay(s, 0, kill, a, 0);
  std::stringstream ck;
  a.SaveCheckpoint(ck);
  const std::string saved = ck.str();

  // Older weavers wrote one Welford delay posterior per key.
  std::stringstream legacy(WithRecord(
      saved,
      "{\"ckpt\":\"posterior\",\"service\":\"frontend\","
      "\"endpoint\":\"/hotels\",\"stage\":0,\"call\":0,\"count\":12,"
      "\"mean\":1500.25,\"m2\":20000.5}"));
  OnlineTraceWeaver b(s.graph, MidStreamOptions());
  std::string error;
  ASSERT_TRUE(b.LoadCheckpoint(legacy, &error)) << error;
  std::stringstream resaved;
  b.SaveCheckpoint(resaved);
  EXPECT_EQ(resaved.str(), saved);  // The posterior record is gone.
  const ParentAssignment before_kill = a.assignment();
  FinishBoth(s, kill, watermark, a, b);
  ExpectFoldsCompose(before_kill, b.assignment(), a.assignment());

  std::stringstream unknown(WithRecord(saved, "{\"ckpt\":\"bogus\"}"));
  OnlineTraceWeaver c(s.graph, MidStreamOptions());
  EXPECT_FALSE(c.LoadCheckpoint(unknown, &error));
  EXPECT_NE(error.find("unknown record type"), std::string::npos) << error;
}

TEST(OnlineCheckpoint, RandomKillPointsNeverLoseOrDuplicateCommits) {
  Stream s = MakeStream(150, 2);

  // Reference: one uninterrupted run.
  OnlineTraceWeaver ref(s.graph, MidStreamOptions());
  Replay(s, 0, s.spans.size(), ref, 0);
  ref.Flush();
  ASSERT_GT(ref.assignment().size(), 0u);

  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> dist(1, s.spans.size() - 1);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t kill = dist(rng);
    OnlineTraceWeaver before(s.graph, MidStreamOptions());
    const TimeNs watermark = Replay(s, 0, kill, before, 0);
    const ParentAssignment at_kill = before.assignment();
    std::stringstream ck;
    before.SaveCheckpoint(ck);

    OnlineTraceWeaver resumed(s.graph, MidStreamOptions());
    std::string error;
    ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error))
        << "kill=" << kill << ": " << error;
    Replay(s, kill, s.spans.size(), resumed, watermark);
    resumed.Flush();

    // No edge is lost (the union is the uninterrupted result) and none is
    // committed twice (the two sides are disjoint).
    SCOPED_TRACE(::testing::Message() << "kill=" << kill);
    ExpectFoldsCompose(at_kill, resumed.assignment(), ref.assignment());
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

  // A correctly checksummed file whose carried-model record is malformed:
  // each variant replaces the first `model` line.
  std::stringstream reread(bytes);
  auto lines = ReadChecksummedLines(reread, kSchema, &error);
  ASSERT_TRUE(lines.has_value()) << error;
  const auto model_line =
      std::find_if(lines->begin(), lines->end(), [](const std::string& l) {
        return l.rfind("{\"ckpt\":\"model\"", 0) == 0;
      });
  ASSERT_NE(model_line, lines->end()) << "no carried model in checkpoint";
  const std::string good = *model_line;
  const std::string components = good.substr(good.find(",\"components\":"));
  const std::string broken[] = {
      // Components array cut off.
      good.substr(0, good.find(",\"components\":")) + '}',
      // Empty mixture.
      good.substr(0, good.size() - components.size()) +
          ",\"components\":[]}",
      // A component without its stddev.
      good.substr(0, good.size() - components.size()) +
          ",\"components\":[{\"w\":1,\"m\":5}]}",
      // Unterminated array.
      good.substr(0, good.size() - 2),
      // Key without its stage.
      "{\"ckpt\":\"model\",\"service\":\"a\",\"replica\":0,"
      "\"key_service\":\"a\",\"endpoint\":\"/x\",\"call\":0" +
          components,
  };
  for (const std::string& line : broken) {
    *model_line = line;
    std::stringstream file;
    ChecksummedWriter w(file, kSchema);
    for (const std::string& l : *lines) w.WriteLine(l);
    w.Finish();
    error.clear();
    EXPECT_FALSE(victim.LoadCheckpoint(file, &error)) << line;
    EXPECT_NE(error.find("model"), std::string::npos) << error;
  }

  std::stringstream post;
  victim.SaveCheckpoint(post);
  EXPECT_EQ(post.str(), pre.str());
}

/// The weaver checkpoint under seeded mutation (raw bytes, and one record
/// line framed again past the CRC check): each LoadCheckpoint rejects the
/// file with the state untouched, or loads the original state, or loads
/// exactly what a fresh weaver loads from it.
TEST(OnlineCheckpoint, MutatedCheckpointRejectsOrLoadsWhole) {
  Stream s = MakeStream(40, 2);
  const auto saved_after = [&s](std::size_t spans) {
    OnlineTraceWeaver w(s.graph, MidStreamOptions());
    Replay(s, 0, spans, w, 0);
    std::ostringstream out;
    w.SaveCheckpoint(out, {{"source_offset", spans}});
    return out.str();
  };
  const std::string original = saved_after(s.spans.size() * 2 / 3);
  const std::string before = saved_after(s.spans.size() / 3);
  ASSERT_NE(original, before);
  ASSERT_NE(original.find("{\"ckpt\":\"model\""), std::string::npos);

  // The weaver with the caller scalars its last load returned, which
  // ride the file and are saved back with it.
  struct Resumed {
    OnlineTraceWeaver weaver;
    std::map<std::string, std::uint64_t> extra;
  };
  Rng rng(2031);
  const auto counts = ::traceweaver::testing::FuzzStateFile<Resumed>(
      original, before, kSchema, 600, rng,
      [&s] {
        return std::unique_ptr<Resumed>(
            new Resumed{OnlineTraceWeaver(s.graph, MidStreamOptions()), {}});
      },
      [](Resumed& r, const std::string& bytes) {
        std::istringstream in(bytes);
        return r.weaver.LoadCheckpoint(in, nullptr, &r.extra);
      },
      [](const Resumed& r) {
        std::ostringstream out;
        r.weaver.SaveCheckpoint(out, r.extra);
        return out.str();
      });
  // About 480 rejected, 13 raw and 107 re-framed files loaded.
  EXPECT_GT(counts.rejected, 300u);
  EXPECT_GT(counts.accepted_raw, 0u);
  EXPECT_GT(counts.accepted_reframed, 60u);
}

TEST(OnlineCheckpoint, CarriedModelsResumeBitIdenticallyAtRandomKillPoints) {
  // Long enough that later windows reuse carried mixtures: a resume that
  // dropped or perturbed the carried models would refit those keys and
  // drift from the uninterrupted run.
  Stream s = MakeStream(150, 4);
  const auto reused = [](const obs::MetricsRegistry& reg) {
    return reg.Snapshot().Value("tw_gmm_fits_reused_total");
  };

  // Reference: one uninterrupted run, noting the first span after which
  // a carried mixture has been reused.
  obs::MetricsRegistry ref_reg;
  OnlineOptions ref_opts = MidStreamOptions();
  ref_opts.weaver.metrics = &ref_reg;
  OnlineTraceWeaver ref(s.graph, ref_opts);
  std::size_t first_reuse = 0;
  TimeNs watermark = 0;
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    watermark = Replay(s, i, i + 1, ref, watermark);
    if (first_reuse == 0 && reused(ref_reg) > 0) first_reuse = i + 1;
  }
  ref.Flush();
  ASSERT_GT(first_reuse, 0u);
  ASSERT_LT(first_reuse + 1, s.spans.size());
  std::stringstream ref_final;
  ref.SaveCheckpoint(ref_final);

  std::mt19937 rng(11);
  std::uniform_int_distribution<std::size_t> dist(first_reuse,
                                                  s.spans.size() - 1);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t kill = dist(rng);
    obs::MetricsRegistry reg;
    OnlineOptions opts = MidStreamOptions();
    opts.weaver.metrics = &reg;
    OnlineTraceWeaver before(s.graph, opts);
    const TimeNs at_kill = Replay(s, 0, kill, before, 0);
    const ParentAssignment before_kill = before.assignment();
    ASSERT_GT(reused(reg), 0) << "kill=" << kill;
    ASSERT_FALSE(before.delay_models().empty());
    std::stringstream ck;
    before.SaveCheckpoint(ck);
    ASSERT_NE(ck.str().find("{\"ckpt\":\"model\""), std::string::npos);

    OnlineTraceWeaver resumed(s.graph, MidStreamOptions());
    std::string error;
    ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error))
        << "kill=" << kill << ": " << error;
    Replay(s, kill, s.spans.size(), resumed, at_kill);
    resumed.Flush();

    SCOPED_TRACE(::testing::Message() << "kill=" << kill);
    ExpectFoldsCompose(before_kill, resumed.assignment(), ref.assignment());
    std::stringstream resumed_final;
    resumed.SaveCheckpoint(resumed_final);
    EXPECT_EQ(resumed_final.str(), ref_final.str()) << "kill=" << kill;
  }
}

TEST(OnlineCheckpoint, ModelRecordsRoundTripHostileNames) {
  // Carried models keyed by hostile container and endpoint names, with
  // awkward doubles, spliced into an idle weaver's checkpoint where
  // SaveCheckpoint puts them (after the stats line when nothing else is
  // held). Restoring and re-saving must reproduce every byte.
  OnlineTraceWeaver idle(CallGraph{}, MidStreamOptions());
  std::stringstream base;
  idle.SaveCheckpoint(base);
  std::string error;
  const auto base_lines = ReadChecksummedLines(base, kSchema, &error);
  ASSERT_TRUE(base_lines.has_value()) << error;
  ASSERT_EQ(base_lines->size(), 2u);  // Header + stats.

  Rng rng(20261017);
  const double awkward[] = {0.1 + 0.2, 1.0 / 3.0, -0.0, 4.9e-324,
                            1.7976931348623157e308, 123456.789};
  ContainerModels models;
  for (int trial = 0; trial < 40; ++trial) {
    const ServiceInstance instance{RandomHostileString(rng), trial % 3};
    const DelayKey key{RandomHostileString(rng), RandomHostileString(rng),
                       trial % 4 - 1, trial % 5 - 1};
    std::vector<GmmComponent> comps;
    for (int c = 0; c <= trial % 3; ++c) {
      comps.push_back(GmmComponent{awkward[(trial + c) % 6],
                                   awkward[(trial + 2 * c + 1) % 6],
                                   awkward[(trial + 3 * c + 2) % 6]});
    }
    models[instance].Install(key, GaussianMixture(std::move(comps)));
  }

  std::stringstream file;
  ChecksummedWriter w(file, kSchema);
  for (const std::string& l : *base_lines) w.WriteLine(l);
  for (const auto& [instance, model] : models) {
    model.ForEach([&](const DelayKey& key, const GaussianMixture& g) {
      std::string line = "{\"ckpt\":\"model\",";
      json::AppendStrField(line, "service", instance.service);
      line += ",\"replica\":" + std::to_string(instance.replica) + ',';
      json::AppendStrField(line, "key_service", key.service);
      line += ',';
      json::AppendStrField(line, "endpoint", key.endpoint);
      line += ",\"stage\":" + std::to_string(key.stage) +
              ",\"call\":" + std::to_string(key.call) + ",\"components\":[";
      for (std::size_t c = 0; c < g.num_components(); ++c) {
        const GmmComponent& comp = g.components()[c];
        line += (c > 0 ? ",{\"w\":" : "{\"w\":") + json::Exact(comp.weight) +
                ",\"m\":" + json::Exact(comp.mean) +
                ",\"s\":" + json::Exact(comp.stddev) + '}';
      }
      line += "]}";
      ASSERT_FALSE(HasRawControlByte(line)) << line;
      w.WriteLine(line);
    });
  }
  w.Finish();
  const std::string bytes = file.str();

  OnlineTraceWeaver restored(CallGraph{}, MidStreamOptions());
  ASSERT_TRUE(restored.LoadCheckpoint(file, &error)) << error;
  ASSERT_EQ(restored.delay_models().size(), models.size());
  for (const auto& [instance, model] : models) {
    const auto it = restored.delay_models().find(instance);
    ASSERT_NE(it, restored.delay_models().end()) << instance.service;
    ASSERT_EQ(it->second.size(), model.size());
    model.ForEach([&](const DelayKey& key, const GaussianMixture& g) {
      const GaussianMixture* got = it->second.Find(key);
      ASSERT_NE(got, nullptr) << key.service << key.endpoint;
      ASSERT_EQ(got->num_components(), g.num_components());
      for (std::size_t c = 0; c < g.num_components(); ++c) {
        const GmmComponent& a = got->components()[c];
        const GmmComponent& b = g.components()[c];
        EXPECT_EQ(json::Exact(a.weight), json::Exact(b.weight));
        EXPECT_EQ(json::Exact(a.mean), json::Exact(b.mean));
        EXPECT_EQ(json::Exact(a.stddev), json::Exact(b.stddev));
      }
    });
  }
  std::stringstream resaved;
  restored.SaveCheckpoint(resaved);
  EXPECT_EQ(resaved.str(), bytes);
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

  // Reference: one uninterrupted run.
  OnlineTraceWeaver ref(s.graph, opts);
  Replay(s, 0, s.spans.size(), ref, 0);
  ref.Flush();
  ASSERT_GT(ref.assignment().size(), 0u);
  ASSERT_GT(ref.skew_estimator().observations(), 0u);

  // Kill mid-stream (not on a window boundary), checkpoint, resume.
  const std::size_t kill = s.spans.size() / 2 + 7;
  OnlineTraceWeaver before(s.graph, opts);
  const TimeNs watermark = Replay(s, 0, kill, before, 0);
  const ParentAssignment before_kill = before.assignment();
  std::stringstream ck;
  before.SaveCheckpoint(ck);
  ASSERT_NE(ck.str().find("\"ckpt\":\"skew\""), std::string::npos)
      << "estimator state missing from the checkpoint";

  OnlineTraceWeaver resumed(s.graph, opts);
  std::string error;
  ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error)) << error;
  EXPECT_EQ(resumed.skew_estimator().observations(),
            before.skew_estimator().observations());
  Replay(s, kill, s.spans.size(), resumed, watermark);
  resumed.Flush();

  // The resumed run converges to the uninterrupted result exactly, and
  // the final checkpoints are byte-equal -- estimator state included.
  ExpectFoldsCompose(before_kill, resumed.assignment(), ref.assignment());
  std::stringstream a, b;
  ref.SaveCheckpoint(a);
  resumed.SaveCheckpoint(b);
  EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------------
// Format goldens: hand-written lines for every record type, in the
// saver's section order. Loading and re-saving must reproduce them byte
// for byte, so a format change made on both the save and the load side
// (which a save-vs-save round trip cannot see) still fails here.

/// A hostile string as the writer escapes it (no surrounding quotes):
/// quotes, backslashes, every short escape, control bytes as \u00XX,
/// raw multi-byte UTF-8, and a key-shaped payload that must never shadow
/// a real field.
const std::string kHostile =
    R"j(h\"o\\s\n\t\r\b\f\u0001\u001f)j"
    "\xc3\xa9\xf0\x9f\x98\x80/"
    R"j(x\",\"server_recv\":9,{}[]:)j";

/// -0 and the smallest denormal, as %.17g spells them.
constexpr const char* kNegZero = "-0";
constexpr const char* kDenormal = "4.9406564584124654e-324";

std::vector<std::string> WeaverGoldenLines() {
  const std::string h = "\"" + kHostile + "\"";
  const std::string nz = kNegZero;
  const std::string dn = kDenormal;
  return {
      R"({"schema":"traceweaver.checkpoint.v1","started":1,)"
      R"("next_window_start":1500000000,"high_watermark":1750000000,)"
      R"("level":2})",
      R"({"ckpt":"stats","ingested":1,"windows_closed":2,)"
      R"("parents_committed":3,"windows_shed":4,"spans_shed":5,)"
      R"("admission_drops":6,"late_spans":7,"late_grafted":8,)"
      R"("late_orphans":9,"late_dropped":10,"watermark_regressions":11,)"
      R"("deadline_misses":12,"degrade_up_steps":13,)"
      R"("degrade_down_steps":14})",
      R"({"ckpt":"buffer","id":41,"caller":)" + h +
          R"(,"callee":"search","endpoint":"/nearby",)"
          R"("client_send":1600000000,"server_recv":1600100000,)"
          R"("server_send":1600900000,"client_recv":1601000000,)"
          R"("caller_replica":1,"callee_replica":2,"true_parent":40,)"
          R"("true_trace":7})",
      R"({"ckpt":"late","deadline":2000000000,"id":42,"caller":"frontend",)"
      R"("callee":"geo","endpoint":"/near","client_send":1400000000,)"
      R"("server_recv":1400100000,"server_send":1400200000,)"
      R"("client_recv":1400300000,"caller_replica":0,"callee_replica":0,)"
      R"("true_parent":18446744073709551615,)"
      R"("true_trace":18446744073709551615})",
      R"({"ckpt":"recent","id":11,"deadline":2500000000})",
      R"({"ckpt":"recent","id":12,"deadline":9223372036854775807})",
      R"({"ckpt":"slot","parent":10,"parent_service":)" + h +
          R"(,"parent_endpoint":"/hotels","server_recv":1200000000,)"
          R"("server_send":1300000000,"replica":1,"stage":0,"call":2,)"
          R"("service":"geo","endpoint":)" + h + "}",
      R"({"ckpt":"skew","caller":)" + h +
          R"(,"caller_replica":0,"callee":"geo","callee_replica":1,)"
          R"("samples":9,"inversions":2,"offset_mean":)" + nz +
          R"(,"offset_m2":)" + dn +
          R"(,"req_gaps":"-5,3,7","resp_gaps":""})",
      R"({"ckpt":"prov","t":"late_graft","span":42,"v":10,"d":)" + h + "}",
      R"({"ckpt":"prov","t":"skew_correct","span":42,"v":-250})",
      R"({"ckpt":"model","service":)" + h +
          R"(,"replica":0,"key_service":"geo","endpoint":)" + h +
          R"(,"stage":0,"call":1,"components":[{"w":0.25,"m":)" + nz +
          R"(,"s":)" + dn +
          R"(},{"w":0.75,"m":1500.5,"s":0.10000000000000001}]})",
      R"({"ckpt":"pendingw","start":1000000000,"end":1500000000,"shed":1,)"
      R"("level":3})",
      R"({"ckpt":"pendingo","id":43})",
      R"({"ckpt":"pendingo","id":44})",
      R"({"ckpt":"pendingw","start":1500000000,"end":1500000001,"shed":0,)"
      R"("level":0})",
      R"({"ckpt":"orphan","id":45})",
      R"({"ckpt":"extra","key":)" + h + R"(,"value":0})",
      R"({"ckpt":"extra","key":"source_offset","value":123456})",
  };
}

std::string Frame(const std::vector<std::string>& lines,
                  const std::string& schema) {
  std::stringstream out;
  ChecksummedWriter w(out, schema);
  for (const std::string& l : lines) w.WriteLine(l);
  w.Finish();
  return out.str();
}

TEST(CheckpointFormatGolden, WeaverRecordsReSaveByteForByte) {
  const std::string golden = Frame(WeaverGoldenLines(), kSchema);
  obs::ProvenanceLedger ledger;
  OnlineOptions opts = MidStreamOptions();
  opts.provenance = &ledger;
  OnlineTraceWeaver w(CallGraph{}, opts);
  std::stringstream in(golden);
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(w.LoadCheckpoint(in, &error, &extra)) << error;
  EXPECT_EQ(w.buffered(), 1u);
  EXPECT_EQ(w.late_pool_size(), 1u);
  EXPECT_EQ(w.stats().degrade_down_steps, 14u);
  EXPECT_EQ(extra.at("source_offset"), 123456u);
  std::stringstream out;
  w.SaveCheckpoint(out, extra);
  EXPECT_EQ(out.str(), golden);
}

TEST(CheckpointFormatGolden, LegacyCommitRecordsLoadAsRejectsThatNeverExpire) {
  // Older weavers wrote every committed edge as a `commit` record. Each
  // loads as a graft reject without a deadline, merged with any `recent`
  // entry for the same id, and is re-saved in the new form.
  std::vector<std::string> lines = WeaverGoldenLines();
  std::vector<std::string> want = lines;
  const auto at = [](std::vector<std::string>& v, const std::string& head) {
    const auto it = std::find_if(v.begin(), v.end(), [&](const auto& l) {
      return l.rfind(head, 0) == 0;
    });
    EXPECT_NE(it, v.end()) << head;
    return it;
  };
  *at(lines, R"({"ckpt":"recent","id":12,)") =
      R"({"ckpt":"commit","child":12,"parent":10})";
  lines.insert(at(lines, R"({"ckpt":"recent","id":11,)") + 1,
               R"({"ckpt":"commit","child":11,"parent":10})");
  *at(want, R"({"ckpt":"recent","id":11,)") =
      R"({"ckpt":"recent","id":11,"deadline":9223372036854775807})";

  obs::ProvenanceLedger ledger;
  OnlineOptions opts = MidStreamOptions();
  opts.provenance = &ledger;
  OnlineTraceWeaver w(CallGraph{}, opts);
  std::stringstream in(Frame(lines, kSchema));
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(w.LoadCheckpoint(in, &error, &extra)) << error;
  EXPECT_TRUE(w.assignment().empty());
  std::stringstream out;
  w.SaveCheckpoint(out, extra);
  EXPECT_EQ(out.str(), Frame(want, kSchema));
}

TEST(CheckpointFormatGolden, SkewRecordsReSaveByteForByte) {
  const std::string h = "\"" + kHostile + "\"";
  const std::vector<std::string> lines = {
      R"({"ckpt":"skew","caller":"a","caller_replica":-1,"callee":)" + h +
          R"(,"callee_replica":3,"samples":0,"inversions":0,)"
          R"("offset_mean":)" + std::string(kDenormal) +
          R"(,"offset_m2":)" + std::string(kNegZero) +
          R"(,"req_gaps":"","resp_gaps":"-9,-9,0"})",
      R"({"ckpt":"skew","caller":)" + h +
          R"(,"caller_replica":0,"callee":"b","callee_replica":0,)"
          R"("samples":18446744073709551615,"inversions":5,)"
          R"("offset_mean":-1250.75,"offset_m2":0.10000000000000001,)"
          R"("req_gaps":"1,2","resp_gaps":""})",
  };
  SkewEstimator estimator;
  for (const std::string& line : lines) {
    ASSERT_TRUE(estimator.LoadCheckpointLine(line)) << line;
  }
  EXPECT_EQ(estimator.CheckpointLines(), lines);
}


/// `line` without its top-level numeric field `key` (the `,"key":<n>`
/// run), as a writer that forgot the field would have emitted it.
std::string DropField(std::string line, const std::string& key) {
  const std::size_t at = line.find(",\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " not in " << line;
  if (at == std::string::npos) return line;
  const std::size_t end = line.find_first_of(",}", at + key.size() + 4);
  return line.erase(at, end - at);
}

TEST(CheckpointFormatGolden, MissingFieldRejectedWithStateUntouched) {
  const std::vector<std::string> lines = WeaverGoldenLines();
  const std::string golden = Frame(lines, kSchema);
  obs::ProvenanceLedger ledger;
  OnlineOptions opts = MidStreamOptions();
  opts.provenance = &ledger;
  OnlineTraceWeaver victim(CallGraph{}, opts);
  std::stringstream in(golden);
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(victim.LoadCheckpoint(in, &error, &extra)) << error;

  const struct {
    const char* prefix;  // Leading bytes of the record to damage.
    const char* field;
    const char* record;  // What the error must name.
  } cases[] = {
      {"{\"schema\":", "next_window_start", "header"},
      {"{\"ckpt\":\"stats\"", "windows_closed", "stats"},
      {"{\"ckpt\":\"recent\"", "deadline", "recent"},
      {"{\"ckpt\":\"slot\"", "server_recv", "slot"},
      {"{\"ckpt\":\"pendingw\"", "end", "pendingw"},
  };
  for (const auto& c : cases) {
    std::vector<std::string> damaged = lines;
    const auto it = std::find_if(
        damaged.begin(), damaged.end(),
        [&](const std::string& l) { return l.rfind(c.prefix, 0) == 0; });
    ASSERT_NE(it, damaged.end()) << c.prefix;
    *it = DropField(*it, c.field);
    std::stringstream file(Frame(damaged, kSchema));
    error.clear();
    EXPECT_FALSE(victim.LoadCheckpoint(file, &error)) << c.field;
    EXPECT_NE(error.find(c.record), std::string::npos) << error;
    std::stringstream post;
    victim.SaveCheckpoint(post, extra);
    EXPECT_EQ(post.str(), golden) << c.field;
  }
}

}  // namespace
}  // namespace traceweaver
