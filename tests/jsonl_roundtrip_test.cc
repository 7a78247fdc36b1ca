// Round-trip property test for the JSONL span format (trace/jsonl_io.h):
// SpanFromJson(SpanToJson(s)) == s for randomized spans whose string
// fields exercise quotes, backslashes, control characters, and
// JSON-looking payloads (e.g. a name containing `","id":9,"x":"`), plus
// regression cases for historical parser bugs (substring key matches,
// whitespace after the colon).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.h"
#include "trace/jsonl_io.h"
#include "trace/span.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::RandomHostileString;

void ExpectSpanEq(const Span& a, const Span& b, const std::string& context) {
  EXPECT_EQ(a.id, b.id) << context;
  EXPECT_EQ(a.caller, b.caller) << context;
  EXPECT_EQ(a.callee, b.callee) << context;
  EXPECT_EQ(a.endpoint, b.endpoint) << context;
  EXPECT_EQ(a.client_send, b.client_send) << context;
  EXPECT_EQ(a.server_recv, b.server_recv) << context;
  EXPECT_EQ(a.server_send, b.server_send) << context;
  EXPECT_EQ(a.client_recv, b.client_recv) << context;
  EXPECT_EQ(a.caller_replica, b.caller_replica) << context;
  EXPECT_EQ(a.callee_replica, b.callee_replica) << context;
  // Thread ids are deliberately not part of the interchange format (the
  // production capture layer cannot provide them), so they do not round-trip.
}

void ExpectRoundTrips(const Span& s) {
  const std::string line = SpanToJson(s);
  const std::optional<Span> back = SpanFromJson(line);
  ASSERT_TRUE(back.has_value()) << line;
  ExpectSpanEq(s, *back, line);
}

TEST(JsonlRoundTrip, RandomizedHostileStringsSurvive) {
  Rng rng(20240806);
  for (int trial = 0; trial < 2000; ++trial) {
    Span s;
    s.id = static_cast<SpanId>(rng.UniformInt(0, (std::int64_t{1} << 62)));
    s.caller = RandomHostileString(rng);
    if (s.caller.empty()) s.caller = "c";
    s.callee = RandomHostileString(rng);
    if (s.callee.empty()) s.callee = "s";
    s.endpoint = RandomHostileString(rng);
    if (s.endpoint.empty()) s.endpoint = "/";
    s.client_send = rng.UniformInt(0, std::int64_t{1} << 30);
    s.server_recv = s.client_send + rng.UniformInt(0, 1000);
    s.server_send = s.server_recv + rng.UniformInt(0, 1000);
    s.client_recv = s.server_send + rng.UniformInt(0, 1000);
    s.caller_replica = static_cast<int>(rng.UniformInt(0, 7));
    s.callee_replica = static_cast<int>(rng.UniformInt(0, 7));
    ExpectRoundTrips(s);
  }
}

TEST(JsonlRoundTrip, EmbeddedEscapedKeysDoNotShadowRealFields) {
  // A string value containing what *looks* like a later key (escaped
  // quotes around "id") must not win over the genuine top-level key.
  Span s;
  s.id = 42;
  s.caller = "x\",\"id\":9,\"y\":\"";
  s.callee = "{\"server_recv\": 77}";
  s.endpoint = "tab\there\\and\"quote";
  s.client_send = 1;
  s.server_recv = 2;
  s.server_send = 3;
  s.client_recv = 4;
  ExpectRoundTrips(s);

  const std::optional<Span> back = SpanFromJson(SpanToJson(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->server_recv, 2);
}

TEST(JsonlRoundTrip, ControlCharactersEscapeAndDecode) {
  Span s;
  s.id = 1;
  s.caller = std::string("a\r\nb\bc\fd\te") + '\x01' + "f";
  s.callee = "svc";
  s.endpoint = "/ep";
  const std::string line = SpanToJson(s);
  // The serialized line must stay a single line (JSONL framing).
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_EQ(line.find('\r'), std::string::npos) << line;
  EXPECT_NE(line.find("\\u0001"), std::string::npos) << line;
  ExpectRoundTrips(s);
}

TEST(JsonlRoundTrip, PrettyPrintedWhitespaceAfterColonParses) {
  // Regression: GetInt used to reject a space between ':' and the number.
  const std::string line =
      "{\"id\": 7, \"caller\": \"client\", \"callee\": \"frontend\", "
      "\"endpoint\": \"/home\", \"client_send\": 5, \"server_recv\": 6, "
      "\"server_send\": 8, \"client_recv\": 9, \"caller_replica\": 0, "
      "\"callee_replica\": 1}";
  const std::optional<Span> s = SpanFromJson(line);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->id, 7u);
  EXPECT_EQ(s->client_send, 5);
  EXPECT_EQ(s->server_recv, 6);
  EXPECT_EQ(s->callee_replica, 1);
}

TEST(JsonlRoundTrip, SubstringKeyDoesNotMatch) {
  // Regression: FindValue("id") used to match the tail of "trace_id" or a
  // key like "xid". Keys must anchor at a top-level position.
  const std::string line =
      "{\"xid\":999,\"id\":7,\"caller\":\"client\",\"callee\":\"f\","
      "\"endpoint\":\"/e\",\"client_send\":1,\"server_recv\":2,"
      "\"server_send\":3,\"client_recv\":4}";
  const std::optional<Span> s = SpanFromJson(line);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->id, 7u);
}

TEST(JsonlRoundTrip, MalformedLinesAreCountedNotCrashed) {
  std::istringstream in(
      "{\"id\":1,\"caller\":\"client\",\"callee\":\"f\",\"endpoint\":\"/e\","
      "\"client_send\":1,\"server_recv\":2,\"server_send\":3,"
      "\"client_recv\":4}\n"
      "this is not json\n"
      "{\"id\":\n"
      "{}\n");
  std::size_t dropped = 0;
  const std::vector<Span> spans = ReadSpansJsonl(in, &dropped);
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_EQ(dropped, 3u);
}

TEST(JsonlRoundTrip, GroundTruthRoundTripsWhenRequested) {
  Span s;
  s.id = 5;
  s.caller = "frontend";
  s.callee = "search";
  s.endpoint = "/q";
  s.true_parent = 3;
  s.true_trace = 99;
  const std::optional<Span> back =
      SpanFromJson(SpanToJson(s, /*include_ground_truth=*/true));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->true_parent, 3u);
  EXPECT_EQ(back->true_trace, 99u);
}

/// A span line whose caller is the raw JSON string body `caller_json`.
std::string LineWithCaller(const std::string& caller_json) {
  return "{\"id\":1,\"caller\":\"" + caller_json +
         "\",\"callee\":\"f\",\"endpoint\":\"/e\",\"client_send\":1,"
         "\"server_recv\":2,\"server_send\":3,\"client_recv\":4}";
}

TEST(JsonlRoundTrip, SurrogatePairDecodesToOneFourByteSequence) {
  // U+1F600 as a UTF-16 surrogate pair must become its UTF-8 encoding,
  // not two 3-byte encodings of the halves (CESU-8, invalid UTF-8).
  const std::optional<Span> s =
      SpanFromJson(LineWithCaller("a\\ud83d\\ude00b"));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->caller, "a\xf0\x9f\x98\x80" "b");
  // BMP escapes keep decoding as before, in either hex case.
  const std::optional<Span> bmp =
      SpanFromJson(LineWithCaller("\\u00e9\\u20AC\\/"));
  ASSERT_TRUE(bmp.has_value());
  EXPECT_EQ(bmp->caller, "\xc3\xa9\xe2\x82\xac/");
}

TEST(JsonlRoundTrip, LoneSurrogatesAndUnknownEscapesAreRejected) {
  for (const char* bad :
       {"\\ud83d", "\\ude00", "\\ud83dx", "\\ud83d\\u0041",
        "\\ude00\\ud83d", "\\ud83d\\ud83d", "\\u12", "\\u12g4",
        "\\x41"}) {
    EXPECT_FALSE(SpanFromJson(LineWithCaller(bad)).has_value()) << bad;
  }
}

}  // namespace
}  // namespace traceweaver
