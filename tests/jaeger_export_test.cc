// Jaeger UI JSON export: pinned golden output (shape, %016llx id
// formatting, process/service mapping, escaping, microsecond timestamps)
// and the optional tw.* quality tags.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "test_helpers.h"
#include "trace/jaeger_export.h"
#include "trace/trace.h"
#include "util/json.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::RandomHostileString;

// A two-span trace: front "end" (id 255 = 0xff) -> backend (id 4096 =
// 0x1000). The service name carries a quote to pin the JSON escaping.
std::vector<Span> FixtureSpans() {
  Span a;
  a.id = 255;
  a.caller = "client";
  a.callee = "front \"end\"";
  a.endpoint = "/a";
  a.client_send = Millis(1) - Micros(100);
  a.server_recv = Millis(1);
  a.server_send = Millis(9);
  a.client_recv = Millis(9) + Micros(100);
  a.callee_replica = 2;
  Span b;
  b.id = 4096;
  b.caller = "front \"end\"";
  b.callee = "backend";
  b.endpoint = "/b";
  b.client_send = Millis(3) - Micros(100);
  b.server_recv = Millis(3);
  b.server_send = Millis(7);
  b.client_recv = Millis(7) + Micros(100);
  return {a, b};
}

ParentAssignment FixtureAssignment() {
  ParentAssignment assign;
  assign[4096] = 255;
  assign[255] = kInvalidSpanId;
  return assign;
}

// clang-format off
const char* const kGolden =
    "{\"data\":[{\"traceID\":\"00000000000000ff\",\"spans\":["
    "{\"traceID\":\"00000000000000ff\",\"spanID\":\"00000000000000ff\","
    "\"operationName\":\"/a\",\"references\":[],"
    "\"startTime\":1000,\"duration\":8000,\"processID\":\"p1\","
    "\"tags\":[{\"key\":\"caller\",\"type\":\"string\",\"value\":\"client\"},"
    "{\"key\":\"replica\",\"type\":\"int64\",\"value\":2}]},"
    "{\"traceID\":\"00000000000000ff\",\"spanID\":\"0000000000001000\","
    "\"operationName\":\"/b\",\"references\":["
    "{\"refType\":\"CHILD_OF\",\"traceID\":\"00000000000000ff\","
    "\"spanID\":\"00000000000000ff\"}],"
    "\"startTime\":3000,\"duration\":4000,\"processID\":\"p2\","
    "\"tags\":[{\"key\":\"caller\",\"type\":\"string\","
    "\"value\":\"front \\\"end\\\"\"},"
    "{\"key\":\"replica\",\"type\":\"int64\",\"value\":0}]}],"
    "\"processes\":{\"p2\":{\"serviceName\":\"backend\"},"
    "\"p1\":{\"serviceName\":\"front \\\"end\\\"\"}}}]}";
// clang-format on

TEST(JaegerExport, GoldenWithoutQualityTags) {
  EXPECT_EQ(TracesToJaegerJson(FixtureSpans(), FixtureAssignment()), kGolden);
}

TEST(JaegerExport, QualityTagsAppendToAnnotatedSpansOnly) {
  std::map<SpanId, JaegerSpanTags> quality;
  quality[255] = JaegerSpanTags{0.875, 2.5, 7};
  const std::string json =
      TracesToJaegerJson(FixtureSpans(), FixtureAssignment(), &quality);

  const std::string tags =
      ",{\"key\":\"tw.confidence\",\"type\":\"float64\",\"value\":0.875000},"
      "{\"key\":\"tw.runner_up_margin\",\"type\":\"float64\","
      "\"value\":2.500000},"
      "{\"key\":\"tw.candidates_considered\",\"type\":\"int64\",\"value\":7}";
  // Exactly the golden document with the tw.* block spliced into span 255.
  std::string expected = kGolden;
  const std::string anchor = "{\"key\":\"replica\",\"type\":\"int64\",\"value\":2}";
  const std::size_t at = expected.find(anchor);
  ASSERT_NE(at, std::string::npos);
  expected.insert(at + anchor.size(), tags);
  EXPECT_EQ(json, expected);
  // Span 4096 has no entry in the quality map and stays untouched.
  EXPECT_EQ(json.find("tw.confidence", at + anchor.size() + tags.size()),
            std::string::npos);
}

TEST(JaegerExport, IdsAreZeroPaddedHex) {
  std::vector<Span> spans = FixtureSpans();
  spans[0].id = 0xdeadbeefcafe;
  spans[1].id = 1;
  ParentAssignment assign;
  assign[1] = 0xdeadbeefcafe;
  assign[0xdeadbeefcafe] = kInvalidSpanId;
  const std::string json = TracesToJaegerJson(spans, assign);
  EXPECT_NE(json.find("\"spanID\":\"0000deadbeefcafe\""), std::string::npos);
  EXPECT_NE(json.find("\"spanID\":\"0000000000000001\""), std::string::npos);
  EXPECT_NE(json.find("\"traceID\":\"0000deadbeefcafe\""), std::string::npos);
}

TEST(JaegerExport, OrphanFragmentsBecomeTheirOwnTraces) {
  // The child's inferred parent is missing from the population: both spans
  // must root their own trace entries.
  std::vector<Span> spans = FixtureSpans();
  ParentAssignment assign;
  assign[4096] = 777;  // Not in `spans`.
  assign[255] = kInvalidSpanId;
  const std::string json = TracesToJaegerJson(spans, assign);
  EXPECT_NE(json.find("\"traceID\":\"00000000000000ff\""), std::string::npos);
  EXPECT_NE(json.find("\"traceID\":\"0000000000001000\""), std::string::npos);
  // Two top-level trace objects.
  std::size_t count = 0;
  for (std::size_t at = json.find("\"spans\":["); at != std::string::npos;
       at = json.find("\"spans\":[", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

/// The value of top-level `key` in `object`, from its first byte to the
/// end of `object` (enough for the flat reader to look inside it).
std::string_view Member(std::string_view object, std::string_view key) {
  const std::size_t pos = json::FindValue(object, key);
  return pos == std::string_view::npos ? std::string_view{}
                                       : object.substr(pos);
}

TEST(JaegerExport, HostileNamesStayEscapedAndRecoverable) {
  Rng rng(4096);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Span> spans = FixtureSpans();
    spans[0].callee = spans[1].caller = RandomHostileString(rng);
    spans[0].endpoint = RandomHostileString(rng);
    spans[1].callee = RandomHostileString(rng);
    spans[1].endpoint = RandomHostileString(rng);
    const std::string out = TracesToJaegerJson(spans, FixtureAssignment());
    ASSERT_FALSE(HasRawControlByte(out)) << out;

    std::vector<std::string_view> traces, jspans;
    ASSERT_TRUE(json::SplitObjectArray(out, json::FindValue(out, "data"),
                                       &traces)) << out;
    ASSERT_EQ(traces.size(), 1u);
    ASSERT_TRUE(json::SplitObjectArray(
        traces[0], json::FindValue(traces[0], "spans"), &jspans)) << out;
    ASSERT_EQ(jspans.size(), spans.size());
    const std::string_view processes = Member(traces[0], "processes");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(json::FieldStr(jspans[i], "operationName"),
                spans[i].endpoint) << out;
      std::vector<std::string_view> tags;
      ASSERT_TRUE(json::SplitObjectArray(
          jspans[i], json::FindValue(jspans[i], "tags"), &tags)) << out;
      ASSERT_FALSE(tags.empty());
      EXPECT_EQ(json::FieldStr(tags[0], "value"), spans[i].caller) << out;
      const auto pid = json::FieldStr(jspans[i], "processID");
      ASSERT_TRUE(pid.has_value()) << out;
      EXPECT_EQ(json::FieldStr(Member(processes, *pid), "serviceName"),
                spans[i].callee) << out;
    }
  }
}

}  // namespace
}  // namespace traceweaver
