// Round-trip property test for the JSONL span format (trace/jsonl_io.h):
// SpanFromJson(SpanToJson(s)) == s for randomized spans whose string
// fields exercise quotes, backslashes, control characters, and
// JSON-looking payloads (e.g. a name containing `","id":9,"x":"`), plus
// regression cases for historical parser bugs (substring key matches,
// whitespace after the colon). Also the one-pass key scan the decoders
// use (json::FindValues), the arrays of objects that walk decodes as it
// passes them (json::ObjectArray), and a differential test of the span,
// trace record and provenance event decoders against per-key copies of
// them on seeded mutations of simulator spans and store records.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mutator.h"
#include "obs/provenance.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "test_helpers.h"
#include "trace/jsonl_io.h"
#include "trace/span.h"
#include "trace/trace_record.h"
#include "util/json.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::Mutate;
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

/// A span whose string values hold what *looks* like later keys (escaped
/// quotes around "id" and "server_recv").
Span EmbeddedKeysSpan() {
  Span s;
  s.id = 42;
  s.caller = "x\",\"id\":9,\"y\":\"";
  s.callee = "{\"server_recv\": 77}";
  s.endpoint = "tab\there\\and\"quote";
  s.client_send = 1;
  s.server_recv = 2;
  s.server_send = 3;
  s.client_recv = 4;
  return s;
}

constexpr std::string_view kPrettyPrintedLine =
    "{\"id\": 7, \"caller\": \"client\", \"callee\": \"frontend\", "
    "\"endpoint\": \"/home\", \"client_send\": 5, \"server_recv\": 6, "
    "\"server_send\": 8, \"client_recv\": 9, \"caller_replica\": 0, "
    "\"callee_replica\": 1}";

constexpr std::string_view kSubstringKeyLine =
    "{\"xid\":999,\"id\":7,\"caller\":\"client\",\"callee\":\"f\","
    "\"endpoint\":\"/e\",\"client_send\":1,\"server_recv\":2,"
    "\"server_send\":3,\"client_recv\":4}";

TEST(JsonlRoundTrip, EmbeddedEscapedKeysDoNotShadowRealFields) {
  // A string value containing what *looks* like a later key must not win
  // over the genuine top-level key.
  const Span s = EmbeddedKeysSpan();
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
  const std::optional<Span> s = SpanFromJson(kPrettyPrintedLine);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->id, 7u);
  EXPECT_EQ(s->client_send, 5);
  EXPECT_EQ(s->server_recv, 6);
  EXPECT_EQ(s->callee_replica, 1);
}

TEST(JsonlRoundTrip, SubstringKeyDoesNotMatch) {
  // Regression: FindValue("id") used to match the tail of "trace_id" or a
  // key like "xid". Keys must anchor at a top-level position.
  const std::optional<Span> s = SpanFromJson(kSubstringKeyLine);
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

// --- The one-pass scan (json::FindValues) ------------------------------

/// Every key SpanFromJson reads, in SpanToJson's order.
const std::vector<std::string_view> kSpanKeys = {
    "id",          "caller",         "callee",         "endpoint",
    "client_send", "server_recv",    "server_send",    "client_recv",
    "caller_replica", "callee_replica", "true_parent", "true_trace"};
/// Every key TraceRecordFromJson reads.
const std::vector<std::string_view> kRecordKeys = {
    "schema", "trace",          "root_service", "root_endpoint", "start",
    "end",    "grade",          "confidence",   "min_confidence", "orphan",
    "suspect", "spans",         "parents",      "provenance"};
/// Every key ProvEventFromJson reads.
const std::vector<std::string_view> kEventKeys = {"t", "span", "v", "d"};

std::vector<std::size_t> Scan(std::string_view text,
                              const std::vector<std::string_view>& keys) {
  std::vector<std::size_t> at(keys.size());
  json::FindValues(text, keys, at);
  return at;
}

TEST(JsonScan, AgreesWithFindValueOnHostileLines) {
  const std::string embedded = SpanToJson(EmbeddedKeysSpan());
  for (const std::string_view line :
       {std::string_view(embedded), kPrettyPrintedLine, kSubstringKeyLine}) {
    const std::vector<std::size_t> at = Scan(line, kSpanKeys);
    for (std::size_t k = 0; k < kSpanKeys.size(); ++k) {
      EXPECT_EQ(at[k], json::FindValue(line, kSpanKeys[k]))
          << kSpanKeys[k] << " in " << line;
    }
  }
  // The scan skipped the key-shaped payloads: "id" is the real 42.
  const std::size_t id = Scan(embedded, kSpanKeys)[0];
  EXPECT_EQ(embedded.substr(id, 3), "42,");
}

TEST(JsonScan, DuplicateKeyResolvesToFirstOccurrence) {
  const std::string_view text = R"({"a":1,"b":2,"a":3,"b" : 4})";
  const std::vector<std::size_t> at = Scan(text, {"a", "b"});
  EXPECT_EQ(at[0], text.find("1"));
  EXPECT_EQ(at[1], text.find("2"));
  // Also when the keys are asked for in the opposite order.
  const std::vector<std::size_t> flipped = Scan(text, {"b", "a"});
  EXPECT_EQ(flipped[0], text.find("2"));
  EXPECT_EQ(flipped[1], text.find("1"));
}

TEST(JsonScan, MissingKeyIsNpos) {
  const std::string_view text = R"({"a":1,"nested":{"b":2},"s":"\"c\":3"})";
  const std::vector<std::size_t> at = Scan(text, {"a", "b", "c", "zz"});
  EXPECT_EQ(at[0], text.find("1"));
  for (std::size_t k = 1; k < at.size(); ++k) {
    EXPECT_EQ(at[k], std::string_view::npos) << k;
  }
}

TEST(JsonScan, UnterminatedStringKeepsKeysFoundBeforeIt) {
  const std::string_view text = R"({"a":1,"s":"never closed,"b":2)";
  const std::vector<std::size_t> at = Scan(text, {"a", "s", "b"});
  EXPECT_EQ(at[0], text.find("1"));
  EXPECT_EQ(at[1], text.find("\"never"));
  // The string swallows "b"'s opening quote, so "b" is never seen.
  EXPECT_EQ(at[2], std::string_view::npos);
  // An unterminated key: "a" keeps its position, the rest stay npos.
  const std::vector<std::size_t> cut = Scan(R"({"a":1,"b)", {"a", "b"});
  EXPECT_EQ(cut[0], 5u);
  EXPECT_EQ(cut[1], std::string_view::npos);
}

// --- Differential test against the per-key decoders --------------------
//
// The oracle is the decoders as they were before the one-pass scan: each
// field is its own lookup, and each lookup rescans the object from its
// start with a private copy of that era's scanner. Values are read with
// the shared json::Read* calls, which the scan did not change.
namespace oracle {

std::size_t FindValue(std::string_view text, std::string_view key) {
  constexpr std::size_t npos = std::string_view::npos;
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{' || c == '[') {
      ++depth;
      continue;
    }
    if (c == '}' || c == ']') {
      --depth;
      continue;
    }
    if (c != '"') continue;
    const std::size_t start = i + 1;
    for (i = start; i < text.size() && text[i] != '"'; ++i) {
      if (text[i] == '\\') ++i;
    }
    if (i >= text.size()) return npos;
    if (depth != 1 || i - start != key.size() ||
        text.compare(start, key.size(), key) != 0) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && is_space(text[j])) ++j;
    if (j >= text.size() || text[j] != ':') continue;
    ++j;
    while (j < text.size() && is_space(text[j])) ++j;
    return j;
  }
  return npos;
}

template <typename T>
std::optional<T> Field(std::string_view text, std::string_view key,
                       bool (*read)(std::string_view, std::size_t, T*)) {
  T value{};
  if (!read(text, FindValue(text, key), &value)) return std::nullopt;
  return value;
}
std::optional<std::string> FieldStr(std::string_view t, std::string_view k) {
  return Field(t, k, json::ReadStr);
}
std::optional<std::int64_t> FieldI64(std::string_view t, std::string_view k) {
  return Field(t, k, json::ReadI64);
}
std::optional<std::uint64_t> FieldU64(std::string_view t,
                                      std::string_view k) {
  return Field(t, k, json::ReadU64);
}
std::optional<double> FieldF64(std::string_view t, std::string_view k) {
  return Field(t, k, json::ReadF64);
}
std::optional<bool> FieldBool(std::string_view t, std::string_view k) {
  return Field(t, k, json::ReadBool);
}

std::optional<Span> SpanFromJson(std::string_view line) {
  Span s;
  const auto id = FieldU64(line, "id");
  const auto caller = FieldStr(line, "caller");
  const auto callee = FieldStr(line, "callee");
  const auto endpoint = FieldStr(line, "endpoint");
  const auto cs = FieldI64(line, "client_send");
  const auto sr = FieldI64(line, "server_recv");
  const auto ss = FieldI64(line, "server_send");
  const auto cr = FieldI64(line, "client_recv");
  if (!id || !caller || !callee || !endpoint || !cs || !sr || !ss || !cr) {
    return std::nullopt;
  }
  s.id = *id;
  s.caller = *caller;
  s.callee = *callee;
  s.endpoint = *endpoint;
  s.client_send = *cs;
  s.server_recv = *sr;
  s.server_send = *ss;
  s.client_recv = *cr;
  s.caller_replica =
      static_cast<int>(FieldI64(line, "caller_replica").value_or(0));
  s.callee_replica =
      static_cast<int>(FieldI64(line, "callee_replica").value_or(0));
  s.true_parent = FieldU64(line, "true_parent").value_or(kInvalidSpanId);
  s.true_trace = FieldU64(line, "true_trace").value_or(kInvalidTraceId);
  return s;
}

std::optional<obs::ProvEvent> ProvEventFromJson(std::string_view text) {
  const auto name = FieldStr(text, "t");
  if (!name) return std::nullopt;
  const auto type = obs::ProvEventTypeFromName(*name);
  if (!type) return std::nullopt;
  const auto span = FieldU64(text, "span");
  const auto value = FieldI64(text, "v");
  if (!span || !value) return std::nullopt;
  obs::ProvEvent event;
  event.type = *type;
  event.span = *span;
  event.value = *value;
  event.detail = FieldStr(text, "d").value_or("");
  return event;
}

std::optional<TraceRecord> TraceRecordFromJson(std::string_view line) {
  const auto schema = FieldStr(line, "schema");
  if (!schema || *schema != TraceRecord::kSchema) return std::nullopt;

  TraceRecord record;
  const auto trace = FieldU64(line, "trace");
  const auto service = FieldStr(line, "root_service");
  const auto endpoint = FieldStr(line, "root_endpoint");
  const auto start = FieldI64(line, "start");
  const auto end = FieldI64(line, "end");
  const auto grade = FieldStr(line, "grade");
  const auto confidence = FieldF64(line, "confidence");
  const auto min_confidence = FieldF64(line, "min_confidence");
  if (!trace || !service || !endpoint || !start || !end || !grade ||
      grade->size() != 1 || !confidence || !min_confidence) {
    return std::nullopt;
  }
  record.trace_id = *trace;
  record.root_service = *service;
  record.root_endpoint = *endpoint;
  record.start = *start;
  record.end = *end;
  record.grade = (*grade)[0];
  record.confidence = *confidence;
  record.min_confidence = *min_confidence;
  record.orphan = FieldBool(line, "orphan").value_or(false);
  record.suspect = FieldBool(line, "suspect").value_or(false);

  std::vector<std::string_view> elements;
  if (!json::SplitObjectArray(line, FindValue(line, "spans"), &elements)) {
    return std::nullopt;
  }
  record.spans.reserve(elements.size());
  for (const std::string_view element : elements) {
    auto span = SpanFromJson(element);
    if (!span) return std::nullopt;
    record.spans.push_back(std::move(*span));
  }
  if (record.spans.empty()) return std::nullopt;

  std::size_t pos = FindValue(line, "parents");
  if (pos >= line.size() || line[pos] != '[') return std::nullopt;
  const char* const last = line.data() + line.size();
  for (++pos; pos < line.size() && line[pos] != ']'; ++pos) {
    if (line[pos] == ',') continue;
    SpanId child = 0;
    SpanId parent = 0;
    if (line[pos] != '[') return std::nullopt;
    const auto c = std::from_chars(line.data() + pos + 1, last, child);
    if (c.ec != std::errc() || c.ptr == last || *c.ptr != ',') {
      return std::nullopt;
    }
    const auto p = std::from_chars(c.ptr + 1, last, parent);
    if (p.ec != std::errc() || p.ptr == last || *p.ptr != ']') {
      return std::nullopt;
    }
    pos = static_cast<std::size_t>(p.ptr - line.data());
    record.parents.emplace_back(child, parent);
  }
  if (pos >= line.size()) return std::nullopt;

  const std::size_t prov_pos = FindValue(line, "provenance");
  if (prov_pos != std::string_view::npos) {
    std::vector<std::string_view> events;
    if (!json::SplitObjectArray(line, prov_pos, &events)) {
      return std::nullopt;
    }
    record.provenance.reserve(events.size());
    for (const std::string_view element : events) {
      auto event = ProvEventFromJson(element);
      if (!event) return std::nullopt;
      record.provenance.push_back(std::move(*event));
    }
  }
  return record;
}

}  // namespace oracle

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameSpan(const Span& a, const Span& b) {
  return a.id == b.id && a.caller == b.caller && a.callee == b.callee &&
         a.endpoint == b.endpoint && a.client_send == b.client_send &&
         a.server_recv == b.server_recv && a.server_send == b.server_send &&
         a.client_recv == b.client_recv &&
         a.caller_replica == b.caller_replica &&
         a.callee_replica == b.callee_replica &&
         a.true_parent == b.true_parent && a.true_trace == b.true_trace;
}

bool SameRecord(const TraceRecord& a, const TraceRecord& b) {
  if (a.spans.size() != b.spans.size()) return false;
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    if (!SameSpan(a.spans[i], b.spans[i])) return false;
  }
  return a.trace_id == b.trace_id && a.root_service == b.root_service &&
         a.root_endpoint == b.root_endpoint && a.start == b.start &&
         a.end == b.end && a.grade == b.grade &&
         SameBits(a.confidence, b.confidence) &&
         SameBits(a.min_confidence, b.min_confidence) &&
         a.orphan == b.orphan && a.suspect == b.suspect &&
         a.parents == b.parents && a.provenance == b.provenance;
}

/// Both reject, or both accept with every field equal.
template <typename T, typename Same>
bool SameOutcome(const std::optional<T>& a, const std::optional<T>& b,
                 Same same) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || same(*a, *b);
}

/// Service and endpoint names that spell out keys of the three schemas.
std::vector<std::string> KeyShapedNames() {
  std::vector<std::string> names;
  for (const auto* keys : {&kSpanKeys, &kRecordKeys, &kEventKeys}) {
    for (const std::string_view key : *keys) {
      names.push_back(std::string(key) + "\":1,\"");
      names.push_back("\",\"" + std::string(key) + "\":\"x");
      names.push_back("{\"" + std::string(key) + "\" : [2]}");
    }
  }
  return names;
}

struct Corpus {
  std::vector<std::string> spans;
  std::vector<std::string> events;
  std::vector<std::string> records;
};

/// Simulator spans, their traces as store records (some with
/// provenance), and the records' provenance events, with a share of the
/// names swapped for hostile and key-shaped ones.
Corpus BaseCorpus() {
  sim::OpenLoopOptions load;
  load.requests_per_sec = 100;
  load.duration = Millis(400);
  load.seed = 11;
  std::vector<Span> spans =
      sim::RunOpenLoop(sim::MakeHotelReservationApp(), load).spans;
  Rng rng(20261019);
  const std::vector<std::string> key_shaped = KeyShapedNames();
  const auto pick_name = [&](const std::string& name) -> std::string {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return key_shaped[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(key_shaped.size()) - 1))];
      case 1:
        return RandomHostileString(rng);
      default:
        return name;
    }
  };
  for (Span& s : spans) {
    s.caller = pick_name(s.caller);
    s.callee = pick_name(s.callee);
    s.endpoint = pick_name(s.endpoint);
  }

  Corpus corpus;
  std::map<TraceId, TraceRecord> traces;
  for (const Span& s : spans) {
    corpus.spans.push_back(SpanToJson(s, rng.Bernoulli(0.5)));
    TraceRecord& r = traces[s.true_trace];
    r.spans.push_back(s);
    if (s.true_parent != kInvalidSpanId) {
      r.parents.emplace_back(s.id, s.true_parent);
    }
  }
  for (auto& [trace, r] : traces) {
    const Span& first = r.spans.front();
    r.trace_id = first.id;
    r.root_service = pick_name(first.callee);
    r.root_endpoint = pick_name(first.endpoint);
    r.start = first.client_send;
    r.end = first.client_recv;
    r.grade = static_cast<char>('A' + rng.UniformInt(0, 3));
    r.confidence = rng.Uniform(0, 1);
    r.min_confidence = rng.Uniform(0, 1);
    r.orphan = rng.Bernoulli(0.3);
    r.suspect = rng.Bernoulli(0.3);
    std::sort(r.parents.begin(), r.parents.end());
    if (rng.Bernoulli(0.5)) {
      for (const Span& s : r.spans) {
        obs::ProvEvent e;
        e.type = static_cast<obs::ProvEventType>(
            rng.UniformInt(0, obs::kProvEventTypeCount - 1));
        e.span = s.id;
        e.value = rng.UniformInt(-1000, 1000);
        if (rng.Bernoulli(0.5)) e.detail = pick_name("replicas");
        r.provenance.push_back(e);
        corpus.events.push_back(obs::ProvEventToJson(e));
      }
    }
    corpus.records.push_back(TraceRecordToJson(r));
  }
  return corpus;
}

TEST(JsonScan, DecodersMatchPerKeyOracleOnMutatedInputs) {
  const Corpus corpus = BaseCorpus();
  ASSERT_GT(corpus.spans.size(), 100u);
  ASSERT_GT(corpus.events.size(), 100u);
  ASSERT_GT(corpus.records.size(), 20u);
  Rng rng(25);
  std::size_t differences = 0;
  const auto check = [&](const std::vector<std::string>& base,
                         const std::vector<std::string_view>& keys,
                         std::size_t trials, auto decode, auto oracle,
                         auto same) {
    std::size_t accepted = 0;
    for (std::size_t t = 0; t < base.size() + trials; ++t) {
      std::string line = base[t % base.size()];
      if (t >= base.size()) {
        for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
          Mutate(line, keys, rng);
        }
      }
      const auto got = decode(line);
      accepted += got.has_value();
      if (!SameOutcome(got, oracle(line), same) && ++differences <= 5) {
        ADD_FAILURE() << "decoders disagree on: " << line;
      }
    }
    // Both outcomes must stay common, or the comparison says little.
    const std::size_t inputs = base.size() + trials;
    EXPECT_GT(accepted, inputs / 5) << "of " << inputs;
    EXPECT_LT(accepted, inputs * 4 / 5) << "of " << inputs;
  };
  std::vector<std::string_view> record_keys = kRecordKeys;
  record_keys.insert(record_keys.end(), kSpanKeys.begin(), kSpanKeys.end());
  record_keys.insert(record_keys.end(), kEventKeys.begin(), kEventKeys.end());
  check(corpus.spans, kSpanKeys, 40000, SpanFromJson, oracle::SpanFromJson,
        SameSpan);
  check(corpus.events, kEventKeys, 20000, obs::ProvEventFromJson,
        oracle::ProvEventFromJson, std::equal_to<obs::ProvEvent>());
  check(corpus.records, record_keys, 6000,
        [](std::string_view line) { return TraceRecordFromJson(line); },
        oracle::TraceRecordFromJson, SameRecord);
  EXPECT_EQ(differences, 0u);
}

// --- Arrays of objects decoded in the record's walk ---------------------

/// One array's elements as the decoder saw them: each element's text and
/// its keys' positions.
using ElementLog = std::vector<std::string>;

std::string LogEntry(std::string_view element,
                     std::span<const std::size_t> positions) {
  std::string entry(element);
  for (const std::size_t p : positions) entry += "|" + std::to_string(p);
  return entry;
}

/// What FindValues with arrays must give: a plain FindValues of the
/// object, then each present array split by SplitObjectArray and each
/// element scanned alone. nullopt when an array does not split.
std::optional<std::pair<std::vector<std::size_t>, std::vector<ElementLog>>>
SplitThenScan(std::string_view text, const std::vector<std::string_view>& keys,
              const std::vector<std::pair<std::size_t,
                                          std::vector<std::string_view>>>&
                  arrays) {
  std::vector<std::size_t> positions = Scan(text, keys);
  std::vector<ElementLog> logs(arrays.size());
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const std::size_t pos = positions[arrays[a].first];
    if (pos == std::string_view::npos) continue;
    std::vector<std::string_view> elements;
    if (!json::SplitObjectArray(text, pos, &elements)) return std::nullopt;
    for (const std::string_view e : elements) {
      logs[a].push_back(LogEntry(e, Scan(e, arrays[a].second)));
    }
  }
  return std::make_pair(positions, logs);
}

/// The same through one FindValues walk with json::ObjectArray.
std::optional<std::pair<std::vector<std::size_t>, std::vector<ElementLog>>>
OneWalk(std::string_view text, const std::vector<std::string_view>& keys,
        const std::vector<std::pair<std::size_t,
                                    std::vector<std::string_view>>>& arrays) {
  std::vector<std::size_t> positions(keys.size());
  std::vector<ElementLog> logs(arrays.size());
  std::vector<json::ObjectArray> specs;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    specs.push_back({arrays[a].first, arrays[a].second,
                     [&logs, a](std::string_view e,
                                std::span<const std::size_t> at) {
                       logs[a].push_back(LogEntry(e, at));
                       return true;
                     }});
  }
  if (!json::FindValues(text, keys, positions, specs)) return std::nullopt;
  return std::make_pair(positions, logs);
}

/// The walk that decodes a record's spans and provenance as it passes
/// them gives what a plain scan, SplitObjectArray and a scan of each
/// element give, on hand-built framing edge cases and on seeded
/// mutations of store records.
TEST(JsonScan, ObjectArraysMatchSplitThenScan) {
  const std::vector<std::string_view> keys = {"a", "b", "c"};
  const std::vector<std::pair<std::size_t, std::vector<std::string_view>>>
      arrays = {{0, {"x", "y"}}, {1, {"x"}}};
  const std::vector<std::string> cases = {
      R"({"a":[{"x":1,"y":2},{"y":3}],"b":[],"c":1})",
      R"({"c":1,"a" : [ , {"x":1} ,, {"x":{"x":9}} ] ,"b":[{"x":4}]})",
      R"({"a":5,"b":[]})",                     // Not an array.
      R"({"a":[{"x":"1}],"b":[]})",            // Unterminated inside.
      R"({"a":[{"x":1}],"b":[{"x":2})",        // No closing ']'.
      R"({"a":[{"x":1} 7 {"x":2}]})",          // Junk between elements.
      R"({"a":[{"x":1,[}],"b":[{"x":2}]})",    // Element leaves depth up.
      R"({"a":[{"x":]]"b":[{"x":5}],"c":2,[[}],"c":1})",  // Dips to 1.
      R"({"a":[{"x":]"y":1,[}]})",             // Element dips to its 0.
      R"({"b":[{"x":1}],"a":[{"y":"\"x\":2"}]})",
      R"({"a":[],"a":[{"x":1}]})",             // First duplicate wins.
      R"({"n":{"a":[{"x":1}]},"a":[]})",       // Nested key ignored.
  };
  for (const std::string& text : cases) {
    const auto want = SplitThenScan(text, keys, arrays);
    const auto got = OneWalk(text, keys, arrays);
    ASSERT_EQ(got.has_value(), want.has_value()) << text;
    if (want) {
      EXPECT_EQ(*got, *want) << text;
    }
  }
  EXPECT_FALSE(OneWalk(cases[2], keys, arrays).has_value());
  EXPECT_EQ(OneWalk(cases[0], keys, arrays)->second[0].size(), 2u);
  // The array met inside another one's elements is still decoded.
  EXPECT_EQ(OneWalk(cases[7], keys, arrays)->second[1].size(), 1u);

  // A decoder that refuses an element fails the walk.
  std::vector<std::size_t> at(keys.size());
  const json::ObjectArray refuse[] = {
      {0, arrays[0].second,
       [](std::string_view, std::span<const std::size_t>) { return false; }}};
  EXPECT_FALSE(json::FindValues(cases[0], keys, at, refuse));

  const Corpus corpus = BaseCorpus();
  std::vector<std::string_view> mutation_keys = kRecordKeys;
  mutation_keys.insert(mutation_keys.end(), kSpanKeys.begin(),
                       kSpanKeys.end());
  mutation_keys.insert(mutation_keys.end(), kEventKeys.begin(),
                       kEventKeys.end());
  const std::vector<std::pair<std::size_t, std::vector<std::string_view>>>
      record_arrays = {{11, kSpanKeys}, {13, kEventKeys}};
  ASSERT_EQ(kRecordKeys[11], "spans");
  ASSERT_EQ(kRecordKeys[13], "provenance");
  Rng rng(26);
  std::size_t split = 0;
  for (std::size_t t = 0; t < 20000; ++t) {
    std::string line = corpus.records[t % corpus.records.size()];
    for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      Mutate(line, mutation_keys, rng);
    }
    const auto want = SplitThenScan(line, kRecordKeys, record_arrays);
    const auto got = OneWalk(line, kRecordKeys, record_arrays);
    ASSERT_EQ(got.has_value(), want.has_value()) << line;
    if (want) {
      ASSERT_EQ(*got, *want) << line;
      split += !want->second[0].empty();
    }
  }
  EXPECT_GT(split, 20000u / 5);
}

}  // namespace
}  // namespace traceweaver
