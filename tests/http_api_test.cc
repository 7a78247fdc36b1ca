// HTTP query API (src/serve): golden responses over a raw socket,
// chunked round-trips, hostile query strings, and the URL/target
// parsing helpers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/explain.h"
#include "core/trace_weaver.h"
#include "obs/provenance.h"
#include "serve/http_server.h"
#include "serve/query_service.h"
#include "serve/self_trace.h"
#include "store/store.h"
#include "mutator.h"
#include "test_helpers.h"
#include "trace/jaeger_export.h"
#include "trace/trace_record.h"
#include "util/json.h"

namespace traceweaver::serve {
namespace {

namespace fs = std::filesystem;
using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::HostileTraceRecord;
using ::traceweaver::testing::MakeSpan;
using ::traceweaver::testing::ReencodedLine;
using ::traceweaver::testing::RandomHostileString;
using ::traceweaver::testing::SimpleGraph;

/// One parsed HTTP response read raw off the socket.
struct HttpResult {
  bool ok = false;  ///< A complete response was framed and decoded.
  int status = 0;
  std::map<std::string, std::string> headers;  ///< Lower-cased names.
  std::string body;                            ///< De-chunked when chunked.
  bool chunked = false;
};

/// A client connection that frames responses the way the server sends
/// them (Content-Length or chunked) so keep-alive reuse works.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  /// Reads responses off `fd`, a connected socket the client now owns.
  struct Adopt {
    int fd;
  };
  explicit Client(Adopt adopt) : fd_(adopt.fd) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  bool SendRaw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  HttpResult Request(const std::string& method, const std::string& target) {
    HttpResult r;
    if (!SendRaw(method + " " + target + " HTTP/1.1\r\nHost: t\r\n\r\n")) {
      return r;
    }
    return ReadResponse();
  }

  HttpResult ReadResponse() {
    HttpResult r;
    // Headers.
    std::size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return r;
    }
    const std::string head = buf_.substr(0, header_end);
    buf_.erase(0, header_end + 4);
    std::size_t line_end = head.find("\r\n");
    const std::string status_line =
        head.substr(0, line_end == std::string::npos ? head.size() : line_end);
    if (status_line.rfind("HTTP/1.1 ", 0) != 0) return r;
    r.status = std::atoi(status_line.c_str() + 9);
    std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      std::size_t end = head.find("\r\n", pos);
      if (end == std::string::npos) end = head.size();
      const std::string line = head.substr(pos, end - pos);
      pos = end + 2;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      r.headers[name] = line.substr(v);
    }

    // Body.
    if (r.headers["transfer-encoding"] == "chunked") {
      r.chunked = true;
      if (!ReadChunkedBody(&r.body)) return r;
    } else {
      const std::size_t len = static_cast<std::size_t>(
          std::atoll(r.headers["content-length"].c_str()));
      while (buf_.size() < len) {
        if (!Fill()) return r;
      }
      r.body = buf_.substr(0, len);
      buf_.erase(0, len);
    }
    r.ok = true;
    return r;
  }

 private:
  bool Fill() {
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  bool ReadChunkedBody(std::string* out) {
    for (;;) {
      std::size_t eol;
      while ((eol = buf_.find("\r\n")) == std::string::npos) {
        if (!Fill()) return false;
      }
      const std::size_t size =
          static_cast<std::size_t>(std::strtoull(buf_.c_str(), nullptr, 16));
      buf_.erase(0, eol + 2);
      while (buf_.size() < size + 2) {
        if (!Fill()) return false;
      }
      out->append(buf_, 0, size);
      if (buf_.compare(size, 2, "\r\n") != 0) return false;
      buf_.erase(0, size + 2);
      if (size == 0) return true;  // Terminal chunk.
    }
  }

  int fd_ = -1;
  std::string buf_;  ///< Bytes received but not yet consumed.
};

/// Store + service + server on an ephemeral port, with four known traces.
class HttpApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tw_http_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    store::StoreOptions sopts;
    sopts.metrics = &registry_;
    store_ = std::make_unique<store::TraceStore>(dir_.string(), sopts);
    ASSERT_TRUE(store_->Open().has_value());

    // Trace 1 matches SimpleGraph (A:/a -> B:/b) so /explain works on it.
    {
      TraceRecord r;
      r.trace_id = 1;
      r.root_service = "A";
      r.root_endpoint = "/a";
      r.grade = 'A';
      r.confidence = 0.95;
      r.min_confidence = 0.95;
      r.spans = {MakeSpan(1, kClientCaller, "A", "/a", Millis(10), Millis(20)),
                 MakeSpan(2, "A", "B", "/b", Millis(12), Millis(18))};
      r.parents = {{2, 1}};
      r.start = r.spans[0].client_send;
      r.end = r.spans[0].client_recv;
      ASSERT_TRUE(store_->Commit(r));
    }
    CommitSimple(2, "front", 'B', 0.8, Millis(30));
    CommitSimple(3, "front", 'C', 0.4, Millis(50));
    CommitSimple(4, "back", 'D', 0.1, Millis(70));

    graph_ = SimpleGraph();
    service_ = std::make_unique<QueryService>(store_.get(), &graph_,
                                              &registry_);
    HttpServerOptions hopts;
    hopts.port = 0;
    hopts.worker_threads = 2;
    hopts.idle_timeout_ms = 2000;
    hopts.metrics = &registry_;
    server_ = std::make_unique<HttpServer>(
        [this](const HttpRequest& req, HttpResponse& resp) {
          service_->Handle(req, resp);
        },
        hopts);
    std::string err;
    ASSERT_TRUE(server_->Start(&err)) << err;
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    fs::remove_all(dir_);
  }

  void CommitSimple(SpanId id, const std::string& service, char grade,
                    double confidence, TimeNs at) {
    TraceRecord r;
    r.trace_id = id;
    r.root_service = service;
    r.root_endpoint = "/x";
    r.grade = grade;
    r.confidence = confidence;
    r.min_confidence = confidence;
    r.spans = {MakeSpan(id, kClientCaller, service, "/x", at, at + Millis(5))};
    r.start = r.spans[0].client_send;
    r.end = r.spans[0].client_recv;
    ASSERT_TRUE(store_->Commit(r));
  }

  HttpResult Get(const std::string& target) {
    Client c(server_->port());
    EXPECT_TRUE(c.connected());
    return c.Request("GET", target);
  }

  /// Expected JSONL body of a listing: each id's stored record, one line
  /// each, in the given order.
  std::string Jsonl(std::initializer_list<SpanId> ids) {
    std::string out;
    for (SpanId id : ids) {
      const auto rec = store_->Get(id);
      EXPECT_NE(rec, nullptr);
      if (rec != nullptr) out += TraceRecordToJson(*rec) + "\n";
    }
    return out;
  }

  fs::path dir_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<store::TraceStore> store_;
  CallGraph graph_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpApiTest, HealthzReportsStoreStats) {
  const HttpResult r = Get("/healthz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.body.find("\"traces\":4"), std::string::npos);
}

TEST_F(HttpApiTest, TraceGetGolden) {
  const HttpResult r = Get("/traces/1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers.at("content-type"), "application/json");
  const auto rec = store_->Get(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(r.body, TraceRecordToJson(*rec) + "\n");
}

TEST_F(HttpApiTest, TraceGetErrors) {
  EXPECT_EQ(Get("/traces/999").status, 404);
  EXPECT_EQ(Get("/traces/abc").status, 400);
  EXPECT_EQ(Get("/traces/-1").status, 400);
  EXPECT_EQ(Get("/traces/1x").status, 400);
  EXPECT_EQ(Get("/nope").status, 404);
  EXPECT_EQ(Get("/").status, 404);
}

TEST_F(HttpApiTest, NonGetRejected) {
  Client c(server_->port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.SendRaw("POST /traces HTTP/1.1\r\nHost: t\r\n"
                        "Content-Length: 0\r\n\r\n"));
  const HttpResult r = c.ReadResponse();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 405);
}

TEST_F(HttpApiTest, ListStreamsChunkedJsonl) {
  const HttpResult r = Get("/traces?service=front");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(r.chunked) << "listing must stream";
  EXPECT_EQ(r.headers.at("content-type"), "application/x-ndjson");
  EXPECT_EQ(r.body, Jsonl({2, 3}));  // (start, id) order.
}

TEST_F(HttpApiTest, ListFilters) {
  EXPECT_EQ(Get("/traces").body, Jsonl({1, 2, 3, 4}));
  EXPECT_EQ(Get("/traces?grade=A").body, Jsonl({1}));
  EXPECT_EQ(Get("/traces?grade=b").body, Jsonl({1, 2}));  // Case folded.
  EXPECT_EQ(Get("/traces?min_confidence=0.5").body, Jsonl({1, 2}));
  EXPECT_EQ(Get("/traces?limit=2").body, Jsonl({1, 2}));
  EXPECT_EQ(Get("/traces?service=back&grade=D").body, Jsonl({4}));
  EXPECT_EQ(Get("/traces?service=nosuch").body, "");
  // Time-range overlap against trace 2's [start, end] window.
  const auto rec = store_->Get(2);
  ASSERT_NE(rec, nullptr);
  const std::string window = "/traces?from=" + std::to_string(rec->start) +
                             "&to=" + std::to_string(rec->end);
  EXPECT_EQ(Get(window).body, Jsonl({2}));
  EXPECT_EQ(Get("/traces?from=" + std::to_string(rec->end + 1) +
                "&to=" + std::to_string(rec->end + 2))
                .body,
            "");
}

TEST_F(HttpApiTest, HostileQueryStringsGet400) {
  const char* bad[] = {
      "/traces?grade=Z",          "/traces?grade=",
      "/traces?grade=AB",         "/traces?limit=abc",
      "/traces?limit=-1",         "/traces?limit=0",
      "/traces?limit=1x",         "/traces?min_confidence=2",
      "/traces?min_confidence=-0.1", "/traces?min_confidence=nope",
      "/traces?from=abc",         "/traces?to=1.5",
  };
  for (const char* target : bad) {
    const HttpResult r = Get(target);
    ASSERT_TRUE(r.ok) << target;
    EXPECT_EQ(r.status, 400) << target;
  }
  // An inverted range is a malformed query, not an empty match set; an
  // empty range (from == to) and a one-sided one are legal.
  const HttpResult inverted = Get("/traces?from=10&to=9");
  ASSERT_TRUE(inverted.ok);
  EXPECT_EQ(inverted.status, 400);
  EXPECT_EQ(inverted.body, "bad range: 'from' is after 'to'\n");
  EXPECT_EQ(Get("/traces?to=-9").status, 200);
  EXPECT_EQ(Get("/traces?from=9&to=9").status, 200);
  // Odd-but-legal targets must not crash or 400: unknown params are
  // ignored, malformed escapes decode literally, empty pairs are skipped.
  EXPECT_EQ(Get("/traces?&&&").status, 200);
  EXPECT_EQ(Get("/traces?bogus=1&service=front").body, Jsonl({2, 3}));
  EXPECT_EQ(Get("/traces?service=%zz").status, 200);
  EXPECT_EQ(Get("/traces?service=front%").body, "");
  EXPECT_EQ(Get("/traces/").status, 200);  // Trailing slash = listing.
}

TEST_F(HttpApiTest, MalformedFramingGets400) {
  Client c(server_->port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.SendRaw("this is not http\r\n\r\n"));
  const HttpResult r = c.ReadResponse();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);
}

TEST_F(HttpApiTest, KeepAliveServesSequentialRequests) {
  Client c(server_->port());
  ASSERT_TRUE(c.connected());
  const HttpResult a = c.Request("GET", "/healthz");
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.status, 200);
  const HttpResult b = c.Request("GET", "/traces/1");
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.status, 200);
  const auto rec = store_->Get(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(b.body, TraceRecordToJson(*rec) + "\n");
}

TEST_F(HttpApiTest, ExplainMatchesDirectCapture) {
  const HttpResult r = Get("/traces/1/explain");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.headers.at("content-type"), "application/json");

  // Golden: the same single-threaded reconstruction over the stored
  // trace's own spans, explain aimed at the root.
  const auto rec = store_->Get(1);
  ASSERT_NE(rec, nullptr);
  ExplainCapture capture;
  TraceWeaverOptions opts;
  opts.num_threads = 1;
  opts.optimizer.explain_parent = 1;
  opts.optimizer.explain_out = &capture;
  TraceWeaver weaver(graph_, opts);
  (void)weaver.Reconstruct(rec->spans);
  ASSERT_TRUE(capture.found);
  EXPECT_EQ(r.body, ExplainJson(capture));
}

TEST_F(HttpApiTest, ExplainErrors) {
  EXPECT_EQ(Get("/traces/999/explain").status, 404);
  EXPECT_EQ(Get("/traces/1/explain?parent=abc").status, 400);
  // Span 2 is a leaf, never a parent: explain finds nothing.
  EXPECT_EQ(Get("/traces/1/explain?parent=2").status, 404);
}

TEST_F(HttpApiTest, MetricsExposition) {
  ASSERT_EQ(Get("/traces/1").status, 200);  // Prime the route counters.
  const HttpResult r = Get("/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers.at("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(r.body.find("tw_store_commits_total 4"), std::string::npos)
      << r.body;
  // Counters increment just after the response bytes go out, so assert
  // the labeled series exist rather than racing on exact counts.
  EXPECT_NE(r.body.find("tw_http_requests_total{route=\"trace_get\"}"),
            std::string::npos);
  EXPECT_NE(r.body.find("tw_http_responses_total{code=\"200\"}"),
            std::string::npos);
  EXPECT_NE(r.body.find("tw_http_connections_total"), std::string::npos);
}

// ---------------------------------------------------------------------
// Prometheus 0.0.4 conformance of the full exposition.

/// Lints one text-exposition body line by line: every line must be a
/// `# HELP`, a `# TYPE` (seen before any sample of its family, never
/// twice), or a well-formed sample whose family has a declared TYPE.
/// Returns human-readable violations; empty means conformant.
std::vector<std::string> LintExposition(const std::string& text) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> types;  // family name -> declared type.
  std::set<std::string> sampled;             // families with samples seen.

  const auto valid_name = [](const std::string& s) {
    if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0]))) {
      return false;
    }
    for (const char c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        return false;
      }
    }
    return true;
  };
  // _bucket/_sum/_count samples belong to their histogram/summary family.
  const auto family_of = [&](const std::string& name) {
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const std::size_t n = std::strlen(s);
      if (name.size() > n && name.compare(name.size() - n, n, s) == 0) {
        const auto it = types.find(name.substr(0, name.size() - n));
        if (it != types.end() &&
            (it->second == "histogram" || it->second == "summary")) {
          return it->first;
        }
      }
    }
    return name;
  };

  if (text.empty() || text.back() != '\n') {
    errors.push_back("exposition must end with a newline");
  }
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    ++lineno;
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    const auto bad = [&](const std::string& why) {
      errors.push_back("line " + std::to_string(lineno) + ": " + why + ": " +
                       line);
    };

    if (line.empty()) {
      bad("blank line");
      continue;
    }
    if (line[0] == '#') {
      std::size_t sp2 = std::string::npos;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        sp2 = line.find(' ', 7);
      }
      if (sp2 == std::string::npos) {
        bad("comment is neither # HELP nor # TYPE");
        continue;
      }
      const std::string name = line.substr(7, sp2 - 7);
      const std::string rest = line.substr(sp2 + 1);
      if (!valid_name(name)) bad("bad metric name in comment");
      if (rest.empty()) bad("empty HELP/TYPE payload");
      if (line[2] == 'T') {
        if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
            rest != "summary" && rest != "untyped") {
          bad("unknown TYPE '" + rest + "'");
        }
        if (types.count(name) != 0) bad("duplicate TYPE for family");
        if (sampled.count(name) != 0) bad("TYPE after samples of family");
        types[name] = rest;
      }
      continue;
    }

    // Sample: name[{label="value",...}] value
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name = line.substr(0, i);
    if (!valid_name(name)) {
      bad("bad sample metric name");
      continue;
    }
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = i;
        while (eq < line.size() && line[eq] != '=') ++eq;
        if (eq >= line.size() || !valid_name(line.substr(i, eq - i))) {
          bad("bad label name");
          break;
        }
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') {
          bad("label value not quoted");
          break;
        }
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') ++i;  // Escaped char consumes two.
          ++i;
        }
        if (i >= line.size()) {
          bad("unterminated label value");
          break;
        }
        ++i;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') {
        bad("unterminated label set");
        continue;
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      bad("missing space before value");
      continue;
    }
    const std::string value = line.substr(i + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || *end != '\0') {
      bad("unparseable sample value '" + value + "'");
    }
    const std::string family = family_of(name);
    if (types.count(family) == 0) bad("sample with no TYPE for family");
    sampled.insert(family);
  }
  return errors;
}

TEST_F(HttpApiTest, MetricsExpositionEveryLineConformant) {
  // Prime several routes (including an error) so the derived series and
  // per-route latency summaries all have data behind them.
  ASSERT_EQ(Get("/traces/1").status, 200);
  ASSERT_EQ(Get("/traces?grade=A").status, 200);
  ASSERT_EQ(Get("/traces/99999").status, 404);
  const HttpResult r = Get("/metrics");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.status, 200);

  const std::vector<std::string> errors = LintExposition(r.body);
  for (const std::string& e : errors) ADD_FAILURE() << e;

  // The derived series ride the same exposition.
  EXPECT_NE(r.body.find("# TYPE tw_store_cache_hit_ratio gauge"),
            std::string::npos);
  EXPECT_NE(r.body.find("# TYPE tw_http_error_ratio gauge"),
            std::string::npos);
  EXPECT_NE(r.body.find("# TYPE tw_http_route_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(r.body.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(r.body.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(
      r.body.find("tw_http_route_request_ns_count{route=\"trace_get\"}"),
      std::string::npos);
}

TEST(LintExpositionTest, CatchesMalformedLines) {
  EXPECT_TRUE(LintExposition("# TYPE a counter\na 1\n").empty());
  EXPECT_FALSE(LintExposition("# TYPE a counter\na 1").empty());  // No \n.
  EXPECT_FALSE(LintExposition("a 1\n").empty());           // No TYPE.
  EXPECT_FALSE(LintExposition("# TYPE a widget\n").empty());
  EXPECT_FALSE(LintExposition("# TYPE a counter\na{x=1} 2\n").empty());
  EXPECT_FALSE(LintExposition("# TYPE a counter\na one\n").empty());
  EXPECT_FALSE(LintExposition("# NOTE a counter\n").empty());
}

// ---------------------------------------------------------------------
// Decision provenance over HTTP.

TEST_F(HttpApiTest, ProvenanceRouteGolden) {
  TraceRecord rec;
  rec.trace_id = 9;
  rec.root_service = "A";
  rec.root_endpoint = "/a";
  rec.grade = 'A';
  rec.confidence = 0.9;
  rec.min_confidence = 0.9;
  rec.spans = {MakeSpan(9, kClientCaller, "A", "/a", Millis(90), Millis(95))};
  rec.start = rec.spans[0].client_send;
  rec.end = rec.spans[0].client_recv;
  rec.provenance = {
      {obs::ProvEventType::kSkewCorrect, 9, 1500, "B@0"},
      {obs::ProvEventType::kSettled, 9, 1, ""},
  };
  ASSERT_TRUE(store_->Commit(rec));

  const HttpResult r = Get("/traces/9/provenance");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers.at("content-type"), "application/json");
  EXPECT_EQ(r.body,
            "{\"schema\":\"traceweaver.provenance.v1\",\"trace\":9,"
            "\"events\":["
            "{\"t\":\"skew_correct\",\"span\":9,\"v\":1500,\"d\":\"B@0\"},"
            "{\"t\":\"settled\",\"span\":9,\"v\":1}]}\n");
}

TEST_F(HttpApiTest, ProvenanceRouteErrors) {
  EXPECT_EQ(Get("/traces/424242/provenance").status, 404);
  EXPECT_EQ(Get("/traces/not-an-id/provenance").status, 400);
  // A record committed without a ledger serves an empty event list, not
  // an error: "nothing was recorded" is a valid answer.
  const HttpResult r = Get("/traces/1/provenance");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"events\":[]"), std::string::npos);
  // The route has its own request counter.
  EXPECT_NE(Get("/metrics").body.find(
                "tw_http_requests_total{route=\"provenance\"}"),
            std::string::npos);
}

TEST_F(HttpApiTest, ProvenanceControlBytesSurviveSealAndReopen) {
  // A skew-corrected callee whose captured name holds a newline: its
  // provenance detail must not split the sealed record's line, or reopen
  // rejects the whole segment.
  TraceRecord rec;
  rec.trace_id = 11;
  rec.root_service = "A";
  rec.root_endpoint = "/a";
  rec.grade = 'B';
  rec.confidence = 0.7;
  rec.min_confidence = 0.7;
  rec.spans = {MakeSpan(11, kClientCaller, "A", "/a", Millis(110),
                        Millis(115))};
  rec.start = rec.spans[0].client_send;
  rec.end = rec.spans[0].client_recv;
  rec.provenance = {
      {obs::ProvEventType::kSkewCorrect, 11, -1500, "B\nC@0"},
      {obs::ProvEventType::kValidatorQuarantine, 11, 0, "bad\tname\x01"},
      {obs::ProvEventType::kSettled, 11, 1, ""},
  };
  ASSERT_TRUE(store_->Commit(rec));
  ASSERT_TRUE(store_->Seal());

  store::TraceStore reopened(dir_.string());
  const auto stats = reopened.Open();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->segments_rejected, 0u);
  EXPECT_EQ(stats->traces_loaded, 5u);
  const auto back = reopened.Get(11);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->provenance, rec.provenance);
  EXPECT_EQ(TraceRecordToJson(*back), TraceRecordToJson(rec));

  const HttpResult r = Get("/traces/11/provenance");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  ASSERT_FALSE(r.body.empty());
  EXPECT_EQ(r.body.back(), '\n');
  const std::string doc = r.body.substr(0, r.body.size() - 1);
  EXPECT_FALSE(HasRawControlByte(doc)) << doc;
  EXPECT_NE(doc.find("\"d\":\"B\\nC@0\""), std::string::npos) << doc;
}

TEST(ExplainJsonTest, HostileNamesStayEscapedAndRecoverable) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    ExplainCapture e;
    e.found = true;
    e.parent = 7;
    e.service = RandomHostileString(rng);
    e.endpoint = RandomHostileString(rng);
    ExplainCandidate c;
    c.children = {8};
    ScoreBreakdown::Position p;
    p.service = RandomHostileString(rng);
    p.endpoint = RandomHostileString(rng);
    c.breakdown.positions = {p};
    e.candidates = {c};
    e.conflicts = {{9, RandomHostileString(rng), RandomHostileString(rng), 1}};
    std::string out = ExplainJson(e);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.back(), '\n');
    out.pop_back();
    ASSERT_FALSE(HasRawControlByte(out)) << out;
    EXPECT_EQ(json::FieldStr(out, "service"), e.service) << out;
    EXPECT_EQ(json::FieldStr(out, "endpoint"), e.endpoint) << out;

    std::vector<std::string_view> candidates, positions, conflicts;
    ASSERT_TRUE(json::SplitObjectArray(
        out, json::FindValue(out, "candidates"), &candidates)) << out;
    ASSERT_EQ(candidates.size(), 1u);
    const std::string_view breakdown = candidates[0].substr(
        std::min(json::FindValue(candidates[0], "breakdown"),
                 candidates[0].size()));
    ASSERT_TRUE(json::SplitObjectArray(
        breakdown, json::FindValue(breakdown, "positions"), &positions))
        << out;
    ASSERT_EQ(positions.size(), 1u);
    EXPECT_EQ(json::FieldStr(positions[0], "service"), p.service) << out;
    EXPECT_EQ(json::FieldStr(positions[0], "endpoint"), p.endpoint) << out;
    ASSERT_TRUE(json::SplitObjectArray(
        out, json::FindValue(out, "conflicts"), &conflicts)) << out;
    ASSERT_EQ(conflicts.size(), 1u);
    EXPECT_EQ(json::FieldStr(conflicts[0], "service"),
              e.conflicts[0].service) << out;
    EXPECT_EQ(json::FieldStr(conflicts[0], "endpoint"),
              e.conflicts[0].endpoint) << out;
  }
}

// ---------------------------------------------------------------------
// Pipeline self-tracing: store -> HTTP -> Jaeger round trip.

TEST_F(HttpApiTest, SelfTraceRoundTripsStoreHttpAndJaeger) {
  SelfTracer tracer(store_.get());
  tracer.Record(SelfStage::kIngest, Millis(2));
  tracer.Record(SelfStage::kSolve, Millis(5));
  tracer.Record(SelfStage::kCommit, Millis(1));
  const SpanId id = tracer.CommitWindow(Millis(4000));
  ASSERT_NE(id, kInvalidSpanId);
  EXPECT_EQ(tracer.committed(), 1u);

  // Store: a first-class record under the reserved root service.
  const auto rec = store_->Get(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->root_service, kSelfTraceService);
  ASSERT_EQ(rec->spans.size(), 1 + kSelfStageCount);
  EXPECT_FALSE(rec->provenance.empty());

  // HTTP: fetchable by id, listed under the service filter, and the
  // provenance endpoint explains it like any other trace.
  const HttpResult got = Get("/traces/" + std::to_string(id));
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.status, 200);
  EXPECT_NE(got.body.find("\"_tw.pipeline\""), std::string::npos);
  const HttpResult list = Get("/traces?service=_tw.pipeline");
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(list.body, Jsonl({id}));
  const HttpResult prov = Get("/traces/" + std::to_string(id) +
                              "/provenance");
  EXPECT_EQ(prov.status, 200);
  EXPECT_NE(prov.body.find("self_trace"), std::string::npos);

  // Jaeger: the standard exporter renders it as one 9-span trace.
  ParentAssignment assignment;
  for (const auto& [child, parent] : rec->parents) {
    assignment[child] = parent;
  }
  const std::string jaeger = TracesToJaegerJson(rec->spans, assignment);
  EXPECT_NE(jaeger.find("_tw.pipeline"), std::string::npos);
  for (std::size_t s = 0; s < kSelfStageCount; ++s) {
    EXPECT_NE(jaeger.find(std::string("_tw.") + SelfStageName(
                              static_cast<SelfStage>(s))),
              std::string::npos)
        << SelfStageName(static_cast<SelfStage>(s));
  }
  // One trace object, not nine orphan fragments.
  std::size_t traces = 0;
  for (std::size_t at = jaeger.find("\"spans\":["); at != std::string::npos;
       at = jaeger.find("\"spans\":[", at + 1)) {
    ++traces;
  }
  EXPECT_EQ(traces, 1u);
}

// ---------------------------------------------------------------------
// Read surfaces without a server: QueryService::Handle over a socketpair.

/// Parses `target` as the server does, runs `service.Handle` on it with
/// the response written to one end of a socketpair, and reads the response
/// off the other end as a client would. Responses must fit the socket
/// buffer (a few hundred KB), which every store here does.
HttpResult Serve(QueryService& service, const std::string& target,
                 HttpRequest* request_out = nullptr) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return {};
  HttpRequest request;
  request.method = "GET";
  ParseTarget(target, request);
  {
    HttpResponse response(fds[0]);
    service.Handle(request, response);
  }
  ::close(fds[0]);
  Client reader(Client::Adopt{fds[1]});
  if (request_out != nullptr) *request_out = std::move(request);
  return reader.ReadResponse();
}

/// The provenance document as it was built before: from the decoded
/// record's events.
std::string DecodedProvenanceJson(const TraceRecord& r) {
  const auto back = TraceRecordFromJson(TraceRecordToJson(r));
  if (!back) return "undecodable";
  std::string body = "{\"schema\":\"traceweaver.provenance.v1\",\"trace\":";
  body += std::to_string(static_cast<std::uint64_t>(back->trace_id));
  body += ",\"events\":[";
  for (std::size_t i = 0; i < back->provenance.size(); ++i) {
    if (i > 0) body += ',';
    body += obs::ProvEventToJson(back->provenance[i]);
  }
  body += "]}";
  return body;
}

/// GET /traces/{id}, GET /traces/{id}/provenance and the listing serve the
/// bytes the decode-and-encode read path served, for hostile records read
/// from every tier: active, just sealed (cached by the seal), cold on
/// disk, cached after a cold read, and after a reopen.
TEST(ReadSurfaces, EveryTierServesReencodedBytes) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tw_http_tiers_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  Rng rng(280);
  std::vector<TraceRecord> records;
  for (SpanId id = 1; id <= 10; ++id) {
    records.push_back(HostileTraceRecord(id, rng));
  }
  const auto check = [&](const store::TraceStore& store, std::size_t count,
                         const std::string& tier) {
    QueryService service(&store, nullptr, nullptr);
    std::string listing;
    for (std::size_t k = 0; k < count; ++k) {
      const TraceRecord& r = records[k];
      const std::string id = std::to_string(r.trace_id);
      const HttpResult got = Serve(service, "/traces/" + id);
      ASSERT_TRUE(got.ok) << tier << " " << id;
      EXPECT_EQ(got.status, 200) << tier << " " << id;
      EXPECT_EQ(got.body, ReencodedLine(r) + "\n") << tier << " " << id;
      const HttpResult prov = Serve(service, "/traces/" + id + "/provenance");
      ASSERT_TRUE(prov.ok) << tier << " " << id;
      EXPECT_EQ(prov.status, 200) << tier << " " << id;
      EXPECT_EQ(prov.body, DecodedProvenanceJson(r) + "\n")
          << tier << " " << id;
      listing += ReencodedLine(r) + "\n";
    }
    const HttpResult list = Serve(service, "/traces");
    ASSERT_TRUE(list.ok) << tier;
    EXPECT_TRUE(list.chunked) << tier;
    EXPECT_EQ(list.body, listing) << tier;
  };

  store::StoreOptions opts;
  opts.segment_traces = 4;
  opts.cache_traces = 64;
  {
    store::TraceStore store(dir.string(), opts);
    ASSERT_TRUE(store.Open().has_value());
    for (std::size_t k = 0; k < 3; ++k) ASSERT_TRUE(store.Commit(records[k]));
    check(store, 3, "active");
    ASSERT_TRUE(store.Commit(records[3]));  // Seals segment 0.
    ASSERT_EQ(store.sealed_segments(), 1u);
    check(store, 4, "just sealed");
    for (std::size_t k = 4; k < records.size(); ++k) {
      ASSERT_TRUE(store.Commit(records[k]));
    }
    ASSERT_TRUE(store.Seal());
  }
  store::StoreOptions cold = opts;
  cold.cache_traces = 0;
  store::TraceStore uncached(dir.string(), cold);
  ASSERT_TRUE(uncached.Open().has_value());
  check(uncached, records.size(), "cold");
  store::TraceStore reopened(dir.string(), opts);
  ASSERT_TRUE(reopened.Open().has_value());
  check(reopened, records.size(), "reopened");
  check(reopened, records.size(), "cached");
  fs::remove_all(dir);
}

/// A target mutation: the JSON-aimed text mutations of tests/mutator.h,
/// or one aimed at the target grammar (escapes, separators, parameters
/// with hostile values, duplicates, truncation).
void MutateTarget(std::string& target,
                  const std::vector<std::string_view>& keys, Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "?", "&", "=", "%", "%2", "%zz", "%25", "%26", "%3D", "%3F", "%2F",
      "+", "/", "//", "%00", "%0a", "/explain", "/provenance", "#", " "};
  static const std::vector<std::string> kValues = {
      "", "0", "-0", "1", "-1", "+5", " 5", "1e3", "0x10", "nan", "inf",
      "-inf", "1.5", "0.5", "2", "A", "b", "D", "Z", "AB",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "front", "back", "A%20B", "%41", "%"};
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.UniformInt(0, 4)) {
    case 0:
      ::traceweaver::testing::Mutate(target, keys, rng);
      break;
    case 1:  // A separator or escape anywhere.
      target.insert(below(target.size() + 1), kPieces[below(kPieces.size())]);
      break;
    case 2: {  // A parameter with a hostile value, often a duplicate.
      target += target.find('?') == std::string::npos ? '?' : '&';
      target += std::string(keys[below(keys.size())]) + "=" +
                kValues[below(kValues.size())];
      break;
    }
    case 3:  // Cut short.
      target.resize(below(target.size() + 1));
      break;
    default:  // Percent-escape one byte.
      if (!target.empty()) {
        const std::size_t at = below(target.size());
        char hex[4];
        std::snprintf(hex, sizeof(hex), "%%%02X",
                      static_cast<unsigned char>(target[at]));
        target.replace(at, 1, hex);
      }
      break;
  }
}

/// Checks a 200 listing body against the filter its request parsed to:
/// every line a record of the right service, range, grade and confidence,
/// in (start, trace) order, at most `limit` of them.
void ExpectListingRespectsFilter(const HttpRequest& request,
                                 const std::string& body,
                                 const std::string& target) {
  const std::string service = request.Param("service");
  const auto number = [&request](const char* key, long long fallback) {
    return request.HasParam(key)
               ? std::strtoll(request.Param(key).c_str(), nullptr, 10)
               : fallback;
  };
  const long long from =
      number("from", std::numeric_limits<long long>::min());
  const long long to = number("to", std::numeric_limits<long long>::max());
  const char grade =
      request.HasParam("grade")
          ? static_cast<char>(std::toupper(
                static_cast<unsigned char>(request.Param("grade")[0])))
          : 'D';
  const double min_confidence =
      request.HasParam("min_confidence")
          ? std::strtod(request.Param("min_confidence").c_str(), nullptr)
          : 0.0;
  const unsigned long long limit =
      request.HasParam("limit")
          ? std::strtoull(request.Param("limit").c_str(), nullptr, 10)
          : 1000;
  std::size_t count = 0;
  std::pair<TimeNs, SpanId> last{std::numeric_limits<TimeNs>::min(), 0};
  for (std::size_t at = 0; at < body.size();) {
    const std::size_t eol = body.find('\n', at);
    ASSERT_NE(eol, std::string::npos) << target;
    const auto rec = TraceRecordFromJson(body.substr(at, eol - at));
    at = eol + 1;
    ASSERT_TRUE(rec.has_value()) << target;
    ++count;
    if (!service.empty()) {
      EXPECT_EQ(rec->root_service, service) << target;
    }
    EXPECT_TRUE(rec->end >= from && rec->start <= to) << target;
    EXPECT_LE(rec->grade, grade) << target;
    EXPECT_GE(rec->confidence, min_confidence) << target;
    const std::pair<TimeNs, SpanId> key{rec->start, rec->trace_id};
    EXPECT_LT(last, key) << target;
    last = key;
  }
  EXPECT_LE(count, std::min<unsigned long long>(limit, 1000)) << target;
}

/// Seeded mutations of real targets through ParseTarget, UrlDecode and
/// QueryService::Handle: every one answers 200, 400 or 404, and a 200
/// listing holds only records its parsed filter admits.
TEST_F(HttpApiTest, MutatedTargetsAnswer200Or400Or404) {
  // A sealed segment and active records, so listings cross both.
  ASSERT_TRUE(store_->Seal());
  CommitSimple(5, "front", 'A', 0.99, Millis(90));
  CommitSimple(6, "back", 'B', 0.6, Millis(110));
  const std::vector<std::string> seeds = {
      "/traces",
      "/traces/",
      "/traces?service=front",
      "/traces?service=front&grade=b&min_confidence=0.5&limit=2",
      "/traces?from=12000000&to=60000000",
      "/traces?from=0&to=100000000&grade=C&limit=3&service=back",
      "/traces?service=fr%6Fnt+&limit=1000",
      "/traces/1",
      "/traces/5",
      "/traces/424242",
      "/traces/1/explain",
      "/traces/1/explain?parent=1",
      "/traces/2/provenance",
      "/traces/6/provenance",
      "/metrics",
      "/healthz",
  };
  const std::vector<std::string_view> keys = {
      "service", "from", "to", "grade", "min_confidence", "limit", "parent"};
  // NaN compares false against both bounds of min_confidence's range.
  EXPECT_EQ(Serve(*service_, "/traces?min_confidence=nan").status, 400);
  Rng rng(2032);
  std::map<int, std::size_t> statuses;
  std::size_t listings = 0;
  constexpr std::size_t kTrials = 20000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    std::string target = seeds[t % seeds.size()];
    for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
      MutateTarget(target, keys, rng);
    }
    // UrlDecode never grows its input, and without '%' or '+' it is the
    // identity.
    const std::string decoded = UrlDecode(target);
    EXPECT_LE(decoded.size(), target.size()) << target;
    if (target.find_first_of("%+") == std::string::npos) {
      EXPECT_EQ(decoded, target);
    }
    HttpRequest request;
    const HttpResult r = Serve(*service_, target, &request);
    ASSERT_TRUE(r.ok) << target;
    ++statuses[r.status];
    EXPECT_TRUE(r.status == 200 || r.status == 400 || r.status == 404)
        << r.status << " for " << target;
    EXPECT_EQ(request.target, target);
    if (r.status == 200 && (request.path == "/traces" ||
                            request.path == "/traces/")) {
      ++listings;
      ExpectListingRespectsFilter(request, r.body, target);
    }
  }
  // About 40% 200 (half of them listings), 16% 400 and 43% 404.
  EXPECT_GT(statuses[200], kTrials / 4);
  EXPECT_GT(statuses[400], kTrials / 10);
  EXPECT_GT(statuses[404], kTrials / 4);
  EXPECT_GT(listings, kTrials / 10);
}

// ---------------------------------------------------------------------
// URL / target parsing units (no server).

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("%2Fetc%2fpasswd"), "/etc/passwd");
  EXPECT_EQ(UrlDecode(""), "");
  // Malformed escapes are kept literally, never dropped or fatal.
  EXPECT_EQ(UrlDecode("100%"), "100%");
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
  EXPECT_EQ(UrlDecode("%2"), "%2");
  EXPECT_EQ(UrlDecode("%%41"), "%A");
}

TEST(ParseTargetTest, SplitsPathAndParams) {
  HttpRequest r;
  ParseTarget("/traces?service=front+desk&grade=A&flag", r);
  EXPECT_EQ(r.path, "/traces");
  EXPECT_EQ(r.target, "/traces?service=front+desk&grade=A&flag");
  ASSERT_EQ(r.params.size(), 3u);
  EXPECT_EQ(r.Param("service"), "front desk");
  EXPECT_EQ(r.Param("grade"), "A");
  EXPECT_TRUE(r.HasParam("flag"));
  EXPECT_EQ(r.Param("flag"), "");
  EXPECT_FALSE(r.HasParam("absent"));
  EXPECT_EQ(r.Param("absent"), "");

  HttpRequest plain;
  ParseTarget("/metrics", plain);
  EXPECT_EQ(plain.path, "/metrics");
  EXPECT_TRUE(plain.params.empty());

  HttpRequest weird;
  ParseTarget("/a%20b?x=%3D&&y=1%262", weird);
  EXPECT_EQ(weird.path, "/a b");
  ASSERT_EQ(weird.params.size(), 2u);
  EXPECT_EQ(weird.Param("x"), "=");
  EXPECT_EQ(weird.Param("y"), "1&2");
}

}  // namespace
}  // namespace traceweaver::serve
