// bench_serve: end-to-end benchmark of the `serve` deployment path.
//
// It replays a pre-rendered span stream open-loop in real time through the
// same public-library calls, in the same order, as `traceweaver serve`
// (CmdServe in tools/traceweaver_cli.cc). Per span:
//
//   SpanFromJson -> OnlineTraceWeaver::Ingest -> TraceCommitter::OnSpan
//   -> Advance(running max client_send) -> TraceCommitter::OnResults
//
// and every 2000 spans a checkpoint: TraceStore::Seal, then the committer,
// tail-sampler and weaver states, each written tmp+rename. At end of
// stream: Flush, OnResults, Finalize, Seal and a final checkpoint.
//
// Each span is due at its own client_recv offset from the start of the
// stream, in (client_recv, id) order -- the order `sort-spans` produces. The
// generator sleeps until 200 us before a span is due and then spins, so
// latency is a property of the pipeline rather than of timer wake-up. A
// span that falls due while the pipeline is still busy waits, and its
// latency counts the wait.
//
//   bench_serve --workload=W [--seed=N] [--seconds=S] [--json=FILE]
//               [--trace=FILE] [--work-dir=DIR] [--keep]
//   bench_serve --list-metrics
//
// Without --trace the run reports the end-to-end metrics. With --trace it
// makes an untraced pass (the reference for the tracing overhead) and then
// a traced pass that records a span around every public call, and reports
// the per-layer metrics; the spans are written to FILE as JSONL. Exit code
// 0 means every correctness check passed. README.md in this directory has
// the workloads and the metric catalogue.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "callgraph/inference.h"
#include "callgraph/serialization.h"
#include "collector/capture.h"
#include "core/accuracy.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "serve/http_server.h"
#include "serve/query_service.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"
#include "trace/checkpoint.h"
#include "trace/jsonl_io.h"
#include "trace/trace_record.h"
#include "util/rng.h"

namespace {

using namespace traceweaver;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Fixed serve configuration, the same for every workload.

constexpr DurationNs kWindow = Millis(500);
constexpr DurationNs kMargin = Millis(100);
constexpr std::size_t kCheckpointEvery = 2000;
constexpr std::size_t kSegmentTraces = 256;
constexpr std::size_t kCacheTraces = 128;
constexpr std::size_t kHttpWorkers = 2;

/// Every run starts on a store already holding this many traces, so set-up
/// measures a real restart (opening the store) and cold reads hit sealed
/// segments on disk.
constexpr std::size_t kSeedTraces = 20000;
/// Seed-store span and trace ids live above this offset: the store's
/// Commit is idempotent by id, so live traces must never collide with them.
constexpr SpanId kSeedIdOffset = SpanId{1} << 40;

/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 3;

/// Closed-loop query clients: one thread and one keep-alive connection
/// each, with a fixed think time between queries.
constexpr int kClients = 2;
constexpr auto kThinkTime = std::chrono::milliseconds(2);
/// Workloads without concurrent reads query the finished store for this
/// long after the stream ends, so every workload reports query latency.
constexpr double kProbeSeconds = 3.0;

/// The generator sleeps until this long before a span is due, then spins.
constexpr std::int64_t kSpinNs = 200'000;
/// Roots not in the store this long after they were due were shed by the
/// tail sampler or split into fragments; freshness skips them.
constexpr std::int64_t kFreshnessGiveUpNs = 10'000'000'000;

/// Spin-wait hint, so the waiting generator spares a sibling hyperthread.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Machine-speed calibration.
//
// On a shared host the machine's speed drifts by tens of percent over
// minutes, as other tenants' load moves the core clock and cache latency, so
// the pipeline's raw throughput on one input differs that much between runs.
// A fixed kernel, timed on the pipeline thread every kCalibEveryNs while the
// stream runs, tracks that drift, and capacity_sps is scaled by the kernel's
// median time over its time on the reference machine. Each sample is the
// fastest of three back-to-back runs, so it measures the machine warm
// rather than how much of the cache the pipeline's own data took; the kernel
// never changes with the program, so a faster program still reads faster.

/// Kernel time on the reference machine (4-vCPU Intel Xeon VM).
constexpr double kCalibRefMs = 1.0;
constexpr std::int64_t kCalibEveryNs = 250'000'000;

volatile std::uint64_t calibration_sink = 0;

/// Builds, scans, probes and frees a 4000-entry hash map of short strings:
/// node and string allocation, hashing and pointer chasing, the mix the
/// pipeline's own per-span work is made of. Returns its wall time in ms.
double CalibrationKernelMs() {
  const std::int64_t begin = NowNs();
  std::uint64_t sum = 0;
  {
    std::unordered_map<std::uint64_t, std::string> map;
    std::uint64_t x = 42;
    for (int i = 0; i < 4000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      map.emplace(x >> 20, std::string(24 + (x >> 59), 'k'));
    }
    for (int pass = 0; pass < 3; ++pass) {
      for (const auto& [key, value] : map) sum += key + value.size();
    }
    x = 42;
    for (int i = 0; i < 4000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += map.find(x >> 20)->second.size();
    }
  }
  calibration_sink = sum;
  return static_cast<double>(NowNs() - begin) / 1e6;
}

/// One calibration sample: the fastest of three back-to-back kernel runs.
double CalibrationSampleMs() {
  return std::min({CalibrationKernelMs(), CalibrationKernelMs(),
                   CalibrationKernelMs()});
}

// ---------------------------------------------------------------------
// Workloads.

enum class AppKind { kHotel, kDeepChain };

struct Workload {
  const char* name;
  AppKind app;
  double rps;
  /// Capture faults (skew, drop, duplicate, 50% span sampling), served
  /// with skew correction, sampling-aware reconstruction and the tail
  /// sampler.
  bool faulty;
  /// Query clients run during ingest instead of after it.
  bool concurrent_reads;
  /// Minimum trace accuracy (%) for the run to count as correct.
  double accuracy_floor;
};

constexpr Workload kWorkloads[] = {
    {"hotel_400", AppKind::kHotel, 400.0, false, false, 90.0},
    {"deep_chain_100", AppKind::kDeepChain, 100.0, false, false, 95.0},
    {"capture_faulty_400", AppKind::kHotel, 400.0, true, false, 65.0},
    {"read_write_400", AppKind::kHotel, 400.0, false, true, 90.0},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The serve flags a workload runs with (mirrored by serve_flags.txt for
/// the parity check against the CLI).
struct ServeConfig {
  bool skew_correct = false;
  double sampling_rate = 1.0;
  double tail_keep = -1.0;  ///< < 0: no tail sampler.
};

ServeConfig ConfigFor(const Workload& w) {
  ServeConfig c;
  if (w.faulty) {
    c.skew_correct = true;
    c.sampling_rate = 0.5;
    c.tail_keep = 0.1;
  }
  return c;
}

// ---------------------------------------------------------------------
// Metric catalogue. The binary emits exactly these; --list-metrics prints
// them and BENCHMARK.json must name the same set.

enum class Kind { kEndToEnd, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

constexpr Kind E = Kind::kEndToEnd;
constexpr Kind L = Kind::kLayer;

constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", E},
    {"capacity_sps", "spans/s", E},
    {"trace_accuracy", "%", E},
    {"mem_peak_mb", "MB", E},
    {"query_p99_ms", "ms", E},
    {"query_qps", "q/s", E},

    {"trace.decode_us_per_span", "us", L},
    {"trace.self_ms", "ms", L},

    {"core.ingest_us_per_span", "us", L},
    {"core.advance_us_per_span", "us", L},
    {"core.stage.views_ms", "ms", L},
    {"core.stage.setup_ms", "ms", L},
    {"core.stage.enumerate_ms", "ms", L},
    {"core.stage.batch_ms", "ms", L},
    {"core.stage.seed_ms", "ms", L},
    {"core.stage.allocate_ms", "ms", L},
    {"core.stage.rank_ms", "ms", L},
    {"core.stage.solve_ms", "ms", L},
    {"core.stage.refit_ms", "ms", L},
    {"core.stage.stitch_ms", "ms", L},
    {"core.stage.quality_ms", "ms", L},
    {"core.window_close_ms_p50", "ms", L},
    {"core.window_close_ms_max", "ms", L},
    {"core.windows_closed", "count", L},
    {"core.graft_ms", "ms", L},
    {"core.late_spans", "count", L},
    {"core.parents_committed", "count", L},
    {"core.buffer_spans_max", "count", L},
    {"core.buffer_bytes_max", "bytes", L},
    {"core.self_ms", "ms", L},

    {"store.onspan_us_per_span", "us", L},
    {"store.onresults_us_per_span", "us", L},
    {"store.pending_spans_max", "count", L},
    {"store.traces_committed", "count", L},
    {"store.duplicates", "count", L},
    {"store.sampler_kept", "count", L},
    {"store.sampler_shed", "count", L},
    {"store.freshness_ms_p50", "ms", L},
    {"store.freshness_ms_p99", "ms", L},
    {"store.cache_hit_ratio", "ratio", L},
    {"store.disk_reads", "count", L},
    {"store.open_s", "s", L},
    {"store.self_ms", "ms", L},

    {"ckpt.ms_p50", "ms", L},
    {"ckpt.ms_max", "ms", L},
    {"ckpt.count", "count", L},
    {"ckpt.bytes_mean", "bytes", L},
    {"ckpt.seal_ms", "ms", L},
    {"ckpt.committer_ms", "ms", L},
    {"ckpt.sampler_ms", "ms", L},
    {"ckpt.weaver_ms", "ms", L},
    {"ckpt.self_ms", "ms", L},

    {"obs.prov_events", "count", L},
    {"obs.prov_pending_max", "count", L},

    {"serve.handle_us_p50.list_recent", "us", L},
    {"serve.handle_us_p50.get_hot", "us", L},
    {"serve.handle_us_p50.get_cold", "us", L},
    {"serve.handle_us_p50.list_service", "us", L},
    {"serve.handle_us_p50.provenance", "us", L},
    {"serve.handle_us_p99.list_recent", "us", L},
    {"serve.handle_us_p99.get_hot", "us", L},
    {"serve.handle_us_p99.get_cold", "us", L},
    {"serve.handle_us_p99.list_service", "us", L},
    {"serve.handle_us_p99.provenance", "us", L},
    {"serve.http_overhead_us_p50", "us", L},
    {"query_p50_ms", "ms", L},
    {"serve.queries", "count", L},
    {"serve.errors", "count", L},

    {"span_latency_p50_ms", "ms", L},
    {"span_latency_p99_ms", "ms", L},
    {"drv.busy_ratio", "ratio", L},
    {"drv.backlog_max_spans", "count", L},
    {"drv.queue_wait_ms_p99", "ms", L},
    {"drv.gen_late_us_p99", "us", L},
    {"drv.gen_s", "s", L},
    {"drv.calib_ms", "ms", L},
    {"drv.capacity_raw_sps", "spans/s", L},
    {"drv.unaccounted_ratio", "ratio", L},
    {"drv.trace_overhead_ratio", "ratio", L},
    {"drv.self_ms", "ms", L},
};

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& m : kMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

/// Core stage labels (obs::StageName), read from tw_stage_wall_ns_total.
constexpr const char* kStages[] = {"views", "setup",  "enumerate", "batch",
                                   "seed",  "allocate", "rank",    "solve",
                                   "refit", "stitch", "quality"};

/// Query routes of the read mix, in mix order.
enum Route { kListRecent, kGetHot, kGetCold, kListService, kProvenance };
constexpr int kRouteCount = 5;
constexpr const char* kRouteNames[kRouteCount] = {
    "list_recent", "get_hot", "get_cold", "list_service", "provenance"};
/// Queries per route in each deck of 20 (30/30/25/10/5 percent). Clients
/// draw routes from shuffled decks rather than independently, so every
/// run, however short, sends the same mix.
constexpr int kRouteDeck[kRouteCount] = {6, 6, 5, 2, 1};

// ---------------------------------------------------------------------
// Small statistics helpers.

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 when empty.
double Quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Max(const std::vector<std::int64_t>& v) {
  if (v.empty()) return 0.0;
  return static_cast<double>(*std::max_element(v.begin(), v.end()));
}

double Ms(double ns) { return ns / 1e6; }
double Us(double ns) { return ns / 1e3; }

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as JSONL at exit.

struct TraceSpan {
  const char* name = "";
  std::uint32_t parent = 0;  ///< 1-based id of the parent; 0 = root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t req = 0;  ///< Input span, checkpoint or query index.
};

class Tracer {
 public:
  /// Records a span and returns its 1-based id.
  std::uint32_t Add(const char* name, std::uint32_t parent, std::int64_t req,
                    std::int64_t start, std::int64_t end) {
    spans_.push_back({name, parent, start, end, req});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void SetEnd(std::uint32_t id, std::int64_t end) {
    spans_[id - 1].end_ns = end;
  }
  std::vector<TraceSpan>& spans() { return spans_; }

 private:
  std::vector<TraceSpan> spans_;
};

/// Handler-side samples, appended by the HTTP worker threads.
struct HandleLog {
  struct Sample {
    int route = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::mutex mu;
  std::vector<Sample> samples;  ///< Guarded by mu.
};

/// Classifies a request into the read-mix route from the request alone:
/// a point lookup on a seed-store id is cold, any other one hot.
int RouteOf(const serve::HttpRequest& rq) {
  if (rq.path == "/traces") {
    return rq.HasParam("service") ? kListService : kListRecent;
  }
  if (rq.path.size() > 11 &&
      rq.path.compare(rq.path.size() - 11, 11, "/provenance") == 0) {
    return kProvenance;
  }
  const SpanId id = std::strtoull(rq.path.c_str() + 8, nullptr, 10);
  return id >= kSeedIdOffset ? kGetCold : kGetHot;
}

// ---------------------------------------------------------------------
// Inputs: call graph, live stream and seed store, all from --seed.

struct SeedStore {
  std::vector<SpanId> ids;
  std::vector<std::string> root_services;
  TimeNs start = 0;
  TimeNs end = 0;
  std::size_t segments = 0;
};

struct Inputs {
  CallGraph graph;
  std::vector<Span> stream;         ///< Fed order, with ground truth.
  std::vector<std::string> lines;   ///< SpanToJson(stream[i], true).
  std::vector<Span> truth;          ///< Distinct ids, for Evaluate.
  SeedStore seed;
  double gen_s = 0.0;
};

sim::AppSpec AppFor(AppKind kind) {
  return kind == AppKind::kHotel ? sim::MakeHotelReservationApp()
                                 : sim::MakeDeepAsyncChainApp(10);
}

/// Builds the seed store at `dir`: the first kSeedTraces HotelReservation
/// requests of a separately seeded stream, as records straight from ground
/// truth (grade A, a settled provenance stamp), ids offset by
/// kSeedIdOffset. Returns false on a store error.
bool BuildSeedStore(std::uint64_t seed, const std::string& dir,
                    SeedStore* out, std::string* err) {
  sim::OpenLoopOptions load;
  load.requests_per_sec = 400.0;
  load.duration = Seconds(static_cast<double>(kSeedTraces) / 400.0 + 3.0);
  load.seed = seed + 0x5eed0000ULL;
  const auto spans = sim::RunOpenLoop(sim::MakeHotelReservationApp(), load);

  std::unordered_map<SpanId, std::vector<SpanId>> children;
  std::unordered_map<SpanId, const Span*> by_id;
  std::vector<const Span*> roots;
  for (const Span& s : spans.spans) {
    by_id[s.id] = &s;
    if (s.IsRoot()) {
      roots.push_back(&s);
    } else if (s.true_parent != kInvalidSpanId) {
      children[s.true_parent].push_back(s.id);
    }
  }
  std::sort(roots.begin(), roots.end(), [](const Span* a, const Span* b) {
    return a->client_send != b->client_send ? a->client_send < b->client_send
                                            : a->id < b->id;
  });
  if (roots.size() < kSeedTraces) {
    *err = "seed stream produced too few traces";
    return false;
  }
  roots.resize(kSeedTraces);

  const auto shifted = [](SpanId id) {
    return id == kInvalidSpanId ? id : id + kSeedIdOffset;
  };
  store::TraceStore st(dir, {kSegmentTraces, 0, nullptr});
  if (!st.Open(err)) return false;
  std::set<std::string> services;
  out->start = roots.front()->client_send;
  out->end = roots.front()->client_recv;
  for (const Span* root : roots) {
    TraceRecord rec;
    rec.trace_id = shifted(root->id);
    rec.root_service = root->callee;
    rec.root_endpoint = root->endpoint;
    rec.grade = 'A';
    rec.confidence = 1.0;
    rec.min_confidence = 1.0;
    // Root-first walk with children by id, the committer's record order.
    std::vector<SpanId> stack{root->id};
    while (!stack.empty()) {
      const SpanId id = stack.back();
      stack.pop_back();
      Span s = *by_id.at(id);
      if (id != root->id) {
        rec.parents.emplace_back(shifted(s.id), shifted(s.true_parent));
      }
      s.id = shifted(s.id);
      s.true_parent = shifted(s.true_parent);
      s.true_trace = shifted(s.true_trace);
      rec.spans.push_back(std::move(s));
      if (const auto kids = children.find(id); kids != children.end()) {
        std::vector<SpanId> ordered = kids->second;
        std::sort(ordered.begin(), ordered.end(), std::greater<SpanId>());
        stack.insert(stack.end(), ordered.begin(), ordered.end());
      }
    }
    std::sort(rec.parents.begin(), rec.parents.end());
    rec.start = rec.spans.front().client_send;
    rec.end = rec.spans.front().client_recv;
    for (const Span& s : rec.spans) {
      rec.start = std::min(rec.start, s.client_send);
      rec.end = std::max(rec.end, s.client_recv);
    }
    rec.provenance.push_back(
        {obs::ProvEventType::kSettled, rec.trace_id,
         static_cast<std::int64_t>(rec.spans.size()), ""});
    out->ids.push_back(rec.trace_id);
    out->start = std::min(out->start, rec.start);
    out->end = std::max(out->end, rec.end);
    services.insert(rec.root_service);
    if (!st.Commit(std::move(rec))) {
      *err = "seed store rejected a record";
      return false;
    }
  }
  if (!st.Seal(err)) return false;
  out->root_services.assign(services.begin(), services.end());
  out->segments = st.sealed_segments();
  return true;
}

bool GenerateInputs(const Workload& w, std::uint64_t seed, double seconds,
                    const std::string& seed_dir, Inputs* in,
                    std::string* err) {
  const std::int64_t begin = NowNs();
  const sim::AppSpec app = AppFor(w.app);
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  in->graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(app, iso).spans));

  if (!BuildSeedStore(seed, seed_dir, &in->seed, err)) return false;

  sim::OpenLoopOptions load;
  load.requests_per_sec = w.rps;
  load.duration = Seconds(seconds);
  load.seed = seed;
  std::vector<Span> spans =
      collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans);
  // The live stream starts a whole second after the seed store ends.
  const TimeNs base =
      (in->seed.end / Seconds(1) + 2) * Seconds(1);
  for (Span& s : spans) {
    s.client_send += base;
    s.server_recv += base;
    s.server_send += base;
    s.client_recv += base;
  }
  if (w.faulty) {
    sim::FaultSpec faults;
    faults.skew_stddev_ns = Micros(100);
    faults.drop_rate = 0.01;
    faults.duplicate_rate = 0.01;
    faults.tail_sample_rate = 0.5;
    faults.seed = seed;
    spans = sim::InjectFaults(std::move(spans), faults);
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.client_recv != b.client_recv
                                ? a.client_recv < b.client_recv
                                : a.id < b.id;
                   });
  if (spans.empty()) {
    *err = "empty stream";
    return false;
  }
  in->lines.reserve(spans.size());
  std::unordered_set<SpanId> seen;
  for (const Span& s : spans) {
    in->lines.push_back(SpanToJson(s, /*include_ground_truth=*/true));
    if (seen.insert(s.id).second) in->truth.push_back(s);
  }
  in->stream = std::move(spans);
  in->gen_s = static_cast<double>(NowNs() - begin) / 1e9;
  return true;
}

// ---------------------------------------------------------------------
// HTTP client: one keep-alive connection, Content-Length or chunked
// response framing (the two the server sends).

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One GET; false on a transport or framing failure (the connection is
  /// dropped and the next call reconnects).
  bool Get(const std::string& target, int* status, std::string* body) {
    if (fd_ < 0 && !Connect()) return false;
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const ssize_t n = ::send(fd_, req.data() + off, req.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        Close();
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    if (!ReadResponse(status, body)) {
      Close();
      return false;
    }
    return true;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool Fill() {
    char tmp[16384];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  bool ReadResponse(int* status, std::string* body) {
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end + 4);
    if (head.rfind("HTTP/1.1 ", 0) != 0) return false;
    *status = std::atoi(head.c_str() + 9);
    std::string lower = head;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    body->clear();
    if (lower.find("\r\ntransfer-encoding: chunked") != std::string::npos) {
      for (;;) {
        std::size_t eol;
        while ((eol = buf_.find("\r\n")) == std::string::npos) {
          if (!Fill()) return false;
        }
        const std::size_t size = std::strtoull(buf_.c_str(), nullptr, 16);
        buf_.erase(0, eol + 2);
        while (buf_.size() < size + 2) {
          if (!Fill()) return false;
        }
        body->append(buf_, 0, size);
        buf_.erase(0, size + 2);
        if (size == 0) return true;
      }
    }
    const std::size_t cl = lower.find("\r\ncontent-length:");
    if (cl == std::string::npos) return false;
    const std::size_t len =
        std::strtoull(lower.c_str() + cl + 17, nullptr, 10);
    while (buf_.size() < len) {
      if (!Fill()) return false;
    }
    body->assign(buf_, 0, len);
    buf_.erase(0, len);
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buf_;  ///< Received bytes not yet consumed.
};

// ---------------------------------------------------------------------
// Closed-loop query clients.

/// What every client reads; immutable while clients run.
struct QueryContext {
  int port = 0;
  const SeedStore* seed = nullptr;
  TimeNs stream_first = 0;  ///< Stream time of the first due span.
  TimeNs stream_last = 0;   ///< Stream time of the last due span.
  std::int64_t wall_t0 = 0;  ///< Wall time the first span was due.
  bool traced = false;
};

struct ClientResult {
  std::vector<std::int64_t> latency_ns;  ///< Successful queries.
  std::size_t sent = 0;
  std::size_t failed = 0;      ///< Transport failure or non-200.
  std::size_t mismatched = 0;  ///< 200 with a wrong or unparsable body.
  std::string problem;         ///< First failure or mismatch.
  std::vector<TraceSpan> spans;  ///< serve.query (traced only).
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Checks a listing body against its filter and limit; returns the listed
/// trace ids through `ids`.
bool CheckListing(const std::string& body, const std::string& service,
                  TimeNs from, TimeNs to, std::size_t limit,
                  std::vector<SpanId>* ids, std::string* why) {
  ids->clear();
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto rec = TraceRecordFromJson(line);
    if (!rec) {
      *why = "unparsable listing record";
      return false;
    }
    if ((!service.empty() && rec->root_service != service) ||
        rec->end < from || rec->start > to) {
      *why = "listing record outside its filter";
      return false;
    }
    ids->push_back(rec->trace_id);
  }
  if (ids->size() > limit) {
    *why = "listing longer than its limit";
    return false;
  }
  return true;
}

void RunClient(const QueryContext& ctx, std::uint64_t seed,
               const std::atomic<bool>& stop, ClientResult& out) {
  Rng rng(seed);
  HttpClient http(ctx.port);
  std::vector<SpanId> recent;
  std::vector<SpanId> listed;
  const SeedStore& sd = *ctx.seed;
  const auto seed_id = [&] {
    return sd.ids[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(sd.ids.size()) - 1))];
  };
  const auto recent_id = [&] {
    if (recent.empty()) return seed_id();
    return recent[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(recent.size()) - 1))];
  };
  std::vector<int> deck;
  std::string body;
  out.begin_ns = NowNs();
  for (std::int64_t seq = 0; !stop.load(std::memory_order_relaxed); ++seq) {
    if (deck.empty()) {
      for (int r = 0; r < kRouteCount; ++r) {
        deck.insert(deck.end(), kRouteDeck[r], r);
      }
      std::shuffle(deck.begin(), deck.end(), rng.engine());
    }
    const int route = deck.back();
    deck.pop_back();

    std::string target;
    SpanId id = kInvalidSpanId;
    std::string service;
    TimeNs from = 0;
    TimeNs to = std::numeric_limits<TimeNs>::max();
    std::size_t limit = 0;
    char buf[192];
    if (route == kListRecent) {
      const TimeNs now = std::min(
          ctx.stream_last, ctx.stream_first + (NowNs() - ctx.wall_t0));
      from = now - Seconds(3);
      limit = 20;
      std::snprintf(buf, sizeof(buf), "/traces?from=%" PRId64 "&limit=20",
                    static_cast<std::int64_t>(from));
      target = buf;
    } else if (route == kListService) {
      service = sd.root_services[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(sd.root_services.size()) - 1))];
      from = sd.start + static_cast<TimeNs>(rng.Uniform(
                            0.0, static_cast<double>(std::max<TimeNs>(
                                     1, sd.end - sd.start - Seconds(1)))));
      to = from + Seconds(1);
      limit = 50;
      std::snprintf(buf, sizeof(buf),
                    "/traces?service=%s&from=%" PRId64 "&to=%" PRId64
                    "&limit=50",
                    service.c_str(), static_cast<std::int64_t>(from),
                    static_cast<std::int64_t>(to));
      target = buf;
    } else {
      id = route == kGetCold ? seed_id() : recent_id();
      std::snprintf(buf, sizeof(buf), "/traces/%" PRIu64 "%s",
                    static_cast<std::uint64_t>(id),
                    route == kProvenance ? "/provenance" : "");
      target = buf;
    }

    int status = 0;
    const std::int64_t t_send = NowNs();
    const bool ok = http.Get(target, &status, &body);
    const std::int64_t t_done = NowNs();
    ++out.sent;
    if (ctx.traced) {
      out.spans.push_back({"serve.query", 0, t_send, t_done, seq});
    }
    std::string why;
    if (!ok || status != 200) {
      ++out.failed;
      why = ok ? "HTTP " + std::to_string(status) + " on " + target
               : "transport failure on " + target;
    } else {
      out.latency_ns.push_back(t_done - t_send);
      bool good = true;
      if (route == kListRecent || route == kListService) {
        good = CheckListing(body, service, from, to, limit, &listed, &why);
        if (good && route == kListRecent && !listed.empty()) recent = listed;
      } else if (route == kProvenance) {
        good = ckpt::FieldU64(body, "trace") == id &&
               ckpt::FieldStr(body, "schema") ==
                   std::string("traceweaver.provenance.v1");
        if (!good) why = "provenance body for the wrong trace";
      } else {
        std::string line = body;
        while (!line.empty() && line.back() == '\n') line.pop_back();
        const auto rec = TraceRecordFromJson(line);
        good = rec.has_value() && rec->trace_id == id;
        if (!good) why = "trace body for the wrong trace";
      }
      if (!good) {
        ++out.mismatched;
        why += " (" + target + ")";
      }
    }
    if (!why.empty() && out.problem.empty()) out.problem = why;
    std::this_thread::sleep_for(kThinkTime);
  }
  out.end_ns = NowNs();
}

/// Runs kClients clients on their own threads until Stop().
class QueryLoad {
 public:
  QueryLoad(const QueryContext& ctx, std::uint64_t seed) : ctx_(ctx) {
    results_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads_.emplace_back(RunClient, std::cref(ctx_),
                            seed * 1000003ULL + static_cast<std::uint64_t>(c),
                            std::cref(stop_), std::ref(results_[c]));
    }
  }
  ~QueryLoad() { Stop(); }
  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  const std::vector<ClientResult>& results() const { return results_; }

 private:
  QueryContext ctx_;
  std::atomic<bool> stop_{false};
  std::vector<ClientResult> results_;
  std::vector<std::thread> threads_;  ///< Last: joined before the rest go.
};

// ---------------------------------------------------------------------
// The serve pipeline, assembled the way CmdServe assembles it.

struct Pipeline {
  obs::MetricsRegistry registry;
  obs::ProvenanceLedger ledger{obs::ProvenanceLedgerOptions{}, &registry};
  std::unique_ptr<OnlineTraceWeaver> weaver;
  std::unique_ptr<store::TraceStore> store;
  std::unique_ptr<store::TailSampler> sampler;
  std::unique_ptr<store::TraceCommitter> committer;
  std::unique_ptr<serve::QueryService> query;
  /// Last member, so it stops before anything its workers read goes away.
  std::unique_ptr<serve::HttpServer> http;
  double open_s = 0.0;
};

std::unique_ptr<Pipeline> Setup(const Inputs& in, const ServeConfig& cfg,
                                const std::string& store_dir, HandleLog* log,
                                std::string* err) {
  auto p = std::make_unique<Pipeline>();
  OnlineOptions o;
  o.window = kWindow;
  o.margin = kMargin;
  o.weaver.num_threads = 1;
  o.weaver.metrics = &p->registry;
  o.weaver.compute_quality = true;
  o.weaver.optimizer.params.sampling_rate = cfg.sampling_rate;
  o.skew_correct = cfg.skew_correct;
  o.metrics = &p->registry;
  o.provenance = &p->ledger;
  p->weaver = std::make_unique<OnlineTraceWeaver>(in.graph, o);

  store::StoreOptions so;
  so.segment_traces = kSegmentTraces;
  so.cache_traces = kCacheTraces;
  so.metrics = &p->registry;
  p->store = std::make_unique<store::TraceStore>(store_dir, so);
  const std::int64_t open_begin = NowNs();
  const auto opened = p->store->Open(err);
  p->open_s = static_cast<double>(NowNs() - open_begin) / 1e9;
  if (!opened) return nullptr;
  if (opened->segments_rejected > 0 || opened->traces_loaded != kSeedTraces) {
    *err = "seed store did not reopen whole";
    return nullptr;
  }

  store::CommitterOptions co;
  co.window = kWindow;
  co.margin = kMargin;
  co.provenance = &p->ledger;
  if (cfg.tail_keep >= 0.0) {
    store::TailSamplerOptions to;
    to.keep_rate = cfg.tail_keep;
    to.window = kWindow;
    p->sampler = std::make_unique<store::TailSampler>(to, &p->registry);
    co.sampler = p->sampler.get();
  }
  p->committer = std::make_unique<store::TraceCommitter>(co, p->store.get());

  serve::QueryServiceOptions qo;
  qo.explain_weaver = o.weaver;
  p->query = std::make_unique<serve::QueryService>(p->store.get(), &in.graph,
                                                   &p->registry, qo);
  serve::HttpServerOptions ho;
  ho.port = 0;
  ho.worker_threads = kHttpWorkers;
  ho.metrics = &p->registry;
  serve::QueryService* q = p->query.get();
  p->http = std::make_unique<serve::HttpServer>(
      [q, log](const serve::HttpRequest& rq, serve::HttpResponse& rs) {
        if (log == nullptr) {
          q->Handle(rq, rs);
          return;
        }
        const std::int64_t begin = NowNs();
        q->Handle(rq, rs);
        const std::int64_t end = NowNs();
        const std::lock_guard<std::mutex> lock(log->mu);
        log->samples.push_back({RouteOf(rq), begin, end});
      },
      ho);
  if (!p->http->Start(err)) return nullptr;
  return p;
}

// ---------------------------------------------------------------------
// Process memory (Linux /proc).

long StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::atol(line.c_str() + klen + 1);
    }
  }
  return -1;
}

/// Returns freed heap to the kernel, then resets VmHWM to the current RSS,
/// so the peak that follows counts only memory the run itself touches.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// One pass: set-up, real-time replay, end of stream, reads, checks.

/// A correctness check that did not hold.
struct Failure {
  std::string check;
  std::string detail;
};

template <typename WriteFn>
bool WriteAtomic(const std::string& path, WriteFn&& write,
                 std::uint64_t* bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write(out);
    out.flush();
    if (!out) return false;
    *bytes += static_cast<std::uint64_t>(out.tellp());
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string Fingerprint(const ParentAssignment& assignment) {
  std::vector<std::pair<SpanId, SpanId>> rows(assignment.begin(),
                                              assignment.end());
  std::sort(rows.begin(), rows.end());
  std::uint64_t h = 1469598103934665603ULL;
  char buf[64];
  for (const auto& [child, parent] : rows) {
    const int n = std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%" PRIu64 "\n",
                                static_cast<std::uint64_t>(child),
                                static_cast<std::uint64_t>(parent));
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

struct PassResult {
  std::vector<Failure> failures;
  std::string fingerprint;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<TraceSpan> spans;  ///< All spans (traced), pipeline first.
  std::size_t latency_samples = 0;
  std::size_t query_samples = 0;
};

class Pass {
 public:
  Pass(const Workload& w, const Inputs& in, const std::string& work,
       std::uint64_t seed, bool traced, int setup_reps)
      : w_(w), in_(in), cfg_(ConfigFor(w)), work_(work), seed_(seed),
        traced_(traced), setup_reps_(setup_reps) {}

  PassResult Run();

 private:
  void Fail(const std::string& name, const std::string& detail) {
    out_.failures.push_back({name, detail});
  }
  void Checkpoint(std::uint64_t offset, std::int64_t index);
  void CloseSpans(std::uint32_t parent, std::int64_t req,
                  std::int64_t call_end,
                  const std::vector<WindowResult>& results);
  void NoteResults(const std::vector<WindowResult>& results);
  void CheckFreshness(std::int64_t now);
  void CheckCommitted();
  void Metrics(const std::vector<ClientResult>& clients,
               std::int64_t stream_wall_ns);

  const Workload& w_;
  const Inputs& in_;
  const ServeConfig cfg_;
  const std::string work_;
  const std::uint64_t seed_;
  const bool traced_;
  const int setup_reps_;

  HandleLog handle_log_;  ///< Before p_: its HTTP workers write here.
  std::unique_ptr<Pipeline> p_;
  Tracer tr_;
  PassResult out_;

  std::string ckpt_dir_;
  std::vector<double> setup_s_;
  std::vector<double> open_s_;
  std::int64_t busy_ns_ = 0;
  std::vector<double> calib_ms_;  ///< Calibration samples during the stream.
  std::vector<std::int64_t> latency_;
  std::vector<std::int64_t> queue_wait_;
  std::vector<std::int64_t> gen_late_;
  std::size_t backlog_max_ = 0;
  std::vector<std::int64_t> close_ns_;
  std::int64_t graft_ns_ = 0;
  // Checkpoints.
  std::vector<std::int64_t> ckpt_ns_;
  std::int64_t ckpt_phase_ns_[4] = {0, 0, 0, 0};
  std::uint64_t ckpt_bytes_ = 0;
  bool ckpt_ok_ = true;
  // Traced pass only.
  std::int64_t layer_ns_[5] = {0, 0, 0, 0, 0};  ///< decode..onresults.
  std::size_t buffer_spans_max_ = 0;
  std::size_t buffer_bytes_max_ = 0;
  std::size_t pending_max_ = 0;
  std::size_t prov_pending_max_ = 0;
  std::vector<std::pair<SpanId, std::int64_t>> roots_;  ///< Not yet stored.
  std::vector<std::int64_t> freshness_;
  std::uint64_t decode_failures_ = 0;
  double mem_peak_mb_ = 0.0;
};

void Pass::Checkpoint(std::uint64_t offset, std::int64_t index) {
  const std::int64_t t0 = NowNs();
  std::string err;
  const bool sealed = p_->store->Seal(&err);
  const std::int64_t t1 = NowNs();
  const bool committer_ok =
      sealed && WriteAtomic(
                    ckpt_dir_ + "/committer.jsonl",
                    [&](std::ostream& o) { p_->committer->SaveState(o); },
                    &ckpt_bytes_);
  const std::int64_t t2 = NowNs();
  const bool sampler_ok =
      committer_ok &&
      (p_->sampler == nullptr ||
       WriteAtomic(
           ckpt_dir_ + "/sampler.jsonl",
           [&](std::ostream& o) { p_->sampler->SaveState(o); },
           &ckpt_bytes_));
  const std::int64_t t3 = NowNs();
  const bool weaver_ok =
      sampler_ok &&
      WriteAtomic(
          ckpt_dir_ + "/checkpoint.jsonl",
          [&](std::ostream& o) {
            p_->weaver->SaveCheckpoint(o, {{"source_offset", offset}});
          },
          &ckpt_bytes_);
  const std::int64_t t4 = NowNs();
  ckpt_ok_ = ckpt_ok_ && weaver_ok;
  ckpt_ns_.push_back(t4 - t0);
  ckpt_phase_ns_[0] += t1 - t0;
  ckpt_phase_ns_[1] += t2 - t1;
  ckpt_phase_ns_[2] += t3 - t2;
  ckpt_phase_ns_[3] += t4 - t3;
  if (traced_) {
    const std::uint32_t root = tr_.Add("ckpt", 0, index, t0, t4);
    tr_.Add("ckpt.seal", root, index, t0, t1);
    tr_.Add("ckpt.committer", root, index, t1, t2);
    tr_.Add("ckpt.sampler", root, index, t2, t3);
    tr_.Add("ckpt.weaver", root, index, t3, t4);
  }
}

void Pass::NoteResults(const std::vector<WindowResult>& results) {
  for (const WindowResult& r : results) {
    close_ns_.push_back(r.close_wall_ns);
    graft_ns_ += r.graft_wall_ns;
  }
}

/// One core.window_close child per result under the call that produced
/// them, placed back-to-back at the end of the call.
void Pass::CloseSpans(std::uint32_t parent, std::int64_t req,
                      std::int64_t call_end,
                      const std::vector<WindowResult>& results) {
  std::int64_t at = call_end;
  for (const WindowResult& r : results) at -= r.close_wall_ns;
  for (const WindowResult& r : results) {
    tr_.Add("core.window_close", parent, req, at, at + r.close_wall_ns);
    at += r.close_wall_ns;
  }
}

void Pass::CheckFreshness(std::int64_t now) {
  std::size_t keep = 0;
  for (const auto& [id, due] : roots_) {
    if (p_->store->Contains(id)) {
      freshness_.push_back(now - due);
    } else if (now - due < kFreshnessGiveUpNs) {
      roots_[keep++] = {id, due};
    }
  }
  roots_.resize(keep);
}

/// Reads back every segment the pass sealed and compares the committed
/// spans with the spans fed (no sampler) or the sampler's accounting.
void Pass::CheckCommitted() {
  std::map<std::uint32_t, std::string> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(p_->store->dir(), ec)) {
    unsigned id = 0;
    char tail = 0;
    if (std::sscanf(e.path().filename().c_str(), "segment-%06u.jsonl%c", &id,
                    &tail) == 1 &&
        id >= in_.seed.segments) {
      files[id] = e.path().string();
    }
  }
  std::size_t records = 0;
  std::unordered_set<SpanId> committed;
  bool twice = false;
  for (const auto& [id, file] : files) {
    std::ifstream f(file, std::ios::binary);
    std::string why;
    const auto lines =
        ReadChecksummedLines(f, store::TraceStore::kSegmentSchema, &why);
    if (!lines) {
      Fail("store_segments", file + ": " + why);
      return;
    }
    for (std::size_t i = 1; i < lines->size(); ++i) {
      const auto rec = TraceRecordFromJson((*lines)[i]);
      if (!rec) {
        Fail("store_segments", file + ": unparsable record");
        return;
      }
      ++records;
      for (const Span& s : rec->spans) {
        twice = twice || !committed.insert(s.id).second;
      }
    }
  }
  if (records != p_->committer->committed()) {
    Fail("store_segments",
         std::to_string(records) + " live records on disk, " +
             std::to_string(p_->committer->committed()) + " committed");
  }
  if (twice) Fail("spans_committed", "a span is in two committed records");
  if (p_->sampler == nullptr) {
    std::size_t missing = 0;
    for (const Span& s : in_.truth) missing += committed.count(s.id) == 0;
    if (missing > 0 || committed.size() != in_.truth.size()) {
      Fail("spans_committed",
           std::to_string(in_.truth.size()) + " distinct spans fed, " +
               std::to_string(committed.size()) + " in committed records (" +
               std::to_string(missing) + " missing)");
    }
  } else {
    const store::TailSampler& s = *p_->sampler;
    if (s.considered() != s.kept() + s.shed() ||
        s.kept() != p_->committer->committed()) {
      Fail("sampler_accounting",
           "considered " + std::to_string(s.considered()) + ", kept " +
               std::to_string(s.kept()) + ", shed " +
               std::to_string(s.shed()) + ", committed " +
               std::to_string(p_->committer->committed()));
    }
  }
}

PassResult Pass::Run() {
  const std::string store_dir = work_ + "/store";
  ckpt_dir_ = work_ + "/ckpt";
  std::error_code ec;
  fs::remove_all(store_dir, ec);
  fs::remove_all(ckpt_dir_, ec);
  fs::copy(work_ + "/seed", store_dir, fs::copy_options::recursive, ec);
  if (ec || !fs::create_directories(ckpt_dir_, ec)) {
    Fail("setup", "cannot prepare " + store_dir + " and " + ckpt_dir_);
    return std::move(out_);
  }

  // Set-up: open the seed store and build the pipeline, several times.
  std::string err;
  for (int rep = 0; rep < setup_reps_; ++rep) {
    p_.reset();
    const std::int64_t begin = NowNs();
    p_ = Setup(in_, cfg_, store_dir, traced_ ? &handle_log_ : nullptr, &err);
    setup_s_.push_back(static_cast<double>(NowNs() - begin) / 1e9);
    if (p_ == nullptr) {
      Fail("setup", err);
      return std::move(out_);
    }
    open_s_.push_back(p_->open_s);
  }
  OnlineTraceWeaver& weaver = *p_->weaver;
  store::TraceCommitter& committer = *p_->committer;

  const std::size_t n = in_.lines.size();
  const TimeNs first_recv = in_.stream.front().client_recv;
  latency_.resize(n);
  queue_wait_.resize(n);
  gen_late_.reserve(n);
  if (traced_) tr_.spans().reserve(n * 6 + 1024);

  if (!ResetPeakRss()) Fail("memory", "cannot reset VmHWM");
  const long rss_start_kb = StatusKb("VmRSS");

  const std::int64_t wall_t0 = NowNs() + 20'000'000;
  QueryContext qctx;
  qctx.port = p_->http->port();
  qctx.seed = &in_.seed;
  qctx.stream_first = first_recv;
  qctx.stream_last = in_.stream.back().client_recv;
  qctx.wall_t0 = wall_t0;
  qctx.traced = traced_;
  std::unique_ptr<QueryLoad> reads;
  if (w_.concurrent_reads) reads = std::make_unique<QueryLoad>(qctx, seed_);

  std::uint64_t offset = 0;
  std::size_t since_checkpoint = 0;
  std::int64_t checkpoints = 0;
  TimeNs watermark = weaver.high_watermark();
  std::size_t ahead = 0;  // First span not yet due at the last busy start.
  std::int64_t next_calib = wall_t0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due =
        wall_t0 + (in_.stream[i].client_recv - first_recv);
    std::int64_t start = NowNs();
    if (start < due) {
      if (due - start > kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - start - kSpinNs));
      }
      while ((start = NowNs()) < due) CpuRelax();
      gen_late_.push_back(start - due);
      queue_wait_[i] = 0;
    } else {
      queue_wait_[i] = start - due;
      ahead = std::max(ahead, i + 1);
      while (ahead < n &&
             wall_t0 + (in_.stream[ahead].client_recv - first_recv) <= start) {
        ++ahead;
      }
      backlog_max_ = std::max(backlog_max_, ahead - i);
    }

    const std::string& line = in_.lines[i];
    offset += line.size() + 1;
    const auto span = SpanFromJson(line);
    if (!span) {
      ++decode_failures_;
      latency_[i] = NowNs() - due;
      busy_ns_ += NowNs() - start;
      continue;
    }
    if (!traced_) {
      weaver.Ingest(*span);
      committer.OnSpan(*span);
      watermark = std::max(watermark, span->client_send);
      const std::vector<WindowResult> results = weaver.Advance(watermark);
      committer.OnResults(results);
      latency_[i] = NowNs() - due;
      NoteResults(results);
    } else {
      const std::int64_t t1 = NowNs();
      weaver.Ingest(*span);
      const std::int64_t t2 = NowNs();
      buffer_spans_max_ = std::max(buffer_spans_max_, weaver.buffered());
      buffer_bytes_max_ = std::max(buffer_bytes_max_, weaver.buffered_bytes());
      const std::int64_t t3 = NowNs();
      committer.OnSpan(*span);
      const std::int64_t t4 = NowNs();
      pending_max_ = std::max(pending_max_, committer.pending_spans());
      watermark = std::max(watermark, span->client_send);
      const std::int64_t t5 = NowNs();
      const std::vector<WindowResult> results = weaver.Advance(watermark);
      const std::int64_t t6 = NowNs();
      prov_pending_max_ =
          std::max(prov_pending_max_, p_->ledger.pending_events());
      const std::int64_t t7 = NowNs();
      const std::size_t committed = committer.OnResults(results);
      const std::int64_t t8 = NowNs();
      latency_[i] = t8 - due;
      NoteResults(results);
      const std::int64_t req = static_cast<std::int64_t>(i);
      const std::uint32_t root = tr_.Add("pipeline.span", 0, req, start, 0);
      tr_.Add("trace.decode", root, req, start, t1);
      tr_.Add("core.ingest", root, req, t1, t2);
      tr_.Add("store.onspan", root, req, t3, t4);
      const std::uint32_t adv = tr_.Add("core.advance", root, req, t5, t6);
      CloseSpans(adv, req, t6, results);
      tr_.Add("store.onresults", root, req, t7, t8);
      tr_.SetEnd(root, NowNs());
      layer_ns_[0] += t1 - start;
      layer_ns_[1] += t2 - t1;
      layer_ns_[2] += t4 - t3;
      layer_ns_[3] += t6 - t5;
      layer_ns_[4] += t8 - t7;
      if (span->IsRoot()) roots_.emplace_back(span->id, due);
      if (committed > 0) CheckFreshness(t8);
    }
    if (++since_checkpoint >= kCheckpointEvery) {
      since_checkpoint = 0;
      Checkpoint(offset, checkpoints++);
    }
    const std::int64_t end = NowNs();
    busy_ns_ += end - start;
    // Outside the busy time; spans that fall due meanwhile wait for it.
    if (end >= next_calib) {
      calib_ms_.push_back(CalibrationSampleMs());
      next_calib = end + kCalibEveryNs;
    }
  }

  // End of stream: flush, finalize, seal and a final checkpoint.
  const std::int64_t flush_start = NowNs();
  const std::vector<WindowResult> tail = weaver.Flush();
  const std::int64_t f1 = NowNs();
  committer.OnResults(tail);
  const std::int64_t f2 = NowNs();
  committer.Finalize();
  const std::int64_t f3 = NowNs();
  if (!p_->store->Seal(&err)) Fail("checkpoints", "final seal: " + err);
  const std::int64_t f4 = NowNs();
  NoteResults(tail);
  if (traced_) {
    const std::uint32_t root =
        tr_.Add("pipeline.flush", 0, static_cast<std::int64_t>(n),
                flush_start, f4);
    const std::uint32_t fl = tr_.Add("core.flush", root, 0, flush_start, f1);
    CloseSpans(fl, 0, f1, tail);
    tr_.Add("store.onresults", root, 0, f1, f2);
    tr_.Add("store.finalize", root, 0, f2, f3);
    tr_.Add("store.seal", root, 0, f3, f4);
  }
  Checkpoint(offset, checkpoints++);
  const std::int64_t stream_end = NowNs();
  busy_ns_ += stream_end - flush_start;
  if (traced_) CheckFreshness(stream_end);
  mem_peak_mb_ =
      static_cast<double>(StatusKb("VmHWM") - rss_start_kb) / 1024.0;
  if (!ckpt_ok_) Fail("checkpoints", "a checkpoint write failed");

  // Reads: stop the concurrent clients, or probe the finished store.
  if (reads == nullptr) {
    reads = std::make_unique<QueryLoad>(qctx, seed_);
    std::this_thread::sleep_for(std::chrono::duration<double>(kProbeSeconds));
  }
  reads->Stop();

  out_.fingerprint = Fingerprint(weaver.assignment());
  const double accuracy =
      100.0 * Evaluate(in_.truth, weaver.assignment()).TraceAccuracy();
  out_.metrics["trace_accuracy"] = accuracy;
  if (accuracy < w_.accuracy_floor) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "trace accuracy %.2f%% below %.0f%%",
                  accuracy, w_.accuracy_floor);
    Fail("accuracy_floor", buf);
  }
  CheckCommitted();
  Metrics(reads->results(), stream_end - wall_t0);
  p_.reset();
  return std::move(out_);
}

/// Self time per span (duration minus its children), summed by span name
/// and by layer (the name's first component; the bench loop's own
/// `pipeline.*` roots are layer `drv`).
struct SelfTimes {
  /// Span name -> (count, self ns).
  std::map<std::string, std::pair<std::size_t, std::int64_t>> by_name;
  std::map<std::string, std::int64_t> by_layer;
  std::int64_t roots_ns = 0;  ///< Pipeline-thread root spans.
};

SelfTimes ComputeSelfTimes(const std::vector<TraceSpan>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const TraceSpan& s : spans) {
    if (s.parent > 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  SelfTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    const std::string name = s.name;
    const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
    auto& row = t.by_name[name];
    ++row.first;
    row.second += self;
    std::string layer = name.substr(0, name.find('.'));
    if (layer == "pipeline") layer = "drv";
    t.by_layer[layer] += self;
    if (s.parent == 0) t.roots_ns += s.end_ns - s.start_ns;
  }
  return t;
}

void Pass::Metrics(const std::vector<ClientResult>& clients,
                   std::int64_t stream_wall_ns) {
  auto& m = out_.metrics;
  const std::size_t n = in_.lines.size();
  const double spans = static_cast<double>(n);

  std::vector<std::int64_t> qlat;
  std::size_t sent = 0, failed = 0, mismatched = 0;
  std::int64_t qbegin = std::numeric_limits<std::int64_t>::max();
  std::int64_t qend = 0;
  for (const ClientResult& c : clients) {
    qlat.insert(qlat.end(), c.latency_ns.begin(), c.latency_ns.end());
    sent += c.sent;
    failed += c.failed;
    mismatched += c.mismatched;
    qbegin = std::min(qbegin, c.begin_ns);
    qend = std::max(qend, c.end_ns);
    if (c.failed > 0 || c.mismatched > 0) Fail("queries", c.problem);
  }
  if (sent == 0) Fail("queries", "no queries completed");

  const obs::RegistrySnapshot snap = p_->registry.Snapshot();
  const OnlineTraceWeaver::Stats& st = p_->weaver->stats();
  out_.latency_samples = latency_.size();
  out_.query_samples = qlat.size();
  out_.attempted = n + sent;
  out_.failed = decode_failures_ + st.admission_drops + st.spans_shed + failed;

  // What a user of serve sees.
  const double raw_capacity = spans / (static_cast<double>(busy_ns_) / 1e9);
  m["setup_s"] = Median(setup_s_);
  m["capacity_sps"] = raw_capacity * Median(calib_ms_) / kCalibRefMs;
  m["span_latency_p50_ms"] = Ms(Quantile(latency_, 0.50));
  m["span_latency_p99_ms"] = Ms(Quantile(latency_, 0.99));
  m["mem_peak_mb"] = mem_peak_mb_;
  m["query_p50_ms"] = Ms(Quantile(qlat, 0.50));
  m["query_p99_ms"] = Ms(Quantile(qlat, 0.99));
  const std::int64_t query_ns = std::max<std::int64_t>(1, qend - qbegin);
  m["query_qps"] =
      static_cast<double>(sent) / (static_cast<double>(query_ns) / 1e9);

  // Per layer. Counts and registry values exist in every pass; the
  // timings split by call exist only in the traced pass.
  m["trace.decode_us_per_span"] = Us(layer_ns_[0]) / spans;
  m["core.ingest_us_per_span"] = Us(layer_ns_[1]) / spans;
  m["store.onspan_us_per_span"] = Us(layer_ns_[2]) / spans;
  m["core.advance_us_per_span"] = Us(layer_ns_[3]) / spans;
  m["store.onresults_us_per_span"] = Us(layer_ns_[4]) / spans;
  for (const char* stage : kStages) {
    m[std::string("core.stage.") + stage + "_ms"] =
        Ms(snap.Value("tw_stage_wall_ns_total",
                      std::string("stage=\"") + stage + "\""));
  }
  m["core.window_close_ms_p50"] = Ms(Quantile(close_ns_, 0.5));
  m["core.window_close_ms_max"] = Ms(Max(close_ns_));
  m["core.windows_closed"] = st.windows_closed;
  m["core.graft_ms"] = Ms(graft_ns_);
  m["core.late_spans"] = st.late_spans;
  m["core.parents_committed"] = st.parents_committed;
  m["core.buffer_spans_max"] = buffer_spans_max_;
  m["core.buffer_bytes_max"] = buffer_bytes_max_;

  m["store.pending_spans_max"] = pending_max_;
  m["store.traces_committed"] = p_->committer->committed();
  m["store.duplicates"] = snap.Value("tw_store_duplicate_commits_total");
  m["store.sampler_kept"] = p_->sampler ? p_->sampler->kept() : 0;
  m["store.sampler_shed"] = p_->sampler ? p_->sampler->shed() : 0;
  m["store.freshness_ms_p50"] = Ms(Quantile(freshness_, 0.5));
  m["store.freshness_ms_p99"] = Ms(Quantile(freshness_, 0.99));
  const double hits = snap.Value("tw_store_cache_hits_total");
  const double lookups = hits + snap.Value("tw_store_cache_misses_total");
  m["store.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  m["store.disk_reads"] = snap.Value("tw_store_segment_reads_total");
  m["store.open_s"] = Median(open_s_);

  const double nck =
      static_cast<double>(std::max<std::size_t>(1, ckpt_ns_.size()));
  m["ckpt.ms_p50"] = Ms(Quantile(ckpt_ns_, 0.5));
  m["ckpt.ms_max"] = Ms(Max(ckpt_ns_));
  m["ckpt.count"] = ckpt_ns_.size();
  m["ckpt.bytes_mean"] = ckpt_bytes_ / nck;
  m["ckpt.seal_ms"] = Ms(ckpt_phase_ns_[0]) / nck;
  m["ckpt.committer_ms"] = Ms(ckpt_phase_ns_[1]) / nck;
  m["ckpt.sampler_ms"] = Ms(ckpt_phase_ns_[2]) / nck;
  m["ckpt.weaver_ms"] = Ms(ckpt_phase_ns_[3]) / nck;

  m["obs.prov_events"] = p_->ledger.recorded();
  m["obs.prov_pending_max"] = prov_pending_max_;

  // Handler-side times per route, and what the HTTP layer adds on top.
  std::vector<std::int64_t> by_route[kRouteCount];
  std::vector<std::int64_t> handle_all;
  {
    const std::lock_guard<std::mutex> lock(handle_log_.mu);
    for (const HandleLog::Sample& s : handle_log_.samples) {
      by_route[s.route].push_back(s.end_ns - s.start_ns);
      handle_all.push_back(s.end_ns - s.start_ns);
    }
  }
  for (int r = 0; r < kRouteCount; ++r) {
    m[std::string("serve.handle_us_p50.") + kRouteNames[r]] =
        Us(Quantile(by_route[r], 0.5));
    m[std::string("serve.handle_us_p99.") + kRouteNames[r]] =
        Us(Quantile(by_route[r], 0.99));
  }
  m["serve.http_overhead_us_p50"] =
      traced_ ? Us(Quantile(qlat, 0.5) - Quantile(handle_all, 0.5)) : 0.0;
  m["serve.queries"] = sent;
  m["serve.errors"] = failed + mismatched;

  m["drv.busy_ratio"] =
      static_cast<double>(busy_ns_) / static_cast<double>(stream_wall_ns);
  m["drv.backlog_max_spans"] = backlog_max_;
  m["drv.queue_wait_ms_p99"] = Ms(Quantile(queue_wait_, 0.99));
  m["drv.gen_late_us_p99"] = Us(Quantile(gen_late_, 0.99));
  m["drv.gen_s"] = in_.gen_s;
  m["drv.calib_ms"] = Median(calib_ms_);
  m["drv.capacity_raw_sps"] = raw_capacity;

  if (!traced_) return;
  // Self times; the pipeline thread's busy time not under a root span is
  // the unaccounted share.
  std::vector<TraceSpan>& all = tr_.spans();
  const SelfTimes self = ComputeSelfTimes(all);
  for (const char* layer : {"drv", "trace", "core", "store", "ckpt"}) {
    const auto it = self.by_layer.find(layer);
    m[std::string(layer) + ".self_ms"] =
        Ms(it == self.by_layer.end() ? 0 : it->second);
  }
  m["drv.unaccounted_ratio"] =
      static_cast<double>(busy_ns_ - self.roots_ns) /
      static_cast<double>(busy_ns_);
  std::fprintf(stderr,
               "%s: self time on the pipeline thread (busy %.1f ms)\n"
               "  %-22s %9s %12s %8s\n",
               w_.name, Ms(busy_ns_), "span", "count",
               "self_ms", "busy%");
  std::vector<std::pair<std::int64_t, std::string>> rows;
  for (const auto& [name, row] : self.by_name) {
    rows.emplace_back(row.second, name);
  }
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [ns, name] : rows) {
    std::fprintf(stderr, "  %-22s %9zu %12.1f %7.1f%%\n", name.c_str(),
                 self.by_name.at(name).first, Ms(ns),
                 100.0 * static_cast<double>(ns) /
                     static_cast<double>(busy_ns_));
  }
  std::fprintf(stderr, "  %-22s %9s %12.1f %7.1f%%\n", "(unaccounted)", "",
               Ms(busy_ns_ - self.roots_ns),
               100.0 * m["drv.unaccounted_ratio"]);
  for (const ClientResult& c : clients) {
    all.insert(all.end(), c.spans.begin(), c.spans.end());
  }
  {
    const std::lock_guard<std::mutex> lock(handle_log_.mu);
    for (const HandleLog::Sample& s : handle_log_.samples) {
      all.push_back({"serve.handle", 0, s.start_ns, s.end_ns, s.route});
    }
  }
  out_.spans = std::move(all);
}

// ---------------------------------------------------------------------
// Output.

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<TraceSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"req\":%" PRId64 "}\n",
                 i + 1, s.parent, s.name, s.start_ns, s.end_ns, s.req);
  }
  return std::fclose(f) == 0;
}

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string json;
  std::string trace;
  std::string work_dir;
  bool keep = false;
  bool list_metrics = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&](const char* key) -> const char* {
      const std::size_t k = std::strlen(key);
      return a.compare(0, k, key) == 0 ? a.c_str() + k : nullptr;
    };
    if (const char* v = val("--workload=")) {
      f->workload = v;
    } else if (const char* v = val("--seed=")) {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seconds=")) {
      f->seconds = std::atof(v);
    } else if (const char* v = val("--json=")) {
      f->json = v;
    } else if (const char* v = val("--trace=")) {
      f->trace = v;
    } else if (const char* v = val("--work-dir=")) {
      f->work_dir = v;
    } else if (a == "--keep") {
      f->keep = true;
    } else if (a == "--list-metrics") {
      f->list_metrics = true;
    } else {
      std::fprintf(stderr, "bench_serve: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_serve --workload=W [--seed=N] [--seconds=S] "
               "[--json=FILE] [--trace=FILE] [--work-dir=DIR] [--keep]\n"
               "       bench_serve --list-metrics\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Writes the files the parity check needs to rerun this stream through
/// `traceweaver serve`: the stream, the call graph and the equivalent flags.
bool WriteParityInputs(const std::string& work, const Inputs& in,
                       const ServeConfig& cfg) {
  {
    std::ofstream out(work + "/stream.jsonl", std::ios::binary);
    for (const std::string& line : in.lines) out << line << '\n';
    if (!out) return false;
  }
  {
    std::ofstream out(work + "/graph.txt", std::ios::binary);
    WriteCallGraph(out, in.graph);
    if (!out) return false;
  }
  std::ofstream out(work + "/serve_flags.txt");
  out << "--threads=1\n--window-ms=500\n--margin-ms=100\n--final\n"
      << "--store-segment-traces=" << kSegmentTraces << "\n"
      << "--cache-traces=" << kCacheTraces << "\n"
      << "--checkpoint-every=" << kCheckpointEvery << "\n";
  if (cfg.skew_correct) out << "--skew-correct\n";
  if (cfg.sampling_rate < 1.0) {
    out << "--sampling-rate=" << cfg.sampling_rate << "\n";
  }
  if (cfg.tail_keep >= 0.0) out << "--tail-sample=" << cfg.tail_keep << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  if (flags.list_metrics) {
    for (const MetricDef& m : kMetrics) {
      std::printf("%s %s %s\n", m.name, m.unit,
                  m.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer");
    }
    return 0;
  }
  const Workload* w = FindWorkload(flags.workload);
  if (w == nullptr || flags.seconds <= 0.0) return Usage();
  const bool traced = !flags.trace.empty();

  const std::string work =
      flags.work_dir.empty()
          ? "bench_serve.work." + std::to_string(::getpid())
          : flags.work_dir;
  // Only the entries this binary creates are cleared, never the directory.
  const char* kEntries[] = {"seed",        "store",           "ckpt",
                            "stream.jsonl", "graph.txt", "serve_flags.txt"};
  std::error_code ec;
  for (const char* e : kEntries) fs::remove_all(work + "/" + e, ec);
  fs::create_directories(work + "/seed", ec);
  if (ec) {
    std::fprintf(stderr, "bench_serve: cannot create %s\n", work.c_str());
    return 1;
  }

  Inputs in;
  std::string err;
  if (!GenerateInputs(*w, flags.seed, flags.seconds, work + "/seed", &in,
                      &err)) {
    std::fprintf(stderr, "bench_serve: input generation failed: %s\n",
                 err.c_str());
    return 1;
  }
  if (flags.keep && !WriteParityInputs(work, in, ConfigFor(*w))) {
    std::fprintf(stderr, "bench_serve: cannot write parity inputs\n");
    return 1;
  }
  std::fprintf(stderr,
               "%s: seed %" PRIu64 ", %.1f s stream, %zu spans, %zu seed "
               "traces in %zu segments (generated in %.2f s)\n",
               w->name, flags.seed, flags.seconds, in.lines.size(),
               in.seed.ids.size(), in.seed.segments, in.gen_s);

  PassResult result = Pass(*w, in, work, flags.seed, false, kSetupReps).Run();
  std::vector<Failure> failures = result.failures;
  Kind kind = Kind::kEndToEnd;
  if (traced) {
    PassResult reference = std::move(result);
    result = Pass(*w, in, work, flags.seed, true, 1).Run();
    failures.insert(failures.end(), result.failures.begin(),
                    result.failures.end());
    if (result.fingerprint != reference.fingerprint) {
      failures.push_back(
          {"fingerprint", "traced and untraced passes assigned differently"});
    }
    result.metrics["drv.trace_overhead_ratio"] =
        reference.metrics["capacity_sps"] / result.metrics["capacity_sps"] -
        1.0;
    result.attempted += reference.attempted;
    result.failed += reference.failed;
    kind = Kind::kLayer;
    if (!WriteTrace(flags.trace, result.spans)) {
      failures.push_back({"trace_file", "cannot write " + flags.trace});
    }
  }

  // Emit exactly the catalogue's metrics of this run's kind.
  std::map<std::string, double> emitted;
  for (const MetricDef& m : kMetrics) {
    if (m.kind != kind) continue;
    const auto it = result.metrics.find(m.name);
    if (it == result.metrics.end()) {
      failures.push_back(
          {"metric_catalogue", std::string("metric not measured: ") + m.name});
      continue;
    }
    emitted[m.name] = it->second;
  }
  for (const auto& [name, value] : result.metrics) {
    if (FindMetric(name) == nullptr) {
      failures.push_back(
          {"metric_catalogue", "metric not in the catalogue: " + name});
    }
  }

  const bool correct = failures.empty();
  for (const Failure& f : failures) {
    std::fprintf(stderr, "%s: CHECK FAILED %s: %s\n", w->name,
                 f.check.c_str(), f.detail.c_str());
  }
  for (const auto& [name, value] : emitted) {
    std::printf("%s %s %.9g %s\n", w->name, name.c_str(), value,
                FindMetric(name)->unit);
  }
  std::printf("%s assign_fingerprint %s\n", w->name,
              result.fingerprint.c_str());
  std::fflush(stdout);

  if (!flags.json.empty()) {
    std::ofstream out(flags.json);
    char num[64];
    out << "{\"workload\":\"" << w->name << "\",\"seed\":" << flags.seed
        << ",\"seconds\":" << flags.seconds
        << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << result.attempted
        << ",\"failed\":" << result.failed << ",\"assign_fingerprint\":\""
        << result.fingerprint << "\",\"samples\":{\"span_latency\":"
        << result.latency_samples << ",\"query\":" << result.query_samples
        << "},\"failed_checks\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i > 0 ? "," : "") << "{\"check\":\""
          << JsonEscape(failures[i].check) << "\",\"detail\":\""
          << JsonEscape(failures[i].detail) << "\"}";
    }
    out << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : emitted) {
      std::snprintf(num, sizeof(num), "%.17g", value);
      out << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << num
          << ",\"unit\":\"" << FindMetric(name)->unit << "\"}";
      first = false;
    }
    out << "}}\n";
    if (!out) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   flags.json.c_str());
      return 1;
    }
  }

  if (!flags.keep) {
    for (const char* e : kEntries) fs::remove_all(work + "/" + e, ec);
    fs::remove(work, ec);  // Only when nothing else is left in it.
  }
  return correct ? 0 : 1;
}
