// A small long-running HTTP/1.1 server for the trace query service
// (DESIGN.md §4h) -- the collector's HttpStreamParser run in *server*
// mode: the same incremental framing parser that assembles captured
// request streams also parses the query API's inbound requests, so the
// serving layer inherits its hardening (bounded pending buffer, hostile
// framing -> sticky error) for free.
//
// Architecture: one accept thread plus a fixed pool of connection
// workers draining an accepted-socket queue (the connection/worker loop
// of a classic pre-threaded server). Each worker owns one connection at
// a time: feed bytes to the parser, dispatch complete requests to the
// handler, write the response, keep-alive until the peer closes, errors,
// or times out. Responses are either fixed-length or chunked; chunked
// responses stream incrementally (one chunk per result record), which is
// how `GET /traces` returns arbitrarily large result sets in flat
// memory.
//
// Linux-only (POSIX sockets); binds 127.0.0.1 by default. Port 0 picks
// an ephemeral port, reported by port() after Start() -- tests use this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace traceweaver::serve {

struct HttpRequest {
  std::string method;  ///< Uppercase as sent ("GET").
  std::string target;  ///< Raw request target ("/traces?grade=A").
  std::string path;    ///< Decoded path without the query string.
  /// Decoded query parameters in order of appearance.
  std::vector<std::pair<std::string, std::string>> params;

  /// First value of a query parameter; empty when absent.
  std::string Param(std::string_view key) const;
  bool HasParam(std::string_view key) const;
};

/// Per-request response writer. Exactly one of Send() or the
/// BeginChunked()/Chunk()/EndChunked() sequence must be used; the server
/// sends a 500 if the handler produced nothing.
class HttpResponse {
 public:
  /// Writes to `fd`, a connected stream socket: the server passes each
  /// request's connection; a handler can also be driven over one end of a
  /// socketpair.
  explicit HttpResponse(int fd) : fd_(fd) {}

  /// One-shot fixed-length response.
  void Send(int status, std::string_view content_type,
            std::string_view body);

  /// Starts a chunked response; Chunk() streams each piece to the socket
  /// immediately.
  void BeginChunked(int status, std::string_view content_type);
  void Chunk(std::string_view data);
  void EndChunked();

  bool sent() const { return sent_; }
  int status() const { return status_; }
  std::size_t bytes_written() const { return bytes_; }

 private:
  friend class HttpServer;
  bool WriteAll(std::string_view data);

  int fd_ = -1;
  bool sent_ = false;
  bool chunked_ = false;
  bool ok_ = true;  ///< Socket still writable.
  int status_ = 0;
  std::size_t bytes_ = 0;
};

using HttpHandler = std::function<void(const HttpRequest&, HttpResponse&)>;

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; see port() after Start().
  std::size_t worker_threads = 4;
  /// Per-connection socket read timeout; an idle keep-alive connection is
  /// closed after this.
  int idle_timeout_ms = 5000;
  /// Accepted connections queued ahead of the workers; beyond this the
  /// accept loop closes new connections immediately (load shedding).
  std::size_t max_queued_connections = 128;
  /// Metric sink for the connection-level tw_http_* metrics. Not owned.
  obs::MetricsRegistry* metrics = nullptr;
};

class HttpServer {
 public:
  HttpServer(HttpHandler handler, HttpServerOptions options = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the accept/worker threads. Returns false
  /// with a reason in *error (already-running counts as success).
  bool Start(std::string* error = nullptr);

  /// Stops accepting, drains workers and joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }
  /// The bound port (resolves option port 0); 0 before Start().
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  HttpHandler handler_;
  HttpServerOptions options_;
  std::atomic<int> listen_fd_{-1};  ///< Raced by Stop() vs AcceptLoop().
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;

  obs::Counter connections_;
  obs::Counter connections_shed_;
  obs::Counter parse_errors_;
  obs::Counter bytes_sent_;
  obs::Gauge active_connections_;
};

/// Decodes %XX and '+' in a URL component; malformed escapes are kept
/// literally (hostile input must not make decoding fail).
std::string UrlDecode(std::string_view s);

/// Splits a request target into path + decoded query parameters.
void ParseTarget(std::string_view target, HttpRequest& request);

}  // namespace traceweaver::serve
