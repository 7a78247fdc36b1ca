#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "collector/http_parser.h"

namespace traceweaver::serve {
namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string StatusAndHeaders(int status, std::string_view content_type,
                             bool chunked, std::size_t content_length) {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(status);
  head += ' ';
  head += ReasonPhrase(status);
  head += "\r\nContent-Type: ";
  head += content_type;
  if (chunked) {
    head += "\r\nTransfer-Encoding: chunked";
  } else {
    head += "\r\nContent-Length: ";
    head += std::to_string(content_length);
  }
  head += "\r\nConnection: keep-alive\r\n\r\n";
  return head;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = HexValue(s[i + 1]);
      const int lo = HexValue(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>((hi << 4) | lo);
        i += 2;
      } else {
        out += '%';
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

void ParseTarget(std::string_view target, HttpRequest& request) {
  request.target = std::string(target);
  const std::size_t q = target.find('?');
  request.path = UrlDecode(target.substr(0, q));
  if (q == std::string_view::npos) return;
  std::string_view rest = target.substr(q + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    request.params.emplace_back(
        UrlDecode(pair.substr(0, eq)),
        eq == std::string_view::npos ? std::string()
                                     : UrlDecode(pair.substr(eq + 1)));
  }
}

std::string HttpRequest::Param(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return {};
}

bool HttpRequest::HasParam(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return true;
  }
  return false;
}

bool HttpResponse::WriteAll(std::string_view data) {
  if (!ok_) return false;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      ok_ = false;
      return false;
    }
    off += static_cast<std::size_t>(n);
    bytes_ += static_cast<std::size_t>(n);
  }
  return true;
}

void HttpResponse::Send(int status, std::string_view content_type,
                        std::string_view body) {
  if (sent_) return;
  sent_ = true;
  status_ = status;
  std::string out =
      StatusAndHeaders(status, content_type, /*chunked=*/false, body.size());
  out += body;
  WriteAll(out);
}

void HttpResponse::BeginChunked(int status, std::string_view content_type) {
  if (sent_) return;
  sent_ = true;
  chunked_ = true;
  status_ = status;
  WriteAll(StatusAndHeaders(status, content_type, /*chunked=*/true, 0));
}

void HttpResponse::Chunk(std::string_view data) {
  if (!chunked_ || data.empty()) return;
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  std::string out = size_line;
  out += data;
  out += "\r\n";
  WriteAll(out);
}

void HttpResponse::EndChunked() {
  if (!chunked_) return;
  chunked_ = false;
  WriteAll("0\r\n\r\n");
}

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    connections_ = reg.GetCounter("tw_http_connections_total", "",
                                  "Connections accepted", "1");
    connections_shed_ =
        reg.GetCounter("tw_http_connections_shed_total", "",
                       "Connections closed unserved (worker queue full)",
                       "1");
    parse_errors_ = reg.GetCounter("tw_http_request_parse_errors_total", "",
                                   "Connections dropped on malformed "
                                   "request framing",
                                   "1");
    bytes_sent_ = reg.GetCounter("tw_http_bytes_sent_total", "",
                                 "Response bytes written", "bytes");
    active_connections_ =
        reg.GetGauge("tw_http_active_connections", "",
                     "Connections currently held by workers", "1");
  }
}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(std::string* error) {
  if (running_.load()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) *error = "bad bind address " + options_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = "cannot bind/listen on " + options_.bind_address + ":" +
               std::to_string(options_.port);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const std::size_t workers = std::max<std::size_t>(1, options_.worker_threads);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void HttpServer::Stop() {
  {
    // Cleared under the queue lock: a worker between its predicate check
    // and its wait would otherwise miss the notify_all below and never
    // return from its join.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_.exchange(false)) return;
  }
  // Closing the listen socket unblocks accept(); the queue drains with
  // sentinel wakeups.
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (int fd : queue_) ::close(fd);
  queue_.clear();
}

void HttpServer::AcceptLoop() {
  while (running_.load()) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) break;  // Stop() already closed the socket.
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listen socket closed (Stop) or fatal.
    }
    connections_.Inc();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() >= options_.max_queued_connections) {
        connections_shed_.Inc();
        ::close(fd);
        continue;
      }
      queue_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || !running_.load(); });
      if (queue_.empty()) return;  // Stopping.
      fd = queue_.front();
      queue_.pop_front();
    }
    active_connections_.Add(1);
    ServeConnection(fd);
    active_connections_.Add(-1);
  }
}

void HttpServer::ServeConnection(int fd) {
  timeval tv{};
  tv.tv_sec = options_.idle_timeout_ms / 1000;
  tv.tv_usec = (options_.idle_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  collector::HttpStreamParser parser;
  char buf[8192];
  bool open = true;
  while (open && running_.load()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Peer closed, timeout, or error.
    parser.Feed(std::string_view(buf, static_cast<std::size_t>(n)), 0);
    if (parser.in_error()) {
      parse_errors_.Inc();
      HttpResponse response(fd);
      response.Send(400, "text/plain", "malformed request\n");
      bytes_sent_.Inc(response.bytes_written());
      break;
    }
    for (const collector::HttpMessage& message : parser.TakeMessages()) {
      HttpRequest request;
      if (!message.is_request) continue;
      request.method = message.method;
      ParseTarget(message.path, request);
      HttpResponse response(fd);
      handler_(request, response);
      if (!response.sent()) {
        response.Send(500, "text/plain", "handler produced no response\n");
      }
      bytes_sent_.Inc(response.bytes_written());
      if (!response.ok_) {
        open = false;
        break;
      }
    }
  }
  ::close(fd);
}

}  // namespace traceweaver::serve
