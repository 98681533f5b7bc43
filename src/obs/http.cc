#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/strings.h"
#include "obs/export.h"

namespace xmodel::obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;

// Splits `text` at the first occurrence of `sep`, returning the prefix and
// leaving the rest (or empty) in `*rest`.
std::string_view SplitOnce(std::string_view text, char sep,
                           std::string_view* rest) {
  const size_t pos = text.find(sep);
  if (pos == std::string_view::npos) {
    *rest = {};
    return text;
  }
  *rest = text.substr(pos + 1);
  return text.substr(0, pos);
}

}  // namespace

std::string_view HttpRequest::QueryOr(std::string_view key,
                                      std::string_view fallback) const {
  for (const auto& [k, v] : query) {
    if (k == key) return v;
  }
  return fallback;
}

const char* HttpServer::StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

HttpServer::HttpServer()
    : requests_(&MetricsRegistry::Global().GetCounter("obs.http.requests")),
      bytes_(&MetricsRegistry::Global().GetCounter("obs.http.bytes")) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

common::Status HttpServer::Start(int port) {
  if (running_.load(std::memory_order_acquire)) {
    return common::Status::FailedPrecondition("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return common::Status::Internal(
        common::StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::FailedPrecondition(
        common::StrCat("bind 127.0.0.1:", port, ": ", std::strerror(err)));
  }
  if (::listen(listen_fd_, /*backlog=*/16) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::Internal(
        common::StrCat("listen: ", std::strerror(err)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return common::Status::OK();
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  // Wake the accept loop: shutdown makes a blocked accept return, and the
  // poll timeout bounds the wait either way.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (stop_.load(std::memory_order_acquire)) return;
    if (ready <= 0) continue;  // Timeout or EINTR: re-check the stop flag.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    // A bare GET line with no headers is legal; stop at the first newline
    // too so single-line probes (and tests) do not hang until timeout.
    if (!request.empty() && request.find('\n') != std::string::npos) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }

  HttpResponse response = Dispatch(request);
  requests_->Increment();

  std::string wire = common::StrCat(
      "HTTP/1.1 ", response.status, " ", StatusText(response.status),
      "\r\nContent-Type: ", response.content_type,
      "\r\nContent-Length: ", response.body.size(),
      "\r\nConnection: close\r\n\r\n");
  wire += response.body;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  bytes_->Increment(sent);
}

HttpResponse HttpServer::Dispatch(std::string_view request_text) {
  // Request line: METHOD SP TARGET SP HTTP/x.y
  size_t eol = request_text.find('\n');
  if (eol == std::string_view::npos) eol = request_text.size();
  std::string_view line = request_text.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  std::string_view rest;
  const std::string_view method = SplitOnce(line, ' ', &rest);
  const std::string_view target = SplitOnce(rest, ' ', &rest);
  const std::string_view version = rest;
  if (method.empty() || target.empty() || target[0] != '/' ||
      version.rfind("HTTP/", 0) != 0) {
    return HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  }
  if (method != "GET") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "only GET is supported\n"};
  }

  HttpRequest request;
  request.method = std::string(method);
  std::string_view query;
  request.path = std::string(SplitOnce(target, '?', &query));
  while (!query.empty()) {
    const std::string_view pair = SplitOnce(query, '&', &query);
    std::string_view value;
    const std::string_view key = SplitOnce(pair, '=', &value);
    if (!key.empty()) {
      request.query.emplace_back(std::string(key), std::string(value));
    }
  }

  const auto it = handlers_.find(request.path);
  if (it == handlers_.end()) {
    return HttpResponse{404, "text/plain; charset=utf-8",
                        common::StrCat("no handler for ", request.path, "\n")};
  }
  return it->second(request);
}

ObsServer::ObsServer() : ObsServer(Options()) {}

ObsServer::ObsServer(Options options) : options_(options) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricsRegistry::Global();
  }
  if (options_.events == nullptr) options_.events = &EventLog::Global();
  if (options_.clock == nullptr) {
    options_.clock = common::MonotonicClock::Real();
  }

  http_.Handle("/", [](const HttpRequest&) {
    return HttpResponse{
        200, "text/plain; charset=utf-8",
        "xmodel live observability plane\n"
        "  /metrics        Prometheus exposition text\n"
        "  /healthz        liveness + watchdog verdict (JSON)\n"
        "  /progress       latest checker progress (JSON)\n"
        "  /events?n=K     newest K structured events (JSONL)\n"
        "  /quitquitquit   request shutdown\n"};
  });
  http_.Handle("/metrics",
               [this](const HttpRequest& r) { return Metrics(r); });
  http_.Handle("/healthz",
               [this](const HttpRequest& r) { return Healthz(r); });
  http_.Handle("/progress",
               [this](const HttpRequest& r) { return Progress(r); });
  http_.Handle("/events", [this](const HttpRequest& r) { return Events(r); });
  http_.Handle("/quitquitquit", [this](const HttpRequest&) {
    quit_.store(true, std::memory_order_release);
    return HttpResponse{200, "text/plain; charset=utf-8", "quitting\n"};
  });
}

common::Status ObsServer::Start(int port) {
  start_ns_ = options_.clock->NowNanos();
  common::Status status = http_.Start(port);
  if (status.ok()) {
    options_.events->Emit(
        EventSeverity::kInfo, "obs", "serve.started",
        {{"port", common::StrCat(http_.port())}});
  }
  return status;
}

void ObsServer::Stop() { http_.Stop(); }

void ObsServer::WaitForQuit(int64_t timeout_ms) {
  const int64_t deadline_ns =
      options_.clock->NowNanos() + timeout_ms * 1'000'000;
  while (!quit_requested() && options_.clock->NowNanos() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

HttpResponse ObsServer::Metrics(const HttpRequest&) {
  return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                      ToPrometheusText(options_.registry->Snapshot())};
}

HttpResponse ObsServer::Healthz(const HttpRequest&) {
  const bool stalled =
      options_.watchdog != nullptr && options_.watchdog->Poll();
  common::Json doc = common::Json::MakeObject();
  doc.Set("schema", common::Json::Str("xmodel.health.v1"));
  doc.Set("status", common::Json::Str(stalled ? "stalled" : "ok"));
  doc.Set("uptime_seconds",
          common::Json::Double(
              static_cast<double>(options_.clock->NowNanos() - start_ns_) *
              1e-9));
  common::Json wd = common::Json::MakeObject();
  wd.Set("armed", common::Json::Bool(options_.watchdog != nullptr));
  if (options_.watchdog != nullptr) {
    wd.Set("stalled", common::Json::Bool(stalled));
    wd.Set("ms_since_heartbeat",
           common::Json::Int(options_.watchdog->ms_since_heartbeat()));
    wd.Set("stall_timeout_ms",
           common::Json::Int(options_.watchdog->stall_timeout_ms()));
    wd.Set("stalls_observed",
           common::Json::Int(
               static_cast<int64_t>(options_.watchdog->stalls_observed())));
  }
  doc.Set("watchdog", std::move(wd));
  return HttpResponse{stalled ? 503 : 200, "application/json",
                      doc.Dump() + "\n"};
}

HttpResponse ObsServer::Progress(const HttpRequest&) {
  common::Json doc = options_.progress != nullptr
                         ? options_.progress->ToJson()
                         : ProgressTracker().ToJson();
  return HttpResponse{200, "application/json", doc.Dump() + "\n"};
}

HttpResponse ObsServer::Events(const HttpRequest& request) {
  size_t n = 0;
  if (!common::ParseInteger(request.QueryOr("n", "100"), size_t{0},
                            std::numeric_limits<size_t>::max(), &n)) {
    return HttpResponse{400, "text/plain; charset=utf-8",
                        "malformed n= query parameter\n"};
  }
  return HttpResponse{
      200, "application/x-ndjson",
      EventLog::ToJsonl(options_.events->Tail(n))};
}

}  // namespace xmodel::obs
