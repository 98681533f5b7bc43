#ifndef XMODEL_OBS_HTTP_H_
#define XMODEL_OBS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/watchdog.h"

namespace xmodel::obs {

/// A parsed request: GET line only (this server ignores headers and
/// bodies — scrape endpoints need neither). Query values are not
/// URL-decoded; the built-in endpoints only take small integers.
struct HttpRequest {
  std::string method;
  std::string path;  // Without the query string.
  std::vector<std::pair<std::string, std::string>> query;

  /// First value of `key`, or `fallback` when absent.
  std::string_view QueryOr(std::string_view key,
                           std::string_view fallback) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// A small dependency-free HTTP/1.1 server for the observability plane:
/// one listener thread running a blocking accept loop, one connection
/// served at a time, `Connection: close` on every response. Deliberately
/// bounded — requests are capped at 8 KB, reads carry a 2 s timeout, and
/// there is no keep-alive, pipelining, or thread-per-connection — because
/// the clients are `curl` and Prometheus scrapes, and the failure mode to
/// avoid is the obs plane competing with the checker for resources.
///
/// Binds to 127.0.0.1 only: this is an introspection socket, not a public
/// service. Malformed request lines get a 400 and never crash the server;
/// non-GET methods get 405; unregistered paths get 404.
///
/// Exports `obs.http.requests` (every request, any status) and
/// `obs.http.bytes` (response bytes written) to the global registry.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer();
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers an exact-path handler. Call before Start (the handler map
  /// is not guarded against concurrent mutation once the thread runs).
  void Handle(std::string path, Handler handler);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()) and spawns
  /// the listener thread.
  common::Status Start(int port);

  /// Stops the listener and joins the thread; idempotent.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  static const char* StatusText(int status);

 private:
  void Serve();
  void HandleConnection(int fd);
  HttpResponse Dispatch(std::string_view request_text);

  std::map<std::string, Handler, std::less<>> handlers_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  Counter* requests_;  // obs.http.requests
  Counter* bytes_;     // obs.http.bytes
};

/// The standard live-observability endpoints, wired over an HttpServer —
/// what `--serve=<port>` on the CLIs and benches stands up:
///
///   /metrics        Prometheus text from a fresh RegistrySnapshot
///   /healthz        xmodel.health.v1 JSON; 200, or 503 once the watchdog
///                   reports the run stalled
///   /progress       xmodel.progress.v1 JSON from the ProgressTracker
///   /events?n=K     newest K events (default 100) as JSONL
///   /quitquitquit   requests shutdown (ends WaitForQuit lingering)
///   /               a plain-text index of the above
class ObsServer {
 public:
  struct Options {
    MetricsRegistry* registry = nullptr;  // null = the global registry
    EventLog* events = nullptr;           // null = the global event log
    Watchdog* watchdog = nullptr;         // optional; /healthz says so
    ProgressTracker* progress = nullptr;  // optional; /progress all-zero
    common::MonotonicClock* clock = nullptr;  // uptime source
  };

  ObsServer();  // All-default options (global registry + event log).
  explicit ObsServer(Options options);

  common::Status Start(int port);
  void Stop();
  int port() const { return http_.port(); }

  bool quit_requested() const {
    return quit_.load(std::memory_order_acquire);
  }
  /// Blocks until /quitquitquit is hit or `timeout_ms` elapses — the
  /// `--serve-linger-ms` backend that keeps a finished CLI scrapeable.
  void WaitForQuit(int64_t timeout_ms);

 private:
  HttpResponse Metrics(const HttpRequest& request);
  HttpResponse Healthz(const HttpRequest& request);
  HttpResponse Progress(const HttpRequest& request);
  HttpResponse Events(const HttpRequest& request);

  Options options_;
  HttpServer http_;
  std::atomic<bool> quit_{false};
  int64_t start_ns_ = 0;
};

}  // namespace xmodel::obs

#endif  // XMODEL_OBS_HTTP_H_
