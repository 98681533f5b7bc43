#include "obs/http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/watchdog.h"
#include "specs/toy_specs.h"
#include "tlax/checker.h"
#include "tlax/spec.h"
#include "tlax/state.h"

namespace xmodel::obs {
namespace {

using common::FakeMonotonicClock;

// A minimal blocking HTTP client for 127.0.0.1: sends `raw` verbatim and
// returns everything the server writes back (the server always closes the
// connection after one response, so read-to-EOF is the framing).
std::string RawRequest(int port, const std::string& raw) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& target) {
  return RawRequest(port,
                    "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..." — the status code is the second token.
  size_t space = response.find(' ');
  if (space == std::string::npos) return -1;
  return std::atoi(response.c_str() + space + 1);
}

std::string BodyOf(const std::string& response) {
  size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

// The value of a Prometheus sample line "name value\n", or -1 when absent.
double PromValue(const std::string& body, const std::string& name) {
  size_t pos = 0;
  while ((pos = body.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || body[pos - 1] == '\n') {
      return std::atof(body.c_str() + pos + name.size() + 1);
    }
    ++pos;
  }
  return -1;
}

// A one-variable chain spec (x: 0 -> limit) whose action sleeps a little
// per expansion, so a full check spans many level barriers over enough
// wall time for a scraper to observe intermediate states. Observability
// must never change results, so the sleep lives in the spec, not the
// checker.
class SlowChainSpec : public tlax::Spec {
 public:
  explicit SlowChainSpec(int64_t limit) : variables_{"x"} {
    actions_.push_back(tlax::Action{
        "Step", [limit](const tlax::State& s, std::vector<tlax::State>* out) {
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
          if (s.var(0).int_value() < limit) {
            out->push_back(
                s.With(0, tlax::Value::Int(s.var(0).int_value() + 1)));
          }
        }});
    invariants_.push_back(tlax::Invariant{
        "True", [](const tlax::State&) { return true; }});
  }
  std::string name() const override { return "SlowChain"; }
  const std::vector<std::string>& variables() const override {
    return variables_;
  }
  std::vector<tlax::State> InitialStates() const override {
    return {tlax::State({tlax::Value::Int(0)})};
  }
  const std::vector<tlax::Action>& actions() const override {
    return actions_;
  }
  const std::vector<tlax::Invariant>& invariants() const override {
    return invariants_;
  }

 private:
  std::vector<std::string> variables_;
  std::vector<tlax::Action> actions_;
  std::vector<tlax::Invariant> invariants_;
};

TEST(HttpServerTest, ServesRegisteredPathsAndRejectsTheRest) {
  HttpServer server;
  server.Handle("/hello", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "hi " + std::string(request.QueryOr("name", "world"));
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  std::string ok = Get(server.port(), "/hello?name=checker");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_EQ(BodyOf(ok), "hi checker");
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);

  EXPECT_EQ(StatusOf(Get(server.port(), "/nope")), 404);
  EXPECT_EQ(StatusOf(RawRequest(
                server.port(),
                "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, MalformedRequestsGet400WithoutCrashing) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong"};
  });
  ASSERT_TRUE(server.Start(0).ok());

  // Raw garbage, a bare newline, and a truncated request line must all be
  // answered (or dropped) without taking the server down.
  EXPECT_EQ(StatusOf(RawRequest(server.port(), "garbage\r\n\r\n")), 400);
  EXPECT_EQ(StatusOf(RawRequest(server.port(), "\r\n\r\n")), 400);
  EXPECT_EQ(StatusOf(RawRequest(server.port(), "GET\r\n\r\n")), 400);

  // The server survives and still serves real requests.
  std::string ok = Get(server.port(), "/ping");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_EQ(BodyOf(ok), "pong");
  server.Stop();
}

TEST(ObsServerTest, IndexMetricsProgressAndEventsEndpoints) {
  MetricsRegistry registry;
  registry.GetCounter("checker.trace.steps.checked").Increment(7);
  FakeMonotonicClock clock;
  EventLog events(/*capacity=*/16, &clock);
  events.Emit(EventSeverity::kInfo, "test", "endpoint.probe",
              {{"k", "v"}});
  ProgressTracker progress;

  ObsServer::Options options;
  options.registry = &registry;
  options.events = &events;
  options.progress = &progress;
  ObsServer server(options);
  ASSERT_TRUE(server.Start(0).ok());

  std::string index = Get(server.port(), "/");
  EXPECT_EQ(StatusOf(index), 200);
  EXPECT_NE(BodyOf(index).find("/metrics"), std::string::npos);

  std::string metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_DOUBLE_EQ(PromValue(BodyOf(metrics), "checker_trace_steps_checked"), 7);

  std::string progress_response = Get(server.port(), "/progress");
  EXPECT_EQ(StatusOf(progress_response), 200);
  auto progress_json = common::Json::Parse(BodyOf(progress_response));
  ASSERT_TRUE(progress_json.ok());
  EXPECT_EQ(progress_json->Find("schema")->string_value(),
            "xmodel.progress.v1");

  std::string tail = Get(server.port(), "/events?n=5");
  EXPECT_EQ(StatusOf(tail), 200);
  EXPECT_NE(tail.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(BodyOf(tail).find("endpoint.probe"), std::string::npos);

  // A non-numeric ?n= is a client error, not a crash.
  EXPECT_EQ(StatusOf(Get(server.port(), "/events?n=bogus")), 400);
  server.Stop();
}

TEST(ObsServerTest, HealthzFlipsUnderInjectedStallAndRecovers) {
  FakeMonotonicClock clock;
  EventLog events(/*capacity=*/16, &clock);
  Watchdog watchdog(/*stall_timeout_ms=*/1'000, &clock, &events);

  ObsServer::Options options;
  options.events = &events;
  options.watchdog = &watchdog;
  options.clock = &clock;
  ObsServer server(options);
  ASSERT_TRUE(server.Start(0).ok());

  std::string healthy = Get(server.port(), "/healthz");
  EXPECT_EQ(StatusOf(healthy), 200);
  auto healthy_json = common::Json::Parse(BodyOf(healthy));
  ASSERT_TRUE(healthy_json.ok());
  EXPECT_EQ(healthy_json->Find("schema")->string_value(),
            "xmodel.health.v1");
  EXPECT_EQ(healthy_json->Find("status")->string_value(), "ok");

  // No heartbeat for longer than the stall timeout: /healthz degrades.
  clock.AdvanceMs(2'000);
  std::string stalled = Get(server.port(), "/healthz");
  EXPECT_EQ(StatusOf(stalled), 503);
  auto stalled_json = common::Json::Parse(BodyOf(stalled));
  ASSERT_TRUE(stalled_json.ok());
  EXPECT_EQ(stalled_json->Find("status")->string_value(), "stalled");
  EXPECT_EQ(watchdog.stalls_observed(), 1u);

  // A heartbeat (progress resumed) restores the verdict.
  watchdog.Heartbeat();
  EXPECT_EQ(StatusOf(Get(server.port(), "/healthz")), 200);
  server.Stop();
}

TEST(ObsServerTest, QuitquitquitReleasesWaitForQuit) {
  ObsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.quit_requested());

  std::thread quitter([port = server.port()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Get(port, "/quitquitquit");
  });
  const auto start = std::chrono::steady_clock::now();
  server.WaitForQuit(/*timeout_ms=*/10'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  quitter.join();
  EXPECT_TRUE(server.quit_requested());
  // Released by the request, far before the 10 s timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5'000);
  server.Stop();
}

// The live-scrape acceptance test: scrape /metrics while a multi-worker
// check runs and assert the published checker counters advance
// monotonically mid-run. The checker flushes states.generated /
// levels.completed deltas at every level barrier, so a scraper watching a
// slow run sees strictly more than one distinct value.
TEST(ObsServerTest, LiveScrapeShowsAdvancingCheckerCounters) {
  ObsServer server;  // Global registry — where the checker publishes.
  ASSERT_TRUE(server.Start(0).ok());

  // Counters are process-global and cumulative; absent (-1) means no
  // checker has run yet in this process, i.e. a baseline of 0.
  const std::string before = BodyOf(Get(server.port(), "/metrics"));
  const double levels_before =
      std::max(0.0, PromValue(before, "checker_levels_completed"));
  const double generated_before =
      std::max(0.0, PromValue(before, "checker_states_generated"));

  SlowChainSpec spec(/*limit=*/120);  // ~121 levels at >= 3 ms each.
  tlax::CheckerOptions options;
  options.num_workers = 2;
  tlax::CheckResult result;
  std::thread checker([&spec, &options, &result] {
    result = tlax::ModelChecker(options).Check(spec);
  });

  std::vector<double> levels_seen;
  std::vector<double> generated_seen;
  for (int i = 0; i < 2'000; ++i) {
    std::string body = BodyOf(Get(server.port(), "/metrics"));
    double levels = PromValue(body, "checker_levels_completed");
    double generated = PromValue(body, "checker_states_generated");
    if (levels >= 0) levels_seen.push_back(levels);
    if (generated >= 0) generated_seen.push_back(generated);
    // Stop scraping once we have clearly seen the counters move.
    if (levels_seen.size() > 1 &&
        levels_seen.back() > levels_seen.front() &&
        levels_seen.back() >= levels_before + 20) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  checker.join();

  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.distinct_states, 121u);
  ASSERT_GE(levels_seen.size(), 2u);
  for (size_t i = 1; i < levels_seen.size(); ++i) {
    EXPECT_GE(levels_seen[i], levels_seen[i - 1]);  // Monotone mid-run.
  }
  EXPECT_GT(levels_seen.back(), levels_seen.front());
  for (size_t i = 1; i < generated_seen.size(); ++i) {
    EXPECT_GE(generated_seen[i], generated_seen[i - 1]);
  }
  EXPECT_GT(generated_seen.back(), generated_before);

  // After the run, the final scrape matches the CheckResult totals
  // relative to the pre-run baseline (live deltas + final remainder add
  // up exactly — publishing mid-run loses nothing).
  std::string final_body = BodyOf(Get(server.port(), "/metrics"));
  EXPECT_DOUBLE_EQ(PromValue(final_body, "checker_levels_completed"),
                   levels_before +
                       static_cast<double>(result.levels_completed));
  EXPECT_DOUBLE_EQ(
      PromValue(final_body, "checker_states_generated"),
      generated_before + static_cast<double>(result.generated_states));

  // The worker idle-time profile surfaced both in the result and the
  // scrape: per-worker gauges exist and the idle fraction is a sane
  // fraction.
  ASSERT_EQ(result.worker_busy_ms.size(), 2u);
  EXPECT_GT(result.worker_busy_ms[0] + result.worker_busy_ms[1], 0);
  EXPECT_GE(result.idle_fraction, 0);
  EXPECT_LE(result.idle_fraction, 1);
  EXPECT_GE(PromValue(final_body, "checker_worker0_busy_ms"), 0);
  EXPECT_GE(PromValue(final_body, "checker_worker1_busy_ms"), 0);
  EXPECT_GE(PromValue(final_body, "checker_idle_fraction"), 0);
  EXPECT_LE(PromValue(final_body, "checker_idle_fraction"), 1);

  // obs.http.* accounting saw this conversation.
  EXPECT_GT(PromValue(final_body, "obs_http_requests"), 0);
  EXPECT_GT(PromValue(final_body, "obs_http_bytes"), 0);
  server.Stop();
}

}  // namespace
}  // namespace xmodel::obs
