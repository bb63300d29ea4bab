// Tests for the live observability endpoint: raw-socket HTTP client
// against the dependency-free server, typed Prometheus exposition
// (# HELP / # TYPE / build info / uptime), /healthz liveness flips,
// /statusz run state, /incidentz trigger + index, protocol error
// handling, and the TSan guard: concurrent /metrics + /statusz scrapes
// while a 16-worker engine run is live.

#include "obs/httpd.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "algos/sssp.h"
#include "common/metrics.h"
#include "graph/generators.h"
#include "obs/flightrec.h"
#include "obs/trace.h"
#include "pregel/engine.h"

namespace serigraph {
namespace {

struct HttpReply {
  int status = 0;
  std::string body;
  std::string raw;
};

// Minimal raw-socket client: sends `request` verbatim, reads to EOF.
HttpReply HttpRaw(int port, const std::string& request) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (reply.raw.compare(0, 5, "HTTP/") == 0) {
    reply.status = std::atoi(reply.raw.c_str() + 9);
  }
  const size_t header_end = reply.raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    reply.body = reply.raw.substr(header_end + 4);
  }
  return reply;
}

HttpReply HttpGet(int port, const std::string& target,
                  const std::string& method = "GET") {
  return HttpRaw(port,
                 method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

struct TelemetryReset {
  TelemetryReset() { Reset(); }
  ~TelemetryReset() { Reset(); }
  static void Reset() {
    Tracer::Get().Disable();  // the default: the always-on tail
    HealthState::Get().ResetForTest();
    TelemetryHub::Get().ResetForTest();
    IncidentManager::Get().ResetForTest();
  }
};

// --- raw server ----------------------------------------------------------

TEST(HttpServerTest, ServesOnEphemeralPortAndStopsIdempotently) {
  auto server = HttpServer::Start(HttpServer::Options{}, [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "echo:" + req.path + "?" + req.query;
    return resp;
  });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = server.value()->port();
  ASSERT_GT(port, 0);

  HttpReply reply = HttpGet(port, "/hello?a=1");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "echo:/hello?a=1");
  EXPECT_NE(reply.raw.find("Connection: close"), std::string::npos);
  EXPECT_NE(reply.raw.find("Content-Length: "), std::string::npos);

  server.value()->Stop();
  server.value()->Stop();  // idempotent
}

TEST(HttpServerTest, RejectsNonGetAndMalformedRequests) {
  auto server = HttpServer::Start(HttpServer::Options{}, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = server.value()->port();
  EXPECT_EQ(HttpGet(port, "/x", "POST").status, 405);
  // A request line without the two mandatory spaces is malformed.
  EXPECT_EQ(HttpRaw(port, "garbage\r\n\r\n").status, 400);
}

TEST(HttpServerTest, ConcurrentClientsAreAllServed) {
  std::atomic<int> handled{0};
  auto server = HttpServer::Start(
      HttpServer::Options{}, [&handled](const HttpRequest&) {
        handled.fetch_add(1, std::memory_order_relaxed);
        HttpResponse resp;
        resp.body = "ok";
        return resp;
      });
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = server.value()->port();
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&, i] {
      const HttpReply reply = HttpGet(port, "/c" + std::to_string(i));
      if (reply.status == 200 && reply.body == "ok") {
        ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 16);
  EXPECT_EQ(handled.load(), 16);
}

// --- observability routes ------------------------------------------------

TEST(ObsServerTest, MetricsServesTypedExpositionWithHelpAndBuildInfo) {
  TelemetryReset reset;
  MetricRegistry registry;
  registry.GetCounter("pregel.messages_sent")->Add(12);
  TelemetryHub::Get().RegisterMetrics(&registry);

  auto server = ObsServer::Start(ObsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_TRUE(TelemetryHub::serving());

  const HttpReply reply = HttpGet(server.value()->port(), "/metrics");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.raw.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string& body = reply.body;
  EXPECT_NE(body.find("# TYPE serigraph_pregel_messages_sent counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("serigraph_pregel_messages_sent 12"), std::string::npos);
  // Satellite 1: HELP text from docs/METRICS.md, build info, uptime.
  EXPECT_NE(body.find("# HELP serigraph_pregel_messages_sent"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("serigraph_build_info{commit=\""), std::string::npos);
  EXPECT_NE(body.find("# TYPE process_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(body.find("serigraph_obs_http_requests"), std::string::npos);

  server.value()->Stop();
  EXPECT_FALSE(TelemetryHub::serving());
  TelemetryHub::Get().UnregisterMetrics(&registry);
}

TEST(ObsServerTest, HealthzFlipsTo503WhenUnhealthy) {
  TelemetryReset reset;
  auto server = ObsServer::Start(ObsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = server.value()->port();

  HttpReply reply = HttpGet(port, "/healthz");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"ready\":false"), std::string::npos);

  HealthState::Get().SetReady(true);
  HealthState::Get().Report(HealthLevel::kUnhealthy, "watchdog",
                            "deadlock confirmed");
  reply = HttpGet(port, "/healthz");
  EXPECT_EQ(reply.status, 503);
  EXPECT_NE(reply.body.find("\"status\":\"unhealthy\""), std::string::npos);
  EXPECT_NE(reply.body.find("deadlock confirmed"), std::string::npos);

  HealthState::Get().ClearComponent("watchdog");
  reply = HttpGet(port, "/healthz");
  EXPECT_EQ(reply.status, 200);
  server.value()->Stop();
}

TEST(ObsServerTest, StatuszReportsRunStateAndEnvironment) {
  TelemetryReset reset;
  auto server = ObsServer::Start(ObsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();

  TelemetryHub::RunStatus& run = TelemetryHub::Get().run();
  run.running.store(true, std::memory_order_relaxed);
  run.superstep.store(17, std::memory_order_relaxed);
  run.workers.store(4, std::memory_order_relaxed);
  run.active_vertices.store(1234, std::memory_order_relaxed);

  const HttpReply reply = HttpGet(server.value()->port(), "/statusz");
  EXPECT_EQ(reply.status, 200);
  const std::string& body = reply.body;
  EXPECT_NE(body.find("\"running\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"superstep\":17"), std::string::npos);
  EXPECT_NE(body.find("\"workers\":4"), std::string::npos);
  EXPECT_NE(body.find("\"active_vertices\":1234"), std::string::npos);
  EXPECT_NE(body.find("\"rss_kb\":"), std::string::npos);
  EXPECT_NE(body.find("\"build\":"), std::string::npos);
  EXPECT_NE(body.find("\"flight_events\":"), std::string::npos);
  server.value()->Stop();
}

TEST(ObsServerTest, IncidentzTriggersAndListsBundles) {
  TelemetryReset reset;
  auto server = ObsServer::Start(ObsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = server.value()->port();

  // Disabled (no incident dir): trigger reports 503 with an error body.
  HttpReply reply = HttpGet(port, "/incidentz/trigger");
  EXPECT_EQ(reply.status, 503);

  const std::string dir = ::testing::TempDir() + "/httpd_incidents_" +
                          std::to_string(::getpid());
  IncidentManager::Get().SetIncidentDir(dir);
  reply = HttpGet(port, "/incidentz/trigger?reason=operator+test");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"bundle\":"), std::string::npos) << reply.body;

  reply = HttpGet(port, "/incidentz");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"trigger\":\"manual\""), std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("operator test"), std::string::npos)
      << reply.body;
  server.value()->Stop();
}

TEST(ObsServerTest, UnknownRouteIs404) {
  TelemetryReset reset;
  auto server = ObsServer::Start(ObsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ(HttpGet(server.value()->port(), "/nope").status, 404);
  server.value()->Stop();
}

// --- live engine scrape (the TSan guard for the telemetry plane) ---------

TEST(ObsServerTest, ConcurrentScrapeDuringSixteenWorkerEngineRun) {
  TelemetryReset reset;
  auto server = ObsServer::Start(ObsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = server.value()->port();

  auto g = Graph::FromEdgeList(Ring(512));
  ASSERT_TRUE(g.ok());
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 16;
  opts.partitions_per_worker = 1;
  opts.compute_threads_per_worker = 1;

  std::atomic<bool> done{false};
  std::thread runner([&] {
    Engine<Sssp> engine(&*g, opts);
    auto result = engine.Run(Sssp(0));
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) {
      EXPECT_EQ(result->values, ReferenceSssp(*g, 0));
    }
    done.store(true, std::memory_order_release);
  });

  int scrapes = 0;
  bool saw_live_run = false;
  while (!done.load(std::memory_order_acquire)) {
    const HttpReply metrics = HttpGet(port, "/metrics");
    EXPECT_EQ(metrics.status, 200);
    const HttpReply statusz = HttpGet(port, "/statusz");
    EXPECT_EQ(statusz.status, 200);
    (void)HttpGet(port, "/healthz");
    if (statusz.body.find("\"running\":true") != std::string::npos) {
      saw_live_run = true;
    }
    ++scrapes;
  }
  runner.join();
  EXPECT_GT(scrapes, 0);
  // Post-run scrape still sees the frozen final snapshot.
  const HttpReply after = HttpGet(port, "/metrics");
  EXPECT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("serigraph_pregel_vertex_executions"),
            std::string::npos)
      << after.body;
  // The run is short; seeing it live at least once is expected but
  // scheduling-dependent, so only assert when the loop overlapped it.
  (void)saw_live_run;
  server.value()->Stop();
}

}  // namespace
}  // namespace serigraph
