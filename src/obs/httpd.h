#ifndef SERIGRAPH_OBS_HTTPD_H_
#define SERIGRAPH_OBS_HTTPD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// One parsed request line. Only the request line is interpreted;
/// headers are read and discarded (every handler is a GET endpoint).
struct HttpRequest {
  std::string method;
  std::string path;   ///< without the query string
  std::string query;  ///< raw text after '?', possibly empty
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Dependency-free HTTP/1.1 server: an accept thread feeds a bounded
/// connection queue drained by a small worker pool; every response is
/// `Connection: close`. Listens on 127.0.0.1 only — this is a local
/// observability plane, not a public service. Intended for low-rate
/// scrapes (Prometheus, curl, the obs-smoke CI job), not throughput.
class HttpServer {
 public:
  using Router = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    int port = 0;
    int num_threads = 2;
    /// Accepted-but-unserved connection cap; overflow is closed.
    size_t max_queue = 64;
  };

  /// Binds, listens, and starts the threads. The router is called from
  /// worker threads and must be thread-safe.
  static StatusOr<std::unique_ptr<HttpServer>> Start(const Options& options,
                                                     Router router);
  ~HttpServer();

  /// Stops accepting, drains the queue, joins all threads. Idempotent.
  void Stop();

  /// The actual bound port (after ephemeral resolution).
  int port() const { return port_; }

 private:
  HttpServer(const Options& options, Router router);
  Status Listen();
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);

  const Options options_;
  const Router router_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  sy::Mutex queue_mu_;
  sy::CondVar queue_cv_;
  std::deque<int> pending_ SY_GUARDED_BY(queue_mu_);
  bool stopping_ SY_GUARDED_BY(queue_mu_) = false;
};

/// The observability endpoint: an HttpServer wired to the telemetry
/// plane (TelemetryHub, HealthState, Introspector, the Tracer's tail,
/// IncidentManager). Routes:
///   /metrics            typed Prometheus exposition (# HELP + # TYPE)
///   /healthz            liveness + readiness JSON; 503 when unhealthy
///   /statusz            run state, beacons, contention, arena, RSS
///   /incidentz          incident bundle index
///   /incidentz/trigger  write a bundle now (?reason=...)
/// While an ObsServer is live, TelemetryHub::serving() is true and the
/// engine keeps per-superstep arena/RSS gauges warm.
class ObsServer {
 public:
  struct Options {
    int port = 0;  ///< 0 = ephemeral
    int num_threads = 2;
  };

  static StatusOr<std::unique_ptr<ObsServer>> Start(const Options& options);
  ~ObsServer();

  void Stop();  ///< Idempotent; also flips TelemetryHub::serving() off.
  int port() const { return http_ != nullptr ? http_->port() : 0; }
  int64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);  // mo: stat counter
  }

 private:
  ObsServer() = default;
  HttpResponse Route(const HttpRequest& request);
  HttpResponse Metrics() const;
  HttpResponse Healthz() const;
  HttpResponse Statusz() const;
  HttpResponse Incidentz(const HttpRequest& request) const;

  std::unique_ptr<HttpServer> http_;
  std::atomic<int64_t> requests_{0};
};

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_HTTPD_H_
