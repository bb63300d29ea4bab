// Tests for the always-on flight recorder (the Tracer's tail retention)
// and the incident plane: ring overwrite semantics, lock-free concurrent
// record-vs-snapshot (the TSan guard for the relaxed-atomic slot design),
// span macros feeding the tail with full tracing off, health aggregation,
// telemetry-hub registry handoff, incident bundle contents and rate
// limiting, the watchdog-confirmed planted deadlock (a real engine run)
// producing a bundle whose wait-for graph names the cycle, and the
// fatal-signal handler writing a bundle before the process dies (death
// test).

#include "obs/flightrec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "algos/sssp.h"
#include "common/metrics.h"
#include "common/planted.h"
#include "graph/generators.h"
#include "obs/introspect.h"
#include "obs/trace.h"
#include "pregel/engine.h"

namespace serigraph {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string FreshTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/flightrec_" + tag + "_" +
                          std::to_string(::getpid());
  // Recreate empty: best-effort, bundles use unique seq names anyway.
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// Every test starts from a clean telemetry plane; the singletons are
// process-wide and leaked by design (fatal-signal dumps must survive
// static destruction).
struct TelemetryReset {
  TelemetryReset() { Reset(); }
  ~TelemetryReset() { Reset(); }
  static void Reset() {
    Tracer::Get().Disable();  // the default: the always-on tail
    Tracer::Get().Reset();
    HealthState::Get().ResetForTest();
    TelemetryHub::Get().ResetForTest();
    IncidentManager::Get().ResetForTest();
  }
};

// --- build info ----------------------------------------------------------

TEST(BuildInfoTest, FieldsAreNonEmpty) {
  const BuildInfo info = GetBuildInfo();
  ASSERT_NE(info.commit, nullptr);
  ASSERT_NE(info.build_type, nullptr);
  ASSERT_NE(info.sanitizer, nullptr);
  EXPECT_GT(std::string(info.commit).size(), 0u);
  EXPECT_GT(std::string(info.sanitizer).size(), 0u);
}

// --- ring semantics ------------------------------------------------------

TEST(FlightRecorderTest, RecordsSpansCountersAndInstants) {
  TelemetryReset reset;
  SG_TRACE_INTERVAL("fr.test.span", 100, 50);
  SG_TRACE_COUNTER("fr.test.counter", 42);
  Tracer::RecordInstant("fr.test.instant");

  const auto events = Tracer::Get().Snapshot(Tracer::kTailEvents);
  ASSERT_GE(events.size(), 3u);
  bool saw_span = false, saw_counter = false, saw_instant = false;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "fr.test.span") {
      saw_span = true;
      EXPECT_EQ(e.ph, 'X');
      EXPECT_EQ(e.ts_us, 100);
      EXPECT_EQ(e.value, 50);
    }
    if (std::string(e.name) == "fr.test.counter") {
      saw_counter = true;
      EXPECT_EQ(e.ph, 'C');
      EXPECT_EQ(e.value, 42);
    }
    if (std::string(e.name) == "fr.test.instant") {
      saw_instant = true;
      EXPECT_EQ(e.ph, 'i');
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsTheTail) {
  TelemetryReset reset;
  const int total = static_cast<int>(Tracer::kTailEvents) + 257;
  for (int i = 0; i < total; ++i) {
    SG_TRACE_INTERVAL("fr.overwrite", /*start_us=*/i, /*dur_us=*/1);
  }
  const auto events = Tracer::Get().Snapshot();
  // Retention is bounded by the ring; only the newest kTailEvents
  // events from this thread survive.
  size_t mine = 0;
  int64_t min_ts = INT64_MAX, max_ts = -1;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "fr.overwrite") continue;
    ++mine;
    min_ts = std::min(min_ts, e.ts_us);
    max_ts = std::max(max_ts, e.ts_us);
  }
  EXPECT_EQ(mine, Tracer::kTailEvents);
  EXPECT_EQ(max_ts, total - 1);  // newest retained
  EXPECT_EQ(min_ts, total - static_cast<int>(Tracer::kTailEvents));
  // Overwritten events still count.
  EXPECT_EQ(Tracer::Get().event_count(), total);
}

TEST(FlightRecorderTest, SnapshotIsSortedByTimestamp) {
  TelemetryReset reset;
  SG_TRACE_INTERVAL("fr.sort", 300, 1);
  SG_TRACE_INTERVAL("fr.sort", 100, 1);
  SG_TRACE_INTERVAL("fr.sort", 200, 1);
  const auto events = Tracer::Get().Snapshot();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

// The TSan guard: writers hammer their own logs with relaxed stores
// while a reader concurrently snapshots and renders the tail. The
// design is lock-free on the write path; any non-atomic slot access
// shows up under scripts/check.sh --sanitizer tsan.
TEST(FlightRecorderTest, ConcurrentRecordAndSnapshotIsRaceFree) {
  TelemetryReset reset;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        SG_TRACE_INTERVAL("fr.race.span", i, 2);
        SG_TRACE_COUNTER("fr.race.counter", i);
        if (i % 64 == 0) Tracer::RecordInstant("fr.race.instant");
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)Tracer::Get().Snapshot(Tracer::kTailEvents);
      (void)Tracer::Get().ToChromeTraceJson(Tracer::kTailEvents);
      (void)Tracer::Get().event_count();
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(Tracer::Get().event_count(), 0);
}

// Engines start fresh worker, comm and pool threads for every run, so
// a log per thread ever created grows without bound in a long-lived
// process. An exiting thread's log must go to the next new thread.
TEST(FlightRecorderTest, ExitedThreadsHandTheirRingsOn) {
  TelemetryReset reset;
  Tracer::RecordInstant("fr.reuse.main");
  const size_t logs_before = Tracer::Get().log_count();
  constexpr int kThreads = 64;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([] { Tracer::RecordInstant("fr.reuse.thread"); }).join();
  }
  // The first thread may find no free log; every later one takes the
  // log its joined predecessor released.
  EXPECT_LE(Tracer::Get().log_count(), logs_before + 1);
  // Reuse drops old events from the snapshot, not from the total.
  EXPECT_GE(Tracer::Get().event_count(), kThreads + 1);
  // The last thread's log is free but not yet reused: its tail is still
  // there for an incident bundle.
  bool saw_exited_thread = false;
  for (const TraceEvent& e : Tracer::Get().Snapshot(Tracer::kTailEvents)) {
    if (std::string(e.name) == "fr.reuse.thread") saw_exited_thread = true;
  }
  EXPECT_TRUE(saw_exited_thread);
}

// --- span macros feed the tail with full tracing off ---------------------

TEST(FlightRecorderTest, TraceSpanFeedsRecorderWhenTracerDisabled) {
  TelemetryReset reset;
  ASSERT_FALSE(Tracer::enabled());
  const int64_t events_before = Tracer::Get().event_count();
  {
    SG_TRACE_SPAN("fr.span_macro");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SG_TRACE_INTERVAL("fr.interval_macro", 10, 5);
  SG_TRACE_COUNTER("fr.counter_macro", 7);

  // Each macro wrote one event, into the tail.
  EXPECT_EQ(Tracer::Get().event_count(), events_before + 3);
  bool saw_span = false, saw_interval = false, saw_counter = false;
  for (const TraceEvent& e : Tracer::Get().Snapshot(Tracer::kTailEvents)) {
    const std::string name = e.name;
    if (name == "fr.span_macro") {
      saw_span = true;
      EXPECT_GT(e.value, 0);  // measured a real duration
    }
    if (name == "fr.interval_macro") saw_interval = true;
    if (name == "fr.counter_macro") saw_counter = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_interval);
  EXPECT_TRUE(saw_counter);
}

TEST(FlightRecorderTest, TailChromeTraceJsonIsWellFormed) {
  TelemetryReset reset;
  SG_TRACE_INTERVAL("fr.json.span", 100, 25);
  SG_TRACE_COUNTER("fr.json.counter", 9);
  Tracer::RecordInstant("fr.json.instant");
  const std::string json = Tracer::Get().ToChromeTraceJson(Tracer::kTailEvents);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("fr.json.span"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
}

// --- health --------------------------------------------------------------

TEST(HealthStateTest, AggregatesWorstComponentAndRecovers) {
  TelemetryReset reset;
  HealthState& health = HealthState::Get();
  EXPECT_EQ(health.level(), HealthLevel::kOk);
  EXPECT_FALSE(health.ready());

  health.SetReady(true);
  health.Report(HealthLevel::kDegraded, "supervisor", "worker 1 died");
  EXPECT_EQ(health.level(), HealthLevel::kDegraded);
  health.Report(HealthLevel::kUnhealthy, "watchdog", "deadlock confirmed");
  EXPECT_EQ(health.level(), HealthLevel::kUnhealthy);

  const std::string json = health.ToJson();
  EXPECT_NE(json.find("\"status\":\"unhealthy\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ready\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("supervisor"), std::string::npos) << json;
  EXPECT_NE(json.find("deadlock confirmed"), std::string::npos) << json;

  // Clearing the worst component recovers the aggregate to the next one.
  health.ClearComponent("watchdog");
  EXPECT_EQ(health.level(), HealthLevel::kDegraded);
  health.ClearComponent("supervisor");
  EXPECT_EQ(health.level(), HealthLevel::kOk);
}

TEST(HealthStateTest, LaterReportReplacesEarlier) {
  TelemetryReset reset;
  HealthState& health = HealthState::Get();
  health.Report(HealthLevel::kUnhealthy, "engine", "aborted");
  health.Report(HealthLevel::kDegraded, "engine", "recovering");
  EXPECT_EQ(health.level(), HealthLevel::kDegraded);
}

// --- telemetry hub -------------------------------------------------------

TEST(TelemetryHubTest, RegistrySnapshotLiveAndFrozen) {
  TelemetryReset reset;
  TelemetryHub& hub = TelemetryHub::Get();
  EXPECT_TRUE(hub.MetricsSnapshot().empty());

  MetricRegistry registry;
  Counter* c = registry.GetCounter("fault.events_fired");
  c->Add(3);
  hub.RegisterMetrics(&registry);
  auto live = hub.MetricsSnapshot();
  EXPECT_EQ(live["fault.events_fired"], 3);

  c->Add(4);
  EXPECT_EQ(hub.MetricsSnapshot()["fault.events_fired"], 7);

  // Unregister freezes the final state; later increments are invisible,
  // but post-run scrapes still see the last snapshot.
  hub.UnregisterMetrics(&registry);
  c->Add(100);
  EXPECT_EQ(hub.MetricsSnapshot()["fault.events_fired"], 7);
}

TEST(TelemetryHubTest, FaultLogProviderRoundTrips) {
  TelemetryReset reset;
  TelemetryHub& hub = TelemetryHub::Get();
  EXPECT_TRUE(hub.FaultLog().empty());
  hub.SetFaultLogProvider(
      [] { return std::vector<std::string>{"crash w1 fired"}; });
  ASSERT_EQ(hub.FaultLog().size(), 1u);
  EXPECT_EQ(hub.FaultLog()[0], "crash w1 fired");
  hub.ClearFaultLogProvider();
  EXPECT_TRUE(hub.FaultLog().empty());
}

// --- incident bundles ----------------------------------------------------

TEST(IncidentManagerTest, DisabledByDefault) {
  TelemetryReset reset;
  auto result = IncidentManager::Get().Dump("test", "no dir configured");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().empty());
  EXPECT_TRUE(IncidentManager::Get().List().empty());
}

TEST(IncidentManagerTest, DumpWritesSelfContainedBundle) {
  TelemetryReset reset;
  const std::string dir = FreshTempDir("bundle");
  IncidentManager::Get().SetIncidentDir(dir);

  MetricRegistry registry;
  registry.GetCounter("fault.events_fired")->Add(1);
  TelemetryHub::Get().RegisterMetrics(&registry);
  TelemetryHub::Get().SetFaultLogProvider(
      [] { return std::vector<std::string>{"hang w1 fired at s2"}; });
  SG_TRACE_INTERVAL("fr.bundle.span", 10, 5);

  auto result = IncidentManager::Get().Dump("unit-test", "planted incident");
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string bundle = result.value();
  ASSERT_FALSE(bundle.empty());

  EXPECT_TRUE(FileExists(bundle + "/MANIFEST.json"));
  EXPECT_TRUE(FileExists(bundle + "/trace.json"));
  EXPECT_TRUE(FileExists(bundle + "/waitfor.json"));
  EXPECT_TRUE(FileExists(bundle + "/metrics.prom"));
  EXPECT_TRUE(FileExists(bundle + "/faults.json"));
  EXPECT_TRUE(FileExists(bundle + "/env.json"));

  const std::string manifest = ReadFileOrEmpty(bundle + "/MANIFEST.json");
  EXPECT_NE(manifest.find("\"trigger\":\"unit-test\""), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("planted incident"), std::string::npos);
  EXPECT_NE(manifest.find("\"complete\":true"), std::string::npos);

  const std::string trace = ReadFileOrEmpty(bundle + "/trace.json");
  EXPECT_NE(trace.find("fr.bundle.span"), std::string::npos);

  const std::string prom = ReadFileOrEmpty(bundle + "/metrics.prom");
  EXPECT_NE(prom.find("serigraph_fault_events_fired"), std::string::npos)
      << prom;

  const std::string faults = ReadFileOrEmpty(bundle + "/faults.json");
  EXPECT_NE(faults.find("hang w1 fired at s2"), std::string::npos) << faults;

  const std::string env = ReadFileOrEmpty(bundle + "/env.json");
  EXPECT_NE(env.find("\"pid\":"), std::string::npos) << env;
  EXPECT_NE(env.find("\"commit\":"), std::string::npos) << env;

  ASSERT_EQ(IncidentManager::Get().List().size(), 1u);
  EXPECT_EQ(IncidentManager::Get().List()[0].trigger, "unit-test");
  EXPECT_NE(IncidentManager::Get().ListJson().find("unit-test"),
            std::string::npos);
  TelemetryHub::Get().UnregisterMetrics(&registry);
}

TEST(IncidentManagerTest, AutomaticDumpsAreSpacedButManualBypasses) {
  TelemetryReset reset;
  const std::string dir = FreshTempDir("ratelimit");
  IncidentManager::Get().SetIncidentDir(dir);

  auto first = IncidentManager::Get().Dump("auto", "first");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().empty());

  // A second automatic dump inside the spacing window is suppressed
  // (empty path, not an error); a manual dump goes through.
  auto second = IncidentManager::Get().Dump("auto", "too soon");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().empty());

  auto manual = IncidentManager::Get().Dump("manual", "operator", true);
  ASSERT_TRUE(manual.ok());
  EXPECT_FALSE(manual.value().empty());
  EXPECT_EQ(IncidentManager::Get().List().size(), 2u);
}

TEST(TriggerIncidentDumpTest, FlipsHealthAndWritesBundle) {
  TelemetryReset reset;
  const std::string dir = FreshTempDir("trigger");
  IncidentManager::Get().SetIncidentDir(dir);
  TriggerIncidentDump("unit-trigger", "synthetic", HealthLevel::kUnhealthy);
  EXPECT_EQ(HealthState::Get().level(), HealthLevel::kUnhealthy);
  ASSERT_EQ(IncidentManager::Get().List().size(), 1u);
  EXPECT_EQ(IncidentManager::Get().List()[0].trigger, "unit-trigger");
}

// --- watchdog-confirmed deadlock produces a bundle with the cycle --------

TEST(IncidentIntegrationTest, ConfirmedDeadlockDumpsBundleNamingTheCycle) {
  TelemetryReset reset;
  const std::string dir = FreshTempDir("deadlock");
  IncidentManager::Get().SetIncidentDir(dir);

  // The planted clean-initial-forks deadlock on real threads (serichk's
  // mcheck_catches_deadlock configuration, one compute thread per
  // worker): each worker blocks on a fork that a philosopher of the other
  // worker keeps, so the beacons also show the worker cycle.
  struct PlantGuard {
    PlantGuard() { Planted::Enable("cm.clean_initial_forks"); }
    ~PlantGuard() { Planted::Clear(); }
  } plant;
  auto g = Graph::FromEdgeList(Ring(4));
  ASSERT_TRUE(g.ok());
  const Graph graph = g->Undirected();
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.sync_mode = SyncMode::kVertexLocking;
  opts.num_workers = 2;
  opts.compute_threads_per_worker = 1;
  opts.introspect = true;
  opts.watchdog.period_ms = 5;
  opts.watchdog.stall_ms = 10000;  // keep the stall rule out of the way
  opts.watchdog.abort_on_stall = true;
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted) << result.status();

  // /healthz flipped unhealthy on the watchdog's own report (the abort
  // path adds an "engine" report of its own).
  EXPECT_EQ(HealthState::Get().level(), HealthLevel::kUnhealthy);
  EXPECT_NE(HealthState::Get().ToJson().find("watchdog-deadlock"),
            std::string::npos)
      << HealthState::Get().ToJson();

  const auto incidents = IncidentManager::Get().List();
  ASSERT_FALSE(incidents.empty());
  EXPECT_EQ(incidents[0].trigger, "watchdog-deadlock");
  EXPECT_NE(incidents[0].reason.find("fork chain vertex "), std::string::npos)
      << incidents[0].reason;
  EXPECT_NE(incidents[0].reason.find("worker cycle"), std::string::npos)
      << incidents[0].reason;

  const std::string waitfor =
      ReadFileOrEmpty(incidents[0].dir + "/waitfor.json");
  ASSERT_FALSE(waitfor.empty());
  // The bundle names the cycle: a non-empty cycle array, and edges that
  // carry the fork resources.
  EXPECT_NE(waitfor.find("\"cycle\":["), std::string::npos) << waitfor;
  EXPECT_EQ(waitfor.find("\"cycle\":[]"), std::string::npos) << waitfor;
  EXPECT_NE(waitfor.find("\"resource\":"), std::string::npos) << waitfor;

  const std::string trace = ReadFileOrEmpty(incidents[0].dir + "/trace.json");
  EXPECT_NE(trace.find("watchdog.incident"), std::string::npos) << trace;
}

// --- fatal-signal handler ------------------------------------------------

TEST(FatalSignalDeathTest, SegfaultWritesBundleBeforeDying) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The threadsafe death-test child re-executes this test body, so a
  // pid-derived path would differ between parent and child; the first
  // execution pins the directory in the environment (inherited through
  // the child's exec) and both sides agree on it.
  const char* preset = ::getenv("SG_TEST_FATAL_DIR");
  const std::string dir = preset != nullptr ? preset : FreshTempDir("fatal");
  ::setenv("SG_TEST_FATAL_DIR", dir.c_str(), /*overwrite=*/0);
  // The statement runs in a forked child: configure the incident plane,
  // record some pre-crash context, then die. The handler re-raises with
  // the default disposition, so the child is killed by SIGSEGV.
  EXPECT_DEATH(
      {
        IncidentManager::Get().ResetForTest();
        IncidentManager::Get().SetIncidentDir(dir);
        InstallFatalSignalHandlers();
        Tracer::RecordInstant("fatal.pre_crash");
        ::raise(SIGSEGV);
      },
      "");
  // The parent inspects the child's bundle.
  bool found = false;
  for (int seq = 0; seq < 4 && !found; ++seq) {
    const std::string bundle =
        dir + "/incident-" + std::to_string(seq) + "-fatal-sigsegv";
    if (!FileExists(bundle + "/MANIFEST.json")) continue;
    found = true;
    const std::string trace = ReadFileOrEmpty(bundle + "/trace.json");
    EXPECT_NE(trace.find("fatal.pre_crash"), std::string::npos) << trace;
  }
  EXPECT_TRUE(found) << "no fatal-sigsegv bundle under " << dir;
}

}  // namespace
}  // namespace serigraph
