// Tests for the sync-layer introspection subsystem: wait-for graph cycle
// detection, beacon publication, contention attribution, the watchdog's
// stall and fork-table deadlock rules (no confirmation for a wait on an
// eating philosopher; confirmation of the planted clean-fork deadlock on
// real threads), JSONL streaming, the abort channel through
// ChandyMisraTable, and end-to-end engine integration, including a digest
// that spans recovery attempts. The beacon concurrency test is the TSan
// guard for the lock-free beacon design.

#include "obs/introspect.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "algos/sssp.h"
#include "common/planted.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "net/transport.h"
#include "obs/watchdog.h"
#include "pregel/engine.h"
#include "sync/chandy_misra.h"

namespace serigraph {
namespace {

using WaitTarget = Introspector::WaitTarget;

// A fresh Configure also clears contention and the abort flag, so every
// test starts from a clean singleton.
void Reconfigure(int workers, const std::string& kind = "partition") {
  Introspector::Get().Disable();
  Introspector::Get().Configure(workers, kind);
  Introspector::Get().Enable();
}

struct IntrospectorGuard {
  ~IntrospectorGuard() { Introspector::Get().Disable(); }
};

// --- wait-for graph ------------------------------------------------------

WaitForEdge Edge(int from, int to, int64_t waiter = 0, int64_t resource = 0,
                 int64_t waited_us = 10) {
  WaitForEdge e;
  e.from = from;
  e.to = to;
  e.waiter = waiter;
  e.resource = resource;
  e.waited_us = waited_us;
  return e;
}

TEST(WaitForGraphTest, PlantedCycleIsFound) {
  WaitForGraph g;
  g.num_workers = 4;
  g.edges = {Edge(0, 1), Edge(1, 2), Edge(2, 0), Edge(3, 1)};
  std::vector<int> cycle = FindWorkerCycle(g);
  ASSERT_EQ(cycle.size(), 3u);
  // The cycle contains exactly workers {0,1,2} in ring order.
  std::vector<int> sorted = cycle;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
  for (size_t i = 0; i < cycle.size(); ++i) {
    const int from = cycle[i];
    const int to = cycle[(i + 1) % cycle.size()];
    EXPECT_EQ((from + 1) % 3, to) << "not a ring: " << from << "->" << to;
  }
}

TEST(WaitForGraphTest, DagHasNoCycle) {
  WaitForGraph g;
  g.num_workers = 4;
  g.edges = {Edge(0, 1), Edge(0, 2), Edge(1, 3), Edge(2, 3)};
  EXPECT_TRUE(FindWorkerCycle(g).empty());
}

TEST(WaitForGraphTest, SelfLoopsAreIgnored) {
  WaitForGraph g;
  g.num_workers = 2;
  g.edges = {Edge(0, 0), Edge(1, 1), Edge(0, 1)};
  EXPECT_TRUE(FindWorkerCycle(g).empty());
}

TEST(WaitForGraphTest, TwoWorkerCycle) {
  WaitForGraph g;
  g.num_workers = 2;
  g.edges = {Edge(0, 1, 3, 7), Edge(1, 0, 7, 3)};
  std::vector<int> cycle = FindWorkerCycle(g);
  ASSERT_EQ(cycle.size(), 2u);
}

TEST(WaitForGraphTest, JsonAndSummaryRenderEdges) {
  WaitForGraph g;
  g.num_workers = 2;
  g.edges = {Edge(0, 1, 5, 7, 120)};
  const std::string json = WaitForEdgesJson(g);
  EXPECT_NE(json.find("\"from\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"to\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"waiter\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"resource\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"waited_us\":120"), std::string::npos) << json;
  const std::string summary = WaitForGraphSummary(g);
  EXPECT_FALSE(summary.empty());
  EXPECT_NE(summary.find("w0"), std::string::npos) << summary;
  EXPECT_NE(summary.find("w1"), std::string::npos) << summary;
}

// --- beacons -------------------------------------------------------------

TEST(IntrospectorTest, BeaconPublishesWaitTargetsAndClearsOnEnd) {
  IntrospectorGuard guard;
  Reconfigure(2);
  Introspector& in = Introspector::Get();

  WaitTarget targets[2];
  targets[0] = {7, 1};
  targets[1] = {9, 0};
  in.BeginAcquire(/*w=*/0, /*resource=*/5, targets, 2, 2);

  BeaconSnapshot snap = in.ReadBeacon(0);
  EXPECT_EQ(snap.phase, WorkerPhase::kForkWait);
  EXPECT_EQ(snap.acquiring, 5);
  ASSERT_EQ(snap.wait_count, 2);
  EXPECT_EQ(snap.wait_total, 2);
  EXPECT_EQ(snap.wait_resource[0], 7);
  EXPECT_EQ(snap.wait_owner[0], 1);
  EXPECT_EQ(snap.wait_resource[1], 9);
  EXPECT_EQ(snap.wait_owner[1], 0);

  WaitForGraph g = in.BuildWaitForGraph();
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0].from, 0);
  EXPECT_EQ(g.edges[0].to, 1);
  EXPECT_EQ(g.edges[0].waiter, 5);
  EXPECT_EQ(g.edges[0].resource, 7);

  const uint64_t epoch_before = snap.progress_epoch;
  in.EndAcquire(0, 5, /*wait_us=*/200, /*acquired=*/true);
  snap = in.ReadBeacon(0);
  EXPECT_EQ(snap.phase, WorkerPhase::kCompute);
  EXPECT_EQ(snap.acquiring, -1);
  EXPECT_EQ(snap.wait_count, 0);
  EXPECT_EQ(snap.progress_epoch, epoch_before + 1);
  EXPECT_TRUE(in.BuildWaitForGraph().edges.empty());
}

TEST(IntrospectorTest, AbandonedAcquireDoesNotCountProgress) {
  IntrospectorGuard guard;
  Reconfigure(1);
  Introspector& in = Introspector::Get();
  WaitTarget t{3, 0};
  in.BeginAcquire(0, 2, &t, 1, 1);
  const uint64_t epoch = in.ReadBeacon(0).progress_epoch;
  in.EndAcquire(0, 2, 50, /*acquired=*/false);
  EXPECT_EQ(in.ReadBeacon(0).progress_epoch, epoch);
  // The wait is still attributed to the contention profile.
  auto top = in.ContentionTopK(10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].resource, 2);
  EXPECT_EQ(top[0].total_wait_us, 50);
}

TEST(IntrospectorTest, ContentionTopKOrdersByTotalWaitAndTruncates) {
  IntrospectorGuard guard;
  Reconfigure(2, "vertex");
  Introspector& in = Introspector::Get();
  in.RecordWait(0, /*resource=*/1, 100);
  in.RecordWait(0, /*resource=*/2, 700);
  in.RecordWait(1, /*resource=*/2, 300);  // merged across shards
  in.RecordWait(1, /*resource=*/3, 400);
  auto top = in.ContentionTopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].resource, 2);
  EXPECT_EQ(top[0].total_wait_us, 1000);
  EXPECT_EQ(top[0].count, 2);
  EXPECT_EQ(top[1].resource, 3);
  auto all = in.ContentionTopK(10);
  EXPECT_EQ(all.size(), 3u);
}

TEST(IntrospectorTest, EdgeContentionSplitsWaitAcrossBlockers) {
  IntrospectorGuard guard;
  Reconfigure(1);
  Introspector& in = Introspector::Get();
  WaitTarget targets[2] = {{7, 0}, {9, 0}};
  in.BeginAcquire(0, 5, targets, 2, 2);
  in.EndAcquire(0, 5, /*wait_us=*/100, true);
  auto edges = in.EdgeContentionTopK(10);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].waiter, 5);
  EXPECT_EQ(edges[0].total_wait_us, 50);
  EXPECT_EQ(edges[1].waiter, 5);
}

TEST(IntrospectorTest, QueueProbeFillsBeaconDepths) {
  IntrospectorGuard guard;
  Reconfigure(1);
  Introspector& in = Introspector::Get();
  in.SetProbes(
      [](WorkerId w, int64_t* inbox, int64_t* outbox) {
        *inbox = 4 + w;
        *outbox = 1024;
      },
      nullptr);
  BeaconSnapshot snap = in.ReadBeacon(0);
  EXPECT_EQ(snap.inbox_depth, 4);
  EXPECT_EQ(snap.outbox_bytes, 1024);
  in.ClearProbes();
  snap = in.ReadBeacon(0);
  EXPECT_EQ(snap.inbox_depth, 0);
}

TEST(IntrospectorTest, FirstAbortReasonWins) {
  IntrospectorGuard guard;
  Reconfigure(1);
  Introspector& in = Introspector::Get();
  EXPECT_FALSE(in.abort_requested());
  in.RequestAbort("first");
  in.RequestAbort("second");
  EXPECT_TRUE(in.abort_requested());
  EXPECT_EQ(in.abort_reason(), "first");
  // Configure clears the channel for the next run.
  in.Configure(1, "partition");
  EXPECT_FALSE(in.abort_requested());
  EXPECT_EQ(in.abort_reason(), "");
}

// The TSan guard: worker threads hammer their own beacons while a reader
// concurrently samples all of them; any non-atomic access shows up under
// scripts/check.sh.
TEST(IntrospectorTest, BeaconConcurrencyIsRaceFree) {
  IntrospectorGuard guard;
  const int kWorkers = 4;
  Reconfigure(kWorkers);
  Introspector& in = Introspector::Get();
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWorkers; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 3000; ++i) {
        in.SetPhase(w, WorkerPhase::kCompute, i);
        in.OnProgress(w);
        WaitTarget targets[3] = {{(w + 1) % kWorkers, (w + 1) % kWorkers},
                                 {int64_t(i % 11), (w + 2) % kWorkers},
                                 {int64_t(i % 7), w}};
        in.BeginAcquire(w, i % 13, targets, 3, 5);
        in.EndAcquire(w, i % 13, i % 50, (i % 3) != 0);
        in.SetTokenHolder(w, i % kWorkers);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int w = 0; w < kWorkers; ++w) (void)in.ReadBeacon(w);
      (void)in.BuildWaitForGraph();
      (void)in.ContentionTopK(5);
      (void)in.EdgeContentionTopK(5);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(in.ContentionTopK(1).size(), 0u);
}

// Minimal WorkerHandle that loops control messages through a Transport,
// mirroring tests/chandy_misra_test.cc.
class LoopbackHandle final : public WorkerHandle {
 public:
  LoopbackHandle(Transport* transport, WorkerId id)
      : transport_(transport), id_(id) {}
  void FlushRemoteTo(WorkerId) override {}
  void FlushAllRemote() override {}
  void SendControl(WorkerId dst, uint32_t tag, int64_t a, int64_t b,
                   int64_t c) override {
    WireMessage msg;
    msg.src = id_;
    msg.dst = dst;
    msg.kind = MessageKind::kControl;
    msg.tag = tag;
    msg.a = a;
    msg.b = b;
    msg.c = c;
    transport_->Send(std::move(msg));
  }
  WorkerId worker_id() const override { return id_; }

 private:
  Transport* transport_;
  WorkerId id_;
};

// --- watchdog ------------------------------------------------------------

TEST(WatchdogTest, FlagsStallWhenBlockedWithoutProgress) {
  IntrospectorGuard guard;
  Reconfigure(2);
  Introspector& in = Introspector::Get();
  // Worker 0 blocked on a fork owned by worker 1; worker 1 computing but
  // never progressing. No cycle (1 is not waiting), so this must surface
  // as a stall, not a deadlock.
  WaitTarget t{3, 1};
  in.BeginAcquire(0, 2, &t, 1, 1);
  in.SetPhase(1, WorkerPhase::kCompute, 0);

  WatchdogOptions opts;
  opts.period_ms = 5;
  opts.stall_ms = 30;
  Watchdog dog(opts);
  dog.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  dog.Stop();

  const WatchdogSummary& summary = dog.summary();
  EXPECT_GE(summary.snapshots, 2);
  EXPECT_GE(summary.stalls_flagged, 1);
  EXPECT_EQ(summary.deadlocks_detected, 0);
  ASSERT_FALSE(summary.incidents.empty());
  EXPECT_NE(summary.incidents[0].find("stall"), std::string::npos);
  EXPECT_FALSE(in.abort_requested());  // abort_on_stall off
}

// Two workers, each blocked on the other worker's *eating* philosopher.
// The beacons show the worker cycle w0 <-> w1 for as long as the eaters
// eat, and nobody progresses; but each missing fork sits at an eater,
// which yields it on release. The fork-table rule must confirm nothing,
// and both acquires must complete once the eaters release.
TEST(WatchdogTest, WaitOnEatingPhilosophersIsNotADeadlock) {
  IntrospectorGuard guard;
  Reconfigure(2, "vertex");
  Introspector& in = Introspector::Get();

  // Philosophers 0 and 3 on w0, 1 and 2 on w1; forks (0,2) and (1,3).
  MetricRegistry metrics;
  Transport transport(2, NetworkOptions{}, &metrics);
  ChandyMisraTable::Config config;
  config.count = 4;
  config.adjacency = {{2}, {3}, {0}, {1}};
  config.worker_of = [](int64_t p) {
    return WorkerId{p == 1 || p == 2 ? 1 : 0};
  };
  config.num_workers = 2;
  config.request_tag = 1;
  config.transfer_tag = 2;
  config.metrics = &metrics;
  ChandyMisraTable table(std::move(config));
  LoopbackHandle h0(&transport, 0);
  LoopbackHandle h1(&transport, 1);
  table.BindWorker(0, &h0);
  table.BindWorker(1, &h1);
  std::vector<std::thread> pumps;
  for (WorkerId w : {0, 1}) {
    pumps.emplace_back([&, w] {
      while (auto msg = transport.Receive(w)) table.HandleControl(w, *msg);
    });
  }
  in.SetProbes(nullptr, [&table] { return table.FindStuckChain(); });

  // The larger id of each pair starts with the fork: 2 and 3 eat at once.
  ASSERT_TRUE(table.Acquire(2));
  ASSERT_TRUE(table.Acquire(3));

  WatchdogOptions opts;
  opts.period_ms = 5;
  opts.stall_ms = 10000;
  opts.abort_on_stall = true;  // a false confirmation would fail the acquires
  Watchdog dog(opts);
  dog.Start();
  std::atomic<bool> acquired0{false};
  std::atomic<bool> acquired1{false};
  std::thread waiter0([&] { acquired0.store(table.Acquire(0)); });
  std::thread waiter1([&] { acquired1.store(table.Acquire(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // The beacons do show the cycle that a beacon-based rule confirmed.
  EXPECT_FALSE(FindWorkerCycle(in.BuildWaitForGraph()).empty());
  table.Release(2);
  table.Release(3);
  waiter0.join();
  waiter1.join();
  dog.Stop();

  EXPECT_TRUE(acquired0.load());
  EXPECT_TRUE(acquired1.load());
  EXPECT_EQ(dog.summary().deadlocks_detected, 0);
  EXPECT_EQ(dog.summary().stalls_flagged, 0);
  EXPECT_FALSE(in.abort_requested());
  table.Release(0);
  table.Release(1);
  in.ClearProbes();
  transport.Shutdown();
  for (auto& pump : pumps) pump.join();
}

// serichk's mcheck_catches_deadlock configuration on real threads: every
// initial fork clean (the planted bug), vertex locking on a 4-ring, two
// workers. Clean forks at thinking philosophers never yield, so the fork
// table holds a chain that cannot move. The watchdog must confirm it as
// a deadlock, naming the stuck philosophers, and abort the run before
// the stall rule (stall_ms) would have fired.
TEST(WatchdogTest, ConfirmsPlantedDeadlockAndAborts) {
  IntrospectorGuard guard;
  struct PlantGuard {
    PlantGuard() { Planted::Enable("cm.clean_initial_forks"); }
    ~PlantGuard() { Planted::Clear(); }
  } plant;
  auto g = Graph::FromEdgeList(Ring(4));
  ASSERT_TRUE(g.ok());
  const Graph graph = g->Undirected();
  for (int threads : {1, 2}) {
    SCOPED_TRACE("compute threads per worker: " + std::to_string(threads));
    EngineOptions opts;
    opts.model = ComputationModel::kAsync;
    opts.sync_mode = SyncMode::kVertexLocking;
    opts.num_workers = 2;
    opts.compute_threads_per_worker = threads;
    opts.introspect = true;
    opts.watchdog.stall_ms = 500;
    opts.watchdog.abort_on_stall = true;
    Engine<Sssp> engine(&graph, opts);
    auto result = engine.Run(Sssp(0));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kAborted)
        << result.status();
    // First abort reason wins: a deadlock here means it beat the stall.
    EXPECT_NE(result.status().message().find(
                  "watchdog confirmed deadlock: fork chain vertex "),
              std::string::npos)
        << result.status();
  }
}

TEST(WatchdogTest, TransientCycleWithProgressIsNotADeadlock) {
  IntrospectorGuard guard;
  Reconfigure(2);
  Introspector& in = Introspector::Get();
  WaitTarget t0{7, 1};
  in.BeginAcquire(0, 3, &t0, 1, 1);
  WaitTarget t1{3, 0};
  in.BeginAcquire(1, 7, &t1, 1, 1);

  // Keep one involved worker's progress epoch moving: the cycle shape
  // persists but the frozen-epoch confirmation must never trigger.
  std::atomic<bool> stop{false};
  std::thread progress([&] {
    while (!stop.load(std::memory_order_acquire)) {
      in.OnProgress(0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  WatchdogOptions opts;
  // Deadlock confirmation needs frozen epochs across two consecutive
  // samples, so the 1ms progress ticker above must land in every
  // 2*period window. period_ms=5 made that window 10ms, which a loaded
  // scheduler misses often enough to flake; 25ms gives the ticker a
  // 50ms budget while the 150ms run still spans several samples.
  opts.period_ms = 25;
  opts.stall_ms = 10000;
  Watchdog dog(opts);
  dog.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  dog.Stop();
  stop.store(true, std::memory_order_release);
  progress.join();

  EXPECT_EQ(dog.summary().deadlocks_detected, 0);
  EXPECT_EQ(dog.summary().stalls_flagged, 0);
}

TEST(WatchdogTest, StreamsParseableJsonlSnapshots) {
  IntrospectorGuard guard;
  Reconfigure(2);
  Introspector& in = Introspector::Get();
  WaitTarget t{3, 1};
  in.BeginAcquire(0, 2, &t, 1, 1);

  const std::string path =
      ::testing::TempDir() + "/introspect_snapshots.jsonl";
  WatchdogOptions opts;
  opts.period_ms = 5;
  opts.jsonl_path = path;
  {
    Watchdog dog(opts);
    dog.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    dog.Stop();
    EXPECT_GE(dog.summary().snapshots, 1);
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string line;
  int snapshot_lines = 0;
  bool saw_final = false;
  bool saw_wait_edge = false;
  while (std::getline(file, line)) {
    ASSERT_FALSE(line.empty());
    // Structural JSONL check; full parsing is covered by the python
    // validator in scripts/check.sh --introspect.
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (line.find("\"type\":\"snapshot\"") != std::string::npos) {
      ++snapshot_lines;
      EXPECT_NE(line.find("\"workers\":["), std::string::npos) << line;
      EXPECT_NE(line.find("\"phase\":"), std::string::npos) << line;
    }
    if (line.find("\"final\":true") != std::string::npos) saw_final = true;
    if (line.find("\"wait_for\":[{") != std::string::npos) {
      saw_wait_edge = true;
    }
  }
  EXPECT_GE(snapshot_lines, 1);
  EXPECT_TRUE(saw_final);  // Stop() always takes a final sample
  EXPECT_TRUE(saw_wait_edge);
  std::remove(path.c_str());
}

TEST(IntrospectAbortTest, BlockedAcquireReturnsFalseOnAbort) {
  IntrospectorGuard guard;
  Reconfigure(1);
  Introspector& in = Introspector::Get();

  // Two neighboring philosophers on one worker. Philosopher 1 starts with
  // the shared fork (larger id, acyclic initial placement) and eats;
  // philosopher 0's Acquire blocks until the abort arrives.
  MetricRegistry metrics;
  Transport transport(1, NetworkOptions{}, &metrics);
  ChandyMisraTable::Config config;
  config.count = 2;
  config.adjacency = {{1}, {0}};
  config.worker_of = [](int64_t) { return WorkerId{0}; };
  config.num_workers = 1;
  config.request_tag = 1;
  config.transfer_tag = 2;
  config.metrics = &metrics;
  ChandyMisraTable table(std::move(config));
  LoopbackHandle handle(&transport, 0);
  table.BindWorker(0, &handle);
  std::thread pump([&] {
    while (auto msg = transport.Receive(0)) table.HandleControl(0, *msg);
  });

  ASSERT_TRUE(table.Acquire(1));  // holds the shared fork, eating

  std::atomic<bool> acquire_returned{false};
  bool acquire_result = true;
  std::thread blocked([&] {
    acquire_result = table.Acquire(0);  // fork held by eating neighbor
    acquire_returned.store(true, std::memory_order_release);
  });

  // Let it actually block (the wait loop polls the abort flag every
  // 100ms), then abort.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquire_returned.load(std::memory_order_acquire));
  in.RequestAbort("test abort");
  blocked.join();
  EXPECT_FALSE(acquire_result);

  // The abandoned acquire left philosopher 0 thinking with no forks held:
  // releasing the neighbor must not trip any protocol invariant.
  table.Release(1);
  transport.Shutdown();
  pump.join();
}

// --- engine integration --------------------------------------------------

TEST(IntrospectEngineTest, RunReportCarriesSnapshotsAndContention) {
  IntrospectorGuard guard;
  auto g = Graph::FromEdgeList(Ring(64));
  ASSERT_TRUE(g.ok());
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 2;
  opts.partitions_per_worker = 2;
  opts.compute_threads_per_worker = 1;
  opts.introspect = true;
  opts.watchdog.period_ms = 2;
  Engine<Sssp> engine(&*g, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  const RunStats& stats = result->stats;
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.resource_kind, "partition");
  EXPECT_GE(stats.introspect_snapshots, 1);
  // A healthy Chandy-Misra run must never be reported as deadlocked.
  EXPECT_EQ(stats.introspect_deadlocks, 0);
  EXPECT_EQ(stats.introspect_stalls, 0);
  EXPECT_EQ(result->values, ReferenceSssp(*g, 0));
  // Correct answer => introspection did not perturb the run.
  const std::string json = RunStatsToJson(stats);
  EXPECT_NE(json.find("\"introspection\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshots\""), std::string::npos);
}

// A program whose vertex 0 naps long enough for the watchdog to confirm a
// global stall: every other worker parks at the barrier with the progress
// sum frozen while vertex 0 sleeps.
struct NappingSssp {
  using VertexValue = int64_t;
  using Message = int64_t;

  static Message Combine(const Message& a, const Message& b) {
    return a < b ? a : b;
  }
  VertexValue InitialValue(VertexId, const Graph&) const {
    return kInfiniteDistance;
  }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    if (ctx.id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    int64_t best = ctx.value();
    if (ctx.id() == 0 && best == kInfiniteDistance) best = 0;
    for (Message m : messages) best = m < best ? m : best;
    if (best < ctx.value()) {
      ctx.set_value(best);
      ctx.SendToAllOutNeighbors(best + 1);
    }
    ctx.VoteToHalt();
  }
};

// The digest spans every attempt: a stall the watchdog flags (and that
// fails the attempt) stays in the run report after recovery succeeds.
TEST(IntrospectEngineTest, DigestCoversEveryAttempt) {
  IntrospectorGuard guard;
  auto g = Graph::FromEdgeList(Ring(64));
  ASSERT_TRUE(g.ok());
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 2;
  opts.partitions_per_worker = 2;
  opts.introspect = true;
  opts.watchdog.stall_ms = 300;
  opts.fault.recover = true;
  opts.fault.recovery_backoff_ms = 1;
  FaultEvent hang;
  hang.action = FaultAction::kHang;
  hang.point = "engine.post_compute";
  hang.worker = 1;
  hang.hit = 2;
  opts.fault.plan.events.push_back(hang);
  Engine<Sssp> engine(&*g, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  const RunStats& stats = result->stats;
  EXPECT_EQ(result->values, ReferenceSssp(*g, 0));
  EXPECT_GE(stats.recovery_attempts, 1);
  EXPECT_GE(stats.introspect_stalls, 1);
  ASSERT_FALSE(stats.introspect_incidents.empty());
  EXPECT_EQ(stats.introspect_incidents[0].rfind("stall: ", 0), 0u)
      << stats.introspect_incidents[0];
  EXPECT_GT(stats.introspect_snapshots, 1);
  EXPECT_EQ(stats.introspect_deadlocks, 0);
}

TEST(IntrospectEngineTest, WatchdogStallAbortYieldsAbortedStatus) {
  IntrospectorGuard guard;
  auto g = Graph::FromEdgeList(Ring(64));
  ASSERT_TRUE(g.ok());
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 2;
  opts.partitions_per_worker = 2;
  opts.compute_threads_per_worker = 1;
  opts.introspect = true;
  opts.watchdog.period_ms = 5;
  opts.watchdog.stall_ms = 50;
  opts.watchdog.abort_on_stall = true;
  Engine<NappingSssp> engine(&*g, opts);
  auto result = engine.Run(NappingSssp());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted)
      << result.status();
  EXPECT_NE(result.status().ToString().find("stall"), std::string::npos)
      << result.status();
}

}  // namespace
}  // namespace serigraph
