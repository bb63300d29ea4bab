// Tests for the tracer: span nesting, thread safety of concurrent
// recording, the three retentions (off, tail, full) of its one event
// store, and round-tripping the exported Chrome trace-event JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace serigraph {
namespace {

/// Keeps a full trace for one test and restores the default tail
/// retention, empty, afterwards (the tracer is a singleton).
class TracerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Reset();
    Tracer::Get().Enable();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Reset();
  }
};

using TraceTest = TracerFixture;

// kOff records nothing, not even the always-on tail, and a thread that
// only ever records under it takes no log, hence no lock.
TEST_F(TraceTest, OffRecordsNothingAndTakesNoLog) {
  Tracer::SetRetention(Tracer::Retention::kOff);
  const size_t logs = Tracer::Get().log_count();
  const auto record = [] {
    { SG_TRACE_SPAN("ignored"); }
    SG_TRACE_INTERVAL("also_ignored", 0, 5);
    SG_TRACE_COUNTER("ignored_counter", 1);
    Tracer::RecordInstant("ignored_instant");
    Tracer::RecordFlow("ignored_flow", 's', 1);
  };
  record();
  std::thread(record).join();
  EXPECT_EQ(Tracer::Get().event_count(), 0);
  EXPECT_EQ(Tracer::Get().log_count(), logs);
  EXPECT_TRUE(Tracer::Get().Snapshot().empty());
}

TEST_F(TraceTest, SpansNestAndAllGetRecorded) {
  {
    SG_TRACE_SPAN("outer");
    {
      SG_TRACE_SPAN("inner");
      { SG_TRACE_SPAN("innermost"); }
    }
    // Two spans with the same macro on one line must not collide
    // (__COUNTER__ keeps the variable names unique).
    SG_TRACE_SPAN("sibling");
  }
  EXPECT_EQ(Tracer::Get().event_count(), 4);
  const std::string json = Tracer::Get().ToChromeTraceJson();
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"innermost\""), std::string::npos);
  EXPECT_NE(json.find("\"sibling\""), std::string::npos);
}

TEST_F(TraceTest, IntervalMacroRecordsGivenTimes) {
  SG_TRACE_INTERVAL("manual", 1234, 42);
  EXPECT_EQ(Tracer::Get().event_count(), 1);
  const std::string json = Tracer::Get().ToChromeTraceJson();
  EXPECT_NE(json.find("\"ts\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":42"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 5000;  // forces chunk growth (2048/chunk)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Tracer::Get().SetCurrentThreadName("t" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        SG_TRACE_SPAN("work");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Tracer::Get().event_count(), kThreads * kEventsPerThread);
  EXPECT_EQ(Tracer::Get().dropped_count(), 0);
}

TEST_F(TraceTest, ExportWhileRecordingIsSafe) {
  std::thread writer([] {
    for (int i = 0; i < 20000; ++i) {
      SG_TRACE_SPAN("hot");
    }
  });
  // Concurrent export must see a consistent prefix, not crash or tear.
  for (int i = 0; i < 10; ++i) {
    const std::string json = Tracer::Get().ToChromeTraceJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
  }
  writer.join();
  EXPECT_EQ(Tracer::Get().event_count(), 20000);
}

/// Chrome trace-event JSON must parse as an object whose "traceEvents"
/// member is an array of objects with name/ph/pid/tid/ts/dur members.
/// A tiny recursive-descent validator keeps the test dependency-free.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  bool ValidValue() { return Value() && (Skip(), pos_ == text_.size()); }
  int objects_seen() const { return objects_; }
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  void Skip() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out.push_back(text_[pos_]);
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    last_string_ = std::move(out);
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    Skip();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    ++objects_;
    ++pos_;  // '{'
    Skip();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      Skip();
      if (!String()) return false;
      keys_.push_back(last_string_);
      Skip();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') return false;
    ++pos_;
    return true;
  }
  bool Array() {
    ++pos_;  // '['
    Skip();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) return false;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') return false;
    ++pos_;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int objects_ = 0;
  std::string last_string_;
  std::vector<std::string> keys_;
};

TEST_F(TraceTest, ChromeTraceJsonRoundTrips) {
  Tracer::Get().SetCurrentThreadName("main");
  { SG_TRACE_SPAN("alpha"); }
  SG_TRACE_INTERVAL("beta", 10, 20);

  const std::string json = Tracer::Get().ToChromeTraceJson();
  JsonCursor cursor(json);
  ASSERT_TRUE(cursor.ValidValue()) << json;

  // Top-level object + thread_name metadata + 2 events.
  EXPECT_GE(cursor.objects_seen(), 4);
  const auto& keys = cursor.keys();
  auto has = [&](const char* k) {
    return std::find(keys.begin(), keys.end(), k) != keys.end();
  };
  EXPECT_TRUE(has("traceEvents"));
  EXPECT_TRUE(has("name"));
  EXPECT_TRUE(has("ph"));
  EXPECT_TRUE(has("pid"));
  EXPECT_TRUE(has("tid"));
  EXPECT_TRUE(has("ts"));
  EXPECT_TRUE(has("dur"));
}

TEST_F(TraceTest, ResetClearsEventsAndReusesThreads) {
  { SG_TRACE_SPAN("before"); }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
  Tracer::Get().Reset();
  EXPECT_EQ(Tracer::Get().event_count(), 0);
  // The recording thread keeps its (now empty) log across Reset.
  { SG_TRACE_SPAN("after"); }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
  const std::string json = Tracer::Get().ToChromeTraceJson();
  EXPECT_EQ(json.find("\"before\""), std::string::npos);
  EXPECT_NE(json.find("\"after\""), std::string::npos);
}

TEST(TimelineTest, CollectOrdersBySuperstepThenWorker) {
  TimelineRecorder recorder(2);
  SuperstepSample s;
  s.superstep = 1;
  s.worker = 1;
  s.compute_us = 10;
  recorder.Append(s);
  s.superstep = 0;
  s.compute_us = 5;
  recorder.Append(s);
  s.worker = 0;
  s.superstep = 0;
  s.compute_us = 7;
  recorder.Append(s);

  const auto all = recorder.Collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].superstep, 0);
  EXPECT_EQ(all[0].worker, 0);
  EXPECT_EQ(all[1].superstep, 0);
  EXPECT_EQ(all[1].worker, 1);
  EXPECT_EQ(all[2].superstep, 1);
  EXPECT_EQ(all[2].worker, 1);
  EXPECT_EQ(Total(all, &SuperstepSample::compute_us), 22);
}

TEST(ReportTest, RunReportJsonContainsMetricsAndTimeline) {
  RunReport report;
  report.supersteps = 3;
  report.converged = true;
  report.computation_seconds = 0.25;
  report.metrics["engine.barrier_wait_us.p95"] = 120;
  SuperstepSample s;
  s.superstep = 0;
  s.worker = 1;
  s.compute_us = 99;
  report.timeline.push_back(s);

  const std::string json = RunReportToJson(report);
  JsonCursor cursor(json);
  ASSERT_TRUE(cursor.ValidValue()) << json;
  EXPECT_NE(json.find("\"supersteps\":3"), std::string::npos);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"engine.barrier_wait_us.p95\":120"),
            std::string::npos);
  EXPECT_NE(json.find("\"compute_us\":99"), std::string::npos);
  // No introspection fields set: the section is omitted entirely.
  EXPECT_EQ(json.find("\"introspection\""), std::string::npos);
}

TEST_F(TraceTest, FlowEventsPairSendAndReceiveByIdInExport) {
  const uint64_t id = Tracer::NextFlowId();
  EXPECT_GT(id, 0u);
  Tracer::RecordFlow("net.batch_flow", 's', id);
  Tracer::RecordFlow("net.batch_flow", 'f', id);
  EXPECT_EQ(Tracer::Get().event_count(), 2);
  const std::string json = Tracer::Get().ToChromeTraceJson();
  const std::string idstr = "\"id\":" + std::to_string(id);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos) << json;
  // Binding point "e" makes the arrow terminate at the enclosing slice.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos) << json;
  // Both ends carry the same id.
  const size_t first = json.find(idstr);
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_NE(json.find(idstr, first + 1), std::string::npos) << json;
}

/// (tid, ts, dur) of every "tail.span" span in a Chrome trace export.
std::set<std::tuple<int, long long, long long>> ExportedSpans(
    const std::string& json) {
  static const std::string kPrefix =
      "{\"name\":\"tail.span\",\"ph\":\"X\",\"pid\":0,";
  std::set<std::tuple<int, long long, long long>> spans;
  for (size_t at = json.find(kPrefix); at != std::string::npos;
       at = json.find(kPrefix, at + 1)) {
    int tid = 0;
    long long ts = 0, dur = 0;
    EXPECT_EQ(std::sscanf(json.c_str() + at + kPrefix.size(),
                          "\"tid\":%d,\"ts\":%lld,\"dur\":%lld", &tid, &ts,
                          &dur),
              3);
    spans.emplace(tid, ts, dur);
  }
  return spans;
}

// The incident bundle's tail is the newest slice of the very trace that
// --trace-out drains: same lanes, same events, flows and names included.
TEST_F(TraceTest, TailIsTheNewestSliceOfTheFullTrace) {
  constexpr int kSpans = static_cast<int>(Tracer::kTailEvents) + 300;
  const uint64_t flow = Tracer::NextFlowId();
  const auto record = [flow](const char* lane, char flow_ph) {
    Tracer::Get().SetCurrentThreadName(lane);
    for (int i = 0; i < kSpans; ++i) {
      SG_TRACE_INTERVAL("tail.span", 1000 + i, i % 7);
    }
    Tracer::RecordFlow("tail.flow", flow_ph, flow);
  };
  std::thread sender(record, "tail-sender", 's');
  std::thread receiver(record, "tail-receiver", 'f');
  sender.join();
  receiver.join();

  // Per thread, the tail holds exactly the newest kTailEvents events of
  // the full trace, field for field.
  std::map<uint32_t, std::vector<TraceEvent>> full, tail;
  for (const TraceEvent& e : Tracer::Get().Snapshot()) full[e.tid].push_back(e);
  for (const TraceEvent& e : Tracer::Get().Snapshot(Tracer::kTailEvents)) {
    tail[e.tid].push_back(e);
  }
  ASSERT_EQ(full.size(), 2u);
  ASSERT_EQ(tail.size(), 2u);
  for (const auto& [tid, events] : full) {
    ASSERT_EQ(events.size(), static_cast<size_t>(kSpans) + 1);
    const std::vector<TraceEvent>& newest = tail[tid];
    ASSERT_EQ(newest.size(), Tracer::kTailEvents);
    const size_t skipped = events.size() - newest.size();
    for (size_t i = 0; i < newest.size(); ++i) {
      const TraceEvent& a = newest[i];
      const TraceEvent& b = events[skipped + i];
      EXPECT_EQ(std::string(a.name), b.name);
      EXPECT_EQ(std::make_tuple(a.tid, a.ts_us, a.value, a.ph),
                std::make_tuple(b.tid, b.ts_us, b.value, b.ph));
    }
    EXPECT_STREQ(newest.back().name, "tail.flow");
  }

  // The exports agree too: every tail span appears in the full export,
  // each lane keeps its newest kTailEvents - 1 spans, and the flow ends
  // and lane names survive the cut.
  const std::string full_json = Tracer::Get().ToChromeTraceJson();
  const std::string tail_json =
      Tracer::Get().ToChromeTraceJson(Tracer::kTailEvents);
  const auto full_spans = ExportedSpans(full_json);
  const auto tail_spans = ExportedSpans(tail_json);
  EXPECT_EQ(full_spans.size(), 2u * kSpans);
  EXPECT_EQ(tail_spans.size(), 2u * (Tracer::kTailEvents - 1));
  std::map<int, long long> oldest_ts;
  for (const auto& span : tail_spans) {
    EXPECT_TRUE(full_spans.count(span));
    auto [it, fresh] = oldest_ts.emplace(std::get<0>(span), std::get<1>(span));
    if (!fresh) it->second = std::min(it->second, std::get<1>(span));
  }
  for (const auto& [tid, ts] : oldest_ts) {
    EXPECT_EQ(ts, 1000 + kSpans - static_cast<long long>(Tracer::kTailEvents) +
                      1)
        << "lane " << tid;
  }
  const std::string id = "\"id\":" + std::to_string(flow);
  for (const std::string* json : {&full_json, &tail_json}) {
    EXPECT_NE(json->find("\"ph\":\"s\",\"pid\":0"), std::string::npos);
    EXPECT_NE(json->find("\"ph\":\"f\",\"pid\":0"), std::string::npos);
    EXPECT_NE(json->find(id), std::string::npos);
    EXPECT_NE(json->find(id, json->find(id) + 1), std::string::npos);
    EXPECT_NE(json->find("\"tail-sender\""), std::string::npos);
    EXPECT_NE(json->find("\"tail-receiver\""), std::string::npos);
  }
}

// Moves between the retentions keep what each promises: a full trace
// keeps exited threads, Reset() recycles their logs, and Disable() goes
// back to the tail without losing events from the count.
TEST_F(TraceTest, RetentionTransitions) {
  std::thread([] { SG_TRACE_INTERVAL("keep.first", 1, 1); }).join();
  std::thread([] { SG_TRACE_INTERVAL("keep.second", 2, 1); }).join();
  std::map<std::string, uint32_t> tid_of;
  for (const TraceEvent& e : Tracer::Get().Snapshot()) tid_of[e.name] = e.tid;
  // The second thread did not take over the first one's log.
  ASSERT_EQ(tid_of.count("keep.first"), 1u);
  ASSERT_EQ(tid_of.count("keep.second"), 1u);
  EXPECT_NE(tid_of["keep.first"], tid_of["keep.second"]);
  EXPECT_EQ(Tracer::Get().event_count(), 2);

  // After Reset() the two exited threads' logs are empty and get reused.
  Tracer::Get().Reset();
  const size_t logs = Tracer::Get().log_count();
  for (int i = 0; i < 2; ++i) {
    std::thread([] { SG_TRACE_INTERVAL("keep.after_reset", 3, 1); }).join();
  }
  EXPECT_EQ(Tracer::Get().log_count(), logs);
  EXPECT_EQ(Tracer::Get().event_count(), 2);

  // Back to the tail: new events, on this thread and on a new one, still
  // reach both the tail and the count.
  Tracer::Get().Disable();
  { SG_TRACE_SPAN("tail.main"); }
  std::thread([] { SG_TRACE_COUNTER("tail.thread", 5); }).join();
  EXPECT_EQ(Tracer::Get().event_count(), 4);
  std::set<std::string> names;
  for (const TraceEvent& e : Tracer::Get().Snapshot(Tracer::kTailEvents)) {
    names.insert(e.name);
  }
  EXPECT_TRUE(names.count("tail.main"));
  EXPECT_TRUE(names.count("tail.thread"));
}

TEST(FlowIdTest, IdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ids[t].push_back(Tracer::NextFlowId());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(ReportTest, IntrospectionSectionRendersWhenPopulated) {
  RunReport report;
  report.supersteps = 1;
  report.resource_kind = "partition";
  report.introspect_snapshots = 4;
  report.introspect_stalls = 1;
  report.introspect_deadlocks = 0;
  report.introspect_incidents.push_back("stall: no progress for 2000ms");
  ContentionEntry c;
  c.resource = 12;
  c.count = 3;
  c.total_wait_us = 4500;
  c.max_wait_us = 2000;
  report.contention.push_back(c);
  EdgeContentionEntry e;
  e.waiter = 12;
  e.blocker = 13;
  e.count = 3;
  e.total_wait_us = 4500;
  report.contention_edges.push_back(e);

  const std::string json = RunReportToJson(report);
  JsonCursor cursor(json);
  ASSERT_TRUE(cursor.ValidValue()) << json;
  EXPECT_NE(json.find("\"introspection\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resource_kind\":\"partition\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshots\":4"), std::string::npos);
  EXPECT_NE(json.find("\"stalls\":1"), std::string::npos);
  EXPECT_NE(json.find("\"resource\":12"), std::string::npos);
  EXPECT_NE(json.find("\"blocker\":13"), std::string::npos);
  EXPECT_NE(json.find("stall: no progress"), std::string::npos);
}

TEST(ReportTest, PrometheusTextSanitizesNamesAndPrefixes) {
  std::map<std::string, int64_t> metrics;
  metrics["net.wire_bytes"] = 4096;
  metrics["sync.fork_wait_us.p95"] = 120;  // lone quantile: no family
  const std::string text = MetricsToPrometheusText(metrics);
  // Each metric gets a "# TYPE" header and a "name value\n" line,
  // serigraph_-prefixed, with all chars outside the Prometheus charset
  // mapped to underscores. An incomplete histogram family (here only
  // .p95, no .p50/.max/.count/.sum siblings) degrades to a plain metric.
  EXPECT_NE(text.find("# TYPE serigraph_net_wire_bytes counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serigraph_net_wire_bytes 4096\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("serigraph_sync_fork_wait_us_p95 120\n"),
            std::string::npos)
      << text;
}

TEST(ReportTest, PrometheusTextRendersHistogramFamiliesAsSummaries) {
  std::map<std::string, int64_t> metrics;
  metrics["sync.fork_wait_us.p50"] = 40;
  metrics["sync.fork_wait_us.p95"] = 120;
  metrics["sync.fork_wait_us.max"] = 300;
  metrics["sync.fork_wait_us.count"] = 10;
  metrics["sync.fork_wait_us.sum"] = 500;
  metrics["net.peak_inbox_depth"] = 7;
  const std::string text = MetricsToPrometheusText(metrics);
  // A complete .p50/.p95/.max/.count/.sum family renders once as a
  // Prometheus summary (quantile labels + _count/_sum) plus a _max
  // gauge, not as five opaque counters.
  EXPECT_NE(text.find("# TYPE serigraph_sync_fork_wait_us summary\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("serigraph_sync_fork_wait_us{quantile=\"0.5\"} 40\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("serigraph_sync_fork_wait_us{quantile=\"0.95\"} 120\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("serigraph_sync_fork_wait_us_count 10\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serigraph_sync_fork_wait_us_sum 500\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE serigraph_sync_fork_wait_us_max gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serigraph_sync_fork_wait_us_max 300\n"),
            std::string::npos)
      << text;
  // Known point-in-time metrics are typed gauge, not counter.
  EXPECT_NE(text.find("# TYPE serigraph_net_peak_inbox_depth gauge\n"),
            std::string::npos)
      << text;
  // The raw dotted keys must not leak through alongside the summary.
  EXPECT_EQ(text.find("serigraph_sync_fork_wait_us_p50"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace serigraph
