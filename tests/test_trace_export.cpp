// Round-trip tests for the Perfetto JSON trace format, plus malformed-input
// rejection, TDG_TRACE parsing and the end-to-end runtime trace pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "core/runtime.hpp"
#include "core/trace_export.hpp"

namespace tdg {
namespace {

std::vector<TaskRecord> sample_records() {
  // Labels must outlive the records (TaskRecord stores const char*).
  static const char* kLabels[] = {"alpha", "beta", "gamma"};
  std::vector<TaskRecord> rec;
  for (std::uint64_t i = 0; i < 3; ++i) {
    TaskRecord r;
    r.task_id = i + 1;
    r.t_create = 1000 * i;
    r.t_ready = 1000 * i + 100;
    r.t_start = 1000 * i + 500;
    r.t_end = 1000 * i + 900;
    r.thread = static_cast<std::uint32_t>(i % 2);
    r.iteration = static_cast<std::uint32_t>(i);
    r.label = kLabels[i];
    rec.push_back(r);
  }
  return rec;
}

std::vector<TraceEdge> sample_edges() { return {{1, 2}, {2, 3}, {1, 3}}; }

TEST(PerfettoExport, RoundTripPreservesRecordsAndEdges) {
  const auto rec = sample_records();
  const auto edges = sample_edges();
  std::ostringstream os;
  write_perfetto(os, rec, edges);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, rec[i].task_id);
    EXPECT_EQ(back.records[i].thread, rec[i].thread);
    EXPECT_EQ(back.records[i].iteration, rec[i].iteration);
    EXPECT_STREQ(back.records[i].label, rec[i].label);
    EXPECT_EQ(back.records[i].t_end - back.records[i].t_start,
              rec[i].t_end - rec[i].t_start);
    EXPECT_EQ(back.records[i].t_start - back.records[i].t_create,
              rec[i].t_start - rec[i].t_create);
    EXPECT_EQ(back.records[i].t_ready - back.records[i].t_create,
              rec[i].t_ready - rec[i].t_create);
  }
  ASSERT_EQ(back.edges.size(), edges.size());
  for (const TraceEdge& e : edges) {
    bool found = false;
    for (const TraceEdge& b : back.edges) {
      found |= b.pred == e.pred && b.succ == e.succ;
    }
    EXPECT_TRUE(found) << e.pred << "->" << e.succ;
  }
}

TEST(PerfettoExport, EmitsMetadataSlicesFlowsAndCounters) {
  const auto rec = sample_records();
  const auto edges = sample_edges();
  std::ostringstream os;
  write_perfetto(os, rec, edges);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
}

TEST(PerfettoExport, BareArrayFormAlsoParses) {
  // The trace-event spec allows a bare JSON array of events. Neither it
  // nor an object without otherData records an origin: t0 is 0.
  const std::string event =
      R"({"ph":"X","pid":0,"tid":0,"ts":0,"dur":5,"name":"t",)"
      R"("args":{"id":7,"iteration":0,"create_us":0,"ready_us":0}})";
  for (const std::string& text :
       {"[" + event + "]", R"({"traceEvents":[)" + event + "]}"}) {
    std::istringstream is(text);
    const ParsedTrace t = parse_perfetto(is);
    ASSERT_EQ(t.records.size(), 1u) << text;
    EXPECT_EQ(t.records[0].task_id, 7u);
    EXPECT_EQ(t.records[0].t_start, 0u);
    EXPECT_EQ(t.records[0].t_end, 5000u);
  }
}

TEST(PerfettoExport, OtherDataWithoutT0KeepsZeroOrigin) {
  // otherData may carry other keys (trace-event metadata); only t0_ns
  // moves the origin.
  const std::string text =
      R"({"traceEvents":[{"ph":"X","pid":0,"tid":0,"ts":2,"dur":5,)"
      R"("name":"t","args":{"id":7,"iteration":0,"create_us":1,)"
      R"("ready_us":1.5}}],"otherData":{"version":"x"}})";
  std::istringstream is(text);
  const ParsedTrace t = parse_perfetto(is);
  ASSERT_EQ(t.records.size(), 1u);
  EXPECT_EQ(t.records[0].t_create, 1000u);
  EXPECT_EQ(t.records[0].t_ready, 1500u);
  EXPECT_EQ(t.records[0].t_start, 2000u);
  EXPECT_EQ(t.records[0].t_end, 7000u);
}

TEST(PerfettoExport, EmptyTraceRecordsZeroOrigin) {
  std::ostringstream os;
  write_perfetto(os, {});
  EXPECT_NE(os.str().find("\"t0_ns\":\"0\""), std::string::npos);
  std::istringstream is(os.str());
  const ParsedTrace t = parse_perfetto(is);
  EXPECT_TRUE(t.records.empty());
  EXPECT_TRUE(t.comms.empty());
}

TEST(PerfettoExport, OriginIsTheEarliestTaskOrCommStamp) {
  // A comm posted before any task is created sets the origin; task and
  // comm stamps past 2^53 still come back exactly.
  constexpr std::uint64_t kBase = (std::uint64_t{1} << 58) + 777;
  std::vector<TaskRecord> rec = sample_records();
  for (TaskRecord& r : rec) {
    r.t_create += kBase + 5000;
    r.t_ready += kBase + 5000;
    r.t_start += kBase + 5000;
    r.t_end += kBase + 5000;
  }
  std::vector<CommRecord> comms(1);
  comms[0].kind = CommRecord::Kind::Collective;
  comms[0].seq = 3;
  comms[0].bytes = 8;
  comms[0].t_post = kBase + 1;
  comms[0].t_complete = kBase + 9001;
  std::ostringstream os;
  write_perfetto(os, rec, {}, {}, {}, {}, comms);
  EXPECT_NE(os.str().find("\"t0_ns\":\"" + std::to_string(kBase + 1) + "\""),
            std::string::npos);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.comms.size(), 1u);
  EXPECT_EQ(back.comms[0].t_post, kBase + 1);
  EXPECT_EQ(back.comms[0].t_complete, kBase + 9001);
  EXPECT_EQ(back.comms[0].seq, 3u);
  ASSERT_EQ(back.records.size(), rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(back.records[i].t_create, rec[i].t_create);
    EXPECT_EQ(back.records[i].t_ready, rec[i].t_ready);
    EXPECT_EQ(back.records[i].t_start, rec[i].t_start);
    EXPECT_EQ(back.records[i].t_end, rec[i].t_end);
  }
}

TEST(ParsedTraceIntern, OneStablePointerPerDistinctLabel) {
  ParsedTrace t;
  const std::string text = "alpha|beta";
  const char* a = t.intern(std::string_view(text).substr(0, 5));
  const char* b = t.intern(std::string_view(text).substr(6));
  EXPECT_STREQ(a, "alpha");
  EXPECT_STREQ(b, "beta");
  EXPECT_NE(a, b);
  // Growing the pool relocates no earlier label.
  for (int i = 0; i < 1000; ++i) t.intern("label" + std::to_string(i));
  EXPECT_EQ(t.intern("alpha"), a);
  EXPECT_EQ(t.intern("beta"), b);
  EXPECT_STREQ(a, "alpha");
  EXPECT_EQ(t.label_pool.size(), 1002u);
}

TEST(PerfettoExport, MalformedInputThrowsUsageError) {
  const char* bad[] = {
      "",
      "not json",
      "{\"traceEvents\": ",
      "{\"traceEvents\": 3}",
      "[{\"ph\":\"X\"",
      "{\"traceEvents\": [{]}",
      "{\"traceEvents\": [], \"otherData\": {\"t0_ns\": 12}}",
      "{\"traceEvents\": [], \"otherData\": {\"t0_ns\": \"-1\"}}",
  };
  for (const char* text : bad) {
    std::istringstream is(text);
    EXPECT_THROW(parse_perfetto(is), UsageError) << text;
  }
}

TEST(PerfettoExport, RoundTripIsLossless) {
  // Steady-clock nanoseconds: past 2^53, where a JSON number read as a
  // double would lose the low bits of the origin.
  constexpr std::uint64_t kBase = (std::uint64_t{1} << 60) + 12345;
  std::vector<TaskRecord> rec = sample_records();
  for (TaskRecord& r : rec) {
    r.t_create += kBase;
    r.t_ready += kBase;
    r.t_start += kBase;
    r.t_end += kBase;
  }
  rec[1].rank = 2;
  std::ostringstream os;
  write_perfetto(os, rec);
  EXPECT_NE(os.str().find("\"t0_ns\":\"" + std::to_string(kBase) + "\""),
            std::string::npos);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, rec[i].task_id);
    EXPECT_EQ(back.records[i].rank, rec[i].rank);
    EXPECT_EQ(back.records[i].t_create, rec[i].t_create);
    EXPECT_EQ(back.records[i].t_ready, rec[i].t_ready);
    EXPECT_EQ(back.records[i].t_start, rec[i].t_start);
    EXPECT_EQ(back.records[i].t_end, rec[i].t_end);
    EXPECT_EQ(back.records[i].thread, rec[i].thread);
    EXPECT_EQ(back.records[i].iteration, rec[i].iteration);
    EXPECT_STREQ(back.records[i].label, rec[i].label);
  }
}

std::vector<CommRecord> sample_comms() {
  std::vector<CommRecord> comms;
  CommRecord s;
  s.kind = CommRecord::Kind::Send;
  s.self = 0;
  s.peer = 1;
  s.tag = 7;
  s.seq = 1;
  s.bytes = 64;
  s.t_post = 1200;
  s.t_complete = 1300;
  s.retransmits = 2;
  s.task_id = 1;
  comms.push_back(s);
  CommRecord r;
  r.kind = CommRecord::Kind::Recv;
  r.self = 1;
  r.peer = 0;
  r.tag = 7;
  r.seq = 1;
  r.bytes = 64;
  r.t_post = 1100;
  r.t_complete = 1500;
  r.task_id = 2;
  comms.push_back(r);
  CommRecord c;
  c.kind = CommRecord::Kind::Collective;
  c.self = 0;
  c.tag = 0;
  c.seq = 1;
  c.bytes = 8;
  c.t_post = 2000;
  c.t_complete = 2600;
  comms.push_back(c);
  return comms;
}

TEST(PerfettoExport, CommRecordsRoundTripAndDrawMessageFlows) {
  const auto rec = sample_records();
  const auto comms = sample_comms();
  std::ostringstream os;
  write_perfetto(os, rec, {}, {}, {}, {}, comms);
  const std::string json = os.str();
  // The matched pair becomes a "msg" flow between the two comm tracks.
  EXPECT_NE(json.find("\"cat\":\"msg\""), std::string::npos);
  EXPECT_NE(json.find("send to 1 tag 7"), std::string::npos);
  EXPECT_NE(json.find("recv from 0 tag 7"), std::string::npos);
  EXPECT_NE(json.find("collective slot 0"), std::string::npos);

  std::istringstream is(json);
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.comms.size(), comms.size());
  // Parsed comms are sorted by t_post: recv (1100) < send (1200) < coll.
  const CommRecord& r0 = back.comms[0];
  const CommRecord& s0 = back.comms[1];
  const CommRecord& c0 = back.comms[2];
  EXPECT_EQ(r0.kind, CommRecord::Kind::Recv);
  EXPECT_EQ(s0.kind, CommRecord::Kind::Send);
  EXPECT_EQ(c0.kind, CommRecord::Kind::Collective);
  EXPECT_EQ(s0.self, 0);
  EXPECT_EQ(s0.peer, 1);
  EXPECT_EQ(s0.tag, 7);
  EXPECT_EQ(s0.seq, 1u);
  EXPECT_EQ(s0.bytes, 64u);
  EXPECT_EQ(s0.retransmits, 2u);
  EXPECT_EQ(s0.task_id, 1u);
  EXPECT_EQ(s0.t_complete - s0.t_post, 100u);
  EXPECT_EQ(r0.t_complete - r0.t_post, 400u);
  EXPECT_EQ(c0.t_complete - c0.t_post, 600u);
}

TEST(PerfettoExport, TaskRankRoundTripsThroughPid) {
  static const char* kLabel = "remote";
  std::vector<TaskRecord> rec = sample_records();
  rec[1].rank = 3;
  rec[1].label = kLabel;
  std::ostringstream os;
  write_perfetto(os, rec, {});
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  for (const TaskRecord& r : back.records) {
    EXPECT_EQ(r.rank, std::string(r.label) == "remote" ? 3 : 0);
  }
}

TEST(PerfettoExport, CommRecordsAndRankRoundTripExactly) {
  std::vector<TaskRecord> rec = sample_records();
  rec[2].rank = 5;
  const auto comms = sample_comms();
  std::ostringstream os;
  write_perfetto(os, rec, {}, {}, {}, {}, comms);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  EXPECT_EQ(back.records[2].rank, 5);
  ASSERT_EQ(back.comms.size(), comms.size());
  // otherData.t0_ns restores absolute nanoseconds; everything must match
  // bit-for-bit.
  const CommRecord& r0 = back.comms[0];  // sorted by t_post: the recv
  EXPECT_EQ(r0.kind, CommRecord::Kind::Recv);
  EXPECT_EQ(r0.self, 1);
  EXPECT_EQ(r0.peer, 0);
  EXPECT_EQ(r0.t_post, 1100u);
  EXPECT_EQ(r0.t_complete, 1500u);
  const CommRecord& s0 = back.comms[1];
  EXPECT_EQ(s0.kind, CommRecord::Kind::Send);
  EXPECT_EQ(s0.seq, 1u);
  EXPECT_EQ(s0.bytes, 64u);
  EXPECT_EQ(s0.retransmits, 2u);
  EXPECT_EQ(s0.task_id, 1u);
  EXPECT_EQ(s0.t_post, 1200u);
  EXPECT_EQ(s0.t_complete, 1300u);
}

TEST(RuntimeTrace, ProfilerStreamExportsAndParsesBack) {
  // End-to-end: run a small traced graph, export the profiler's stream,
  // parse it back and check the flow edges survived.
  std::vector<TaskRecord> records;
  std::vector<TraceEdge> edges;
  {
    Runtime rt({.num_threads = 2, .trace = true});
    double a = 0, b = 0, c = 0;
    rt.submit([&] { a = 1; }, {Depend::out(&a)}, {.label = "produce"});
    rt.submit([&] { b = a + 1; }, {Depend::in(&a), Depend::out(&b)},
              {.label = "left"});
    rt.submit([&] { c = a + 2; }, {Depend::in(&a), Depend::out(&c)},
              {.label = "right"});
    rt.submit([&] { a = b + c; },
              {Depend::in(&b), Depend::in(&c), Depend::out(&a)},
              {.label = "join"});
    rt.taskwait();
    records = rt.profiler().merged_trace();
    edges = rt.profiler().edges();
  }
  ASSERT_EQ(records.size(), 4u);
  ASSERT_GE(edges.size(), 4u);  // diamond: 2 from produce, 2 into join

  std::ostringstream os;
  write_perfetto(os, records, edges);
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), 4u);
  EXPECT_EQ(back.edges.size(), edges.size());
  // Real steady-clock stamps come back exactly.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, records[i].task_id);
    EXPECT_EQ(back.records[i].t_create, records[i].t_create);
    EXPECT_EQ(back.records[i].t_ready, records[i].t_ready);
    EXPECT_EQ(back.records[i].t_start, records[i].t_start);
    EXPECT_EQ(back.records[i].t_end, records[i].t_end);
  }
}

TEST(RuntimeTrace, TeardownExportKeepsAbsoluteTimes) {
  // TDG_TRACE turns tracing on and makes the runtime's destructor write
  // the Perfetto file; parsed back, it holds the profiler's own stamps.
  const std::string path = testing::TempDir() + "tdg_teardown_trace.json";
  std::remove(path.c_str());
  setenv("TDG_TRACE", "perfetto", 1);
  setenv("TDG_TRACE_FILE", path.c_str(), 1);
  std::vector<TaskRecord> records;
  std::vector<TraceEdge> edges;
  {
    Runtime rt({.num_threads = 2});
    double a = 0, b = 0;
    rt.submit([&] { a = 1; }, {Depend::out(&a)}, {.label = "produce"});
    rt.submit([&] { b = a + 1; }, {Depend::in(&a), Depend::out(&b)},
              {.label = "consume"});
    rt.taskwait();
    records = rt.profiler().merged_trace();
    edges = rt.profiler().edges();
  }
  unsetenv("TDG_TRACE");
  unsetenv("TDG_TRACE_FILE");
  ASSERT_EQ(records.size(), 2u);

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << path;
  const ParsedTrace back = parse_perfetto(is);
  std::remove(path.c_str());
  ASSERT_EQ(back.records.size(), records.size());
  EXPECT_EQ(back.edges.size(), edges.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, records[i].task_id);
    EXPECT_STREQ(back.records[i].label, records[i].label);
    EXPECT_EQ(back.records[i].t_create, records[i].t_create);
    EXPECT_EQ(back.records[i].t_start, records[i].t_start);
    EXPECT_EQ(back.records[i].t_end, records[i].t_end);
  }
}

}  // namespace
}  // namespace tdg
