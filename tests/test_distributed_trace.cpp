// Distributed tracing: cross-rank trace stitching (merge + clock-offset
// rebasing), derived message edges feeding the comm-aware critical path,
// flow matching under duplicate injection, and the end-to-end multi-rank
// record -> merge -> export -> parse-back round-trip.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/analysis.hpp"
#include "core/tdg.hpp"
#include "core/trace_export.hpp"
#include "core/trace_merge.hpp"
#include "mpi/interop.hpp"
#include "mpi/mpi.hpp"

namespace tdg {
namespace {

TaskRecord make_record(std::uint64_t id, std::uint64_t t_start,
                       std::uint64_t t_end, const char* label) {
  TaskRecord r;
  r.task_id = id;
  r.t_create = t_start;
  r.t_ready = t_start;
  r.t_start = t_start;
  r.t_end = t_end;
  r.label = label;
  return r;
}

CommRecord make_comm(CommRecord::Kind kind, std::int32_t self,
                     std::int32_t peer, std::int32_t tag, std::uint64_t seq,
                     std::uint64_t t_post, std::uint64_t t_complete,
                     std::uint64_t task_id) {
  CommRecord c;
  c.kind = kind;
  c.self = self;
  c.peer = peer;
  c.tag = tag;
  c.seq = seq;
  c.bytes = 64;
  c.t_post = t_post;
  c.t_complete = t_complete;
  c.task_id = task_id;
  return c;
}

/// Two hand-built per-rank traces: rank 0 produces and sends, rank 1
/// receives and consumes. Rank 1's clock runs `skew_ns` ahead.
std::vector<ParsedTrace> two_rank_inputs(std::int64_t skew_ns) {
  const std::uint64_t skew = static_cast<std::uint64_t>(skew_ns);
  std::vector<ParsedTrace> inputs(2);
  inputs[0].records.push_back(make_record(1, 100, 1000, "produce"));
  inputs[0].comms.push_back(make_comm(CommRecord::Kind::Send, 0, 1, 5, 1,
                                      1000, 1100, 1));
  // Local ids intentionally collide with rank 0's (both use task id 1) to
  // exercise the global remapping.
  inputs[1].records.push_back(
      make_record(1, 2000 + skew, 3000 + skew, "consume"));
  inputs[1].comms.push_back(make_comm(CommRecord::Kind::Recv, 1, 0, 5, 1,
                                      500 + skew, 1900 + skew, 1));
  return inputs;
}

TEST(TraceMerge, StitchesRanksAndDerivesCrossRankEdges) {
  MergeResult res = merge_traces(two_rank_inputs(0));
  EXPECT_EQ(res.matched_messages, 1u);
  EXPECT_EQ(res.unmatched_messages, 0u);
  ASSERT_EQ(res.ranks.size(), 2u);
  EXPECT_EQ(res.ranks[0], 0);
  EXPECT_EQ(res.ranks[1], 1);

  // Colliding local ids became distinct global ids on distinct strides.
  ASSERT_EQ(res.trace.records.size(), 2u);
  const std::uint64_t id0 = kMergeRankStride + 1;
  const std::uint64_t id1 = 2 * kMergeRankStride + 1;
  EXPECT_EQ(res.trace.records[0].task_id, id0);
  EXPECT_EQ(res.trace.records[1].task_id, id1);
  EXPECT_EQ(res.trace.records[0].rank, 0);
  EXPECT_EQ(res.trace.records[1].rank, 1);

  ASSERT_EQ(res.cross_rank_edges.size(), 1u);
  EXPECT_EQ(res.cross_rank_edges[0].pred, id0);
  EXPECT_EQ(res.cross_rank_edges[0].succ, id1);

  // The comm-aware critical path traverses the message edge and reports
  // the rank crossing.
  const CriticalPath cp = critical_path(res.trace.records, res.trace.edges);
  ASSERT_EQ(cp.nodes.size(), 2u);
  EXPECT_GE(cp.comm_hops, 1u);
  EXPECT_EQ(cp.nodes[0].rank, 0);
  EXPECT_EQ(cp.nodes[1].rank, 1);
}

TEST(TraceMerge, ClockOffsetRebasingRestoresCausality) {
  // Rank 1's clock runs 10 ms ahead; without rebasing, its receive would
  // sit far in the future. After merging, every matched pair must be
  // causal (send post <= recv complete) and the offset must show up in
  // offset_ns for the skewed input.
  MergeResult res = merge_traces(two_rank_inputs(10'000'000));
  ASSERT_EQ(res.matched_messages, 1u);
  EXPECT_EQ(res.offset_ns[0], 0);
  EXPECT_GT(res.offset_ns[1], 0);

  const CommRecord* send = nullptr;
  const CommRecord* recv = nullptr;
  for (const CommRecord& c : res.trace.comms) {
    if (c.kind == CommRecord::Kind::Send) send = &c;
    if (c.kind == CommRecord::Kind::Recv) recv = &c;
  }
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_LE(send->t_post, recv->t_complete);
  // Merged timeline is normalized: it starts at zero somewhere.
  std::uint64_t tmin = UINT64_MAX;
  for (const TaskRecord& r : res.trace.records) {
    tmin = std::min(tmin, r.t_create);
  }
  for (const CommRecord& c : res.trace.comms) {
    tmin = std::min(tmin, c.t_post);
  }
  EXPECT_EQ(tmin, 0u);
  // Tasks stay internally monotone after rebasing.
  for (const TaskRecord& r : res.trace.records) {
    EXPECT_LE(r.t_create, r.t_start);
    EXPECT_LE(r.t_start, r.t_end);
  }
}

TEST(TraceMerge, MergedTraceRoundTripsThroughBothFormats) {
  MergeResult res = merge_traces(two_rank_inputs(0));
  std::ostringstream os;
  write_perfetto(os, res.trace.records, res.trace.edges, res.trace.accesses,
                 {}, {}, res.trace.comms);
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), res.trace.records.size());
  EXPECT_EQ(back.edges.size(), res.trace.edges.size());
  ASSERT_EQ(back.comms.size(), res.trace.comms.size());
  // Ranks survive via the pid scheme.
  EXPECT_EQ(back.records[0].rank, 0);
  EXPECT_EQ(back.records[1].rank, 1);
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id, res.trace.records[i].task_id);
    EXPECT_EQ(back.records[i].rank, res.trace.records[i].rank);
    EXPECT_EQ(back.records[i].t_start, res.trace.records[i].t_start);
  }
  for (std::size_t i = 0; i < back.comms.size(); ++i) {
    EXPECT_EQ(back.comms[i].seq, res.trace.comms[i].seq);
    EXPECT_EQ(back.comms[i].t_post, res.trace.comms[i].t_post);
  }
}

TEST(TraceMerge, OneTraceWithoutOffsetsIsAShiftToZero) {
  // `tdg-trace merge <one file> --no-offsets`: no clock is estimated, ids
  // are remapped, and every stamp moves by the same amount, the earliest
  // create or post time, so gaps survive exactly.
  constexpr std::uint64_t kBase = (std::uint64_t{1} << 58) + 321;
  std::vector<ParsedTrace> inputs(1);
  inputs[0].records.push_back(
      make_record(1, kBase + 100, kBase + 1000, "produce"));
  inputs[0].records.push_back(
      make_record(2, kBase + 1200, kBase + 1800, "consume"));
  inputs[0].edges.push_back({1, 2});
  inputs[0].comms.push_back(make_comm(CommRecord::Kind::Send, 0, 1, 5, 1,
                                      kBase + 40, kBase + 1100, 1));
  const ParsedTrace in = inputs[0];
  MergeOptions opts;
  opts.estimate_clock_offsets = false;
  MergeResult res = merge_traces(std::move(inputs), opts);
  ASSERT_EQ(res.offset_ns.size(), 1u);
  EXPECT_EQ(res.offset_ns[0], 0);
  EXPECT_EQ(res.ranks[0], 0);

  std::ostringstream os;
  write_perfetto(os, res.trace.records, res.trace.edges, {}, {}, {},
                 res.trace.comms);
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  const std::uint64_t shift = kBase + 40;
  ASSERT_EQ(back.records.size(), in.records.size());
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].task_id,
              kMergeRankStride + in.records[i].task_id);
    EXPECT_STREQ(back.records[i].label, in.records[i].label);
    EXPECT_EQ(back.records[i].t_create, in.records[i].t_create - shift);
    EXPECT_EQ(back.records[i].t_start, in.records[i].t_start - shift);
    EXPECT_EQ(back.records[i].t_end, in.records[i].t_end - shift);
  }
  ASSERT_EQ(back.edges.size(), 1u);
  EXPECT_EQ(back.edges[0].pred, kMergeRankStride + 1);
  EXPECT_EQ(back.edges[0].succ, kMergeRankStride + 2);
  ASSERT_EQ(back.comms.size(), 1u);
  EXPECT_EQ(back.comms[0].t_post, 0u);
  EXPECT_EQ(back.comms[0].t_complete, 1060u);
  EXPECT_EQ(back.comms[0].task_id, kMergeRankStride + 1);
}

TEST(TraceMerge, CommWaitAndOverlapAnalyses) {
  MergeResult res = merge_traces(two_rank_inputs(0));
  const std::vector<CommWaitEntry> waits =
      comm_wait_by_label(res.trace.comms, res.trace.records);
  ASSERT_FALSE(waits.empty());
  // The receive is owned by "consume" and dominates the wait ranking.
  EXPECT_EQ(waits.front().label, "consume");
  EXPECT_GT(waits.front().wait_seconds, 0.0);

  const std::vector<RankOverlap> rows =
      rank_overlap_matrix(res.trace.records, res.trace.comms);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rank, 0);
  EXPECT_EQ(rows[1].rank, 1);
  EXPECT_EQ(rows[0].tasks, 1u);
  EXPECT_GT(rows[1].comm_wait_seconds, 0.0);
}

/// Live 2-rank universe under duplicate injection with reliable delivery:
/// every recorded send must match exactly one recorded receive on the
/// same (src, dst, tag, seq) — duplicates are suppressed before they can
/// mint a second receive record.
TEST(DistributedTrace, FlowMatchingSurvivesDuplicateInjection) {
  mpi::Universe::Options opts;
  opts.comm_trace = true;
  opts.reliable.enabled = true;
  opts.faults.duplicate_probability = 0.5;
  opts.faults.seed = 42;

  TelemetryHub::instance().drain();  // isolate from other tests
  std::vector<std::vector<CommRecord>> per_rank(2);
  mpi::Universe::run(2, [&](mpi::Comm& comm) {
    Runtime rt({.num_threads = 2, .trace = true});
    mpi::RequestPoller poller(rt, comm);
    const int peer = 1 - comm.rank();
    constexpr int kRounds = 8;
    std::vector<double> sbuf(16, comm.rank() + 1.0), rbuf(16, 0.0);
    for (int i = 0; i < kRounds; ++i) {
      Event* sev = rt.create_event();
      rt.submit(
          [&, sev] {
            poller.complete_on_event(
                comm.isend(sbuf.data(), sbuf.size() * sizeof(double), peer,
                           i),
                sev);
          },
          {Depend::in(sbuf.data())}, {.label = "send", .detach = sev});
      Event* rev = rt.create_event();
      rt.submit(
          [&, rev] {
            poller.complete_on_event(
                comm.irecv(rbuf.data(), rbuf.size() * sizeof(double), peer,
                           i),
                rev);
          },
          {Depend::out(rbuf.data())}, {.label = "recv", .detach = rev});
      rt.taskwait();
    }
    per_rank[static_cast<std::size_t>(comm.rank())] =
        rt.profiler().comm_records();
  }, opts);

  // Every send pairs with exactly one receive and vice versa.
  std::map<std::tuple<int, int, int, std::uint64_t>, std::pair<int, int>>
      sides;
  std::size_t sends = 0, recvs = 0;
  for (const auto& comms : per_rank) {
    for (const CommRecord& c : comms) {
      ASSERT_NE(c.seq, 0u) << "universe did not assign stream sequences";
      if (c.kind == CommRecord::Kind::Send) {
        ++sends;
        ++sides[{c.self, c.peer, c.tag, c.seq}].first;
      } else if (c.kind == CommRecord::Kind::Recv) {
        ++recvs;
        ++sides[{c.peer, c.self, c.tag, c.seq}].second;
      }
    }
  }
  EXPECT_EQ(sends, 16u);  // 8 rounds x 2 ranks
  EXPECT_EQ(recvs, 16u);
  for (const auto& [key, counts] : sides) {
    EXPECT_EQ(counts.first, 1) << "duplicate send record";
    EXPECT_EQ(counts.second, 1) << "duplicate/missing recv record";
  }

  // And the merged view stitches all of them.
  std::vector<ParsedTrace> inputs(2);
  inputs[0].comms = per_rank[0];
  inputs[1].comms = per_rank[1];
  const MergeResult res = merge_traces(std::move(inputs));
  EXPECT_EQ(res.matched_messages, 16u);
  EXPECT_EQ(res.unmatched_messages, 0u);
}

/// One stream of `kStreamSends` values 1..N from rank 0 to rank 1 on one
/// tag under an unreliable fault plan, with comm tracing on. `prepost`
/// posts every receive before the first send (sends match directly);
/// otherwise the receives are posted after every send is queued (they
/// match in the mailbox). Returns one send record per send and one
/// receive record per completed receive, each carrying the request's
/// trace_seq; a record's task id is the value its buffer held.
constexpr int kStreamSends = 200;
std::vector<CommRecord> traced_stream(const mpi::FaultPlan& faults,
                                      bool prepost) {
  mpi::Universe::Options opts;
  opts.comm_trace = true;
  opts.faults = faults;
  constexpr int kTag = 3;
  std::vector<CommRecord> per_rank[2];
  mpi::Universe::run(2, [&](mpi::Comm& comm) {
    std::vector<CommRecord>& mine = per_rank[comm.rank()];
    if (comm.rank() == 0) {
      std::vector<double> vals(kStreamSends);
      std::vector<mpi::Request> sends;
      if (prepost) comm.barrier();
      for (int v = 1; v <= kStreamSends; ++v) {
        vals[v - 1] = v;
        sends.push_back(comm.isend(&vals[v - 1], sizeof(double), 1, kTag));
      }
      comm.waitall(sends);
      comm.barrier();
      for (int v = 1; v <= kStreamSends; ++v) {
        mine.push_back(make_comm(CommRecord::Kind::Send, 0, 1, kTag,
                                 sends[v - 1].trace_seq(), 0, 1,
                                 static_cast<std::uint64_t>(v)));
      }
      return;
    }
    std::vector<double> got(kStreamSends, 0.0);
    std::vector<mpi::Request> recvs;
    auto post = [&] {
      for (double& g : got) {
        recvs.push_back(comm.irecv(&g, sizeof(double), 0, kTag));
      }
    };
    if (prepost) {
      post();
      comm.barrier();
      comm.barrier();
    } else {
      comm.barrier();
      post();
    }
    for (int i = 0; i < kStreamSends; ++i) {
      if (!mpi::Comm::test(recvs[i])) continue;  // its message was lost
      mine.push_back(make_comm(CommRecord::Kind::Recv, 1, 0, kTag,
                               recvs[i].trace_seq(), 2, 3,
                               static_cast<std::uint64_t>(got[i])));
    }
  }, opts);
  per_rank[0].insert(per_rank[0].end(), per_rank[1].begin(),
                     per_rank[1].end());
  return per_rank[0];
}

struct StreamCase {
  const char* name;
  double duplicate;
  double loss;
  bool prepost;
};

const StreamCase kStreamCases[] = {
    {"duplicates", 0.3, 0.0, false},
    {"loss", 0.0, 0.2, false},
    {"loss, receives posted first", 0.0, 0.2, true},
};

/// A receive's trace_seq is the number of the message it received, not
/// the count of its own posts: under loss and duplication the nth receive
/// often holds another message than the nth send.
TEST(DistributedTrace, ReceiveSeqNamesTheSendItHolds) {
  for (const StreamCase& sc : kStreamCases) {
    SCOPED_TRACE(sc.name);
    mpi::FaultPlan faults;
    faults.seed = 7;
    faults.duplicate_probability = sc.duplicate;
    faults.loss_probability = sc.loss;
    std::size_t recvs = 0, mislabelled = 0, off_position = 0;
    for (const CommRecord& c : traced_stream(faults, sc.prepost)) {
      if (c.kind == CommRecord::Kind::Send) {
        EXPECT_EQ(c.seq, c.task_id) << "send numbered out of post order";
        continue;
      }
      ++recvs;
      if (c.seq != c.task_id) ++mislabelled;
      if (c.task_id != recvs) ++off_position;
    }
    EXPECT_GT(recvs, 0u);
    EXPECT_EQ(mislabelled, 0u) << "of " << recvs << " receives";
    // The plan really displaced messages, or the case shows nothing.
    EXPECT_GT(off_position, 0u);
  }
}

/// The same streams through merge_traces: every pair it reports joins a
/// receive to the send whose payload that receive holds, and the flow and
/// edge it derives from the pair agree.
TEST(DistributedTrace, MergePairsEachReceiveWithTheSendItHolds) {
  for (const StreamCase& sc : kStreamCases) {
    SCOPED_TRACE(sc.name);
    mpi::FaultPlan faults;
    faults.seed = 7;
    faults.duplicate_probability = sc.duplicate;
    faults.loss_probability = sc.loss;
    std::vector<ParsedTrace> inputs(2);
    for (const CommRecord& c : traced_stream(faults, sc.prepost)) {
      inputs[static_cast<std::size_t>(c.self)].comms.push_back(c);
    }
    const MergeResult res = merge_traces(std::move(inputs));
    EXPECT_GT(res.matched_messages, 0u);
    EXPECT_GT(res.unmatched_messages, 0u);  // lost sends, duplicate recvs
    ASSERT_EQ(res.cross_rank_edges.size(), res.matched_messages);
    for (const TraceEdge& e : res.cross_rank_edges) {
      EXPECT_EQ(e.pred % kMergeRankStride, e.succ % kMergeRankStride)
          << "receive paired with another send's message";
    }
  }
}

/// Regression: Profiler::reset() between persistent-graph iterations must
/// quiesce the comm ring too, or replayed iterations re-attribute stale
/// records to fresh flow events.
TEST(DistributedTrace, ProfilerResetDropsCommRecords) {
  MetricsRegistry metrics(2);
  Profiler prof(metrics, /*trace_enabled=*/true);
  prof.record_comm(make_comm(CommRecord::Kind::Send, 0, 1, 1, 1, 10, 20, 7));
  ASSERT_EQ(prof.comm_records().size(), 1u);
  prof.reset();
  EXPECT_TRUE(prof.comm_records().empty());
  prof.record_comm(make_comm(CommRecord::Kind::Recv, 0, 1, 1, 1, 30, 40, 8));
  EXPECT_EQ(prof.comm_records().size(), 1u);
}

TEST(EnvWarning, UniverseRunPrintsAnUnknownValueOnce) {
  // The run and each rank's Runtime read the environment; a typo still
  // reads as one line.
  setenv("TDG_METRICS", "typo", 1);
  testing::internal::CaptureStderr();
  mpi::Universe::run(2, [](mpi::Comm& comm) {
    Runtime rt({.num_threads = 1, .metrics = false});
    mpi::RequestPoller poller(rt, comm);
    double x = 0;
    rt.submit([&x] { x = 1; }, {Depend::out(&x)});
    rt.taskwait();
    EXPECT_FALSE(rt.metrics().enabled());
  });
  unsetenv("TDG_METRICS");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tdg: unknown TDG_METRICS value 'typo' "
            "(expected off|0|false|on|1|true|dump); ignored\n");
}

TEST(Telemetry, SamplerFeedsHubAndUniverseReport) {
  setenv("TDG_TELEMETRY", "on", 1);
  setenv("TDG_TELEMETRY_PERIOD_MS", "1", 1);
  TelemetryHub::instance().drain();

  mpi::Universe::Report report;
  mpi::Universe::run(2, [&](mpi::Comm& comm) {
    Runtime rt({.num_threads = 2});
    mpi::RequestPoller poller(rt, comm);
    const int peer = 1 - comm.rank();
    std::vector<double> sbuf(8, 1.0), rbuf(8, 0.0);
    for (int i = 0; i < 50; ++i) {
      Event* sev = rt.create_event();
      rt.submit(
          [&, sev] {
            poller.complete_on_event(
                comm.isend(sbuf.data(), sbuf.size() * sizeof(double), peer,
                           i),
                sev);
          },
          {}, {.detach = sev});
      Event* rev = rt.create_event();
      rt.submit(
          [&, rev] {
            poller.complete_on_event(
                comm.irecv(rbuf.data(), rbuf.size() * sizeof(double), peer,
                           i),
                rev);
          },
          {}, {.detach = rev});
      rt.taskwait();
    }
    // Guarantee a final sample that has seen all the traffic: wait out
    // one sampling period, then poll once more.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    poller.poll();
  }, {}, &report);
  unsetenv("TDG_TELEMETRY");
  unsetenv("TDG_TELEMETRY_PERIOD_MS");

  ASSERT_EQ(report.telemetry.size(), 2u);
  EXPECT_EQ(report.telemetry[0].rank, 0);
  EXPECT_EQ(report.telemetry[1].rank, 1);
  for (const RankTelemetry& t : report.telemetry) {
    ASSERT_FALSE(t.samples.empty());
    // Series are time-sorted and counters monotone.
    for (std::size_t i = 1; i < t.samples.size(); ++i) {
      EXPECT_LE(t.samples[i - 1].t_ns, t.samples[i].t_ns);
      EXPECT_LE(t.samples[i - 1].value("comm.sends"),
                t.samples[i].value("comm.sends"));
    }
    EXPECT_GT(t.samples.back().value("comm.sends"), 0);
  }
  // Hub was drained into the report; a fresh drain is empty.
  EXPECT_TRUE(TelemetryHub::instance().drain().empty());

  std::ostringstream os;
  TelemetryHub::write_json(os, report.telemetry);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rank\":0"), std::string::npos);
  EXPECT_NE(json.find("\"comm.sends\":"), std::string::npos);
}

}  // namespace
}  // namespace tdg
