// Resilience layer: reliable delivery (exactly-once under loss+duplicate
// injection), rank-kill schedules, the heartbeat failure detector, failed
// requests and recovery at the task-graph layer (poisoning, reroute,
// shrink local completion), the TDG_FAULTS spec, and chaos soaks over the
// LULESH / Cholesky universes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/common/chaos.hpp"
#include "apps/common/emitter.hpp"
#include "core/tdg.hpp"
#include "mpi/interop.hpp"
#include "mpi/mpi.hpp"

namespace {

using tdg::DeadlineError;
using tdg::Depend;
using tdg::Event;
using tdg::RankFailedError;
using tdg::Runtime;
using tdg::TaskGroupError;
using tdg::mpi::Comm;
using tdg::mpi::FaultPlan;
using tdg::mpi::RankStatus;
using tdg::mpi::Request;
using tdg::mpi::RequestPoller;
using tdg::mpi::TrackOpts;
using tdg::mpi::Universe;

Universe::Options fast_detector_opts() {
  Universe::Options opts;
  opts.heartbeat.enabled = true;
  opts.heartbeat.period_seconds = 0.001;
  opts.heartbeat.suspect_seconds = 0.02;
  opts.heartbeat.fail_seconds = 0.06;
  return opts;
}

// ---------------------------------------------------------------------------
// Reliable delivery: exactly-once, in-order, under loss + duplicates
// ---------------------------------------------------------------------------

TEST(Reliable, ExactlyOnceInOrderUnderLossAndDuplicates) {
  // The duplicate injection is the exactly-once oracle: without sequence
  // numbers the receiver would observe stale re-deliveries; with the
  // reliable layer every payload arrives exactly once, in order, despite
  // 30% loss and 40% duplication.
  Universe::Options opts;
  opts.faults.seed = 1234;
  opts.faults.loss_probability = 0.3;
  opts.faults.duplicate_probability = 0.4;
  opts.reliable.enabled = true;
  opts.reliable.retransmit_timeout_seconds = 0.005;
  tdg::mpi::ReliableStats rel{};
  tdg::mpi::FaultStats faults{};
  Universe::run(2, [&](Comm& comm) {
    constexpr int kMsgs = 64;
    if (comm.rank() == 1) {
      for (int i = 0; i < kMsgs; ++i) {
        double v = 1000.0 + i;
        comm.wait(comm.isend(&v, sizeof v, 0, /*tag=*/3));
      }
      comm.barrier();
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        double in = -1;
        comm.wait_for(comm.irecv(&in, sizeof in, 1, 3), 20.0);
        ASSERT_EQ(in, 1000.0 + i) << "message " << i;
      }
      // Exactly-once: no duplicate is left to satisfy an extra receive.
      double extra = -1;
      EXPECT_THROW(comm.wait_for(comm.irecv(&extra, sizeof extra, 1, 3), 0.2),
                   DeadlineError);
      comm.barrier();
      rel = comm.reliable_stats();
      faults = comm.fault_stats();
    }
  }, opts);
  EXPECT_GT(faults.drops, 0u);
  EXPECT_GT(rel.retransmits, 0u);
  EXPECT_GT(rel.dup_suppressed, 0u);
  EXPECT_EQ(rel.giveups, 0u);
}

TEST(Reliable, RendezvousPayloadsSurviveLoss) {
  // Above the eager threshold the reliable layer stages payloads
  // (store-and-forward), so rendezvous-sized messages survive loss too
  // and the sender completes at post instead of hanging.
  Universe::Options opts;
  opts.faults.seed = 77;
  opts.faults.loss_probability = 0.5;
  opts.reliable.enabled = true;
  opts.reliable.retransmit_timeout_seconds = 0.005;
  Universe::run(2, [](Comm& comm) {
    std::vector<double> buf(4096);  // 32 KiB > 8 KiB eager threshold
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<double>(i);
      }
      comm.wait_for(comm.isend(buf.data(), buf.size() * sizeof(double), 1, 0),
                    5.0);
      comm.barrier();
    } else {
      comm.wait_for(comm.irecv(buf.data(), buf.size() * sizeof(double), 0, 0),
                    20.0);
      for (std::size_t i = 0; i < buf.size(); i += 997) {
        ASSERT_EQ(buf[i], static_cast<double>(i));
      }
      comm.barrier();
    }
  }, opts);
}

TEST(Unreliable, LostMessageHangsObservably) {
  // Without the reliable layer a lost eager message is simply gone: the
  // receiver's deadline-aware wait names the never-matched receive.
  Universe::Options opts;
  opts.faults.seed = 11;
  opts.faults.loss_probability = 1.0;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double in = -1;
      try {
        comm.wait_for(comm.irecv(&in, sizeof in, 1, 8), 0.25);
        FAIL() << "lost message was delivered";
      } catch (const DeadlineError& e) {
        EXPECT_NE(std::string(e.what()).find("irecv src=1 tag=8"),
                  std::string::npos);
      }
      comm.barrier();
      EXPECT_GT(comm.fault_stats().drops, 0u);
    } else {
      double v = 4.5;
      comm.wait(comm.isend(&v, sizeof v, 0, 8));  // eager: completes anyway
      comm.barrier();
    }
  }, opts);
}

// ---------------------------------------------------------------------------
// TDG_FAULTS spec parsing and env override
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar) {
  FaultPlan fp;
  ASSERT_TRUE(tdg::mpi::parse_fault_spec(
      "seed=42,loss=0.25,dup=0.1,reorder=0.05,delay=0.5:0.002,"
      "straggler=2@0.03,kill=1@3,kill=2@7",
      fp));
  EXPECT_EQ(fp.seed, 42u);
  EXPECT_EQ(fp.loss_probability, 0.25);
  EXPECT_EQ(fp.duplicate_probability, 0.1);
  EXPECT_EQ(fp.reorder_probability, 0.05);
  EXPECT_EQ(fp.delay_probability, 0.5);
  EXPECT_EQ(fp.delay_seconds, 0.002);
  ASSERT_EQ(fp.straggler_ranks.size(), 1u);
  EXPECT_EQ(fp.straggler_ranks[0], 2);
  EXPECT_EQ(fp.straggler_delay_seconds, 0.03);
  ASSERT_EQ(fp.kill_rank_at_send_seq.size(), 2u);
  EXPECT_EQ(fp.kill_rank_at_send_seq[0], (std::pair<int, std::uint64_t>{1, 3}));
  EXPECT_EQ(fp.kill_rank_at_send_seq[1], (std::pair<int, std::uint64_t>{2, 7}));
  // Unnamed fields keep their values.
  FaultPlan partial;
  partial.duplicate_probability = 0.9;
  ASSERT_TRUE(tdg::mpi::parse_fault_spec("loss=0.5", partial));
  EXPECT_EQ(partial.duplicate_probability, 0.9);
  EXPECT_EQ(partial.loss_probability, 0.5);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  FaultPlan fp;
  EXPECT_FALSE(tdg::mpi::parse_fault_spec("loss=banana", fp));
  EXPECT_FALSE(tdg::mpi::parse_fault_spec("unknown=1", fp));
  EXPECT_FALSE(tdg::mpi::parse_fault_spec("kill=1", fp));
  EXPECT_FALSE(tdg::mpi::parse_fault_spec("delay=0.5", fp));
  EXPECT_FALSE(tdg::mpi::parse_fault_spec("loss", fp));
}

TEST(FaultSpec, EnvOverrideAppliesOnTopOfOptions) {
  ::setenv("TDG_FAULTS", "seed=4,delay=0.6:0.001", 1);
  tdg::mpi::FaultStats stats{};
  Universe::run(2, [&](Comm& comm) {
    const int peer = 1 - comm.rank();
    for (int i = 0; i < 32; ++i) {
      double v = i, in = -1;
      auto s = comm.isend(&v, sizeof v, peer, i);
      auto r = comm.irecv(&in, sizeof in, peer, i);
      comm.wait_for(r, 10.0);
      comm.wait_for(s, 10.0);
      ASSERT_EQ(in, static_cast<double>(i));
    }
    comm.barrier();
    if (comm.rank() == 0) stats = comm.fault_stats();
  });
  ::unsetenv("TDG_FAULTS");
  EXPECT_GT(stats.delays, 0u);  // the env alone injected the plan
}

// ---------------------------------------------------------------------------
// Rank kills and the failure detector
// ---------------------------------------------------------------------------

TEST(RankDeath, KillScheduleFailsReceiversAndFillsReport) {
  Universe::Options opts = fast_detector_opts();
  opts.faults.seed = 9;
  opts.faults.kill_rank_at_send_seq = {{1, 2}};
  opts.tolerate_killed_ranks = true;
  Universe::Report report;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 1.0;
      comm.wait(comm.isend(&v, sizeof v, 0, 0));  // send #1 delivers
      comm.wait(comm.isend(&v, sizeof v, 0, 1));  // send #2: dies here
      FAIL() << "rank 1 survived its scheduled death";
    } else {
      double in = -1;
      comm.wait_for(comm.irecv(&in, sizeof in, 1, 0), 10.0);
      EXPECT_EQ(in, 1.0);
      auto r = comm.irecv(&in, sizeof in, 1, 1);  // never satisfied
      try {
        comm.wait_for(r, 10.0);
        FAIL() << "receive from the dead rank completed";
      } catch (const RankFailedError& e) {
        EXPECT_EQ(e.rank(), 1);
      }
      EXPECT_TRUE(r.failed());
      EXPECT_EQ(r.failed_rank(), 1);
      EXPECT_TRUE(comm.rank_failed(1));
      EXPECT_EQ(comm.ranks_failed(), 1);
      EXPECT_EQ(comm.nearest_alive(0, +1), -1);  // no survivor to the right
      // Post-detection receives fail fast instead of waiting the timeout.
      auto r2 = comm.irecv(&in, sizeof in, 1, 2);
      EXPECT_THROW(comm.wait(r2), RankFailedError);
    }
  }, opts, &report);
  EXPECT_EQ(report.faults.kills, 1u);
  ASSERT_EQ(report.killed_ranks.size(), 1u);
  EXPECT_EQ(report.killed_ranks[0], 1);
  EXPECT_EQ(report.ranks_failed, 1);
  ASSERT_EQ(report.rank_status.size(), 2u);
  EXPECT_EQ(report.rank_status[1], RankStatus::Dead);
  EXPECT_TRUE(report.rank_errors[0].empty());
  EXPECT_FALSE(report.rank_errors[1].empty());
}

TEST(RankDeath, CollectivesCompleteOverSurvivors) {
  Universe::Options opts = fast_detector_opts();
  opts.faults.seed = 13;
  opts.faults.kill_rank_at_send_seq = {{1, 1}};
  opts.tolerate_killed_ranks = true;
  Universe::run(3, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 0;
      comm.isend(&v, sizeof v, 0, 0);  // dies at its first send
      FAIL() << "rank 1 survived";
    } else {
      const double in = comm.rank() + 1.0;  // survivors contribute 1 and 3
      double out = 0;
      comm.wait_for(comm.iallreduce(&in, &out, 1, tdg::mpi::Op::Sum), 10.0);
      EXPECT_EQ(out, 4.0);
      // The survivor chain skips the dead middle rank.
      EXPECT_EQ(comm.nearest_alive(0, +1), 2);
      EXPECT_EQ(comm.nearest_alive(2, -1), 0);
    }
  }, opts);
}

TEST(RankDeath, FinishedRanksAreNotDeclaredDead) {
  Universe::Options opts = fast_detector_opts();
  Universe::Report report;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Outlive rank 1's exit by more than fail_seconds: a finished rank
      // must never be expelled as dead. A receive it will never fulfill
      // still fails fast (the dependence is permanently unsatisfiable),
      // but the detector records retirement, not death.
      double dummy = 0;
      auto r = comm.irecv(&dummy, sizeof dummy, 1, 42);  // never sent
      try {
        comm.wait_for(r, 10.0);
        FAIL() << "receive from the retired rank completed";
      } catch (const RankFailedError& e) {
        EXPECT_EQ(e.rank(), 1);
      }
      EXPECT_EQ(comm.ranks_failed(), 0);
      EXPECT_EQ(comm.rank_status(1), RankStatus::Finished);
    }
  }, opts, &report);
  EXPECT_EQ(report.ranks_failed, 0);
  EXPECT_EQ(report.rank_status[1], RankStatus::Finished);
}

// ---------------------------------------------------------------------------
// Task-graph recovery: poisoning, reroute, shrink local completion
// ---------------------------------------------------------------------------

TEST(Recovery, PoisonModeCancelsDependentsWhileIndependentsDrain) {
  Universe::Options opts = fast_detector_opts();
  opts.faults.seed = 17;
  opts.faults.kill_rank_at_send_seq = {{1, 1}};
  opts.tolerate_killed_ranks = true;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 0;
      comm.isend(&v, sizeof v, 0, 5);
      return;
    }
    Runtime::Config cfg;
    cfg.num_threads = 2;
    cfg.watchdog.deadline_seconds = 30.0;
    Runtime rt(cfg);
    RequestPoller poller(rt, comm);
    double in = -1;
    std::atomic<bool> dependent_ran{false};
    std::atomic<bool> independent_ran{false};
    Event* ev = rt.create_event();
    rt.submit(
        [&, ev] {
          poller.complete_on_event(comm.irecv(&in, sizeof in, 1, 5), ev);
        },
        {Depend::out(&in)}, {.label = "doomed-recv", .detach = ev});
    rt.submit([&] { dependent_ran = true; }, {Depend::in(&in)},
              {.label = "dependent"});
    int other = 0;
    rt.submit([&] { independent_ran = true; }, {Depend::out(&other)});
    try {
      rt.taskwait();
      FAIL() << "poisoned graph did not throw";
    } catch (const TaskGroupError& e) {
      ASSERT_EQ(e.failures().size(), 1u);
      EXPECT_EQ(e.failures()[0].label, "doomed-recv");
      EXPECT_THROW(e.rethrow_first(), RankFailedError);
      ASSERT_EQ(e.cancelled().size(), 1u);
      EXPECT_EQ(e.cancelled()[0].label, "dependent");
    }
    EXPECT_FALSE(dependent_ran.load());
    EXPECT_TRUE(independent_ran.load());
    // The poller mirrors the detected death into the runtime metrics
    // (gauge deltas are time-gated; give the sync a fresh window).
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    poller.poll();
    const tdg::MetricsSnapshot snap = rt.metrics().snapshot();
    const auto* gauge = snap.find("universe.ranks_failed");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->level, 1);
  }, opts);
}

TEST(Recovery, FailedReceiveReroutesToSurvivor) {
  Universe::Options opts = fast_detector_opts();
  opts.faults.seed = 19;
  opts.faults.kill_rank_at_send_seq = {{1, 1}};
  opts.tolerate_killed_ranks = true;
  Universe::run(3, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 0;
      comm.isend(&v, sizeof v, 0, 5);  // dies before delivering tag 5
      return;
    }
    if (comm.rank() == 2) {
      // The survivor that takes over rank 1's role.
      double v = 42.5;
      comm.wait(comm.isend(&v, sizeof v, 0, 5));
      return;
    }
    Runtime::Config cfg;
    cfg.num_threads = 2;
    cfg.watchdog.deadline_seconds = 30.0;
    Runtime rt(cfg);
    RequestPoller poller(rt, comm);
    double in = -1;
    Event* ev = rt.create_event();
    rt.submit(
        [&, ev] {
          TrackOpts track;
          track.on_peer_failed = [&comm, &in](int failed) -> Request {
            EXPECT_EQ(failed, 1);
            return comm.irecv(&in, sizeof in, 2, 5);
          };
          poller.complete_on_event(comm.irecv(&in, sizeof in, 1, 5), ev,
                                   std::move(track));
        },
        {Depend::out(&in)}, {.label = "rerouted-recv", .detach = ev});
    rt.taskwait();  // must not throw: the reroute replaced the poisoning
    EXPECT_EQ(in, 42.5);
    EXPECT_GT(rt.metrics().snapshot().value("comm.reroutes"), 0u);
  }, opts);
}

TEST(Recovery, ShrinkModeCompletesIdempotentShardLocally) {
  using tdg::apps::LDep;
  using tdg::apps::RuntimeEmitter;
  Universe::Options opts = fast_detector_opts();
  opts.faults.seed = 23;
  opts.faults.kill_rank_at_send_seq = {{1, 1}};
  opts.tolerate_killed_ranks = true;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 0;
      comm.isend(&v, sizeof v, 0, 5);
      return;
    }
    Runtime::Config cfg;
    cfg.num_threads = 2;
    cfg.watchdog.deadline_seconds = 30.0;
    Runtime rt(cfg);
    RequestPoller poller(rt, comm);
    RuntimeEmitter::Options eopts;
    eopts.recovery = tdg::apps::RecoveryMode::ShrinkRedistribute;
    RuntimeEmitter em(rt, comm, poller, eopts);
    double in = 7.0;  // the local value the idempotent shard keeps
    std::atomic<bool> consumer_ran{false};
    em.recv("orphan-recv", {LDep::out(1)}, &in, sizeof in, 1, 5);
    em.compute("consumer", {LDep::in(1)}, 0, 0,
               [&] { consumer_ran = true; });
    rt.taskwait();  // no poisoning: the shard completed locally
    EXPECT_TRUE(consumer_ran.load());
    EXPECT_EQ(in, 7.0);
  }, opts);
}

// ---------------------------------------------------------------------------
// Chaos soaks: canned loss+kill plans over the example universes
// ---------------------------------------------------------------------------

tdg::apps::chaos::ChaosConfig chaos_base(int plan) {
  tdg::apps::chaos::ChaosConfig cfg;
  cfg.faults = tdg::apps::chaos::canned_plan(plan);
  cfg.reliable.enabled = true;
  cfg.reliable.retransmit_timeout_seconds = 0.005;
  cfg.heartbeat.enabled = true;
  cfg.heartbeat.period_seconds = 0.001;
  cfg.heartbeat.suspect_seconds = 0.03;
  cfg.heartbeat.fail_seconds = 0.1;
  cfg.watchdog_seconds = 45.0;
  return cfg;
}

void expect_sound(const tdg::apps::chaos::ChaosOutcome& out,
                  const tdg::apps::chaos::ChaosConfig& cfg) {
  for (const std::string& u : out.unexpected) {
    ADD_FAILURE() << "unexpected rank outcome: " << u;
  }
  EXPECT_TRUE(out.sound());
  EXPECT_FALSE(out.report.killed_ranks.empty());
  EXPECT_GT(out.report.faults.kills, 0u);
  EXPECT_GT(out.report.faults.drops, 0u);
  EXPECT_GT(out.report.reliable.retransmits, 0u);
  // Every rank is accounted for: scheduled deaths, clean survivors, and
  // (poison mode) survivors that failed through graph poisoning.
  EXPECT_EQ(out.survivors_ok + out.expected_failures +
                static_cast<int>(out.report.killed_ranks.size()),
            cfg.nranks);
}

TEST(ChaosSoak, LuleshPoisonPlan0) {
  auto cfg = chaos_base(0);
  cfg.app = tdg::apps::chaos::App::Lulesh;
  cfg.recovery = tdg::apps::RecoveryMode::Poison;
  expect_sound(tdg::apps::chaos::run_chaos(cfg), cfg);
}

TEST(ChaosSoak, LuleshShrinkPlan1) {
  auto cfg = chaos_base(1);
  cfg.app = tdg::apps::chaos::App::Lulesh;
  cfg.recovery = tdg::apps::RecoveryMode::ShrinkRedistribute;
  const auto out = tdg::apps::chaos::run_chaos(cfg);
  expect_sound(out, cfg);
  // Shrink mode: survivors re-route instead of failing.
  EXPECT_EQ(out.expected_failures, 0);
}

TEST(ChaosSoak, CholeskyPoisonPlan2) {
  auto cfg = chaos_base(2);
  cfg.app = tdg::apps::chaos::App::Cholesky;
  cfg.recovery = tdg::apps::RecoveryMode::Poison;
  expect_sound(tdg::apps::chaos::run_chaos(cfg), cfg);
}

TEST(ChaosSoak, CholeskyShrinkPlan0) {
  auto cfg = chaos_base(0);
  cfg.app = tdg::apps::chaos::App::Cholesky;
  cfg.recovery = tdg::apps::RecoveryMode::ShrinkRedistribute;
  const auto out = tdg::apps::chaos::run_chaos(cfg);
  expect_sound(out, cfg);
  EXPECT_EQ(out.expected_failures, 0);
}

TEST(ChaosSoak, CleanRunHasZeroResilienceCounters) {
  tdg::apps::chaos::ChaosConfig cfg;  // no faults, no reliable, no detector
  cfg.app = tdg::apps::chaos::App::Lulesh;
  const auto out = tdg::apps::chaos::run_chaos(cfg);
  EXPECT_TRUE(out.sound());
  EXPECT_EQ(out.survivors_ok, cfg.nranks);
  EXPECT_EQ(out.report.faults.drops, 0u);
  EXPECT_EQ(out.report.faults.kills, 0u);
  EXPECT_EQ(out.report.reliable.retransmits, 0u);
  EXPECT_EQ(out.report.ranks_failed, 0);
}

}  // namespace
