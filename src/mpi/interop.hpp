// MPI <-> tasking-runtime interoperability (Sections 1, 4): MPI requests
// posted inside OpenMP tasks complete detach events when the runtime polls
// at scheduling points, letting communication overlap task execution.
//
// Failure interop (DESIGN.md "Failure model"): a comm-aware poller also
// drives the MPI layer's resilience machinery (heartbeats, retransmits,
// failure detection) from the same polling hook, mirrors the injected-
// fault and reliable-delivery counters into runtime metrics, and turns a
// failed request into one of three outcomes — reroute to a survivor,
// local completion of an idempotent task, or graph poisoning with
// tdg::RankFailedError.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/metrics.hpp"
#include "core/runtime.hpp"
#include "core/telemetry.hpp"
#include "mpi/mpi.hpp"

namespace tdg::mpi {

/// Record of one completed tracked request, for the paper's communication
/// metrics: c(r) = completion - post; overlap = work concurrent with it.
struct RequestSpan {
  std::uint64_t post_ns = 0;
  std::uint64_t complete_ns = 0;
  bool collective = false;
  double seconds() const {
    return static_cast<double>(complete_ns - post_ns) * 1e-9;
  }
};

/// How a tracked request behaves when it fails (its peer rank died).
struct TrackOpts {
  bool collective = false;
  /// Recovery callback: given the dead rank, post and return a replacement
  /// request (re-routed to a survivor). Return an invalid Request to
  /// decline; the poller then falls through to `fulfill_on_giveup` /
  /// poisoning. Called from the polling hook — must not block.
  std::function<Request(int failed_rank)> on_peer_failed;
  /// When recovery is declined and the detach task is marked idempotent
  /// (TaskOpts::idempotent), fulfill the event anyway: the task's shard
  /// completes locally with whatever data it has, instead of poisoning
  /// its dependents. The idempotency contract makes re-execution or
  /// partial data safe.
  bool fulfill_on_giveup = false;
};

/// Per-rank poller: binds MPI requests to detach events and probes them at
/// runtime scheduling points. Thread-safe; typical use:
///
///   RequestPoller poller(rt, comm);       // installs the polling hook
///   ... inside a task:
///   Event* ev = rt.create_event();        // attach via TaskOpts::detach
///   poller.complete_on_event(comm.isend(...), ev);
///
/// The comm-aware constructor additionally drives Comm::poll() (heartbeat
/// publication, retransmissions, failure detection) from the hook and
/// mirrors the rank's traffic and the universe's fault counters into the
/// runtime metrics as comm.sends / comm.recvs / comm.bytes_sent /
/// comm.allreduces, comm.drops_injected / comm.kills_injected /
/// comm.retransmits / comm.dup_suppressed / comm.giveups / comm.reroutes
/// and the universe.ranks_failed gauge. With TDG_TELEMETRY on it also
/// samples the runtime's registry into the live-telemetry hub.
class RequestPoller {
 public:
  explicit RequestPoller(Runtime& rt) : RequestPoller(rt, nullptr) {}
  RequestPoller(Runtime& rt, Comm& comm) : RequestPoller(rt, &comm) {}
  ~RequestPoller() {
    if (rt_ != nullptr) {
      // Token-based uninstall: only clears the hook if it is still ours —
      // a second poller installed after us must keep its hook. It returns
      // once no worker is still inside poll(), so pending_ can go.
      rt_->clear_polling_hook(hook_token_);
      rt_->watchdog().remove_diagnostic(diag_token_);
    }
  }
  RequestPoller(const RequestPoller&) = delete;
  RequestPoller& operator=(const RequestPoller&) = delete;

  /// Fulfill `ev` once `r` completes. May be called from any task.
  void complete_on_event(Request r, Event* ev, bool collective = false) {
    TrackOpts opts;
    opts.collective = collective;
    complete_on_event(std::move(r), ev, std::move(opts));
  }
  /// Fulfill `ev` once `r` completes, with failure handling per `opts`.
  void complete_on_event(Request r, Event* ev, TrackOpts opts);

  /// Probe all tracked requests once (also called by the runtime hook).
  void poll();

  /// Spans of completed tracked requests (read after quiescence).
  std::vector<RequestSpan> completed_spans() const;
  std::size_t pending() const;

  /// Append this poller's pending requests — plus, when comm-aware, the
  /// per-rank detector status / heartbeat ages and the injected-fault
  /// counters — to a watchdog report.
  void diagnostic(std::string& out) const;

 private:
  struct Tracked {
    Request req;
    Event* ev;
    TrackOpts opts;
    RequestSpan span;
  };

  RequestPoller(Runtime& rt, Comm* comm);

  /// Record a completed span into the runtime metrics registry and, when
  /// tracing is on, a CommRecord into the profiler's comm ring.
  void record_metrics(const Tracked& t);
  /// Push a telemetry sample if the sampling period elapsed (poll-driven).
  void maybe_sample_telemetry();
  /// Resolve a failed request: reroute, complete locally, or poison.
  void handle_failed(Tracked t);
  /// Mirror the rank's traffic and the universe's fault/reliability
  /// counters into rt metrics (delta since the last sync; time-gated).
  void sync_comm_metrics();

  Runtime* rt_;
  Comm* comm_;
  Runtime::PollingHookToken hook_token_;
  std::uint64_t diag_token_ = 0;
  MetricsRegistry::Id m_requests_, m_collectives_, m_bytes_, m_wait_ns_;
  MetricsRegistry::Id m_sends_, m_recvs_, m_bytes_sent_, m_allreduces_;
  MetricsRegistry::Id m_drops_, m_kills_, m_retransmits_, m_dup_sup_,
      m_giveups_, m_reroutes_, m_ranks_failed_;
  // Live telemetry (comm-aware pollers, TDG_TELEMETRY from rt_->env()): a
  // periodic sample of the runtime's registry, pushed from the polling
  // hook into a ring registered with the process-wide TelemetryHub.
  std::shared_ptr<TelemetryRing> telem_ring_;
  std::atomic<std::uint64_t> telem_last_ns_{0};
  mutable std::mutex mu_;
  std::vector<Tracked> pending_;
  std::vector<RequestSpan> done_;
  std::mutex sync_mu_;  // guards the counter baselines below
  std::uint64_t last_sync_ns_ = 0;
  CommStats comm_base_;
  FaultStats fault_base_;
  ReliableStats rel_base_;
  int ranks_failed_base_ = 0;
  // Snapshot at construction (= watchdog arming): the hang report shows
  // deltas against these, so it reads "what was injected during *this*
  // wait", not lifetime totals.
  FaultStats diag_fault_base_;
  ReliableStats diag_rel_base_;
};

}  // namespace tdg::mpi
