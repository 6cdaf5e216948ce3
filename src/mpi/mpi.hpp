// In-process MPI-like message-passing substrate: ranks are threads of one
// process, exchanging messages through matched mailboxes.
//
// This reproduces the MPI semantics the paper's interoperability study
// depends on: nonblocking point-to-point with an eager protocol below a
// size threshold and a rendezvous protocol above it (Section 4.1: O(1) and
// O(s) byte requests are eager, O(s^2) use rendezvous), nonblocking
// allreduce collectives, and test/wait progress probing suitable for
// polling at OpenMP scheduling points.
//
// Resilience extensions (DESIGN.md "Failure model"): a deterministic
// fault plan can drop messages and kill ranks mid-send; an optional
// reliable-delivery mode (sequence numbers, acks, timeout+backoff
// retransmission, duplicate suppression) masks losses; an optional
// heartbeat failure detector classifies ranks Alive/Suspected/Dead and
// fails receives from dead ranks fast with tdg::RankFailedError.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/telemetry.hpp"

namespace tdg::mpi {

/// Reduction operator for allreduce.
enum class Op { Min, Max, Sum };

/// Liveness of one rank as seen by the heartbeat failure detector.
/// Dead is terminal: the detector never resurrects a rank (a falsely
/// suspected rank that was merely slow is expelled, ULFM-style).
enum class RankStatus : std::uint8_t { Alive, Suspected, Dead, Finished };

inline const char* to_string(RankStatus s) {
  switch (s) {
    case RankStatus::Alive:
      return "alive";
    case RankStatus::Suspected:
      return "suspected";
    case RankStatus::Dead:
      return "dead";
    case RankStatus::Finished:
      return "finished";
  }
  return "?";
}

/// One rank's detector view plus the age of its last heartbeat.
struct RankInfo {
  RankStatus status = RankStatus::Alive;
  double heartbeat_age_seconds = 0.0;
};

namespace detail {
/// Operation kind, for diagnostics.
enum class ReqKind : std::uint8_t { None, Send, Recv, Collective };
struct World;
struct ReqState {
  std::atomic<bool> done{false};
  /// Completed exceptionally: the peer rank died before the operation
  /// could finish. `failed_rank` is written before the release store.
  std::atomic<bool> failed{false};
  int failed_rank = -1;
  // Diagnostic metadata (written once at post time, before the request
  // handle escapes) and the mailbox progress is driven through when
  // fault-injected delays are in flight.
  ReqKind kind = ReqKind::None;
  int peer = -1;   ///< dest for sends, src for recvs
  int tag = -1;
  std::size_t bytes = 0;
  /// The message's 1-based number on its (src, dst, tag) stream — with
  /// the stream, the message identity of the distributed trace. The
  /// sender numbers each message once, at post, while the universe traces
  /// comm or delivers reliably (0 otherwise). A receive reads the number
  /// from the message it matched, written by the delivering thread before
  /// the `done` release store, so it names the send whose payload it
  /// holds even when messages are lost or duplicated. A collective's
  /// number is its slot id + 1.
  std::uint64_t trace_seq = 0;
  World* world = nullptr;
  int progress_rank = -1;  ///< mailbox to progress while polling (-1: none)
};
}  // namespace detail

/// Handle to a nonblocking operation. Copyable; all copies observe the same
/// completion state.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }
  /// True once the operation has completed (buffer reusable / data
  /// delivered) or failed. Does not block. When a fault plan holds delayed
  /// messages, polling also drives delivery of any that have become due.
  bool done() const;
  /// True when the operation completed exceptionally because a peer rank
  /// died; `failed_rank()` names it. Waiting on a failed request throws
  /// tdg::RankFailedError.
  bool failed() const {
    return state_ != nullptr &&
           state_->failed.load(std::memory_order_acquire);
  }
  int failed_rank() const { return failed() ? state_->failed_rank : -1; }
  /// Human-readable description of the operation, e.g.
  /// "irecv src=1 tag=7 bytes=8" (watchdog / DeadlineError diagnostics).
  std::string describe() const;
  /// Payload size of the operation (0 for an invalid request; element
  /// bytes for collectives).
  std::size_t bytes() const { return state_ ? state_->bytes : 0; }

  // --- trace metadata (comm-event tracing; see Profiler::record_comm) ---
  bool is_recv() const {
    return state_ && state_->kind == detail::ReqKind::Recv;
  }
  bool is_collective() const {
    return state_ && state_->kind == detail::ReqKind::Collective;
  }
  /// Dest for sends, src for recvs, -1 for collectives / invalid.
  int peer() const { return state_ ? state_->peer : -1; }
  /// Message tag (the collective slot id for collectives).
  int tag() const { return state_ ? state_->tag : -1; }
  /// Stream sequence number (see detail::ReqState::trace_seq); 0 for an
  /// unnumbered message. A receive's number is written at delivery: read
  /// it once done() has returned true.
  std::uint64_t trace_seq() const { return state_ ? state_->trace_seq : 0; }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::ReqState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::ReqState> state_;
};

/// Deterministic fault injection (Universe::Options::faults): a seeded
/// plan perturbing message delivery so retry / timeout / cancellation
/// paths are testable without real hardware faults. All decisions are
/// drawn from a per-sender-rank counter-based RNG, so a given (seed, rank,
/// send-sequence) triple always yields the same faults regardless of
/// thread interleaving. Collectives are never perturbed.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Probability that a point-to-point message is held for
  /// `delay_seconds` before it becomes matchable at the receiver.
  double delay_probability = 0.0;
  double delay_seconds = 0.0;
  /// Probability that an eager message is delivered twice (the duplicate
  /// can satisfy a later same-(src,tag) receive with stale data — unless
  /// reliable delivery is on, where sequence numbers suppress it and the
  /// injection becomes the exactly-once oracle).
  double duplicate_probability = 0.0;
  /// Probability that a message is enqueued ahead of the previously
  /// queued message from a *different* (src, tag) stream (per-stream
  /// non-overtaking is preserved, as MPI guarantees).
  double reorder_probability = 0.0;
  /// Probability that a transmission is dropped outright. Without
  /// reliable delivery the message is simply gone (a rendezvous sender
  /// then never completes — the lost-handshake hang is observable via
  /// wait_for); with it, the retransmission path masks the loss.
  /// Drawn only when > 0, so plans without loss keep their exact
  /// pre-existing decision stream.
  double loss_probability = 0.0;
  /// Kill schedule: {rank, n} makes `rank` die when it posts its n-th
  /// point-to-point send (1-based), throwing tdg::RankFailedError out of
  /// that isend. The rank's posted receives and in-flight rendezvous
  /// buffers are invalidated before the throw.
  std::vector<std::pair<int, std::uint64_t>> kill_rank_at_send_seq;
  /// Every message sent by these ranks is additionally delayed by
  /// `straggler_delay_seconds` (models a slow node).
  std::vector<int> straggler_ranks;
  double straggler_delay_seconds = 0.0;

  bool active() const {
    return delay_probability > 0.0 || duplicate_probability > 0.0 ||
           reorder_probability > 0.0 || loss_probability > 0.0 ||
           !kill_rank_at_send_seq.empty() ||
           (!straggler_ranks.empty() && straggler_delay_seconds > 0.0);
  }
};

/// Parse a fault-plan spec string into `fp` (fields not named keep their
/// current values). Grammar: comma-separated `key=value` with keys
///   seed=N  loss=P  dup=P  reorder=P  delay=P:S  straggler=R@S  kill=R@N
/// (`kill` may repeat). This is the TDG_FAULTS env format; Universe::run
/// applies the env on top of Options::faults. Returns false on a
/// malformed spec (fp may be partially updated).
bool parse_fault_spec(const std::string& spec, FaultPlan& fp);

/// Counters of fault *decisions* drawn (whole universe, read after
/// quiescence). Deterministic for a given seed and send sequence; whether
/// a drawn duplicate/reorder is physically applied can additionally
/// depend on mailbox state at send time.
struct FaultStats {
  std::uint64_t delays = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t straggler_delays = 0;
  std::uint64_t drops = 0;  ///< lost transmissions (incl. lost retransmits)
  std::uint64_t kills = 0;  ///< rank deaths executed
};

/// Reliable-delivery layer counters (whole universe).
struct ReliableStats {
  std::uint64_t retransmits = 0;     ///< re-enqueued copies (incl. re-lost)
  std::uint64_t dup_suppressed = 0;  ///< stale-seq deliveries discarded
  std::uint64_t giveups = 0;         ///< records dropped (max attempts/dead)
  std::uint64_t sends_to_dead = 0;   ///< sends discarded: dest known dead
};

/// Reliable-delivery knobs (Universe::Options). Off by default; when off
/// no per-message work is added. When on, every point-to-point payload is
/// staged (store-and-forward: rendezvous sends complete at post, like
/// eager), each (dest, tag) stream carries a sequence number, delivery is
/// acknowledged at mailbox enqueue (the shared-memory analogue of a
/// piggybacked transport ack), and unacked transmissions are re-sent
/// after `retransmit_timeout_seconds * backoff_multiplier^attempt`.
/// Receivers deliver streams strictly in sequence order and discard
/// duplicates, so the app observes exactly-once, in-order delivery under
/// loss + duplicate injection.
struct ReliableConfig {
  bool enabled = false;
  double retransmit_timeout_seconds = 0.02;
  double backoff_multiplier = 2.0;
  int max_retransmits = 12;
};

/// Heartbeat failure detector knobs (Universe::Options). Each rank
/// publishes a heartbeat from Comm::poll() and the blocking waits; any
/// rank's poll advances the shared detector, which marks a rank Suspected
/// after `suspect_seconds` without a heartbeat and Dead after
/// `fail_seconds`. Death is terminal and triggers recovery: posted
/// receives from the dead rank that no queued message can satisfy fail
/// fast, and collectives complete over the survivors. Ranks must poll at
/// least every `fail_seconds` (the runtime polling hook does this at
/// scheduling points) or they will be falsely expelled.
struct HeartbeatConfig {
  bool enabled = false;
  double period_seconds = 0.002;
  double suspect_seconds = 0.05;
  double fail_seconds = 0.2;
};

/// Traffic counters for one rank (communication-profiling substrate).
/// Snapshot type; the live counters are relaxed atomics because tasks on
/// any worker thread of the rank's runtime may post operations.
struct CommStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t eager_sends = 0;
  std::uint64_t rendezvous_sends = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t allreduces = 0;
};

/// A communicator bound to one rank of a Universe. All members may be
/// called only from that rank's thread (like an MPI process), except
/// `test`, `poll` and the status accessors, which are thread-safe so
/// OpenMP workers can poll requests and drive progress.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Nonblocking send. Eager below the universe's threshold (the payload
  /// is staged; the request completes immediately), rendezvous above it
  /// (the request completes when the receiver matches and copies). Under
  /// reliable delivery every payload is staged. A send to a rank the
  /// detector has declared dead is discarded (fire-and-forget) and
  /// completes immediately.
  Request isend(const void* buf, std::size_t bytes, int dest, int tag);
  /// Nonblocking receive with exact (src, tag) matching, non-overtaking.
  /// Fails fast (Request::failed) when `src` is already known dead and no
  /// queued message can satisfy it.
  Request irecv(void* buf, std::size_t bytes, int src, int tag);

  /// Nonblocking elementwise allreduce over doubles. All ranks must call
  /// with the same count and op; calls match by per-rank sequence number.
  /// Ranks the detector declares dead are excused: the reduction
  /// completes over the survivors' contributions (in rank order).
  Request iallreduce(const double* sendbuf, double* recvbuf,
                     std::size_t count, Op op);

  /// Blocking helpers.
  void send(const void* buf, std::size_t bytes, int dest, int tag) {
    wait(isend(buf, bytes, dest, tag));
  }
  void recv(void* buf, std::size_t bytes, int src, int tag) {
    wait(irecv(buf, bytes, src, tag));
  }
  void allreduce(const double* sendbuf, double* recvbuf, std::size_t count,
                 Op op) {
    wait(iallreduce(sendbuf, recvbuf, count, op));
  }
  void barrier();

  /// Thread-safe completion probe (MPI_Test).
  static bool test(const Request& r) { return r.done(); }
  /// Spin-wait with yield (MPI_Wait). If the universe sets a default wait
  /// deadline, behaves as wait_for with that deadline (hang watchdog).
  /// Throws tdg::RankFailedError if the request failed (peer died).
  void wait(const Request& r) const;
  void waitall(const std::vector<Request>& rs) const;

  /// Deadline-aware waits: spin until the request completes or
  /// `deadline_seconds` elapse, then throw tdg::DeadlineError whose report
  /// names the pending operation — e.g. "irecv src=1 tag=7 bytes=8" for a
  /// never-matched receive.
  void wait_for(const Request& r, double deadline_seconds) const;
  void waitall_for(const std::vector<Request>& rs,
                   double deadline_seconds) const;

  /// Drive this rank's resilience machinery once: publish a heartbeat,
  /// scan this rank's retransmission records, advance the shared failure
  /// detector, deliver due delayed messages. Cheap (one branch) when no
  /// resilience feature is on; safe from any thread of this rank's
  /// runtime, and never throws (it runs during failure drains).
  void poll() const;

  /// Detector view of rank `r` (thread-safe).
  RankStatus rank_status(int r) const;
  /// Detector view + heartbeat age of every rank (thread-safe).
  std::vector<RankInfo> rank_info() const;
  /// True when the detector has declared `r` dead.
  bool rank_failed(int r) const {
    return rank_status(r) == RankStatus::Dead;
  }
  /// Number of ranks the detector has declared dead.
  int ranks_failed() const;
  /// First rank in direction `step` (+1 / -1) from `from` the detector
  /// does not consider dead, or -1 when the chain ends (topology helper
  /// for shrink-and-redistribute neighbour remapping).
  int nearest_alive(int from, int step) const;

  CommStats stats() const {
    CommStats s;
    s.sends = counters_.sends.load(std::memory_order_relaxed);
    s.recvs = counters_.recvs.load(std::memory_order_relaxed);
    s.eager_sends = counters_.eager_sends.load(std::memory_order_relaxed);
    s.rendezvous_sends =
        counters_.rendezvous_sends.load(std::memory_order_relaxed);
    s.bytes_sent = counters_.bytes_sent.load(std::memory_order_relaxed);
    s.allreduces = counters_.allreduces.load(std::memory_order_relaxed);
    return s;
  }
  /// Universe-wide injected-fault counters (see Options::faults).
  FaultStats fault_stats() const;
  /// Universe-wide reliable-delivery counters (see ReliableConfig).
  ReliableStats reliable_stats() const;

 private:
  friend class Universe;
  Comm(detail::World& world, int rank) : world_(&world), rank_(rank) {}

  struct Counters {
    std::atomic<std::uint64_t> sends{0};
    std::atomic<std::uint64_t> recvs{0};
    std::atomic<std::uint64_t> eager_sends{0};
    std::atomic<std::uint64_t> rendezvous_sends{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> allreduces{0};
  };

  detail::World* world_;
  int rank_;
  std::uint64_t coll_seq_ = 0;
  Counters counters_;
};

/// A set of ranks running as threads of this process.
class Universe {
 public:
  struct Options {
    std::size_t eager_threshold = 8 * 1024;  ///< bytes
    /// Deterministic fault injection (delays / duplicates / reordering /
    /// loss / kills / stragglers); inactive by default. The TDG_FAULTS
    /// environment variable (see parse_fault_spec) overrides fields on
    /// top of this plan.
    FaultPlan faults;
    /// When > 0, plain Comm::wait/waitall throw tdg::DeadlineError after
    /// this many seconds without completion (0 = wait forever).
    double default_wait_deadline_seconds = 0.0;
    /// Ack/retransmit reliable delivery; off by default (zero overhead).
    ReliableConfig reliable;
    /// Heartbeat failure detector; off by default (zero overhead).
    HeartbeatConfig heartbeat;
    /// When true, an exception escaping a rank that the fault plan killed
    /// is recorded in the Report instead of rethrown from run() — chaos
    /// tests assert on survivors, not on the scheduled death. Exceptions
    /// from ranks that were *not* killed always rethrow.
    bool tolerate_killed_ranks = false;
    /// Number every point-to-point message on its (src, dst, tag) stream
    /// so comm-event traces can pair each receive with the send it
    /// received (Request::trace_seq). Also switched on automatically while
    /// TDG_TRACE is on; reliable delivery numbers messages anyway.
    bool comm_trace = false;
  };

  /// Post-mortem universe state (filled by run() just before it returns
  /// or rethrows).
  struct Report {
    FaultStats faults;
    ReliableStats reliable;
    /// Final detector view per rank (Finished for ranks that returned
    /// normally when the detector is on; Alive when it is off).
    std::vector<RankStatus> rank_status;
    std::vector<int> killed_ranks;  ///< ranks the fault plan killed
    int ranks_failed = 0;           ///< detector-confirmed deaths
    /// what() per rank of the exception that escaped it ("" = none).
    std::vector<std::string> rank_errors;
    /// Per-rank telemetry time-series, drained from the hub at exit
    /// (empty unless TDG_TELEMETRY enabled a sampler; see
    /// core/telemetry.hpp).
    std::vector<RankTelemetry> telemetry;
  };

  /// Spawn `nranks` threads, run `fn(comm)` on each, join. If rank
  /// functions throw, the exception of the lowest-numbered failing rank is
  /// rethrown on the joining thread after every rank has exited (subject
  /// to Options::tolerate_killed_ranks), so distributed tests can assert
  /// on failures instead of terminating.
  static void run(int nranks, const std::function<void(Comm&)>& fn,
                  Options opts, Report* report);
  static void run(int nranks, const std::function<void(Comm&)>& fn,
                  Options opts) {
    run(nranks, fn, std::move(opts), nullptr);
  }
  static void run(int nranks, const std::function<void(Comm&)>& fn) {
    run(nranks, fn, Options{}, nullptr);
  }
};

}  // namespace tdg::mpi
