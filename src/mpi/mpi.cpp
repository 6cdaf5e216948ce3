#include "mpi/mpi.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>
#include <unordered_map>

#include <fstream>

#include "core/common.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"

namespace tdg::mpi {
namespace detail {

namespace {
double reduce_one(Op op, double a, double b) {
  switch (op) {
    case Op::Min:
      return std::min(a, b);
    case Op::Max:
      return std::max(a, b);
    case Op::Sum:
      return a + b;
  }
  return a;
}

// Counter-based splitmix64: stateless hash of (seed, rank, sequence), so
// fault decisions depend only on a rank's own send sequence — deterministic
// across thread interleavings.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double to_unit(std::uint64_t n) {
  return static_cast<double>(n >> 11) * 0x1.0p-53;
}

// (src-or-dest, tag) stream key for sequence-number maps.
std::uint64_t skey(int rank, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank))
          << 32) |
         static_cast<std::uint32_t>(tag);
}

std::uint64_t seconds_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}
}  // namespace

// One in-flight message, staged (eager) or referencing the sender's buffer
// (rendezvous, completed by the receiver at match time).
struct Message {
  int src = 0;
  int tag = 0;
  std::size_t bytes = 0;
  const void* src_buf = nullptr;      // rendezvous only
  std::vector<std::byte> staged;      // eager only
  std::shared_ptr<ReqState> sreq;     // rendezvous sender request
  std::uint64_t deliver_at_ns = 0;    // fault injection: matchable when due
  bool delayed = false;               // counted in World::delayed_count
  /// The message's number on its (src, tag) stream, 1-based; 0 when the
  /// universe neither traces comm nor delivers reliably. The receive that
  /// matches the message takes it as its trace_seq.
  std::uint64_t seq = 0;
  /// Reliable streams number from 0 on the wire (expected_seq,
  /// retransmit_draw).
  std::uint64_t wire_seq() const { return seq - 1; }
};

struct PostedRecv {
  int src = 0;
  int tag = 0;
  std::size_t bytes = 0;
  void* buf = nullptr;
  std::shared_ptr<ReqState> rreq;
};

// Per-destination-rank matching queues (an MPI matching engine).
struct Mailbox {
  std::mutex mu;
  std::deque<Message> unexpected;
  std::deque<PostedRecv> posted;
  /// Reliable delivery: next expected wire seq per (src, tag) stream. A
  /// queued message only matches when its wire seq is the expected one;
  /// stale ones are duplicates and discarded.
  std::unordered_map<std::uint64_t, std::uint64_t> expected_seq;
};

struct CollectiveSlot {
  int contributed = 0;
  Op op = Op::Sum;
  std::size_t count = 0;
  /// Contributions keyed by rank: the reduction is applied in rank order
  /// at completion, so floating-point results are deterministic across
  /// runs regardless of arrival order.
  std::vector<std::vector<double>> by_rank;
  std::vector<char> contributed_by;
  struct Out {
    int rank;
    double* buf;
    std::shared_ptr<ReqState> req;
  };
  std::vector<Out> outs;
};

/// One lost transmission awaiting retransmission (sender-side record,
/// guarded by the owning RankState's mutex).
struct RetransmitRec {
  int dst = 0;
  int tag = 0;
  std::uint64_t seq = 0;  ///< Message::seq of the lost transmission
  std::size_t bytes = 0;
  std::vector<std::byte> payload;
  std::uint64_t next_at_ns = 0;
  int attempts = 0;
};

/// Per-rank resilience state: heartbeat, detector view, kill flag,
/// reliable-delivery sender state.
struct RankState {
  std::atomic<std::uint64_t> heartbeat_ns{0};
  std::atomic<RankStatus> status{RankStatus::Alive};
  std::atomic<bool> dead{false};      ///< ground truth: kill executed
  std::atomic<bool> finished{false};  ///< rank fn returned normally
  std::atomic<std::uint64_t> send_count{0};
  std::atomic<std::uint64_t> fault_seq{0};
  std::atomic<std::uint64_t> last_scan_ns{0};
  std::mutex mu;  // guards send_seq + retransmits
  /// Messages numbered so far per (dest, tag) stream (World::numbered):
  /// the one numbering both reliable delivery and the trace use.
  std::unordered_map<std::uint64_t, std::uint64_t> send_seq;
  std::vector<RetransmitRec> retransmits;
};

struct World {
  int nranks = 0;
  std::size_t eager_threshold = 0;
  double default_wait_deadline = 0;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::mutex coll_mu;
  std::unordered_map<std::uint64_t, CollectiveSlot> collectives;

  // --- fault injection -----------------------------------------------------
  FaultPlan faults;
  bool faults_active = false;
  bool kills_configured = false;
  /// Number every point-to-point message on its stream: reliable delivery
  /// needs the number, and so does comm-event tracing
  /// (Options::comm_trace, or automatic while TDG_TRACE is active).
  bool numbered = false;
  /// Messages currently held past their send time; while non-zero, request
  /// polling drives Mailbox progress so due messages get delivered.
  std::atomic<int> delayed_count{0};
  std::atomic<std::uint64_t> stat_delays{0};
  std::atomic<std::uint64_t> stat_duplicates{0};
  std::atomic<std::uint64_t> stat_reorders{0};
  std::atomic<std::uint64_t> stat_straggler_delays{0};
  std::atomic<std::uint64_t> stat_drops{0};
  std::atomic<std::uint64_t> stat_kills{0};

  // --- resilience ----------------------------------------------------------
  ReliableConfig reliable;
  HeartbeatConfig hb;
  /// Any feature needing per-poll work (reliable, heartbeat, kills). When
  /// false, rank_poll() is a single branch — the zero-overhead guarantee.
  bool resilient = false;
  std::vector<std::unique_ptr<RankState>> rank_states;
  std::atomic<std::uint64_t> last_detect_ns{0};
  std::uint64_t rel_timeout_ns = 0;
  std::uint64_t rel_scan_interval_ns = 0;
  std::atomic<std::uint64_t> stat_retransmits{0};
  std::atomic<std::uint64_t> stat_dup_suppressed{0};
  std::atomic<std::uint64_t> stat_giveups{0};
  std::atomic<std::uint64_t> stat_sends_to_dead{0};
  std::atomic<int> stat_ranks_failed{0};

  RankState& rank_state(int r) {
    return *rank_states[static_cast<std::size_t>(r)];
  }

  /// Next deterministic uniform draw in [0,1) for `rank`'s send stream.
  double draw(int rank) {
    const std::uint64_t c =
        rank_state(rank).fault_seq.fetch_add(1, std::memory_order_relaxed);
    return to_unit(mix64(faults.seed ^
                         mix64(static_cast<std::uint64_t>(rank) ^
                               mix64(c))));
  }

  /// Loss draw for a retransmission attempt: keyed by the message identity
  /// (with its wire seq) and attempt number, on a stream separate from
  /// draw() so app-level fault decisions stay reproducible regardless of
  /// retransmit timing.
  double retransmit_draw(int rank, int dst, int tag, std::uint64_t seq,
                         int attempt) {
    std::uint64_t h = faults.seed ^ 0x7265747279ULL;  // "retry"
    h = mix64(h ^ (static_cast<std::uint64_t>(rank) << 32 |
                   static_cast<std::uint32_t>(dst)));
    h = mix64(h ^ skey(tag, static_cast<int>(seq)));
    h = mix64(h ^ static_cast<std::uint64_t>(attempt));
    return to_unit(h);
  }

  bool is_straggler(int rank) const {
    return std::find(faults.straggler_ranks.begin(),
                     faults.straggler_ranks.end(),
                     rank) != faults.straggler_ranks.end();
  }

  RankStatus status_of(int r) {
    return rank_state(r).status.load(std::memory_order_acquire);
  }

  /// True when sends to `r` are pointless: the detector declared it dead,
  /// or it was killed by the fault plan (its thread is unwinding).
  bool unreachable(int r) {
    RankState& rs = rank_state(r);
    return rs.dead.load(std::memory_order_acquire) ||
           rs.status.load(std::memory_order_acquire) == RankStatus::Dead;
  }

  static void fail_req(const std::shared_ptr<ReqState>& q, int dead_rank) {
    q->failed_rank = dead_rank;
    q->failed.store(true, std::memory_order_release);
    q->done.store(true, std::memory_order_release);
  }

  /// Deliver a matched message into a posted receive and complete the
  /// involved requests; the receive takes the message's number. Caller
  /// holds the mailbox lock.
  void deliver(PostedRecv& p, Message& m) {
    TDG_REQUIRE(p.bytes >= m.bytes, "recv: receive buffer too small");
    if (m.src_buf != nullptr) {  // rendezvous: copy + release sender
      std::memcpy(p.buf, m.src_buf, m.bytes);
      m.sreq->done.store(true, std::memory_order_release);
    } else {
      std::memcpy(p.buf, m.staged.data(), m.bytes);
    }
    p.rreq->trace_seq = m.seq;
    p.rreq->done.store(true, std::memory_order_release);
    if (m.delayed) delayed_count.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Try to satisfy `p` from the queued messages of its (src, tag)
  /// stream. Caller holds the mailbox lock. Ordering rules: a plain
  /// stream only matches its first queued message and is skipped while
  /// that head is held (non-overtaking); under reliable delivery every
  /// stream matches by sequence number — stale seqs are discarded as
  /// duplicates, future seqs are skipped until the gap fills (a
  /// retransmitted copy may sit behind newer messages in the deque).
  bool try_match(Mailbox& mb, PostedRecv& p, std::uint64_t now) {
    for (auto it = mb.unexpected.begin(); it != mb.unexpected.end();) {
      if (it->src != p.src || it->tag != p.tag) {
        ++it;
        continue;
      }
      if (reliable.enabled) {
        std::uint64_t& expected = mb.expected_seq[skey(p.src, p.tag)];
        if (it->wire_seq() < expected) {  // duplicate (injection/retransmit)
          stat_dup_suppressed.fetch_add(1, std::memory_order_relaxed);
          if (it->delayed) {
            delayed_count.fetch_sub(1, std::memory_order_acq_rel);
          }
          it = mb.unexpected.erase(it);
          continue;
        }
        if (it->wire_seq() > expected) {  // gap: look for the expected copy
          ++it;
          continue;
        }
        if (it->deliver_at_ns > now) return false;  // expected copy held
        deliver(p, *it);
        ++expected;
        mb.unexpected.erase(it);
        return true;
      }
      if (it->deliver_at_ns > now) return false;  // head of stream held
      deliver(p, *it);
      mb.unexpected.erase(it);
      return true;
    }
    return false;
  }

  /// Match every posted receive against the queued messages. Caller holds
  /// the mailbox lock.
  void match_mailbox(Mailbox& mb, std::uint64_t now) {
    for (std::size_t pi = 0; pi < mb.posted.size();) {
      if (try_match(mb, mb.posted[pi], now)) {
        mb.posted.erase(mb.posted.begin() +
                        static_cast<std::ptrdiff_t>(pi));
      } else {
        ++pi;
      }
    }
  }

  /// True when some queued message can (eventually) satisfy a receive on
  /// `p`'s stream: any queued stream message for plain streams, a queued
  /// copy of the *expected* seq under reliable delivery (a permanent gap — the
  /// sender died or gave up — cannot). Held messages count: they become
  /// due. Caller holds the mailbox lock.
  bool stream_can_satisfy(Mailbox& mb, const PostedRecv& p) {
    std::uint64_t expected = 0;
    const auto itseq = mb.expected_seq.find(skey(p.src, p.tag));
    if (itseq != mb.expected_seq.end()) expected = itseq->second;
    for (const Message& m : mb.unexpected) {
      if (m.src != p.src || m.tag != p.tag) continue;
      if (!reliable.enabled || m.wire_seq() == expected) return true;
    }
    return false;
  }

  /// Drive delivery of due delayed messages in `rank`'s mailbox.
  void progress(int rank) {
    if (rank < 0 || delayed_count.load(std::memory_order_acquire) == 0) {
      return;
    }
    Mailbox& mb = *mailboxes[static_cast<std::size_t>(rank)];
    const std::uint64_t now = now_ns();
    std::lock_guard<std::mutex> g(mb.mu);
    match_mailbox(mb, now);
  }

  // --- reliable delivery ---------------------------------------------------

  /// Re-send lost transmissions of `rank` whose backoff deadline passed.
  /// `forced` skips the scan-interval gate (exit flush).
  void scan_retransmits(int rank, std::uint64_t now, bool forced = false) {
    RankState& rs = rank_state(rank);
    if (!forced &&
        now - rs.last_scan_ns.load(std::memory_order_relaxed) <
            rel_scan_interval_ns) {
      return;
    }
    rs.last_scan_ns.store(now, std::memory_order_relaxed);
    std::vector<RetransmitRec> due;
    {
      std::lock_guard<std::mutex> g(rs.mu);
      if (rs.retransmits.empty()) return;
      if (rs.dead.load(std::memory_order_relaxed)) {
        stat_giveups.fetch_add(rs.retransmits.size(),
                               std::memory_order_relaxed);
        rs.retransmits.clear();
        return;
      }
      for (std::size_t i = 0; i < rs.retransmits.size();) {
        RetransmitRec& rec = rs.retransmits[i];
        if (now < rec.next_at_ns) {
          ++i;
          continue;
        }
        if (rec.attempts >= reliable.max_retransmits ||
            unreachable(rec.dst)) {
          stat_giveups.fetch_add(1, std::memory_order_relaxed);
          rs.retransmits[i] = std::move(rs.retransmits.back());
          rs.retransmits.pop_back();
          continue;
        }
        ++rec.attempts;
        double backoff = 1.0;
        for (int a = 0; a < rec.attempts; ++a) {
          backoff *= reliable.backoff_multiplier;
        }
        rec.next_at_ns =
            now + static_cast<std::uint64_t>(
                      static_cast<double>(rel_timeout_ns) * backoff);
        due.push_back(rec);  // copy; the record survives a re-loss
        ++i;
      }
    }
    std::vector<RetransmitRec> landed;
    for (RetransmitRec& rec : due) {
      stat_retransmits.fetch_add(1, std::memory_order_relaxed);
      if (faults.loss_probability > 0.0 &&
          retransmit_draw(rank, rec.dst, rec.tag, rec.seq - 1,
                          rec.attempts) <
              faults.loss_probability) {
        stat_drops.fetch_add(1, std::memory_order_relaxed);
        continue;  // lost again; the record's backoff re-sends it
      }
      Message m;
      m.src = rank;
      m.tag = rec.tag;
      m.bytes = rec.bytes;
      m.staged = std::move(rec.payload);
      m.seq = rec.seq;
      Mailbox& mb = *mailboxes[static_cast<std::size_t>(rec.dst)];
      {
        std::lock_guard<std::mutex> g(mb.mu);
        mb.unexpected.push_back(std::move(m));
        match_mailbox(mb, now_ns());
      }
      landed.push_back(std::move(rec));
    }
    if (!landed.empty()) {
      // Enqueue is the ack (shared-memory transport): drop the records.
      std::lock_guard<std::mutex> g(rs.mu);
      for (const RetransmitRec& rec : landed) {
        for (std::size_t i = 0; i < rs.retransmits.size(); ++i) {
          RetransmitRec& r2 = rs.retransmits[i];
          if (r2.dst == rec.dst && r2.tag == rec.tag &&
              r2.seq == rec.seq) {
            rs.retransmits[i] = std::move(rs.retransmits.back());
            rs.retransmits.pop_back();
            break;
          }
        }
      }
    }
  }

  /// Retransmit until this rank's loss records drain (rank exit). Bounded:
  /// gives up on what is left after ~2s (counted in ReliableStats).
  void flush_rank(int rank) {
    if (!reliable.enabled) return;
    RankState& rs = rank_state(rank);
    const std::uint64_t deadline = now_ns() + seconds_to_ns(2.0);
    for (;;) {
      {
        std::lock_guard<std::mutex> g(rs.mu);
        if (rs.retransmits.empty()) return;
      }
      if (now_ns() > deadline) {
        std::lock_guard<std::mutex> g(rs.mu);
        stat_giveups.fetch_add(rs.retransmits.size(),
                               std::memory_order_relaxed);
        rs.retransmits.clear();
        return;
      }
      scan_retransmits(rank, now_ns(), /*forced=*/true);
      if (hb.enabled) maybe_detect(now_ns());
      std::this_thread::yield();
    }
  }

  // --- failure detection ---------------------------------------------------

  /// Advance the shared heartbeat detector (any rank's poll drives it; a
  /// CAS on the detection timestamp keeps it one-at-a-time and gated to
  /// the heartbeat period).
  void maybe_detect(std::uint64_t now) {
    std::uint64_t last = last_detect_ns.load(std::memory_order_relaxed);
    const std::uint64_t interval = seconds_to_ns(hb.period_seconds);
    if (now < last + interval) return;
    if (!last_detect_ns.compare_exchange_strong(
            last, now, std::memory_order_relaxed)) {
      return;
    }
    const std::uint64_t suspect_ns = seconds_to_ns(hb.suspect_seconds);
    const std::uint64_t fail_ns = seconds_to_ns(hb.fail_seconds);
    bool any_gone = false;
    for (int r = 0; r < nranks; ++r) {
      RankState& rs = rank_state(r);
      const RankStatus st = rs.status.load(std::memory_order_acquire);
      if (st == RankStatus::Dead) {
        any_gone = true;
        continue;
      }
      if (rs.finished.load(std::memory_order_acquire)) {
        rs.status.store(RankStatus::Finished, std::memory_order_release);
        any_gone = true;
        continue;
      }
      const std::uint64_t beat =
          rs.heartbeat_ns.load(std::memory_order_relaxed);
      const std::uint64_t age = now > beat ? now - beat : 0;
      if (age >= fail_ns) {
        rs.status.store(RankStatus::Dead, std::memory_order_release);
        stat_ranks_failed.fetch_add(1, std::memory_order_relaxed);
        any_gone = true;
      } else if (age >= suspect_ns) {
        if (st == RankStatus::Alive) {
          rs.status.store(RankStatus::Suspected,
                          std::memory_order_release);
        }
      } else if (st == RankStatus::Suspected) {
        rs.status.store(RankStatus::Alive, std::memory_order_release);
      }
    }
    if (any_gone) {
      sweep_dead_recvs();
      sweep_collectives();
    }
  }

  /// Fail operations a gone rank strands: posted receives whose source is
  /// dead (or finished) and whose stream holds no message that could still
  /// satisfy them, and rendezvous senders whose payload sits unreceived in
  /// a gone rank's mailbox (the receiver will never match it).
  void sweep_dead_recvs() {
    for (int d = 0; d < nranks; ++d) {
      Mailbox& mb = *mailboxes[static_cast<std::size_t>(d)];
      const RankStatus dstat = status_of(d);
      std::lock_guard<std::mutex> g(mb.mu);
      if (dstat == RankStatus::Dead || dstat == RankStatus::Finished) {
        for (auto it = mb.unexpected.begin();
             it != mb.unexpected.end();) {
          if (it->src_buf != nullptr &&
              !it->sreq->done.load(std::memory_order_acquire)) {
            if (it->delayed) {
              delayed_count.fetch_sub(1, std::memory_order_acq_rel);
            }
            fail_req(it->sreq, d);
            it = mb.unexpected.erase(it);
          } else {
            ++it;
          }
        }
        if (dstat == RankStatus::Dead) {
          // A dead (hung, expelled) rank's own receives will never be
          // safely completed into its buffers.
          for (PostedRecv& p : mb.posted) fail_req(p.rreq, d);
          mb.posted.clear();
          continue;
        }
      }
      for (std::size_t pi = 0; pi < mb.posted.size();) {
        PostedRecv& p = mb.posted[pi];
        const RankStatus st = status_of(p.src);
        if ((st == RankStatus::Dead || st == RankStatus::Finished) &&
            !stream_can_satisfy(mb, p)) {
          fail_req(p.rreq, p.src);
          mb.posted.erase(mb.posted.begin() +
                          static_cast<std::ptrdiff_t>(pi));
        } else {
          ++pi;
        }
      }
    }
  }

  /// A slot is ready when every rank has contributed or never will (dead,
  /// or finished its rank function without reaching this collective).
  bool slot_ready(const CollectiveSlot& slot) {
    for (int r = 0; r < nranks; ++r) {
      if (slot.contributed_by[static_cast<std::size_t>(r)] != 0) continue;
      const RankStatus st = status_of(r);
      if (st != RankStatus::Dead && st != RankStatus::Finished) {
        return false;
      }
    }
    return true;
  }

  /// Reduce + publish a ready slot. Caller holds coll_mu. The reduction
  /// runs over the contributors in rank order (deterministic FP), dead
  /// ranks excused.
  void complete_slot(CollectiveSlot& slot) {
    std::vector<double> acc;
    for (int r = 0; r < nranks; ++r) {
      if (slot.contributed_by[static_cast<std::size_t>(r)] == 0) continue;
      const auto& c = slot.by_rank[static_cast<std::size_t>(r)];
      if (acc.empty()) {
        acc = c;
      } else {
        for (std::size_t i = 0; i < slot.count; ++i) {
          acc[i] = reduce_one(slot.op, acc[i], c[i]);
        }
      }
    }
    for (auto& out : slot.outs) {
      std::memcpy(out.buf, acc.data(), slot.count * sizeof(double));
      out.req->done.store(true, std::memory_order_release);
    }
  }

  /// Complete collective slots whose only missing contributors are dead.
  void sweep_collectives() {
    std::lock_guard<std::mutex> g(coll_mu);
    std::vector<std::uint64_t> finished_slots;
    for (auto& [id, slot] : collectives) {
      if (slot.contributed > 0 && slot_ready(slot)) {
        complete_slot(slot);
        finished_slots.push_back(id);
      }
    }
    for (std::uint64_t id : finished_slots) collectives.erase(id);
  }

  // --- rank death ----------------------------------------------------------

  /// Execute a scheduled kill on the calling rank's own thread: invalidate
  /// every piece of world state that references the dying rank's stack
  /// (posted receives, in-flight rendezvous payloads, collective output
  /// buffers), then throw. The heartbeat detector — not this function —
  /// is what tells the *other* ranks.
  [[noreturn]] void die(int rank, std::uint64_t send_no) {
    RankState& rs = rank_state(rank);
    rs.dead.store(true, std::memory_order_seq_cst);
    stat_kills.fetch_add(1, std::memory_order_relaxed);
    {
      Mailbox& own = *mailboxes[static_cast<std::size_t>(rank)];
      std::lock_guard<std::mutex> g(own.mu);
      for (PostedRecv& p : own.posted) fail_req(p.rreq, rank);
      own.posted.clear();
    }
    for (int d = 0; d < nranks; ++d) {
      Mailbox& mb = *mailboxes[static_cast<std::size_t>(d)];
      std::lock_guard<std::mutex> g(mb.mu);
      for (auto it = mb.unexpected.begin(); it != mb.unexpected.end();) {
        if (it->src == rank && it->src_buf != nullptr) {
          if (it->delayed) {
            delayed_count.fetch_sub(1, std::memory_order_acq_rel);
          }
          fail_req(it->sreq, rank);
          it = mb.unexpected.erase(it);
        } else {
          ++it;
        }
      }
    }
    {
      std::lock_guard<std::mutex> g(coll_mu);
      for (auto& [id, slot] : collectives) {
        for (std::size_t i = 0; i < slot.outs.size();) {
          if (slot.outs[i].rank == rank) {
            fail_req(slot.outs[i].req, rank);
            slot.outs[i] = std::move(slot.outs.back());
            slot.outs.pop_back();
          } else {
            ++i;
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> g(rs.mu);
      stat_giveups.fetch_add(rs.retransmits.size(),
                             std::memory_order_relaxed);
      rs.retransmits.clear();
    }
    throw RankFailedError(
        rank, "rank " + std::to_string(rank) +
                  " killed by fault plan at send #" +
                  std::to_string(send_no));
  }

  /// One resilience step on behalf of `rank` (heartbeat, retransmissions,
  /// detector, delayed delivery). A single branch when nothing is on.
  void rank_poll(int rank) {
    if (!resilient) return;
    const std::uint64_t now = now_ns();
    RankState& rs = rank_state(rank);
    if (hb.enabled && !rs.dead.load(std::memory_order_relaxed) &&
        !rs.finished.load(std::memory_order_relaxed)) {
      rs.heartbeat_ns.store(now, std::memory_order_relaxed);
    }
    if (reliable.enabled) scan_retransmits(rank, now);
    if (hb.enabled) maybe_detect(now);
    progress(rank);
  }
};

}  // namespace detail

using detail::Mailbox;
using detail::Message;
using detail::PostedRecv;
using detail::ReqKind;
using detail::ReqState;

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

bool Request::done() const {
  if (state_ == nullptr) return true;
  if (state_->done.load(std::memory_order_acquire)) return true;
  // Fault-injected delays park messages in the mailbox; whoever polls an
  // incomplete request lends progress so due messages get delivered even
  // if the owning rank is busy executing tasks.
  if (state_->world != nullptr) {
    state_->world->progress(state_->progress_rank);
    return state_->done.load(std::memory_order_acquire);
  }
  return false;
}

std::string Request::describe() const {
  if (state_ == nullptr) return "request <empty>";
  std::string s;
  switch (state_->kind) {
    case ReqKind::Send:
      s = "isend dest=" + std::to_string(state_->peer) +
          " tag=" + std::to_string(state_->tag) +
          " bytes=" + std::to_string(state_->bytes);
      break;
    case ReqKind::Recv:
      s = "irecv src=" + std::to_string(state_->peer) +
          " tag=" + std::to_string(state_->tag) +
          " bytes=" + std::to_string(state_->bytes);
      break;
    case ReqKind::Collective:
      s = "iallreduce count=" + std::to_string(state_->bytes /
                                               sizeof(double));
      break;
    case ReqKind::None:
      s = "request <untyped>";
      break;
  }
  if (state_->failed.load(std::memory_order_acquire)) {
    s += " (failed: rank " + std::to_string(state_->failed_rank) + " died)";
  } else {
    s += state_->done.load(std::memory_order_acquire) ? " (done)"
                                                      : " (pending)";
  }
  return s;
}

// ---------------------------------------------------------------------------
// Fault-plan spec parsing (the TDG_FAULTS format)
// ---------------------------------------------------------------------------

namespace {
bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}
}  // namespace

bool parse_fault_spec(const std::string& spec, FaultPlan& fp) {
  std::size_t i = 0;
  while (i <= spec.size()) {
    std::size_t j = spec.find(',', i);
    if (j == std::string::npos) j = spec.size();
    const std::string token = spec.substr(i, j - i);
    i = j + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    if (key == "seed") {
      if (!parse_u64(val, fp.seed)) return false;
    } else if (key == "loss") {
      if (!parse_double(val, fp.loss_probability)) return false;
    } else if (key == "dup") {
      if (!parse_double(val, fp.duplicate_probability)) return false;
    } else if (key == "reorder") {
      if (!parse_double(val, fp.reorder_probability)) return false;
    } else if (key == "delay") {  // P:S
      const std::size_t c = val.find(':');
      if (c == std::string::npos) return false;
      if (!parse_double(val.substr(0, c), fp.delay_probability) ||
          !parse_double(val.substr(c + 1), fp.delay_seconds)) {
        return false;
      }
    } else if (key == "straggler") {  // R@S
      const std::size_t a = val.find('@');
      if (a == std::string::npos) return false;
      double r = 0;
      if (!parse_double(val.substr(0, a), r) ||
          !parse_double(val.substr(a + 1), fp.straggler_delay_seconds)) {
        return false;
      }
      fp.straggler_ranks.push_back(static_cast<int>(r));
    } else if (key == "kill") {  // R@N
      const std::size_t a = val.find('@');
      if (a == std::string::npos) return false;
      double r = 0;
      std::uint64_t n = 0;
      if (!parse_double(val.substr(0, a), r) ||
          !parse_u64(val.substr(a + 1), n)) {
        return false;
      }
      fp.kill_rank_at_send_seq.emplace_back(static_cast<int>(r), n);
    } else {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

int Comm::size() const { return world_->nranks; }

Request Comm::isend(const void* buf, std::size_t bytes, int dest, int tag) {
  TDG_REQUIRE(dest >= 0 && dest < world_->nranks, "isend: bad destination");
  detail::World& w = *world_;
  if (w.kills_configured) {
    detail::RankState& self = w.rank_state(rank_);
    if (self.dead.load(std::memory_order_relaxed)) {
      throw RankFailedError(rank_, "isend on killed rank " +
                                       std::to_string(rank_));
    }
    const std::uint64_t n =
        self.send_count.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const auto& [kr, kseq] : w.faults.kill_rank_at_send_seq) {
      if (kr == rank_ && kseq == n) w.die(rank_, n);  // throws
    }
  }
  counters_.sends.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  auto sreq = std::make_shared<ReqState>();
  sreq->kind = ReqKind::Send;
  sreq->peer = dest;
  sreq->tag = tag;
  sreq->bytes = bytes;
  sreq->world = world_;
  sreq->progress_rank = dest;  // matching happens in the dest mailbox

  if (w.resilient && w.unreachable(dest)) {
    // Fire-and-forget to a dead rank: discarded, completes immediately
    // (the network would drop it; the sender cannot tell).
    w.stat_sends_to_dead.fetch_add(1, std::memory_order_relaxed);
    counters_.eager_sends.fetch_add(1, std::memory_order_relaxed);
    sreq->done.store(true, std::memory_order_release);
    return Request(std::move(sreq));
  }

  // The stream number, drawn once here: reliable delivery orders and
  // deduplicates by it, and the receive that matches this message takes
  // it as its trace_seq. Tasks on any worker thread may post sends, so the
  // counter map shares the rank state's lock.
  std::uint64_t seq = 0;
  if (w.numbered) {
    detail::RankState& self = w.rank_state(rank_);
    std::lock_guard<std::mutex> g(self.mu);
    seq = ++self.send_seq[detail::skey(dest, tag)];
  }
  sreq->trace_seq = seq;

  // Fault-plan decisions for this message (sender-sequence deterministic).
  std::uint64_t extra_delay_ns = 0;
  bool duplicate = false;
  bool reorder = false;
  bool lost = false;
  if (w.faults_active) {
    const FaultPlan& fp = w.faults;
    if (fp.loss_probability > 0.0 &&
        w.draw(rank_) < fp.loss_probability) {
      lost = true;
      w.stat_drops.fetch_add(1, std::memory_order_relaxed);
    }
    if (fp.delay_probability > 0.0 &&
        w.draw(rank_) < fp.delay_probability) {
      extra_delay_ns += static_cast<std::uint64_t>(fp.delay_seconds * 1e9);
      w.stat_delays.fetch_add(1, std::memory_order_relaxed);
    }
    if (w.is_straggler(rank_) && fp.straggler_delay_seconds > 0.0) {
      extra_delay_ns +=
          static_cast<std::uint64_t>(fp.straggler_delay_seconds * 1e9);
      w.stat_straggler_delays.fetch_add(1, std::memory_order_relaxed);
    }
    duplicate = fp.duplicate_probability > 0.0 &&
                w.draw(rank_) < fp.duplicate_probability &&
                bytes <= w.eager_threshold;
    reorder = fp.reorder_probability > 0.0 &&
              w.draw(rank_) < fp.reorder_probability;
    // Stats count *decisions*, taken here so they are a pure function of
    // (seed, rank, sequence). Whether a drawn duplicate/reorder is
    // actually applied depends on mailbox state (an early fast-path match,
    // an empty queue), which varies with thread interleaving.
    if (duplicate) {
      w.stat_duplicates.fetch_add(1, std::memory_order_relaxed);
    }
    if (reorder) {
      w.stat_reorders.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const bool held = extra_delay_ns > 0;
  // Under reliable delivery every payload is staged (store-and-forward)
  // and the send completes at post; the stream number makes delivery
  // exactly-once and in-order at the receiver.
  const bool reliable = w.reliable.enabled;
  const bool eager = reliable || bytes <= w.eager_threshold;

  if (lost) {
    if (reliable) {
      // A sender-side record that the retransmission scan re-sends with
      // backoff.
      detail::RetransmitRec rec;
      rec.dst = dest;
      rec.tag = tag;
      rec.seq = seq;
      rec.bytes = bytes;
      rec.payload.resize(bytes);
      std::memcpy(rec.payload.data(), buf, bytes);
      rec.next_at_ns = now_ns() + w.rel_timeout_ns;
      detail::RankState& self = w.rank_state(rank_);
      std::lock_guard<std::mutex> g(self.mu);
      self.retransmits.push_back(std::move(rec));
    }
    // Without reliable delivery the message is simply gone. An eager
    // sender cannot tell (its buffer was consumed); a rendezvous sender
    // never completes, the observable lost-handshake hang.
    if (eager) {
      counters_.eager_sends.fetch_add(1, std::memory_order_relaxed);
      sreq->done.store(true, std::memory_order_release);
    } else {
      counters_.rendezvous_sends.fetch_add(1, std::memory_order_relaxed);
    }
    return Request(std::move(sreq));
  }

  Mailbox& mb = *w.mailboxes[static_cast<std::size_t>(dest)];
  std::lock_guard<std::mutex> g(mb.mu);
  if (!held && !reliable) {
    // Non-overtaking: only match the *first* posted receive for (src,tag),
    // and only if no earlier message of this stream is still queued (a
    // held message must not be overtaken by this one).
    bool stream_queued = false;
    for (const Message& q : mb.unexpected) {
      if (q.src == rank_ && q.tag == tag) {
        stream_queued = true;
        break;
      }
    }
    if (!stream_queued) {
      for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
        if (it->src == rank_ && it->tag == tag) {
          TDG_REQUIRE(it->bytes >= bytes,
                      "isend: receive buffer too small");
          std::memcpy(it->buf, buf, bytes);
          it->rreq->trace_seq = seq;
          it->rreq->done.store(true, std::memory_order_release);
          mb.posted.erase(it);
          sreq->done.store(true, std::memory_order_release);
          // direct copy: counts as eager completion
          counters_.eager_sends.fetch_add(1, std::memory_order_relaxed);
          return Request(std::move(sreq));
        }
      }
    }
  }
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.bytes = bytes;
  m.seq = seq;
  if (held) {
    m.deliver_at_ns = now_ns() + extra_delay_ns;
    m.delayed = true;
    w.delayed_count.fetch_add(1, std::memory_order_acq_rel);
  }
  if (eager) {
    m.staged.resize(bytes);
    std::memcpy(m.staged.data(), buf, bytes);
    sreq->done.store(true, std::memory_order_release);
    counters_.eager_sends.fetch_add(1, std::memory_order_relaxed);
  } else {
    m.src_buf = buf;
    m.sreq = sreq;
    counters_.rendezvous_sends.fetch_add(1, std::memory_order_relaxed);
  }
  if (duplicate) {
    // Duplicate delivery fault (eager only): a second copy that completes
    // no request. Reliable delivery suppresses it by its number; without
    // it, the copy satisfies a later same-(src,tag) receive with stale
    // data, and that receive reports the copy's number.
    Message dup = m;
    if (dup.delayed) {
      w.delayed_count.fetch_add(1, std::memory_order_acq_rel);
    }
    mb.unexpected.push_back(std::move(dup));
  }
  if (reorder && !reliable && !mb.unexpected.empty() &&
      (mb.unexpected.back().src != rank_ ||
       mb.unexpected.back().tag != tag)) {
    // Reordering fault: jump ahead of the most recently queued message of
    // a different stream (per-stream non-overtaking stays intact).
    mb.unexpected.insert(mb.unexpected.end() - 1, std::move(m));
  } else {
    mb.unexpected.push_back(std::move(m));
  }
  // A reliable message may be the one a posted receive waits for (the
  // receive skips future seqs until the gap fills).
  if (reliable) w.match_mailbox(mb, now_ns());
  return Request(std::move(sreq));
}

Request Comm::irecv(void* buf, std::size_t bytes, int src, int tag) {
  TDG_REQUIRE(src >= 0 && src < world_->nranks, "irecv: bad source");
  detail::World& w = *world_;
  if (w.kills_configured &&
      w.rank_state(rank_).dead.load(std::memory_order_relaxed)) {
    // This rank already executed its scheduled death; any task it still
    // runs must fail (and poison its dependents), never post work that
    // could wedge the drain.
    throw RankFailedError(rank_,
                          "irecv on killed rank " + std::to_string(rank_));
  }
  counters_.recvs.fetch_add(1, std::memory_order_relaxed);
  auto rreq = std::make_shared<ReqState>();
  rreq->kind = ReqKind::Recv;
  rreq->peer = src;
  rreq->tag = tag;
  rreq->bytes = bytes;
  rreq->world = world_;
  rreq->progress_rank = rank_;  // matching happens in our own mailbox
  Mailbox& mb = *w.mailboxes[static_cast<std::size_t>(rank_)];
  std::lock_guard<std::mutex> g(mb.mu);
  PostedRecv p{src, tag, bytes, buf, rreq};
  if (w.try_match(mb, p, now_ns())) {
    return Request(std::move(rreq));
  }
  if (w.hb.enabled) {
    // Fast-fail: a receive from a rank already known dead (or exited)
    // whose stream cannot produce the message will never complete.
    const RankStatus st = w.status_of(src);
    if ((st == RankStatus::Dead || st == RankStatus::Finished) &&
        !w.stream_can_satisfy(mb, p)) {
      detail::World::fail_req(rreq, src);
      return Request(std::move(rreq));
    }
  }
  mb.posted.push_back(std::move(p));
  return Request(std::move(rreq));
}

Request Comm::iallreduce(const double* sendbuf, double* recvbuf,
                         std::size_t count, Op op) {
  detail::World& w = *world_;
  if (w.kills_configured &&
      w.rank_state(rank_).dead.load(std::memory_order_relaxed)) {
    // A late contribution from a dead rank would resurrect a collective
    // slot the survivors already completed without it.
    throw RankFailedError(
        rank_, "iallreduce on killed rank " + std::to_string(rank_));
  }
  counters_.allreduces.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t slot_id = coll_seq_++;
  auto req = std::make_shared<ReqState>();
  req->kind = ReqKind::Collective;
  req->bytes = count * sizeof(double);
  // Collectives match by per-rank call sequence already; the slot id
  // (1-based) is their number, and tag shows the slot.
  req->tag = static_cast<int>(slot_id);
  req->trace_seq = slot_id + 1;
  std::lock_guard<std::mutex> g(w.coll_mu);
  detail::CollectiveSlot& slot = w.collectives[slot_id];
  if (slot.contributed == 0) {
    slot.op = op;
    slot.count = count;
    slot.by_rank.resize(static_cast<std::size_t>(w.nranks));
    slot.contributed_by.assign(static_cast<std::size_t>(w.nranks), 0);
  } else {
    TDG_REQUIRE(slot.count == count && slot.op == op,
                "iallreduce: mismatched count/op across ranks");
  }
  slot.by_rank[static_cast<std::size_t>(rank_)].assign(sendbuf,
                                                       sendbuf + count);
  slot.contributed_by[static_cast<std::size_t>(rank_)] = 1;
  slot.outs.push_back({rank_, recvbuf, req});
  ++slot.contributed;
  if (w.slot_ready(slot)) {
    w.complete_slot(slot);
    w.collectives.erase(slot_id);
  }
  return Request(std::move(req));
}

void Comm::barrier() {
  double in = 0, out = 0;
  allreduce(&in, &out, 1, Op::Sum);
}

void Comm::poll() const { world_->rank_poll(rank_); }

RankStatus Comm::rank_status(int r) const {
  TDG_REQUIRE(r >= 0 && r < world_->nranks, "rank_status: bad rank");
  return world_->status_of(r);
}

std::vector<RankInfo> Comm::rank_info() const {
  std::vector<RankInfo> out(static_cast<std::size_t>(world_->nranks));
  const std::uint64_t now = now_ns();
  for (int r = 0; r < world_->nranks; ++r) {
    detail::RankState& rs = world_->rank_state(r);
    RankInfo& ri = out[static_cast<std::size_t>(r)];
    ri.status = rs.status.load(std::memory_order_acquire);
    const std::uint64_t beat =
        rs.heartbeat_ns.load(std::memory_order_relaxed);
    ri.heartbeat_age_seconds =
        now > beat ? static_cast<double>(now - beat) * 1e-9 : 0.0;
  }
  return out;
}

int Comm::ranks_failed() const {
  return world_->stat_ranks_failed.load(std::memory_order_relaxed);
}

int Comm::nearest_alive(int from, int step) const {
  for (int r = from + step; r >= 0 && r < world_->nranks; r += step) {
    if (world_->status_of(r) != RankStatus::Dead) return r;
  }
  return -1;
}

namespace {
void throw_if_failed(const Request& r, int rank) {
  if (!r.failed()) return;
  throw RankFailedError(r.failed_rank(),
                        "rank " + std::to_string(rank) +
                            ": peer died during " + r.describe());
}
}  // namespace

void Comm::wait(const Request& r) const {
  if (world_->default_wait_deadline > 0.0) {
    wait_for(r, world_->default_wait_deadline);
    return;
  }
  while (!r.done()) {
    world_->rank_poll(rank_);
    std::this_thread::yield();
  }
  throw_if_failed(r, rank_);
}

void Comm::waitall(const std::vector<Request>& rs) const {
  for (const Request& r : rs) wait(r);
}

void Comm::wait_for(const Request& r, double deadline_seconds) const {
  const double t0 = now_seconds();
  while (!r.done()) {
    if (now_seconds() - t0 >= deadline_seconds) {
      char head[96];
      std::snprintf(head, sizeof head,
                    "Comm::wait_for: rank %d exceeded %.3fs deadline on ",
                    rank_, deadline_seconds);
      throw DeadlineError(std::string(head) + r.describe());
    }
    world_->rank_poll(rank_);
    std::this_thread::yield();
  }
  throw_if_failed(r, rank_);
}

void Comm::waitall_for(const std::vector<Request>& rs,
                       double deadline_seconds) const {
  const double t0 = now_seconds();
  for (const Request& r : rs) {
    while (!r.done()) {
      if (now_seconds() - t0 >= deadline_seconds) {
        std::string msg =
            "Comm::waitall_for: rank " + std::to_string(rank_) +
            " exceeded " + std::to_string(deadline_seconds) +
            "s deadline; pending:";
        for (const Request& p : rs) {
          if (!p.done()) msg += "\n  " + p.describe();
        }
        throw DeadlineError(std::move(msg));
      }
      world_->rank_poll(rank_);
      std::this_thread::yield();
    }
    throw_if_failed(r, rank_);
  }
}

FaultStats Comm::fault_stats() const {
  FaultStats s;
  s.delays = world_->stat_delays.load(std::memory_order_relaxed);
  s.duplicates = world_->stat_duplicates.load(std::memory_order_relaxed);
  s.reorders = world_->stat_reorders.load(std::memory_order_relaxed);
  s.straggler_delays =
      world_->stat_straggler_delays.load(std::memory_order_relaxed);
  s.drops = world_->stat_drops.load(std::memory_order_relaxed);
  s.kills = world_->stat_kills.load(std::memory_order_relaxed);
  return s;
}

ReliableStats Comm::reliable_stats() const {
  ReliableStats s;
  s.retransmits = world_->stat_retransmits.load(std::memory_order_relaxed);
  s.dup_suppressed =
      world_->stat_dup_suppressed.load(std::memory_order_relaxed);
  s.giveups = world_->stat_giveups.load(std::memory_order_relaxed);
  s.sends_to_dead =
      world_->stat_sends_to_dead.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Universe
// ---------------------------------------------------------------------------

void Universe::run(int nranks, const std::function<void(Comm&)>& fn,
                   Options opts, Report* report) {
  TDG_REQUIRE(nranks > 0, "Universe requires at least one rank");
  const EnvConfig env = read_env();
  if (!env.faults.empty() && !parse_fault_spec(env.faults, opts.faults)) {
    std::fprintf(stderr, "tdg: malformed TDG_FAULTS spec '%s' ignored\n",
                 env.faults.c_str());
  }
  detail::World world;
  world.nranks = nranks;
  world.eager_threshold = opts.eager_threshold;
  world.default_wait_deadline = opts.default_wait_deadline_seconds;
  world.faults = opts.faults;
  world.faults_active = opts.faults.active();
  world.kills_configured = !opts.faults.kill_rank_at_send_seq.empty();
  world.reliable = opts.reliable;
  world.hb = opts.heartbeat;
  // Comm tracing follows the trace env so `TDG_TRACE=perfetto mpirun ...`
  // just works; opts.comm_trace forces it on for tests.
  world.numbered = opts.comm_trace || env.trace || opts.reliable.enabled;
  world.resilient = world.kills_configured || world.reliable.enabled ||
                    world.hb.enabled;
  world.rel_timeout_ns =
      detail::seconds_to_ns(opts.reliable.retransmit_timeout_seconds);
  world.rel_scan_interval_ns = world.rel_timeout_ns / 4;
  world.mailboxes.reserve(static_cast<std::size_t>(nranks));
  world.rank_states.reserve(static_cast<std::size_t>(nranks));
  const std::uint64_t t0 = now_ns();
  for (int r = 0; r < nranks; ++r) {
    world.mailboxes.push_back(std::make_unique<Mailbox>());
    auto rs = std::make_unique<detail::RankState>();
    rs->heartbeat_ns.store(t0, std::memory_order_relaxed);
    world.rank_states.push_back(std::move(rs));
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  // Per-rank traffic snapshots, captured before each rank thread exits so
  // TDG_METRICS=dump can report them after the join.
  std::vector<CommStats> rank_stats(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &fn, &errors, &rank_stats, r] {
      try {
        Comm comm(world, r);
        struct StatsCapture {
          Comm& c;
          CommStats& out;
          ~StatsCapture() { out = c.stats(); }
        } capture{comm, rank_stats[static_cast<std::size_t>(r)]};
        fn(comm);
        // Normal exit: push out any unacknowledged retransmissions, then
        // tell the detector this silence is retirement, not death.
        world.flush_rank(r);
        world.rank_state(r).finished.store(true, std::memory_order_seq_cst);
      } catch (...) {
        // Captured, not terminated: rethrown on the joining thread below
        // so distributed tests can assert on per-rank failures.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (env.metrics_dump) {
    std::fprintf(stderr, "tdg: universe comm stats (%d ranks)\n", nranks);
    for (int r = 0; r < nranks; ++r) {
      const CommStats& s = rank_stats[static_cast<std::size_t>(r)];
      std::fprintf(stderr,
                   "  rank %d: sends=%llu (eager=%llu rendezvous=%llu) "
                   "recvs=%llu bytes_sent=%llu allreduces=%llu\n",
                   r, static_cast<unsigned long long>(s.sends),
                   static_cast<unsigned long long>(s.eager_sends),
                   static_cast<unsigned long long>(s.rendezvous_sends),
                   static_cast<unsigned long long>(s.recvs),
                   static_cast<unsigned long long>(s.bytes_sent),
                   static_cast<unsigned long long>(s.allreduces));
    }
  }
  // Drain unconditionally so successive universes in one process never
  // inherit each other's telemetry series.
  {
    std::vector<RankTelemetry> telem = TelemetryHub::instance().drain();
    if (env.telemetry.dump && !telem.empty()) {
      std::ofstream os(env.telemetry.path);
      if (os) TelemetryHub::write_json(os, telem);
    }
    if (report != nullptr) report->telemetry = std::move(telem);
  }
  if (report != nullptr) {
    Comm probe(world, 0);
    report->faults = probe.fault_stats();
    report->reliable = probe.reliable_stats();
    report->ranks_failed = probe.ranks_failed();
    report->rank_status.clear();
    report->killed_ranks.clear();
    report->rank_errors.assign(static_cast<std::size_t>(nranks), "");
    for (int r = 0; r < nranks; ++r) {
      report->rank_status.push_back(world.status_of(r));
      if (world.rank_state(r).dead.load(std::memory_order_relaxed)) {
        report->killed_ranks.push_back(r);
      }
      if (errors[static_cast<std::size_t>(r)]) {
        report->rank_errors[static_cast<std::size_t>(r)] =
            describe_exception(errors[static_cast<std::size_t>(r)]);
      }
    }
  }
  for (int r = 0; r < nranks; ++r) {
    const std::exception_ptr& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    if (opts.tolerate_killed_ranks &&
        world.rank_state(r).dead.load(std::memory_order_relaxed)) {
      continue;  // a scheduled death; the Report carries it
    }
    std::rethrow_exception(e);
  }
}

}  // namespace tdg::mpi
