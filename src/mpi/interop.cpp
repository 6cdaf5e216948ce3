#include "mpi/interop.hpp"

#include <cstdio>
#include <exception>
#include <fstream>

#include "core/common.hpp"
#include "core/error.hpp"
#include "core/profiler.hpp"

namespace tdg::mpi {

RequestPoller::RequestPoller(Runtime& rt, Comm* comm)
    : rt_(&rt), comm_(comm) {
  // Registration is idempotent by name, so successive pollers on one
  // runtime (tests create several) accumulate into the same counters.
  MetricsRegistry& m = rt_->metrics();
  m_requests_ = m.counter("comm.requests");
  m_collectives_ = m.counter("comm.collectives");
  m_bytes_ = m.counter("comm.bytes");
  m_wait_ns_ = m.histogram("comm.wait_ns");
  if (comm_ != nullptr) {
    m_sends_ = m.counter("comm.sends");
    m_recvs_ = m.counter("comm.recvs");
    m_bytes_sent_ = m.counter("comm.bytes_sent");
    m_allreduces_ = m.counter("comm.allreduces");
    m_drops_ = m.counter("comm.drops_injected");
    m_kills_ = m.counter("comm.kills_injected");
    m_retransmits_ = m.counter("comm.retransmits");
    m_dup_sup_ = m.counter("comm.dup_suppressed");
    m_giveups_ = m.counter("comm.giveups");
    m_reroutes_ = m.counter("comm.reroutes");
    m_ranks_failed_ = m.gauge("universe.ranks_failed");
    diag_fault_base_ = comm_->fault_stats();
    diag_rel_base_ = comm_->reliable_stats();
    // Trace records and Perfetto tracks are keyed by rank; stamp the
    // profiler so TaskRecords carry it.
    rt_->profiler().set_rank(comm_->rank());
    if (rt_->env().telemetry.enabled) {
      telem_ring_ = TelemetryHub::instance().attach(comm_->rank(),
                                                    kTelemetryRingCapacity);
    }
  }
  // Installed last: workers run the hook as soon as it is published, and
  // it reads every member set above.
  hook_token_ = rt_->set_polling_hook([this] { poll(); });
  diag_token_ = rt_->watchdog().add_diagnostic(
      [this](std::string& out) { diagnostic(out); });
}

void RequestPoller::complete_on_event(Request r, Event* ev,
                                      TrackOpts opts) {
  Tracked t;
  t.req = std::move(r);
  t.ev = ev;
  t.opts = std::move(opts);
  t.span.post_ns = now_ns();
  t.span.collective = t.opts.collective;
  if (t.req.done()) {  // completed immediately (eager / already matched)
    if (t.req.failed()) {
      handle_failed(std::move(t));
      return;
    }
    t.span.complete_ns = t.span.post_ns;
    record_metrics(t);
    {
      std::lock_guard<std::mutex> g(mu_);
      done_.push_back(t.span);
    }
    ev->fulfill();
    return;
  }
  std::lock_guard<std::mutex> g(mu_);
  pending_.push_back(std::move(t));
}

void RequestPoller::poll() {
  if (comm_ != nullptr) {
    comm_->poll();  // heartbeat + retransmissions + failure detection
    sync_comm_metrics();
    maybe_sample_telemetry();
  }
  // Collect fulfilled events outside the lock: fulfill() may complete a
  // task, whose successors could re-enter complete_on_event. Failed
  // requests are resolved outside it too — recovery callbacks post new
  // requests, and poisoning completes tasks.
  std::vector<Event*> ready;
  std::vector<Tracked> failed;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (std::size_t i = 0; i < pending_.size();) {
      if (!pending_[i].req.done()) {
        ++i;
        continue;
      }
      if (pending_[i].req.failed()) {
        failed.push_back(std::move(pending_[i]));
      } else {
        pending_[i].span.complete_ns = now_ns();
        record_metrics(pending_[i]);
        done_.push_back(pending_[i].span);
        ready.push_back(pending_[i].ev);
      }
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
    }
  }
  for (Event* ev : ready) ev->fulfill();
  for (Tracked& t : failed) handle_failed(std::move(t));
}

void RequestPoller::handle_failed(Tracked t) {
  const int dead = t.req.failed_rank();
  const unsigned shard = rt_->metrics_shard();
  if (t.opts.on_peer_failed) {
    Request repl = t.opts.on_peer_failed(dead);
    if (repl.valid()) {
      // Rerouted to a survivor: keep tracking under the same event (the
      // replacement may itself fail and reroute again).
      rt_->metrics().add(m_reroutes_, 1, shard);
      t.req = std::move(repl);
      std::lock_guard<std::mutex> g(mu_);
      pending_.push_back(std::move(t));
      return;
    }
  }
  if (t.opts.fulfill_on_giveup && t.ev != nullptr &&
      t.ev->task_idempotent()) {
    // Idempotent shard completes locally with the data it has; counted as
    // a reroute (the dependence was re-pointed at local state).
    rt_->metrics().add(m_reroutes_, 1, shard);
    t.span.complete_ns = now_ns();
    record_metrics(t);
    {
      std::lock_guard<std::mutex> g(mu_);
      done_.push_back(t.span);
    }
    t.ev->fulfill();
    return;
  }
  if (t.ev != nullptr) {
    t.ev->poison(std::make_exception_ptr(RankFailedError(
        dead, "rank " + std::to_string(dead) + " failed during " +
                  t.req.describe())));
  }
}

void RequestPoller::record_metrics(const Tracked& t) {
  MetricsRegistry& m = rt_->metrics();
  const unsigned shard = rt_->metrics_shard();
  m.add(m_requests_, 1, shard);
  if (t.span.collective) m.add(m_collectives_, 1, shard);
  m.add(m_bytes_, t.req.bytes(), shard);
  m.observe(m_wait_ns_, t.span.complete_ns - t.span.post_ns, shard);
  // Comm event for the trace stream: the (src,dst,tag,seq) key lets the
  // exporter pair this record with its remote counterpart as a flow arrow.
  // record_comm itself is gated on trace_enabled(), and the profiler's
  // spin lock is a leaf — safe under our mu_.
  Profiler& prof = rt_->profiler();
  if (prof.trace_enabled()) {
    CommRecord c;
    c.kind = t.req.is_recv()         ? CommRecord::Kind::Recv
             : t.req.is_collective() ? CommRecord::Kind::Collective
                                     : CommRecord::Kind::Send;
    c.self = comm_ != nullptr ? comm_->rank() : 0;
    c.peer = t.req.peer();
    c.tag = t.req.tag();
    c.seq = t.req.trace_seq();
    c.bytes = t.req.bytes();
    c.t_post = t.span.post_ns;
    c.t_complete = t.span.complete_ns;
    c.retransmits =
        comm_ != nullptr
            ? static_cast<std::uint32_t>(comm_->reliable_stats().retransmits)
            : 0;
    c.task_id = t.ev != nullptr ? t.ev->task_id() : 0;
    prof.record_comm(c);
  }
}

void RequestPoller::maybe_sample_telemetry() {
  if (!telem_ring_) return;
  const std::uint64_t now = now_ns();
  std::uint64_t last = telem_last_ns_.load(std::memory_order_relaxed);
  if (now - last < rt_->env().telemetry.period_ns) return;
  // One sampler wins the period; losers skip rather than queue up.
  if (!telem_last_ns_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed)) {
    return;
  }
  telem_ring_->push(rt_->metrics().sample());
}

void RequestPoller::sync_comm_metrics() {
  const std::uint64_t now = now_ns();
  std::unique_lock<std::mutex> g(sync_mu_, std::try_to_lock);
  if (!g.owns_lock()) return;
  if (now - last_sync_ns_ < 1000000) return;  // 1ms gate
  last_sync_ns_ = now;
  const CommStats cs = comm_->stats();
  const FaultStats f = comm_->fault_stats();
  const ReliableStats rl = comm_->reliable_stats();
  const int rf = comm_->ranks_failed();
  MetricsRegistry& m = rt_->metrics();
  const unsigned shard = rt_->metrics_shard();
  m.add(m_sends_, cs.sends - comm_base_.sends, shard);
  m.add(m_recvs_, cs.recvs - comm_base_.recvs, shard);
  m.add(m_bytes_sent_, cs.bytes_sent - comm_base_.bytes_sent, shard);
  m.add(m_allreduces_, cs.allreduces - comm_base_.allreduces, shard);
  m.add(m_drops_, f.drops - fault_base_.drops, shard);
  m.add(m_kills_, f.kills - fault_base_.kills, shard);
  m.add(m_retransmits_, rl.retransmits - rel_base_.retransmits, shard);
  m.add(m_dup_sup_, rl.dup_suppressed - rel_base_.dup_suppressed, shard);
  m.add(m_giveups_, rl.giveups - rel_base_.giveups, shard);
  m.gauge_add(m_ranks_failed_, rf - ranks_failed_base_, shard);
  comm_base_ = cs;
  fault_base_ = f;
  rel_base_ = rl;
  ranks_failed_base_ = rf;
}

std::vector<RequestSpan> RequestPoller::completed_spans() const {
  std::lock_guard<std::mutex> g(mu_);
  return done_;
}

std::size_t RequestPoller::pending() const {
  std::lock_guard<std::mutex> g(mu_);
  return pending_.size();
}

void RequestPoller::diagnostic(std::string& out) const {
  {
    std::lock_guard<std::mutex> g(mu_);
    std::size_t shown = 0;
    for (const Tracked& t : pending_) {
      out += "\n  pending MPI request: " + t.req.describe();
      if (t.ev != nullptr && t.ev->task_id() != 0) {
        out += " (detach task '";
        out += t.ev->task_label();
        out += "', id " + std::to_string(t.ev->task_id()) + ")";
      }
      if (++shown == 16) {
        out += "\n  (more pending requests elided)";
        break;
      }
    }
  }
  if (comm_ == nullptr) return;
  const std::vector<RankInfo> info = comm_->rank_info();
  for (std::size_t r = 0; r < info.size(); ++r) {
    char line[96];
    std::snprintf(line, sizeof line,
                  "\n  rank %zu: %s (heartbeat %.3fs ago)", r,
                  to_string(info[r].status),
                  info[r].heartbeat_age_seconds);
    out += line;
  }
  const FaultStats f = comm_->fault_stats();
  const ReliableStats rl = comm_->reliable_stats();
  char line[176];
  std::snprintf(
      line, sizeof line,
      "\n  injected faults since arming: drops=%llu kills=%llu | "
      "reliable: retransmits=%llu dup_suppressed=%llu giveups=%llu",
      static_cast<unsigned long long>(f.drops - diag_fault_base_.drops),
      static_cast<unsigned long long>(f.kills - diag_fault_base_.kills),
      static_cast<unsigned long long>(rl.retransmits -
                                      diag_rel_base_.retransmits),
      static_cast<unsigned long long>(rl.dup_suppressed -
                                      diag_rel_base_.dup_suppressed),
      static_cast<unsigned long long>(rl.giveups - diag_rel_base_.giveups));
  out += line;
  if (telem_ring_) {
    // The last few samples show the counter trajectory into the hang.
    static constexpr const char* kShown[] = {
        "exec.tasks", "sched.ready_depth", "comm.sends", "comm.recvs",
        "comm.retransmits", "universe.ranks_failed"};
    const std::vector<MetricsSample> samples = telem_ring_->snapshot();
    const std::size_t n = samples.size();
    for (std::size_t i = n > 3 ? n - 3 : 0; i < n; ++i) {
      out += "\n  telemetry t=" + std::to_string(samples[i].t_ns) + ":";
      for (const char* name : kShown) {
        out += std::string(" ") + name + "=" +
               std::to_string(samples[i].value(name));
      }
    }
    const TelemetryConfig& cfg = rt_->env().telemetry;
    if (cfg.dump) {
      // Watchdog fired: persist the full time-series now, in case the
      // process is about to be killed and never reaches Universe exit.
      std::ofstream os(cfg.path);
      if (os) {
        TelemetryHub::write_json(os, TelemetryHub::instance().collect());
        out += "\n  telemetry time-series dumped to " + cfg.path;
      }
    }
  }
}

}  // namespace tdg::mpi
