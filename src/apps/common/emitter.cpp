#include "apps/common/emitter.hpp"

namespace tdg::apps {

namespace {
const void* fake_ptr(LAddr a) {
  // Logical addresses are identities only; the dependency map never
  // dereferences them. 0 is reserved (null would alias real data).
  return reinterpret_cast<const void*>(a + 1);
}
}  // namespace

// ---------------------------------------------------------------------------
// RuntimeEmitter
// ---------------------------------------------------------------------------

RuntimeEmitter::RuntimeEmitter(Runtime& rt, Options opts)
    : rt_(rt), opts_(opts) {}

RuntimeEmitter::RuntimeEmitter(Runtime& rt, mpi::Comm& comm,
                               mpi::RequestPoller& poller, Options opts)
    : rt_(rt), comm_(&comm), poller_(&poller), opts_(opts) {}

RuntimeEmitter::~RuntimeEmitter() = default;

Event* RuntimeEmitter::detach_event() {
  // A replayed submission reuses the event of its discovery iteration and
  // ignores TaskOpts: an event created for it would never be attached, and
  // events live as long as the runtime.
  if (region_ != nullptr && region_->replaying()) return nullptr;
  return rt_.create_event();
}

void RuntimeEmitter::to_deps(std::span<const LDep> ldeps) {
  scratch_.clear();
  for (const LDep& d : ldeps) {
    scratch_.push_back(Depend{fake_ptr(d.addr), d.type});
  }
}

void RuntimeEmitter::compute(const char* label, std::span<const LDep> deps,
                             double, std::uint64_t,
                             std::function<void()> body) {
  to_deps(deps);
  TaskOpts opts;
  opts.label = label;
  auto task = [body = std::move(body)] { body(); };
  static_assert(sizeof(task) <= TaskBody::kInlineBytes,
                "compute body no longer fits the inline task body");
  rt_.submit(std::move(task), std::span<const Depend>(scratch_), opts);
}

void RuntimeEmitter::send(const char* label, std::span<const LDep> deps,
                          const void* buf, std::uint64_t bytes, int peer,
                          int tag) {
  TDG_CHECK(comm_ != nullptr, "RuntimeEmitter: send without a communicator");
  if (opts_.taskwait_around_comm) rt_.taskwait();
  to_deps(deps);
  TaskOpts topts;
  topts.label = label;
  topts.detach = detach_event();
  // Sends need no reroute callback: the MPI layer discards sends to dead
  // ranks, so the task completes either way; idempotency marks it safe to
  // re-execute under shrink recovery.
  topts.idempotent = opts_.recovery == RecoveryMode::ShrinkRedistribute;
  mpi::Comm* comm = comm_;
  mpi::RequestPoller* poller = poller_;
  Runtime* rt = &rt_;
  auto task = [comm, poller, rt, buf, bytes, peer, tag] {
    poller->complete_on_event(
        comm->isend(buf, static_cast<std::size_t>(bytes), peer, tag),
        rt->current_task_event());
  };
  static_assert(sizeof(task) <= TaskBody::kInlineBytes,
                "send body no longer fits the inline task body");
  rt_.submit(task, std::span<const Depend>(scratch_), topts);
}

void RuntimeEmitter::recv(const char* label, std::span<const LDep> deps,
                          void* buf, std::uint64_t bytes, int peer, int tag) {
  TDG_CHECK(comm_ != nullptr, "RuntimeEmitter: recv without a communicator");
  to_deps(deps);
  TaskOpts topts;
  topts.label = label;
  topts.detach = detach_event();
  mpi::Comm* comm = comm_;
  mpi::RequestPoller* poller = poller_;
  Runtime* rt = &rt_;
  if (opts_.recovery == RecoveryMode::ShrinkRedistribute) {
    topts.idempotent = true;
    // Fault-recovery path: this capture (80 bytes, with the reroute
    // callback) spills to the heap, which only shrink recovery pays.
    std::function<int(int)> reroute = opts_.reroute;
    rt_.submit(
        [comm, poller, rt, buf, bytes, tag, peer,
         reroute = std::move(reroute)] {
          mpi::TrackOpts track;
          track.fulfill_on_giveup = true;
          if (reroute) {
            // The current peer travels with the callback so a rerouted
            // request that fails again reroutes from the *new* peer.
            auto current = std::make_shared<int>(peer);
            track.on_peer_failed = [comm, buf, bytes, tag, reroute,
                                    current](int) -> mpi::Request {
              const int np = reroute(*current);
              if (np < 0) return mpi::Request();  // local completion
              *current = np;
              return comm->irecv(buf, static_cast<std::size_t>(bytes), np,
                                 tag);
            };
          }
          poller->complete_on_event(
              comm->irecv(buf, static_cast<std::size_t>(bytes), peer, tag),
              rt->current_task_event(), std::move(track));
        },
        std::span<const Depend>(scratch_), topts);
    return;
  }
  auto task = [comm, poller, rt, buf, bytes, peer, tag] {
    poller->complete_on_event(
        comm->irecv(buf, static_cast<std::size_t>(bytes), peer, tag),
        rt->current_task_event());
  };
  static_assert(sizeof(task) <= TaskBody::kInlineBytes,
                "recv body no longer fits the inline task body");
  rt_.submit(task, std::span<const Depend>(scratch_), topts);
}

void RuntimeEmitter::allreduce(const char* label, std::span<const LDep> deps,
                               const double* in, double* out,
                               std::size_t count, mpi::Op op) {
  TDG_CHECK(comm_ != nullptr,
            "RuntimeEmitter: allreduce without a communicator");
  if (opts_.taskwait_around_comm) rt_.taskwait();
  to_deps(deps);
  TaskOpts topts;
  topts.label = label;
  topts.detach = detach_event();
  // Collectives complete over the survivors (dead ranks are excused by
  // the MPI layer), so no reroute is needed in shrink mode.
  topts.idempotent = opts_.recovery == RecoveryMode::ShrinkRedistribute;
  mpi::Comm* comm = comm_;
  mpi::RequestPoller* poller = poller_;
  Runtime* rt = &rt_;
  auto task = [comm, poller, rt, in, out, count, op] {
    poller->complete_on_event(comm->iallreduce(in, out, count, op),
                              rt->current_task_event(),
                              /*collective=*/true);
  };
  static_assert(sizeof(task) <= TaskBody::kInlineBytes,
                "allreduce body no longer fits the inline task body");
  rt_.submit(task, std::span<const Depend>(scratch_), topts);
  if (opts_.taskwait_around_comm) rt_.taskwait();
}

bool RuntimeEmitter::begin_iteration(std::uint32_t iteration) {
  if (opts_.persistent) {
    if (iteration == 0) region_ = std::make_unique<PersistentRegion>(rt_);
    region_->begin_iteration();
  }
  return true;  // the producer re-executes the instruction flow always
}

void RuntimeEmitter::end_iteration() {
  if (opts_.persistent) {
    region_->end_iteration();
  }
}

// ---------------------------------------------------------------------------
// SimEmitter
// ---------------------------------------------------------------------------

std::vector<sim::SimDep> SimEmitter::to_deps(std::span<const LDep> ldeps) {
  std::vector<sim::SimDep> deps;
  deps.reserve(ldeps.size());
  for (const LDep& d : ldeps) {
    deps.push_back(sim::SimDep{d.addr + 1, d.type});
  }
  return deps;
}

void SimEmitter::compute(const char* label, std::span<const LDep> deps,
                         double est_seconds, std::uint64_t bytes,
                         std::function<void()>) {
  sim::SimTaskAttrs a;
  a.label = label;
  a.cpu_seconds = est_seconds;
  a.bytes = bytes;
  a.iteration = iteration_;
  const auto sdeps = to_deps(deps);
  builder_.task(a, std::span<const sim::SimDep>(sdeps));
}

void SimEmitter::comm_task(const char* label, std::span<const LDep> deps,
                           sim::SimTaskKind kind, std::uint64_t bytes,
                           int peer, int tag) {
  sim::SimTaskAttrs a;
  a.label = label;
  a.kind = kind;
  a.cpu_seconds = 0.5e-6;  // request posting cost
  a.msg_bytes = bytes;
  a.peer = peer;
  a.tag = tag;
  a.iteration = iteration_;
  const auto sdeps = to_deps(deps);
  builder_.task(a, std::span<const sim::SimDep>(sdeps));
}

void SimEmitter::send(const char* label, std::span<const LDep> deps,
                      const void*, std::uint64_t bytes, int peer, int tag) {
  comm_task(label, deps, sim::SimTaskKind::Send, bytes, peer, tag);
}

void SimEmitter::recv(const char* label, std::span<const LDep> deps, void*,
                      std::uint64_t bytes, int peer, int tag) {
  comm_task(label, deps, sim::SimTaskKind::Recv, bytes, peer, tag);
}

void SimEmitter::allreduce(const char* label, std::span<const LDep> deps,
                           const double*, double*, std::size_t count,
                           mpi::Op) {
  comm_task(label, deps, sim::SimTaskKind::Allreduce, count * sizeof(double),
            -1, 0);
}

bool SimEmitter::begin_iteration(std::uint32_t iteration) {
  iteration_ = iteration;
  // Persistent graphs are captured once and replayed by the simulator.
  return !(opts_.persistent && iteration > 0);
}

}  // namespace tdg::apps
