// Application graph emission: one description of an application's task
// structure (dependences, grains, communications), consumed either by the
// real tasking runtime (tests, examples — kernels actually execute) or by
// the simulator (benchmarks — cost-model attributes only). Single-sourcing
// the dependency structure is what keeps the simulated TDGs faithful.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/depend_types.hpp"
#include "core/persistent.hpp"
#include "core/runtime.hpp"
#include "mpi/interop.hpp"
#include "mpi/mpi.hpp"
#include "sim/graph.hpp"

namespace tdg::apps {

/// Logical dependency address: an abstract identity, mapped to a fake
/// pointer for the real runtime and used directly by the sim builder.
using LAddr = std::uint64_t;

struct LDep {
  LAddr addr = 0;
  DependType type = DependType::In;
  static constexpr LDep in(LAddr a) { return {a, DependType::In}; }
  static constexpr LDep out(LAddr a) { return {a, DependType::Out}; }
  static constexpr LDep inout(LAddr a) { return {a, DependType::InOut}; }
  static constexpr LDep inoutset(LAddr a) {
    return {a, DependType::InOutSet};
  }
};

/// Target-independent task sink. `concrete()` tells generators whether
/// bodies will run (so model-only callers can skip capturing them).
class Emitter {
 public:
  virtual ~Emitter() = default;

  virtual bool concrete() const = 0;

  /// A compute task. `est_seconds`/`bytes` are cost-model hints (ignored
  /// by the real runtime); `body` is the kernel (ignored by the sim).
  virtual void compute(const char* label, std::span<const LDep> deps,
                       double est_seconds, std::uint64_t bytes,
                       std::function<void()> body) = 0;
  void compute(const char* label, std::initializer_list<LDep> deps,
               double est_seconds, std::uint64_t bytes,
               std::function<void()> body) {
    compute(label, std::span<const LDep>(deps.begin(), deps.size()),
            est_seconds, bytes, std::move(body));
  }

  /// Communication tasks, detached on request completion. Buffers may be
  /// null for model-only emitters.
  virtual void send(const char* label, std::span<const LDep> deps,
                    const void* buf, std::uint64_t bytes, int peer,
                    int tag) = 0;
  virtual void recv(const char* label, std::span<const LDep> deps, void* buf,
                    std::uint64_t bytes, int peer, int tag) = 0;
  virtual void allreduce(const char* label, std::span<const LDep> deps,
                         const double* in, double* out, std::size_t count,
                         mpi::Op op) = 0;

  void send(const char* label, std::initializer_list<LDep> deps,
            const void* buf, std::uint64_t bytes, int peer, int tag) {
    send(label, std::span<const LDep>(deps.begin(), deps.size()), buf, bytes,
         peer, tag);
  }
  void recv(const char* label, std::initializer_list<LDep> deps, void* buf,
            std::uint64_t bytes, int peer, int tag) {
    recv(label, std::span<const LDep>(deps.begin(), deps.size()), buf, bytes,
         peer, tag);
  }
  void allreduce(const char* label, std::initializer_list<LDep> deps,
                 const double* in, double* out, std::size_t count,
                 mpi::Op op) {
    allreduce(label, std::span<const LDep>(deps.begin(), deps.size()), in,
              out, count, op);
  }

  /// Iteration bracketing. Returns true when the application should emit
  /// (and, in concrete mode, execute) this iteration's tasks: a persistent
  /// model-only emitter captures the graph once and replays it in the
  /// simulator instead.
  virtual bool begin_iteration(std::uint32_t iteration) = 0;
  virtual void end_iteration() = 0;
};

/// What a distributed application does when a peer rank dies mid-run
/// (detected by the MPI layer's heartbeat detector).
enum class RecoveryMode {
  /// Tasks whose requests depended on the dead rank are poisoned with
  /// tdg::RankFailedError; their dependents are cancelled through graph
  /// poisoning while independent work drains (taskwait then throws
  /// TaskGroupError).
  Poison,
  /// Shrink-and-redistribute: communication tasks are emitted as
  /// idempotent, receives install a reroute callback (Options::reroute)
  /// that re-points an unfulfilled remote dependence at a survivor, and
  /// when no survivor can supply it the idempotent shard completes
  /// locally instead of poisoning its dependents.
  ShrinkRedistribute,
};

/// Emitter driving the real runtime, optionally under a persistent region
/// and optionally attached to an MPI communicator for the send/recv/
/// allreduce tasks (Listing 1 composition).
class RuntimeEmitter final : public Emitter {
 public:
  struct Options {
    bool persistent = false;
    /// Insert taskwait barriers around communication emission (the +7%
    /// ablation of Section 4.1).
    bool taskwait_around_comm = false;
    /// Peer-death handling for communication tasks (distributed only).
    RecoveryMode recovery = RecoveryMode::Poison;
    /// ShrinkRedistribute: maps a dead peer rank to the survivor that
    /// takes over its role, or -1 when the dependence should instead be
    /// satisfied locally (the idempotent task completes with the data it
    /// has). Called from the polling hook — must not block. When unset,
    /// every failed dependence falls back to local completion.
    std::function<int(int failed_rank)> reroute;
  };

  RuntimeEmitter(Runtime& rt, Options opts);
  /// Distributed variant: communications go through `comm`, completed by
  /// `poller` at scheduling points.
  RuntimeEmitter(Runtime& rt, mpi::Comm& comm, mpi::RequestPoller& poller,
                 Options opts);
  ~RuntimeEmitter() override;

  bool concrete() const override { return true; }
  void compute(const char* label, std::span<const LDep> deps,
               double est_seconds, std::uint64_t bytes,
               std::function<void()> body) override;
  void send(const char* label, std::span<const LDep> deps, const void* buf,
            std::uint64_t bytes, int peer, int tag) override;
  void recv(const char* label, std::span<const LDep> deps, void* buf,
            std::uint64_t bytes, int peer, int tag) override;
  void allreduce(const char* label, std::span<const LDep> deps,
                 const double* in, double* out, std::size_t count,
                 mpi::Op op) override;
  bool begin_iteration(std::uint32_t iteration) override;
  void end_iteration() override;

  using Emitter::compute;
  using Emitter::send;
  using Emitter::recv;
  using Emitter::allreduce;

 private:
  void to_deps(std::span<const LDep> ldeps);
  /// The detach event of a communication task; none during a replay.
  Event* detach_event();

  Runtime& rt_;
  mpi::Comm* comm_ = nullptr;
  mpi::RequestPoller* poller_ = nullptr;
  Options opts_;
  std::unique_ptr<PersistentRegion> region_;
  DependList scratch_;
};

/// Emitter building a SimGraph. In persistent mode only iteration 0 is
/// captured (the simulator replays it); otherwise every iteration's tasks
/// are appended, cross-iteration edges included.
class SimEmitter final : public Emitter {
 public:
  struct Options {
    DiscoveryOptions builder;
    bool persistent = false;
  };

  explicit SimEmitter(Options opts)
      : opts_(opts), builder_(opts.builder) {}

  bool concrete() const override { return false; }
  void compute(const char* label, std::span<const LDep> deps,
               double est_seconds, std::uint64_t bytes,
               std::function<void()> body) override;
  void send(const char* label, std::span<const LDep> deps, const void* buf,
            std::uint64_t bytes, int peer, int tag) override;
  void recv(const char* label, std::span<const LDep> deps, void* buf,
            std::uint64_t bytes, int peer, int tag) override;
  void allreduce(const char* label, std::span<const LDep> deps,
                 const double* in, double* out, std::size_t count,
                 mpi::Op op) override;
  bool begin_iteration(std::uint32_t iteration) override;
  void end_iteration() override {}

  sim::SimGraph take() { return builder_.take(); }

  using Emitter::compute;
  using Emitter::send;
  using Emitter::recv;
  using Emitter::allreduce;

 private:
  void comm_task(const char* label, std::span<const LDep> deps,
                 sim::SimTaskKind kind, std::uint64_t bytes, int peer,
                 int tag);
  static std::vector<sim::SimDep> to_deps(std::span<const LDep> ldeps);

  Options opts_;
  sim::SimGraphBuilder builder_;
  std::uint32_t iteration_ = 0;
};

}  // namespace tdg::apps
