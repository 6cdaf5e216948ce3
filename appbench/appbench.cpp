// Application benchmark of the tdg runtime: whole solves of the paper's
// applications (lulesh-mini rediscovered and persistent, tiled Cholesky, a
// two-rank halo exchange) through the public API, timed end to end, with
// an optional traced mode that splits each solve into the per-layer ledger
// of the paper's Section 2.3.1 (discovery, work, overhead, idle, plus the
// runtime's own counters). README.md in this directory defines every
// workload and metric.
//
//   appbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--source-id <id>]
//   appbench --self-test --workload <name> --seed <n>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "apps/common/emitter.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/runtime.hpp"
#include "mpi/interop.hpp"
#include "mpi/mpi.hpp"

namespace {

namespace lulesh = tdg::apps::lulesh;
namespace chol = tdg::apps::cholesky;
using tdg::apps::Emitter;
using tdg::apps::LDep;
using tdg::apps::RuntimeEmitter;

// ---------------------------------------------------------------------------
// Build stamp: end-to-end numbers from unoptimised or sanitizer builds are
// refused, since they measure the instrumentation rather than the runtime.
// ---------------------------------------------------------------------------

#ifndef APPBENCH_BUILD_TYPE
#define APPBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double now_s() { return tdg::now_seconds(); }

/// Exact quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double fastest(std::vector<double> v) { return quantile(std::move(v), 0.0); }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Shortest round-trip decimal form of a double (all its digits, no more).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

template <class EmitIteration>
void solve_loop(Emitter& em, int iterations, EmitIteration&& emit) {
  for (int it = 0; it < iterations; ++it) {
    const auto i = static_cast<std::uint32_t>(it);
    if (em.begin_iteration(i)) emit(i);
    em.end_iteration();
  }
}

// ---------------------------------------------------------------------------
// Traced mode: a timing decorator around the runtime emitter
// ---------------------------------------------------------------------------

/// Times every submission the application makes (split into discovery and
/// persistent replay by iteration), every iteration barrier, and every task
/// body. Submission and barrier times are producer-only; body samples are
/// written by the executing workers into a preallocated buffer.
class TimingEmitter final : public Emitter {
 public:
  struct Totals {
    std::uint64_t submit_ns = 0;  ///< discovery-iteration submissions
    std::uint64_t submits = 0;
    std::uint64_t replay_ns = 0;  ///< persistent replay submissions
    std::uint64_t replays = 0;
    std::uint64_t barrier_ns = 0;  ///< inside end_iteration
    std::uint64_t iterations = 0;
  };

  TimingEmitter(Emitter& inner, bool persistent, std::size_t expected_bodies)
      : inner_(inner), persistent_(persistent), body_ns_(expected_bodies) {}

  bool concrete() const override { return inner_.concrete(); }

  void compute(const char* label, std::span<const LDep> deps,
               double est_seconds, std::uint64_t bytes,
               std::function<void()> body) override {
    const std::uint64_t t0 = tdg::now_ns();
    inner_.compute(label, deps, est_seconds, bytes,
                   [this, body = std::move(body)] {
                     const std::uint64_t b0 = tdg::now_ns();
                     body();
                     record_body(tdg::now_ns() - b0);
                   });
    charge(t0);
  }
  void send(const char* label, std::span<const LDep> deps, const void* buf,
            std::uint64_t bytes, int peer, int tag) override {
    const std::uint64_t t0 = tdg::now_ns();
    inner_.send(label, deps, buf, bytes, peer, tag);
    charge(t0);
  }
  void recv(const char* label, std::span<const LDep> deps, void* buf,
            std::uint64_t bytes, int peer, int tag) override {
    const std::uint64_t t0 = tdg::now_ns();
    inner_.recv(label, deps, buf, bytes, peer, tag);
    charge(t0);
  }
  void allreduce(const char* label, std::span<const LDep> deps,
                 const double* in, double* out, std::size_t count,
                 tdg::mpi::Op op) override {
    const std::uint64_t t0 = tdg::now_ns();
    inner_.allreduce(label, deps, in, out, count, op);
    charge(t0);
  }
  bool begin_iteration(std::uint32_t iteration) override {
    replaying_ = persistent_ && iteration > 0;
    return inner_.begin_iteration(iteration);
  }
  void end_iteration() override {
    const std::uint64_t t0 = tdg::now_ns();
    inner_.end_iteration();
    totals_.barrier_ns += tdg::now_ns() - t0;
    ++totals_.iterations;
  }

  const Totals& totals() const { return totals_; }
  /// Body durations recorded so far (call after the final taskwait).
  std::vector<double> body_samples() const {
    const std::size_t n = std::min(next_.load(), body_ns_.size());
    return {body_ns_.begin(), body_ns_.begin() + static_cast<long>(n)};
  }

 private:
  void charge(std::uint64_t t0) {
    const std::uint64_t dt = tdg::now_ns() - t0;
    if (replaying_) {
      totals_.replay_ns += dt;
      ++totals_.replays;
    } else {
      totals_.submit_ns += dt;
      ++totals_.submits;
    }
  }
  void record_body(std::uint64_t ns) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < body_ns_.size()) body_ns_[i] = static_cast<double>(ns);
  }

  Emitter& inner_;
  const bool persistent_;
  bool replaying_ = false;
  Totals totals_;
  std::vector<double> body_ns_;
  std::atomic<std::size_t> next_{0};
};

/// Raw per-rank observations of one traced solve.
struct RankSample {
  unsigned threads = 1;
  double solve_s = 0;
  tdg::RuntimeStats stats;
  tdg::MetricsSnapshot metrics;
  double work_s = 0, overhead_s = 0, idle_s = 0;  // deltas over the solve
  TimingEmitter::Totals timing;
  std::vector<double> body_ns;
  std::vector<tdg::mpi::RequestSpan> spans;
  tdg::mpi::CommStats comm;
};

/// Breakdown totals at the start of a solve; the sample keeps the deltas.
struct BreakdownMark {
  explicit BreakdownMark(tdg::Runtime& rt) : b(rt.profiler().breakdown()) {}
  tdg::Breakdown b;
};

RankSample capture(tdg::Runtime& rt, const BreakdownMark& mark,
                   const TimingEmitter& timing, double solve_s) {
  RankSample s;
  s.threads = rt.num_threads();
  s.solve_s = solve_s;
  s.stats = rt.stats();
  s.metrics = rt.metrics().snapshot();
  const tdg::Breakdown b = rt.profiler().breakdown();
  s.work_s = b.work - mark.b.work;
  s.overhead_s = b.overhead - mark.b.overhead;
  s.idle_s = b.idle - mark.b.idle;
  s.timing = timing.totals();
  s.body_ns = timing.body_samples();
  return s;
}

/// Workload facts the ledger needs besides the samples.
struct Shape {
  int iterations = 1;
  double flops = 0;  ///< computed flop count per solve (0 = not modelled)
};

using Metrics = std::map<std::string, double>;

/// The per-layer ledger of one traced solve (all ranks together).
Metrics layer_metrics(const std::vector<RankSample>& ranks, const Shape& shape) {
  double tasks = 0, executed = 0, created = 0, pruned = 0, dup = 0,
         redirect = 0, probes = 0, rehash = 0, fresh = 0, recycled = 0,
         chunks = 0, steals = 0, steal_fail = 0, parks = 0, wakeups = 0,
         stalls = 0, discovery_s = 0, work = 0, ovh = 0, idle = 0,
         capacity = 0, submit_ns = 0, submits = 0, replay_ns = 0,
         replays = 0, barrier_ns = 0, iters = 0, collective_s = 0,
         solve_sum = 0, messages = 0, bytes = 0;
  std::vector<double> bodies, request_us, rank_work;
  std::optional<tdg::MetricsSnapshot> merged;
  for (const RankSample& r : ranks) {
    const tdg::MetricsSnapshot& m = r.metrics;
    auto val = [&](const char* name) {
      return static_cast<double>(m.value(name));
    };
    tasks += static_cast<double>(r.stats.tasks_created);
    executed += val("exec.tasks");
    created += static_cast<double>(r.stats.discovery.edges_created);
    pruned += static_cast<double>(r.stats.discovery.edges_pruned);
    dup += static_cast<double>(r.stats.discovery.edges_duplicate);
    redirect += static_cast<double>(r.stats.discovery.redirect_nodes);
    probes += val("discovery.hash_probes");
    rehash += val("discovery.rehash");
    fresh += val("alloc.slab_fresh");
    recycled += val("alloc.slab_recycled");
    chunks += val("alloc.slab_chunks");
    steals += val("sched.steals");
    steal_fail += val("sched.steal_failures");
    parks += val("sched.parks");
    wakeups += val("sched.wakeups");
    stalls += val("sched.throttle_stalls");
    discovery_s = std::max(discovery_s, r.stats.discovery_seconds());
    work += r.work_s;
    ovh += r.overhead_s;
    idle += r.idle_s;
    rank_work.push_back(r.work_s);
    capacity += r.threads * r.solve_s;
    solve_sum += r.solve_s;
    submit_ns += static_cast<double>(r.timing.submit_ns);
    submits += static_cast<double>(r.timing.submits);
    replay_ns += static_cast<double>(r.timing.replay_ns);
    replays += static_cast<double>(r.timing.replays);
    barrier_ns += static_cast<double>(r.timing.barrier_ns);
    iters += static_cast<double>(r.timing.iterations);
    bodies.insert(bodies.end(), r.body_ns.begin(), r.body_ns.end());
    for (const tdg::mpi::RequestSpan& sp : r.spans) {
      request_us.push_back(sp.seconds() * 1e6);
      if (sp.collective) collective_s += sp.seconds();
    }
    messages += static_cast<double>(r.comm.sends + r.comm.allreduces);
    bytes += static_cast<double>(r.comm.bytes_sent);
    merged = merged ? tdg::MetricsSnapshot::merge(*merged, m) : m;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const tdg::MetricsSnapshot::Entry* queue =
      merged ? merged->find("exec.queue_ns") : nullptr;
  const double busy = work + ovh + idle;
  const double producer_s = (submit_ns + replay_ns) * 1e-9;
  double imbalance = 0;
  if (rank_work.size() > 1) {
    const double mean =
        std::accumulate(rank_work.begin(), rank_work.end(), 0.0) /
        static_cast<double>(rank_work.size());
    imbalance =
        ratio(*std::max_element(rank_work.begin(), rank_work.end()), mean) -
        1.0;
  }
  return {
      {"depend.discovery_s", discovery_s},
      {"depend.submit_ns_per_task", ratio(submit_ns, submits)},
      {"depend.edges_per_task", ratio(created + pruned, tasks)},
      {"depend.pruned_frac", ratio(pruned, created + pruned)},
      {"depend.duplicates", dup},
      {"depend.redirect_nodes", redirect},
      {"depend.hash_probes_per_task", ratio(probes, tasks)},
      {"depend.rehash", rehash},
      {"slab.fresh_frac", ratio(fresh, fresh + recycled)},
      {"slab.chunks", chunks},
      {"sched.steal_success_frac", ratio(steals, steals + steal_fail)},
      {"sched.steals_per_ktask", ratio(steals * 1e3, executed)},
      {"sched.parks_per_ktask", ratio(parks * 1e3, executed)},
      {"sched.wakeups_per_ktask", ratio(wakeups * 1e3, executed)},
      {"sched.throttle_stalls", stalls},
      {"exec.queue_ns_p50", queue ? queue->percentile(0.50) : 0.0},
      {"exec.queue_ns_p99", queue ? queue->percentile(0.99) : 0.0},
      {"exec.tasks_per_solve", executed},
      {"breakdown.work_frac", ratio(work, busy)},
      {"breakdown.overhead_frac", ratio(ovh, busy)},
      {"breakdown.idle_frac", ratio(idle, busy)},
      {"ledger.residual_frac", ratio(capacity - busy - producer_s, capacity)},
      {"ptsg.replay_ns_per_task", ratio(replay_ns, replays)},
      {"ptsg.barrier_ms_per_iter", ratio(barrier_ns * 1e-6, iters)},
      {"mpi.request_us_p50", quantile(request_us, 0.50)},
      {"mpi.request_us_p95", quantile(request_us, 0.95)},
      {"mpi.comm_wait_frac", ratio(collective_s, solve_sum)},
      {"mpi.rank_imbalance", imbalance},
      {"mpi.messages_per_iter", ratio(messages, shape.iterations)},
      {"mpi.bytes_per_iter", ratio(bytes, shape.iterations)},
      {"kernel.body_ns_p50", median(bodies)},
      {"kernel.gflops", ratio(shape.flops, work) * 1e-9},
  };
}

/// Per-layer metrics that are counts of the graph the application builds:
/// they must repeat exactly across runs and across thread counts.
constexpr const char* kCountMetrics[] = {
    "depend.edges_per_task", "depend.duplicates",
    "depend.redirect_nodes", "depend.hash_probes_per_task",
    "depend.rehash",         "exec.tasks_per_solve",
    "mpi.messages_per_iter", "mpi.bytes_per_iter",
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One timed operation: set-up, solve, result check.
struct Op {
  bool ok = false;
  double setup_s = 0;
  double solve_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the seeded input and its serial reference; returns the
  /// reference's wall time (kernel.serial_s).
  virtual double prepare(std::uint64_t seed) = 0;
  /// One operation at `threads` threads per rank. With `trace` non-null
  /// the solve runs through the timing decorator and its samples are
  /// stored there. `corrupt` perturbs one result value before the check
  /// (self-test of the check itself).
  virtual Op run(unsigned threads, std::vector<RankSample>* trace,
                 bool corrupt) = 0;
  virtual Shape shape() const = 0;
  virtual unsigned ranks() const { return 1; }
};

// ---- lulesh-mini, shared memory -------------------------------------------

/// Seeded second energy deposit, in global point coordinates, so a serial
/// mesh and a rank-decomposed one receive the same input.
struct Deposit {
  std::int64_t global_index = 1;
  double energy = 0;
};

Deposit deposit_for(std::uint64_t seed, std::int64_t global_n) {
  const std::uint64_t h = splitmix64(seed);
  return {1 + static_cast<std::int64_t>(
                  h % static_cast<std::uint64_t>(global_n)),
          10.0 + static_cast<double>((h >> 40) % 1000) * 0.03};
}

void apply_deposit(lulesh::Mesh& m, const Deposit& d, std::int64_t offset) {
  const std::int64_t local = d.global_index - offset;
  if (local < 1 || local > m.n) return;
  const auto u = static_cast<std::size_t>(local);
  m.e[u] += d.energy;
  m.p[u] += d.energy / 3.948746e+1;  // same e/p ratio as the Sedov spike
}

class LuleshShared final : public Workload {
 public:
  explicit LuleshShared(bool persistent) : persistent_(persistent) {
    cfg_.npoints = 1 << 15;
    cfg_.tpl = 64;
    cfg_.iterations = 200;
  }

  double prepare(std::uint64_t seed) override {
    deposit_ = deposit_for(seed, cfg_.npoints);
    lulesh::Mesh ref(cfg_.npoints);
    apply_deposit(ref, deposit_, 0);
    const double t0 = now_s();
    lulesh::run_reference(ref, cfg_);
    const double serial_s = now_s() - t0;
    ref_digest_ = ref.digest();
    return serial_s;
  }

  Op run(unsigned threads, std::vector<RankSample>* trace,
         bool corrupt) override {
    Op op;
    const double t0 = now_s();
    tdg::Runtime::Config rcfg;
    rcfg.num_threads = threads;
    tdg::Runtime rt(rcfg);
    lulesh::Mesh m(cfg_.npoints);
    apply_deposit(m, deposit_, 0);
    RuntimeEmitter base(rt, {.persistent = persistent_});
    std::optional<TimingEmitter> timing;
    std::optional<BreakdownMark> mark;
    if (trace != nullptr) {
      timing.emplace(base, persistent_, tasks_per_solve());
      mark.emplace(rt);
    }
    Emitter& em = timing ? static_cast<Emitter&>(*timing) : base;
    const double t1 = now_s();
    solve_loop(em, cfg_.iterations, [&](std::uint32_t it) {
      lulesh::emit_iteration(em, m, cfg_, it, nullptr);
    });
    rt.taskwait();
    const double t2 = now_s();
    op.setup_s = t1 - t0;
    op.solve_s = t2 - t1;
    if (trace != nullptr) trace->assign({capture(rt, *mark, *timing, op.solve_s)});
    if (corrupt) m.e[static_cast<std::size_t>(m.n / 2)] += 1.0;
    op.ok = m.digest() == ref_digest_ && m.all_finite() &&
            rt.metrics().read(rt.metric_ids().tasks_executed) ==
                tasks_per_solve();
    return op;
  }

  Shape shape() const override { return {cfg_.iterations, 0}; }

 private:
  /// CalcDt + ten blocked loops + two ghost clamps per iteration.
  std::uint64_t tasks_per_solve() const {
    return static_cast<std::uint64_t>(cfg_.iterations) *
           (1 + 10 * static_cast<std::uint64_t>(cfg_.tpl) + 2);
  }

  const bool persistent_;
  lulesh::Config cfg_;
  Deposit deposit_;
  lulesh::Mesh::Digest ref_digest_{};
};

// ---- tiled Cholesky ---------------------------------------------------------

class CholeskyTiles final : public Workload {
 public:
  static constexpr int kNt = 16;
  static constexpr int kB = 64;
  static constexpr int kFactorizations = 4;

  CholeskyTiles() : source_(kNt, kB), ref_(kNt, kB) {}

  double prepare(std::uint64_t seed) override {
    // fill_spd plus a seeded symmetric perturbation of at most 0.25 per
    // entry: the diagonal (>= n) still dominates every row, so the matrix
    // stays positive definite.
    source_.fill_spd();
    const std::int64_t n = source_.n();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < i; ++j) {
        const std::uint64_t h =
            splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(i * n + j)));
        const double d = (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5) * 0.5;
        at(source_, i, j) += d;
        at(source_, j, i) += d;
      }
    }
    ref_ = source_;
    const double t0 = now_s();
    for (int f = 0; f < kFactorizations; ++f) {
      ref_ = source_;
      chol::run_reference(ref_);
    }
    const double serial_s = now_s() - t0;
    reference_ok_ = ref_.reconstruction_error(source_) < 1e-9 * n;
    return serial_s;
  }

  Op run(unsigned threads, std::vector<RankSample>* trace,
         bool corrupt) override {
    Op op;
    const double t0 = now_s();
    tdg::Runtime::Config rcfg;
    rcfg.num_threads = threads;
    tdg::Runtime rt(rcfg);
    chol::TiledMatrix a(kNt, kB);
    RuntimeEmitter base(rt, {});
    std::optional<TimingEmitter> timing;
    std::optional<BreakdownMark> mark;
    if (trace != nullptr) {
      timing.emplace(base, false, tasks_per_solve());
      mark.emplace(rt);
    }
    Emitter& em = timing ? static_cast<Emitter&>(*timing) : base;
    const double t1 = now_s();
    solve_loop(em, kFactorizations, [&](std::uint32_t) {
      emit_seeded_fill(em, a);
      chol::emit_factorization(em, a, /*refill=*/false);
    });
    rt.taskwait();
    const double t2 = now_s();
    op.setup_s = t1 - t0;
    op.solve_s = t2 - t1;
    if (trace != nullptr) trace->assign({capture(rt, *mark, *timing, op.solve_s)});
    if (corrupt) a.tile(kNt - 1, 0)[0] += 1.0;
    op.ok = reference_ok_ && a.tiles == ref_.tiles &&
            rt.metrics().read(rt.metric_ids().tasks_executed) ==
                tasks_per_solve();
    return op;
  }

  Shape shape() const override {
    // potrf b^3/3, trsm b^3, syrk and gemm 2 b^3 flops per tile kernel
    // (syrk updates the full tile).
    const double b3 = static_cast<double>(kB) * kB * kB;
    const double nt = kNt;
    const double pairs = nt * (nt - 1) / 2;
    const double triples = nt * (nt - 1) * (nt - 2) / 6;
    return {kFactorizations,
            kFactorizations * b3 * (nt / 3 + 3 * pairs + 2 * triples)};
  }

 private:
  static double& at(chol::TiledMatrix& a, std::int64_t i, std::int64_t j) {
    return a.tile(static_cast<int>(i / a.b), static_cast<int>(j / a.b))
        [static_cast<std::size_t>((i % a.b) * a.b + j % a.b)];
  }

  /// The refill tasks of a refactorization, writing the seeded matrix: one
  /// `out` task per tile on the tile's logical address (i * nt + j, as in
  /// emit_factorization).
  void emit_seeded_fill(Emitter& em, chol::TiledMatrix& a) {
    chol::TiledMatrix* dst = &a;
    const chol::TiledMatrix* src = &source_;
    for (int i = 0; i < kNt; ++i) {
      for (int j = 0; j < kNt; ++j) {
        const auto addr = static_cast<tdg::apps::LAddr>(i * kNt + j);
        em.compute("SeededFill", {LDep::out(addr)}, 0, 0, [dst, src, i, j] {
          dst->tile(i, j) = src->tile(i, j);
        });
      }
    }
  }

  std::uint64_t tasks_per_solve() const {
    return static_cast<std::uint64_t>(kFactorizations) *
           (chol::kernel_count(kNt) + static_cast<std::uint64_t>(kNt) * kNt);
  }

  chol::TiledMatrix source_;
  chol::TiledMatrix ref_;
  bool reference_ok_ = false;
};

// ---- two-rank halo exchange ------------------------------------------------

class HaloMpi final : public Workload {
 public:
  static constexpr int kRanks = 2;

  HaloMpi() {
    cfg_.npoints = 1 << 14;  // per rank
    cfg_.tpl = 32;
    cfg_.iterations = 200;
    cfg_.distributed = true;
  }

  double prepare(std::uint64_t seed) override {
    deposit_ = deposit_for(seed, global_n());
    ref_ = std::make_unique<lulesh::Mesh>(global_n());
    apply_deposit(*ref_, deposit_, 0);
    lulesh::Config serial = cfg_;
    serial.npoints = global_n();
    serial.distributed = false;
    const double t0 = now_s();
    lulesh::run_reference(*ref_, serial);
    return now_s() - t0;
  }

  Op run(unsigned threads, std::vector<RankSample>* trace,
         bool corrupt) override {
    struct RankOut {
      double setup_end = 0, solve_s = 0;
      bool ok = false;
    };
    std::vector<RankOut> out(kRanks);
    if (trace != nullptr) trace->assign(kRanks, RankSample{});
    const double t0 = now_s();
    tdg::mpi::Universe::run(kRanks, [&](tdg::mpi::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      tdg::Runtime::Config rcfg;
      rcfg.num_threads = threads;
      tdg::Runtime rt(rcfg);
      tdg::mpi::RequestPoller poller(rt, comm);
      lulesh::Mesh m(cfg_.npoints);
      const std::int64_t offset = cfg_.npoints * comm.rank();
      m.init_partition(global_n(), offset);
      apply_deposit(m, deposit_, offset);
      lulesh::Halo halo;
      halo.left = comm.rank() > 0 ? comm.rank() - 1 : -1;
      halo.right = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
      RuntimeEmitter base(rt, comm, poller, {.persistent = true});
      std::optional<TimingEmitter> timing;
      std::optional<BreakdownMark> mark;
      if (trace != nullptr) {
        timing.emplace(base, true, tasks_per_rank());
        mark.emplace(rt);
      }
      Emitter& em = timing ? static_cast<Emitter&>(*timing) : base;
      out[r].setup_end = now_s();
      comm.barrier();  // both ranks start the solve together
      const tdg::mpi::CommStats comm0 = comm.stats();
      const double t1 = now_s();
      solve_loop(em, cfg_.iterations, [&](std::uint32_t it) {
        lulesh::emit_iteration(em, m, cfg_, it, &halo);
      });
      rt.taskwait();
      out[r].solve_s = now_s() - t1;
      if (trace != nullptr) {
        RankSample& s = (*trace)[r];
        s = capture(rt, *mark, *timing, out[r].solve_s);
        s.spans = poller.completed_spans();
        const tdg::mpi::CommStats comm1 = comm.stats();
        s.comm.sends = comm1.sends - comm0.sends;
        s.comm.allreduces = comm1.allreduces - comm0.allreduces;
        s.comm.bytes_sent = comm1.bytes_sent - comm0.bytes_sent;
      }
      if (corrupt && r == 0) m.x[1] += 1.0;
      bool same = true;
      for (std::int64_t i = 1; i <= m.n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        const auto g = static_cast<std::size_t>(offset + i);
        same = same && m.x[u] == ref_->x[g] && m.e[u] == ref_->e[g];
      }
      out[r].ok = same &&
                  rt.metrics().read(rt.metric_ids().tasks_executed) ==
                      tasks_per_rank();
    });
    Op op;
    op.ok = true;
    for (const RankOut& o : out) {
      op.setup_s = std::max(op.setup_s, o.setup_end - t0);
      op.solve_s = std::max(op.solve_s, o.solve_s);
      op.ok = op.ok && o.ok;
    }
    return op;
  }

  Shape shape() const override { return {cfg_.iterations, 0}; }
  unsigned ranks() const override { return kRanks; }

 private:
  std::int64_t global_n() const { return cfg_.npoints * kRanks; }
  /// dt reduction (local dt, allreduce, commit) + ten blocked loops + one
  /// ghost clamp and one pack/send/recv/unpack exchange per edge rank.
  std::uint64_t tasks_per_rank() const {
    return static_cast<std::uint64_t>(cfg_.iterations) *
           (3 + 10 * static_cast<std::uint64_t>(cfg_.tpl) + 1 + 4);
  }

  lulesh::Config cfg_;
  Deposit deposit_;
  std::unique_ptr<lulesh::Mesh> ref_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "lulesh_rediscover") return std::make_unique<LuleshShared>(false);
  if (name == "lulesh_ptsg") return std::make_unique<LuleshShared>(true);
  if (name == "cholesky_tiles") return std::make_unique<CholeskyTiles>();
  if (name == "halo_mpi") return std::make_unique<HaloMpi>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string source_id = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--source-id") {
      a.source_id = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

/// Thread layout: T = min(4, nproc) in total, split evenly over the ranks.
struct Layout {
  unsigned per_rank;  ///< threads per rank in the parallel solve
  unsigned total;
  bool oversubscribed;
};

Layout layout_for(const Workload& w, unsigned nproc) {
  const unsigned t = std::min(4u, nproc);
  const unsigned per_rank = std::max(1u, t / w.ranks());
  const unsigned total = per_rank * w.ranks();
  return {per_rank, total, total > nproc};
}

void print_stamp(const Args& a, const Layout& l, unsigned nproc,
                 unsigned ranks) {
  std::printf(
      "{\"stamp\": {\"source\": \"%s\", \"build_type\": \"%s\", "
      "\"optimized\": %s, \"sanitizer\": %s, \"nproc\": %u, "
      "\"workload\": \"%s\", \"ranks\": %u, \"threads_per_rank\": %u, "
      "\"threads\": %u, \"oversubscribed\": %s, \"seed\": %llu, "
      "\"trace\": %s}}\n",
      a.source_id.c_str(), APPBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
      kSanitized ? "true" : "false", nproc, a.workload.c_str(), ranks,
      l.per_rank, l.total, l.oversubscribed ? "true" : "false",
      static_cast<unsigned long long>(a.seed), a.trace ? "true" : "false");
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<std::string, double>>& metrics,
                  const std::map<std::string, std::string>& units) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) s += ", ";
    first = false;
    const auto u = units.find(name);
    s += "\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
         (u != units.end() ? u->second : std::string("count")) + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u = {
      {"solve_s", "s"},
      {"solve_1t_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"depend.discovery_s", "s"},
      {"depend.submit_ns_per_task", "ns"},
      {"depend.edges_per_task", "edges/task"},
      {"depend.pruned_frac", "frac"},
      {"depend.hash_probes_per_task", "probes/task"},
      {"slab.fresh_frac", "frac"},
      {"sched.steal_success_frac", "frac"},
      {"sched.steals_per_ktask", "1/ktask"},
      {"sched.parks_per_ktask", "1/ktask"},
      {"sched.wakeups_per_ktask", "1/ktask"},
      {"exec.queue_ns_p50", "ns"},
      {"exec.queue_ns_p99", "ns"},
      {"breakdown.work_frac", "frac"},
      {"breakdown.overhead_frac", "frac"},
      {"breakdown.idle_frac", "frac"},
      {"ledger.residual_frac", "frac"},
      {"ptsg.replay_ns_per_task", "ns"},
      {"ptsg.barrier_ms_per_iter", "ms"},
      {"mpi.request_us_p50", "us"},
      {"mpi.request_us_p95", "us"},
      {"mpi.comm_wait_frac", "frac"},
      {"mpi.rank_imbalance", "frac"},
      {"mpi.messages_per_iter", "msgs/iter"},
      {"mpi.bytes_per_iter", "B/iter"},
      {"kernel.serial_s", "s"},
      {"kernel.body_ns_p50", "ns"},
      {"kernel.gflops", "GFLOP/s"},
      {"trace.overhead_frac", "frac"},
      {"trace.solve_s", "s"},
  };
  return u;
}

/// Runs one operation, counting an exception as a failed operation.
Op run_op(Workload& w, unsigned threads, std::vector<RankSample>* trace,
          bool corrupt, std::size_t& attempted, std::size_t& failed) {
  ++attempted;
  Op op;
  try {
    op = w.run(threads, trace, corrupt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "appbench: operation threw: %s\n", e.what());
    op.ok = false;
  }
  if (!op.ok) ++failed;
  return op;
}

/// Untraced run: alternate T-thread and 1-thread operations until the
/// measuring window closes. Solve times are the fastest operation of the
/// run: interference from other tenants of a shared host only ever slows a
/// solve and comes in phases of seconds, so the median follows the mix of
/// phases in the window while the minimum follows the code. Set-up time is
/// the median.
int measure_end_to_end(Workload& w, const Layout& l, double seconds) {
  std::size_t attempted = 0, failed = 0;
  run_op(w, l.per_rank, nullptr, false, attempted, failed);  // warm-up
  std::vector<double> solve, solve_1t, setup;
  const double start = now_s();
  double pair_s = 0;
  do {
    const double p0 = now_s();
    const Op nt = run_op(w, l.per_rank, nullptr, false, attempted, failed);
    const Op one = run_op(w, 1, nullptr, false, attempted, failed);
    pair_s = now_s() - p0;
    if (nt.ok) {
      solve.push_back(nt.solve_s);
      setup.push_back(nt.setup_s);
    }
    if (one.ok) solve_1t.push_back(one.solve_s);
  } while (now_s() - start + pair_s < seconds);
  print_result(failed == 0, attempted, failed,
               {{"solve_s", fastest(solve)},
                {"solve_1t_s", fastest(solve_1t)},
                {"setup_s", median(setup)},
                {"peak_rss_mb", peak_rss_mb()}},
               units());
  return 0;
}

/// Traced run: alternate untraced and traced T-thread operations; report
/// the median of every ledger metric over the traced solves, and the
/// fastest traced and untraced solves (as for solve_s).
int measure_layers(Workload& w, const Layout& l, double seconds,
                   double serial_s) {
  std::size_t attempted = 0, failed = 0;
  run_op(w, l.per_rank, nullptr, false, attempted, failed);  // warm-up
  std::vector<double> plain, traced;
  std::map<std::string, std::vector<double>> series;
  const double start = now_s();
  double pair_s = 0;
  do {
    const double p0 = now_s();
    const Op u = run_op(w, l.per_rank, nullptr, false, attempted, failed);
    std::vector<RankSample> samples;
    const Op t = run_op(w, l.per_rank, &samples, false, attempted, failed);
    pair_s = now_s() - p0;
    if (u.ok) plain.push_back(u.solve_s);
    if (t.ok) {
      traced.push_back(t.solve_s);
      for (const auto& [k, v] : layer_metrics(samples, w.shape())) {
        series[k].push_back(v);
      }
    }
  } while (now_s() - start + pair_s < seconds);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [k, v] : series) out.emplace_back(k, median(v));
  const double plain_s = fastest(plain);
  out.emplace_back("kernel.serial_s", serial_s);
  out.emplace_back("trace.solve_s", fastest(traced));
  out.emplace_back("trace.overhead_frac",
                   plain_s > 0 ? fastest(traced) / plain_s - 1.0 : 0.0);
  print_result(failed == 0, attempted, failed, out, units());
  return 0;
}

/// Self-test: count metrics repeat exactly across two T-thread solves and a
/// 1-thread solve; a perturbed result is reported as a failed operation.
int self_test(Workload& w, const Layout& l, const std::string& name) {
  int bad = 0;
  auto expect = [&](bool cond, const std::string& what) {
    std::printf("  %s %s: %s\n", cond ? "ok  " : "FAIL", name.c_str(),
                what.c_str());
    bad += cond ? 0 : 1;
  };
  std::size_t attempted = 0, failed = 0;
  std::vector<RankSample> a, b, c;
  const Op oa = run_op(w, l.per_rank, &a, false, attempted, failed);
  const Op ob = run_op(w, l.per_rank, &b, false, attempted, failed);
  const Op oc = run_op(w, 1, &c, false, attempted, failed);
  expect(oa.ok && ob.ok && oc.ok, "clean solves pass the result check");
  const Metrics ma = layer_metrics(a, w.shape());
  const Metrics mb = layer_metrics(b, w.shape());
  const Metrics mc = layer_metrics(c, w.shape());
  for (const char* k : kCountMetrics) {
    expect(ma.at(k) == mb.at(k) && ma.at(k) == mc.at(k),
           std::string(k) + " repeats (" + num(ma.at(k)) + ", " +
               num(mb.at(k)) + ", 1 thread " + num(mc.at(k)) + ")");
  }
  const Op bad_op = run_op(w, l.per_rank, nullptr, true, attempted, failed);
  expect(!bad_op.ok, "a perturbed result fails the check");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: appbench --workload <lulesh_rediscover|lulesh_ptsg|"
                 "cholesky_tiles|halo_mpi> --seed <n> --seconds <s> "
                 "--trace <0|1> [--source-id <id>] [--self-test]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args->workload);
  if (!w) {
    std::fprintf(stderr, "appbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  const unsigned nproc = online_cpus();
  const Layout l = layout_for(*w, nproc);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  print_stamp(*args, l, nproc, w->ranks());
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "appbench: refusing to report numbers from an %s build\n",
                 kSanitized ? "instrumented (sanitizer)" : "unoptimised");
    if (!args->self_test) return 3;
  }
  const double serial_s = w->prepare(args->seed);
  if (args->self_test) return self_test(*w, l, args->workload);
  if (args->trace) return measure_layers(*w, l, args->seconds, serial_s);
  return measure_end_to_end(*w, l, args->seconds);
}
