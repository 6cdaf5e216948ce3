#include "apps/lulesh/lulesh.hpp"

#include <algorithm>
#include <type_traits>

#include "apps/lulesh/kernels.hpp"

namespace tdg::apps::lulesh {

namespace {

namespace k = kernels;

// Logical dependency addresses: field id * stride + block index.
constexpr LAddr kStride = 1 << 20;
enum Field : LAddr {
  FX, FXD, FXDD, FF, FP, FQ, FE, FV, FDELV, FAREALG, FSS,
  FDT, FDTLOCAL, FDTRED, FSSUM,
  FGHOSTL, FGHOSTR, FSBUFL, FSBUFR, FRBUFL, FRBUFR,
  kAliasBase = 64,  // optimization (a) disabled: redundant twin addresses
};
constexpr LAddr A(Field f, int b = 0) {
  return static_cast<LAddr>(f) * kStride + static_cast<LAddr>(b);
}
constexpr LAddr Alias(Field f, int b = 0) {
  return (static_cast<LAddr>(f) + kAliasBase) * kStride +
         static_cast<LAddr>(b);
}

constexpr int kTagToRight = 1;  // message x[n] -> right neighbour
constexpr int kTagToLeft = 2;   // message x[1] -> left neighbour

/// Depend-clause builder; duplicates every item on an alias address when
/// optimization (a) is disabled (the Fig. 3 redundant-dependence pattern).
struct Deps {
  explicit Deps(bool minimized) : minimized_(minimized) {}
  Deps& in(Field f, int b = 0) { return add(f, b, DependType::In); }
  Deps& out(Field f, int b = 0) { return add(f, b, DependType::Out); }
  Deps& inout(Field f, int b = 0) { return add(f, b, DependType::InOut); }
  Deps& inoutset(Field f, int b = 0) {
    return add(f, b, DependType::InOutSet);
  }
  std::span<const LDep> span() const { return {v_.data(), v_.size()}; }

 private:
  Deps& add(Field f, int b, DependType t) {
    v_.push_back(LDep{A(f, b), t});
    if (!minimized_) v_.push_back(LDep{Alias(f, b), t});
    return *this;
  }
  // Inline storage for the widest clause (Kinematics: 6 items, doubled
  // without optimization (a)), so building a clause never allocates.
  small_vector<LDep, 16> v_;
  bool minimized_;
};

/// Block bounds in 32 bits, so a loop body's capture [mesh, lo, hi] is
/// 16 bytes (see compute()). emit_iteration checks the mesh fits.
struct Blocking {
  std::int64_t n;
  int tpl;
  std::int32_t lo(int b) const {
    return static_cast<std::int32_t>(1 + n * b / tpl);
  }
  std::int32_t hi(int b) const {
    return static_cast<std::int32_t>(1 + n * (b + 1) / tpl);
  }
};

/// Emit a compute task. std::function (libstdc++) keeps its target in
/// place only when it is trivially copyable and at most 16 bytes; any
/// other body costs one malloc per task on the producer, freed by the
/// worker that retires it. Every LULESH body goes through here so that
/// stays checked at compile time.
template <class Body>
void compute(Emitter& em, const char* label, const Deps& d, double est,
             std::uint64_t bytes, Body body) {
  static_assert(std::is_trivially_copyable_v<Body> && sizeof(Body) <= 16,
                "compute body would be heap-allocated by std::function");
  em.compute(label, d.span(), est, bytes, body);
}

/// Reads of the position stencil x[lo-1 .. hi]: own block, neighbours,
/// ghosts at the partition frontier.
void x_stencil(Deps& d, int b, int tpl) {
  d.in(FX, b);
  if (b > 0) d.in(FX, b - 1); else d.in(FGHOSTL);
  if (b < tpl - 1) d.in(FX, b + 1); else d.in(FGHOSTR);
}

// Per-loop cost hints for the simulator (seconds and bytes per point).
// Each lulesh-mini loop stands for ~3 LULESH loops, hence the per-point
// figures are about 3x a single streaming kernel's.
constexpr double kSecsPerPoint = 150e-9;
constexpr std::uint64_t kBytesPerPoint = 350;

}  // namespace

namespace addr {
LAddr x_block(int b) { return A(FX, b); }
LAddr ss_summary() { return A(FSSUM); }
}  // namespace addr

void run_reference(Mesh& m, const Config& cfg) {
  const std::int64_t lo = 1, hi = m.n + 1;
  for (int it = 0; it < cfg.iterations; ++it) {
    m.dt = k::apply_dt_bounds(k::local_dt(m, lo, hi), m.dt);
    m.time += m.dt;
    k::stress_force(m, lo, hi);
    k::hourglass_force(m, lo, hi);
    k::acceleration(m, lo, hi);
    k::boundary(m, lo, hi, true, true);
    k::velocity(m, lo, hi, m.dt);
    k::position(m, lo, hi, m.dt);
    k::clamp_left_ghost(m);
    k::clamp_right_ghost(m);
    k::kinematics(m, lo, hi);
    k::viscosity(m, lo, hi);
    k::eos(m, lo, hi);
    k::sound_speed(m, lo, hi);
  }
}

void emit_iteration(Emitter& em, Mesh& mesh, const Config& cfg,
                    std::uint32_t, Halo* halo) {
  Mesh* m = &mesh;
  TDG_CHECK(mesh.n < INT32_MAX, "lulesh: mesh too large for 32-bit blocks");
  const Blocking blk{mesh.n, cfg.tpl};
  const bool min = cfg.minimized_deps;
  const int tpl = cfg.tpl;
  const bool global_first = halo == nullptr || halo->left < 0;
  const bool global_last = halo == nullptr || halo->right < 0;

  auto points = [&](int b) {
    return static_cast<double>(blk.hi(b) - blk.lo(b)) * cfg.sim_scale;
  };
  auto est = [&](int b) { return points(b) * kSecsPerPoint; };
  auto bytes = [&](int b) {
    return static_cast<std::uint64_t>(points(b)) * kBytesPerPoint;
  };

  // The dt reduction is a light streaming min over ss/arealg, not a full
  // physics loop: ~2 ns per point, 8 bytes per point.
  const double est_full =
      static_cast<double>(mesh.n) * cfg.sim_scale * 2e-9;
  const auto bytes_full = static_cast<std::uint64_t>(
      static_cast<double>(mesh.n) * cfg.sim_scale * 8.0);

  // ---- L0: dt constraint reduction (the Listing-1 collective) -------------
  if (cfg.distributed && halo != nullptr) {
    Halo* h = halo;
    {
      Deps d(min);
      d.in(FSSUM).out(FDTLOCAL);
      compute(em, "CalcLocalDt", d, est_full, bytes_full,
              [m, h] { h->dt_local = k::local_dt(*m, 1, m->n + 1); });
    }
    {
      Deps d(min);
      d.in(FDTLOCAL).out(FDTRED);
      em.allreduce("Allreduce(dt)", d.span(), &halo->dt_local, &halo->dt_red,
                   1, mpi::Op::Min);
    }
    {
      Deps d(min);
      d.in(FDTRED).out(FDT);
      compute(em, "CommitDt", d, 1e-7, 0, [m, h] {
        m->dt = k::apply_dt_bounds(h->dt_red, m->dt);
        m->time += m->dt;
      });
    }
  } else {
    Deps d(min);
    d.in(FSSUM).out(FDT);
    compute(em, "CalcDt", d, est_full, bytes_full, [m] {
      m->dt = k::apply_dt_bounds(k::local_dt(*m, 1, m->n + 1), m->dt);
      m->time += m->dt;
    });
  }

  // ---- L1: stress force -----------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FP, b).in(FQ, b).in(FAREALG, b).out(FF, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "StressForce", d, est(b), bytes(b),
            [m, lo, hi] { k::stress_force(*m, lo, hi); });
  }
  // ---- L2: hourglass force ----------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    x_stencil(d, b, tpl);
    d.inout(FF, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "HourglassForce", d, est(b), bytes(b),
            [m, lo, hi] { k::hourglass_force(*m, lo, hi); });
  }
  // ---- L3: acceleration --------------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FF, b).out(FXDD, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "Acceleration", d, est(b), bytes(b),
            [m, lo, hi] { k::acceleration(*m, lo, hi); });
  }
  // ---- L4: boundary conditions ---------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.inout(FXDD, b);
    // The kernel only clamps points 1 and n, so the block bounds fold
    // into the two flags and the capture stays 16 bytes.
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    const bool first = global_first && lo <= 1 && 1 < hi;
    const bool last = global_last && lo <= mesh.n && mesh.n < hi;
    compute(em, "Boundary", d, est(b) * 0.1, 0, [m, first, last] {
      k::boundary(*m, 1, m->n + 1, first, last);
    });
  }
  // ---- L5: velocity ---------------------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FXDD, b).in(FDT).inout(FXD, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "Velocity", d, est(b), bytes(b),
            [m, lo, hi] { k::velocity(*m, lo, hi, m->dt); });
  }
  // ---- L6: position ----------------------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FXD, b).in(FDT).inout(FX, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "Position", d, est(b), bytes(b),
            [m, lo, hi] { k::position(*m, lo, hi, m->dt); });
  }

  // ---- frontier exchange (after the position update, Section 4.1) ----------
  if (cfg.distributed && halo != nullptr && halo->left >= 0) {
    Halo* h = halo;
    const int left = halo->left;
    {
      Deps d(min);
      d.in(FX, 0).out(FSBUFL);
      compute(em, "PackLeft", d, 1e-7, 8,
              [m, h] { h->sbuf_l = m->x[1]; });
    }
    {
      Deps d(min);
      d.in(FSBUFL);
      em.send("SendLeft", d.span(), &halo->sbuf_l, sizeof(double), left,
              kTagToLeft);
    }
    {
      Deps d(min);
      d.out(FRBUFL);
      em.recv("RecvLeft", d.span(), &halo->rbuf_l, sizeof(double), left,
              kTagToRight);
    }
    {
      Deps d(min);
      d.in(FRBUFL).out(FGHOSTL);
      compute(em, "UnpackLeft", d, 1e-7, 8,
              [m, h] { m->x[0] = h->rbuf_l; });
    }
  } else {
    Deps d(min);
    d.in(FX, 0).out(FGHOSTL);
    compute(em, "ClampLeftGhost", d, 1e-7, 8,
            [m] { k::clamp_left_ghost(*m); });
  }
  if (cfg.distributed && halo != nullptr && halo->right >= 0) {
    Halo* h = halo;
    const int right = halo->right;
    {
      Deps d(min);
      d.in(FX, tpl - 1).out(FSBUFR);
      compute(em, "PackRight", d, 1e-7, 8, [m, h] {
        h->sbuf_r = m->x[static_cast<std::size_t>(m->n)];
      });
    }
    {
      Deps d(min);
      d.in(FSBUFR);
      em.send("SendRight", d.span(), &halo->sbuf_r, sizeof(double), right,
              kTagToRight);
    }
    {
      Deps d(min);
      d.out(FRBUFR);
      em.recv("RecvRight", d.span(), &halo->rbuf_r, sizeof(double), right,
              kTagToLeft);
    }
    {
      Deps d(min);
      d.in(FRBUFR).out(FGHOSTR);
      compute(em, "UnpackRight", d, 1e-7, 8, [m, h] {
        m->x[static_cast<std::size_t>(m->n) + 1] = h->rbuf_r;
      });
    }
  } else {
    Deps d(min);
    d.in(FX, tpl - 1).out(FGHOSTR);
    compute(em, "ClampRightGhost", d, 1e-7, 8,
            [m] { k::clamp_right_ghost(*m); });
  }

  // ---- L7: kinematics --------------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    x_stencil(d, b, tpl);
    d.inout(FV, b).out(FDELV, b).out(FAREALG, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "Kinematics", d, est(b), bytes(b),
            [m, lo, hi] { k::kinematics(*m, lo, hi); });
  }
  // ---- L8: artificial viscosity --------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FDELV, b).in(FV, b).out(FQ, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "Viscosity", d, est(b), bytes(b),
            [m, lo, hi] { k::viscosity(*m, lo, hi); });
  }
  // ---- L9: EOS ----------------------------------------------------------------------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FDELV, b).in(FQ, b).inout(FE, b).inout(FP, b);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "EOS", d, est(b), bytes(b),
            [m, lo, hi] { k::eos(*m, lo, hi); });
  }
  // ---- L10: sound speed (inoutset fan-in for the next dt reduction) ----------
  for (int b = 0; b < tpl; ++b) {
    Deps d(min);
    d.in(FP, b).in(FE, b).in(FV, b).out(FSS, b).inoutset(FSSUM);
    const std::int32_t lo = blk.lo(b), hi = blk.hi(b);
    compute(em, "SoundSpeed", d, est(b), bytes(b),
            [m, lo, hi] { k::sound_speed(*m, lo, hi); });
  }
}

void run_taskbased(Runtime& rt, Mesh& mesh, const Config& cfg,
                   bool persistent) {
  RuntimeEmitter::Options opts;
  opts.persistent = persistent;
  RuntimeEmitter em(rt, opts);
  for (int it = 0; it < cfg.iterations; ++it) {
    if (em.begin_iteration(static_cast<std::uint32_t>(it))) {
      emit_iteration(em, mesh, cfg, static_cast<std::uint32_t>(it), nullptr);
    }
    em.end_iteration();
  }
  rt.taskwait();
}

void run_parallel_for(Runtime& rt, Mesh& m, const Config& cfg) {
  namespace kk = kernels;
  const std::int64_t lo = 1, hi = m.n + 1;
  auto no_deps = [](int, std::int64_t, std::int64_t, DependList&) {};
  auto loop = [&](auto kernel) {
    rt.taskloop(lo, hi, cfg.tpl, no_deps, kernel);
    rt.taskwait();  // the BSP barrier after every parallel-for
  };
  for (int it = 0; it < cfg.iterations; ++it) {
    m.dt = kk::apply_dt_bounds(kk::local_dt(m, lo, hi), m.dt);
    m.time += m.dt;
    loop([&m](std::int64_t l, std::int64_t h) { kk::stress_force(m, l, h); });
    loop([&m](std::int64_t l, std::int64_t h) {
      kk::hourglass_force(m, l, h);
    });
    loop([&m](std::int64_t l, std::int64_t h) { kk::acceleration(m, l, h); });
    loop([&m](std::int64_t l, std::int64_t h) {
      kk::boundary(m, l, h, true, true);
    });
    const double dt = m.dt;
    loop([&m, dt](std::int64_t l, std::int64_t h) {
      kk::velocity(m, l, h, dt);
    });
    loop([&m, dt](std::int64_t l, std::int64_t h) {
      kk::position(m, l, h, dt);
    });
    kk::clamp_left_ghost(m);
    kk::clamp_right_ghost(m);
    loop([&m](std::int64_t l, std::int64_t h) { kk::kinematics(m, l, h); });
    loop([&m](std::int64_t l, std::int64_t h) { kk::viscosity(m, l, h); });
    loop([&m](std::int64_t l, std::int64_t h) { kk::eos(m, l, h); });
    loop([&m](std::int64_t l, std::int64_t h) { kk::sound_speed(m, l, h); });
  }
}

void run_distributed(Runtime& rt, mpi::Comm& comm, mpi::RequestPoller& poller,
                     Mesh& mesh, const Config& cfg, bool persistent) {
  Config dcfg = cfg;
  dcfg.distributed = true;
  Halo halo;
  halo.left = comm.rank() > 0 ? comm.rank() - 1 : -1;
  halo.right = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
  RuntimeEmitter::Options opts;
  opts.persistent = persistent;
  RuntimeEmitter em(rt, comm, poller, opts);
  for (int it = 0; it < dcfg.iterations; ++it) {
    if (em.begin_iteration(static_cast<std::uint32_t>(it))) {
      emit_iteration(em, mesh, dcfg, static_cast<std::uint32_t>(it), &halo);
    }
    em.end_iteration();
  }
  rt.taskwait();
}

void run_distributed(Runtime& rt, mpi::Comm& comm, mpi::RequestPoller& poller,
                     Mesh& mesh, const Config& cfg, bool persistent,
                     RecoveryMode recovery) {
  const bool shrink = recovery == RecoveryMode::ShrinkRedistribute;
  TDG_REQUIRE(!(shrink && persistent),
              "lulesh: shrink recovery cannot replay a persistent graph "
              "(the ring topology changes shape)");
  Config dcfg = cfg;
  dcfg.distributed = true;
  Halo halo;
  halo.left = comm.rank() > 0 ? comm.rank() - 1 : -1;
  halo.right = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
  RuntimeEmitter::Options opts;
  opts.persistent = persistent;
  opts.recovery = recovery;
  // No cross-rank reroute for the halo ring: an orphaned in-flight receive
  // completes locally (stale ghost, idempotency contract), and the *next*
  // iteration's topology read below re-points the exchange structurally.
  RuntimeEmitter em(rt, comm, poller, opts);
  for (int it = 0; it < dcfg.iterations; ++it) {
    // Recovery-aware variant: drain at every iteration boundary. In
    // poison mode this is what makes a death cascade *terminate* — the
    // taskwait surfaces the poisoning, the rank exits, and peers whose
    // receives now point at a Finished rank fail fast in turn instead of
    // waiting on sends a poisoned graph will never run. In shrink mode
    // the quiesced graph is what lets the topology be re-read safely.
    if (it > 0) rt.taskwait();
    if (shrink) {
      // Re-read the ring from the failure detector: a dead neighbour heals
      // into the nearest survivor, or into the boundary ghost clamp when
      // the chain ends. A barrier is unnecessary — ranks may disagree
      // transiently, and the orphaned receives complete locally.
      const int old_left = halo.left;
      const int old_right = halo.right;
      halo.left = comm.nearest_alive(comm.rank(), -1);
      halo.right = comm.nearest_alive(comm.rank(), +1);
      // Healing-skew catch-up: detection can land between two ranks'
      // boundary reads, so the new neighbour may have healed one
      // iteration earlier and already posted a receive from us — while
      // our send that iteration went to the dead rank. Without a
      // catch-up that receive gates its rank's dt allreduce and the
      // whole ring deadlocks one iteration apart. The per-iteration
      // drain keeps live ranks within one iteration of each other, so a
      // single send of the current (stale-tolerant) boundary closes the
      // gap; if the peer healed in the same iteration the extra message
      // is simply never consumed.
      if (it > 0 && halo.right != old_right && halo.right >= 0) {
        comm.wait(comm.isend(&halo.sbuf_r, sizeof(double), halo.right,
                             kTagToRight));
      }
      if (it > 0 && halo.left != old_left && halo.left >= 0) {
        comm.wait(comm.isend(&halo.sbuf_l, sizeof(double), halo.left,
                             kTagToLeft));
      }
    }
    if (em.begin_iteration(static_cast<std::uint32_t>(it))) {
      emit_iteration(em, mesh, dcfg, static_cast<std::uint32_t>(it), &halo);
    }
    em.end_iteration();
  }
  rt.taskwait();
}

}  // namespace tdg::apps::lulesh
