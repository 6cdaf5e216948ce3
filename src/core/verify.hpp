// Offline TDG soundness verification and depend-clause linting.
//
// The runtime's entire contract is that the discovered Task Dependency
// Graph is a correct serialization of the program's depend clauses: every
// pair of tasks with a conflicting access (W/W, W/R, cross-generation
// inoutset) must be transitively ordered by graph edges (or separated by a
// taskwait barrier). After the scheduler and discovery layers were rebuilt
// as hand-rolled lock-free/open-addressing code, nothing checked that
// independently — this module is the correctness oracle.
//
// Everything here is pure: inputs are the Profiler's access/edge/barrier
// streams (or a parsed trace file), outputs are value-type reports, so the
// in-runtime TDG_VERIFY modes (the runtime's one determinacy checker), the
// tdg-trace / tdg-lint CLI and the self-tests share one code path. The
// checker re-derives the *required* ordering relation from the clauses
// alone (a shadow of the sequential discovery semantics,
// deliberately independent of DependencyMap's dedup/redirect machinery)
// and then proves or refutes each required pair against the graph the
// runtime actually built, using a reachability-bitset pass over the
// discovered edges in topological order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/depend_types.hpp"
#include "core/profiler.hpp"

namespace tdg {

/// Runtime::Config::verify (TDG_VERIFY overrides it; see core/env.hpp).
/// Every mode but off captures the clause, edge, barrier and scope-clear
/// streams (no timing) and checks the window since the previous barrier at
/// each taskwait and each persistent-region end_iteration; post and strict
/// also compare every PTSG replay's clauses with the discovery iteration's,
/// slot by slot.
///   off    — no capture, no checking (default).
///   sample — checks one task in kVerifySampleRate against every edge;
///            violations are reported to stderr, execution continues, and
///            the verified prefix of the streams is dropped (bounded memory).
///            Replay clauses are not compared.
///   post   — checks every task; reports to stderr, execution continues.
///   strict — checks every task; violations (and replay drift) raise
///            tdg::VerifyError at the taskwait (end_iteration).
enum class VerifyMode : std::uint8_t { Off, Sample, Post, Strict };

/// Sample mode checks the accesses of one task in this many.
inline constexpr std::uint64_t kVerifySampleRate = 16;

/// Sample mode's task subset: a splitmix64 hash of the id, so the subset is
/// a pure function of the id and two runs check the same tasks. Checking a
/// subset of the accesses against the full edge set can only hide
/// violations, never invent them (see verify_tdg).
bool verify_samples_task(std::uint64_t id);

struct VerifyOptions {
  /// Cap on the findings materialized in the report (the totals keep
  /// counting past it).
  std::size_t max_reports = 64;
  /// Graphs up to this many vertices get the O(V*E/64) dense
  /// reachability-bitset pass with O(1) pair queries; larger graphs fall
  /// back to per-pair BFS pruned by topological position (edges are a hash
  /// lookup, misses cost one bounded traversal). Tests set 0 to force the
  /// sparse path.
  std::size_t dense_limit = std::size_t{1} << 14;
};

/// One determinacy race: a conflicting access pair the discovered graph
/// does not order.
struct RaceFinding {
  enum class Kind : std::uint8_t {
    /// Conflicting accesses to the same clause base address.
    SameBase,
    /// Conflicting accesses whose declared byte ranges overlap under
    /// different base addresses. Discovery matches base identity only, so
    /// the depend clauses cannot express this ordering at all.
    RangeOverlap,
  };
  Kind kind = Kind::SameBase;
  std::uint64_t addr = 0;        ///< pred's clause base
  std::uint64_t succ_addr = 0;   ///< succ's clause base (== addr if same)
  std::uint32_t pred_bytes = 0;  ///< declared extents (0 = identity only)
  std::uint32_t succ_bytes = 0;
  std::uint64_t pred_id = 0;  ///< earlier submission
  std::uint64_t succ_id = 0;  ///< later submission
  DependType pred_type = DependType::In;
  DependType succ_type = DependType::In;
  std::string pred_label;
  std::string succ_label;

  std::string to_string() const;
};

/// Result of one soundness check.
struct VerifyReport {
  std::size_t tasks = 0;      ///< vertices (user tasks + internal nodes)
  std::size_t edges = 0;      ///< discovered edges examined
  std::size_t addresses = 0;  ///< distinct depend addresses
  std::size_t pairs_checked = 0;  ///< required ordering constraints tested
  std::size_t races_total = 0;    ///< violations found (>= races.size())
  bool cycle = false;             ///< edge set is cyclic (malformed graph)
  std::uint64_t cycle_task = 0;   ///< one task id on a cycle, if any
  std::vector<RaceFinding> races;  ///< first max_reports violations

  bool ok() const { return races_total == 0 && !cycle; }
  /// Multi-line human-readable report (violations, then totals).
  std::string summary() const;
};

/// Prove or refute that the discovered graph orders every conflicting
/// access pair. `accesses` is the per-task depend-clause stream in
/// submission order (ids strictly increasing task by task), `edges` the
/// discovered edge stream (including pruned and redirect-node edges), and
/// `barriers` the taskwait cutoffs: tasks with id <= cutoff completed
/// before any task with id > cutoff was submitted, so such pairs are
/// ordered even without a path. `scope_clears` mirrors
/// Runtime::clear_dependency_scope — the shadow history resets at each
/// cutoff, since the program explicitly severed discovery there.
///
/// Two finding kinds: same-base pairs re-derived from the clause rules,
/// and range-overlap pairs (extent-annotated accesses from different tasks
/// whose byte ranges overlap under different bases, at least one writing)
/// in the same barrier / scope-clear segment.
///
/// `accesses` may be any per-task subset of the program's stream (sample
/// mode): every pair derived from a sub-stream also conflicts in the full
/// program, and dropping accesses can only merge inoutset generations, so
/// a subset hides violations but never invents one.
VerifyReport verify_tdg(std::span<const AccessRecord> accesses,
                        std::span<const TraceEdge> edges,
                        std::span<const std::uint64_t> barriers = {},
                        std::span<const std::uint64_t> scope_clears = {},
                        const VerifyOptions& opts = {});

/// verify_tdg restricted to tasks with id > window_lo, where window_lo is a
/// barrier cutoff (the runtime passes the cutoff of the last verified
/// taskwait and the streams captured since), and, when `barriers` has a
/// cutoff above window_lo, to ids up to the highest one: the taskwait that
/// closes the window. Records outside are skipped — sound because a task
/// gets its in-edges at its own submission and a redirect node at its
/// creation, so an ordering path between in-window tasks never leaves the
/// window, and the barriers order every pair that straddles one. With
/// `sample`, only the accesses of tasks verify_samples_task selects are
/// checked, against every edge. Edges are read in place; when they arrive
/// as discovery captures them (ascending, successors never decreasing),
/// the reachability pass follows capture order, with no predecessor lists
/// and no topological sort.
VerifyReport verify_window(std::span<const AccessRecord> accesses,
                           std::span<const TraceEdge> edges,
                           std::span<const std::uint64_t> barriers,
                           std::span<const std::uint64_t> scope_clears,
                           std::uint64_t window_lo, bool sample,
                           const VerifyOptions& opts = {});

// ---------------------------------------------------------------------------
// Depend-clause lint (the user-side minimization of paper optimization (a))
// ---------------------------------------------------------------------------

enum class LintKind : std::uint8_t {
  /// `inout` whose write-ordering is never consumed (no later access on the
  /// address) while readers since the last modification forced extra
  /// reader->task edges: if the task only reads, `in` drops those edges.
  RedundantInout,
  /// A depend address touched by exactly one task: the clause never matched
  /// any other access and created no edges.
  DeadDependence,
  /// An inoutset generation with a single member: `inout` expresses the
  /// same ordering without the concurrent-set machinery (and without ever
  /// paying for a redirect node).
  SingletonInoutset,
  /// Two clause items on the same task whose declared byte ranges overlap
  /// but use different base addresses: discovery matches base identity
  /// only, so the items never order against each other's conflicting
  /// partners — a likely aliasing mistake.
  OverlappingRange,
};

struct LintFinding {
  LintKind kind = LintKind::DeadDependence;
  std::uint64_t addr = 0;
  std::uint64_t task_id = 0;
  std::string label;
  std::string message;  ///< full diagnostic, including the suggestion
};

/// Lint a depend-clause stream. Findings are advisory: they flag clauses
/// that are semantically sound but cost discovery work (edges, redirect
/// nodes, history churn) that a tighter clause avoids.
std::vector<LintFinding> lint_clauses(std::span<const AccessRecord> accesses);

const char* lint_kind_name(LintKind kind);

}  // namespace tdg
