// Simulator task graphs: task descriptors with cost-model attributes, and a
// builder that resolves depend clauses into edges with the core runtime's
// dependence rules (in/out/inout/inoutset, optimizations (b) and (c)).
// Addresses are abstract 64-bit identities, so application graph generators
// can be shared between the real runtime and the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/depend_rules.hpp"

namespace tdg::sim {

enum class SimTaskKind : std::uint8_t {
  Compute,    ///< cpu_seconds + bytes through the cache model
  Send,       ///< posts a message; completes when the transfer does
  Recv,       ///< posts a receive; completes at delivery
  Allreduce,  ///< posts a collective contribution
  Redirect,   ///< runtime-internal inoutset node (optimization (c))
};

/// Abstract depend-clause item on a logical address.
struct SimDep {
  std::uint64_t addr = 0;
  DependType type = DependType::In;

  static constexpr SimDep in(std::uint64_t a) {
    return {a, DependType::In};
  }
  static constexpr SimDep out(std::uint64_t a) {
    return {a, DependType::Out};
  }
  static constexpr SimDep inout(std::uint64_t a) {
    return {a, DependType::InOut};
  }
  static constexpr SimDep inoutset(std::uint64_t a) {
    return {a, DependType::InOutSet};
  }
};

/// Cost-model attributes supplied by the application graph generator.
struct SimTaskAttrs {
  double cpu_seconds = 0;      ///< pure compute time
  std::uint64_t bytes = 0;     ///< working set (cache/DRAM model)
  SimTaskKind kind = SimTaskKind::Compute;
  int peer = -1;               ///< Send/Recv peer rank
  int tag = 0;                 ///< Send/Recv matching tag
  std::uint64_t msg_bytes = 0; ///< payload of Send/Recv/Allreduce
  std::uint32_t iteration = 0; ///< application iteration (Gantt colour)
  const char* label = "";
};

/// One task of a simulator graph, with resolved dependency edges.
struct SimTaskDesc {
  SimTaskAttrs attrs;
  int ndeps = 0;  ///< depend-clause items (discovery hashing cost)
  /// Predecessor indices; duplicates are kept when optimization (b) is
  /// off, exactly as the real runtime materializes duplicate edges.
  std::vector<std::uint32_t> preds;
};

/// An immutable task graph for the simulator (one MPI rank's TDG).
struct SimGraph {
  std::vector<SimTaskDesc> tasks;
  /// Discovery counters of the whole build; edges are never pruned (no
  /// task runs while the graph is built).
  DiscoveryStats discovery;

  std::uint64_t structural_edges() const {
    std::uint64_t n = 0;
    for (const auto& t : tasks) n += t.preds.size();
    return n;
  }
  /// Successor adjacency, computed on demand by the simulator.
  std::vector<std::vector<std::uint32_t>> successors() const;
};

/// Node handle of the simulator's rules: task indices, no refcounting.
struct SimNodes {
  using Node = std::uint32_t;
  using List = std::vector<std::uint32_t>;
  static constexpr Node kNone = UINT32_MAX;
  static void retain(Node) {}
  static void release(Node) {}
};

/// Storage policy of the simulator's rules: histories keyed by abstract
/// address.
struct SimAddrMap {
  using Nodes = SimNodes;
  AccessHistory<SimNodes>& lookup(std::uint64_t a) { return entries[a]; }
  void clear() { entries.clear(); }
  std::unordered_map<std::uint64_t, AccessHistory<SimNodes>> entries;
};

/// Sequential-discovery dependency resolution on abstract addresses: the
/// shared dependence rules (core/depend_rules.hpp) over task indices, with
/// this builder as the edge sink. Index-based so graphs are cheap to build
/// and replay.
class SimGraphBuilder {
 public:
  SimGraphBuilder() : SimGraphBuilder(DiscoveryOptions{}) {}
  explicit SimGraphBuilder(DiscoveryOptions opts) : opts_(opts) {}

  /// Append a task with the given depend clause; returns its index.
  std::uint32_t task(const SimTaskAttrs& attrs, std::span<const SimDep> deps);
  std::uint32_t task(const SimTaskAttrs& attrs,
                     std::initializer_list<SimDep> deps) {
    return task(attrs, std::span<const SimDep>(deps.begin(), deps.size()));
  }

  /// Forget the access history (between independent phases).
  void clear_scope() { rules_.clear(); }

  /// The access history of `addr`, or nullptr when it has none
  /// (inspection only).
  const AccessHistory<SimNodes>* history(std::uint64_t addr) const {
    const auto it = rules_.entries.find(addr);
    return it == rules_.entries.end() ? nullptr : &it->second;
  }

  /// Number of tasks added so far.
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(graph_.tasks.size());
  }

  SimGraph take() {
    graph_.discovery = rules_.total_stats();
    return std::move(graph_);
  }

 private:
  friend DependRules<SimAddrMap>;

  std::uint32_t add_node(const SimTaskAttrs& attrs, int ndeps);

  // --- edge sink of the dependence rules -----------------------------------
  EdgeOutcome discover_edge(std::uint32_t pred, std::uint32_t succ) {
    graph_.tasks[succ].preds.push_back(pred);
    return EdgeOutcome::Created;
  }
  std::uint32_t make_internal_node();
  void seal_internal_node(std::uint32_t) {}
  static std::uint64_t node_id(std::uint32_t n) { return n; }
  std::uint64_t& last_successor(std::uint32_t n) { return last_succ_[n]; }

  DiscoveryOptions opts_;
  SimGraph graph_;
  DependRules<SimAddrMap> rules_;
  std::vector<std::uint64_t> last_succ_;  ///< per-task dedup slot (opt b)
};

}  // namespace tdg::sim
