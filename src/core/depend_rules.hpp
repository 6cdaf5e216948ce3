// The dependence rules of sequential task-dependency discovery, written once
// for both engines — the runtime's DependencyMap (core/depend.hpp) and the
// simulator's SimGraphBuilder (sim/graph.hpp): OpenMP 5.1
// in/out/inout/inoutset semantics plus the paper's optimizations
//   (b) O(1) duplicate-edge elimination (Section 3.1),
//   (c) inoutset redirection nodes reducing m*n edges to m+n (Fig. 4).
// The three policy parts (node handle, per-address storage, edge sink) and
// why the verifier's shadow keeps its own copy is
// described in DESIGN.md "Dependence rules".
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/depend_types.hpp"
#include "core/metrics.hpp"

namespace tdg {

/// Toggles for the discovery optimizations studied in Section 3, honoured
/// identically by both engines. Optimization (a) lives in user code (fewer
/// depend addresses) and has no runtime switch.
struct DiscoveryOptions {
  bool dedup_edges = true;        ///< (b): skip repeated (pred,succ) pairs
  bool inoutset_redirect = true;  ///< (c): aggregate inoutset generations
  /// Fault injection for the TDG soundness verifier's self-tests: when
  /// nonzero, the Nth would-be edge of the rules' lifetime (1-based,
  /// self-edges and duplicates included) is silently dropped, exactly what
  /// a missing depend clause would cause. The drop is logged in
  /// dropped_edges() with both endpoint ids and the clause address, so it
  /// stays attributable under batch submission. Never set outside tests.
  std::uint64_t seed_drop_edge = 0;
};

/// One edge suppressed by DiscoveryOptions::seed_drop_edge.
struct DroppedEdge {
  std::uint64_t nth = 0;      ///< 1-based lifetime edge-call position
  std::uint64_t pred_id = 0;
  std::uint64_t succ_id = 0;
  const void* addr = nullptr; ///< clause address whose history produced it
};

/// Counters describing discovery over a cumulative span.
struct DiscoveryStats {
  std::uint64_t edges_created = 0;    ///< edges materialized
  std::uint64_t edges_pruned = 0;     ///< skipped: predecessor already done
  std::uint64_t edges_duplicate = 0;  ///< skipped by optimization (b)
  std::uint64_t redirect_nodes = 0;   ///< inoutset R nodes inserted by (c)
};

/// What the edge sink did with a new (pred, succ) pair.
enum class EdgeOutcome : std::uint8_t {
  Created,  ///< edge materialized (or recorded for persistent replay)
  Pruned,   ///< no edge needed: predecessor already finished
};

/// Registry counters mirroring DiscoveryStats (runtime only), published
/// once per apply() rather than per edge.
struct EdgeMetricIds {
  MetricsRegistry::Id created;    ///< counter discovery.edges_created
  MetricsRegistry::Id duplicate;  ///< counter discovery.edges_duplicate
  MetricsRegistry::Id pruned;     ///< counter discovery.edges_pruned
  MetricsRegistry::Id redirect;   ///< counter discovery.redirect_nodes
};

/// One address's access history. Every list entry and the redirect node
/// hold a reference (Nodes::retain), dropped by reset().
template <class Nodes>
struct AccessHistory {
  using Node = typename Nodes::Node;
  using List = typename Nodes::List;

  /// Last modifying access: a single out/inout writer, or the members of
  /// the currently-open inoutset generation.
  List last_mod;
  /// Predecessors every new member of the open generation must be ordered
  /// after (the writer/readers present when the generation opened).
  List gen_base;
  /// `in` tasks since last_mod changed.
  List readers;
  /// Optimization (c): redirect node summarizing last_mod when it is an
  /// inoutset generation; invalidated when the generation grows.
  Node redirect = Nodes::kNone;
  bool mod_is_set = false;  ///< last_mod is an open inoutset generation

  static void hold(List& v, Node n) {
    Nodes::retain(n);
    v.push_back(n);
  }
  static void drop(List& v) {
    for (Node n : v) Nodes::release(n);
    v.clear();
  }
  void drop_redirect() {
    if (redirect != Nodes::kNone) Nodes::release(redirect);
    redirect = Nodes::kNone;
  }
  /// Release every reference and forget the history.
  void reset() {
    drop(last_mod);
    drop(gen_base);
    drop(readers);
    drop_redirect();
    mod_is_set = false;
  }
};

/// Per-address access history plus every dependence rule. Single-writer:
/// depend clauses are processed sequentially by the producer (the paper's
/// "sequential submission of dependent tasks"), which is what makes
/// duplicate detection O(1) and lets the storage skip all synchronization.
///
/// The edge sink passed to apply() provides, for its node type N:
///   EdgeOutcome discover_edge(N pred, N succ);  // a new, non-self pair
///   N make_internal_node();  // redirect node, discovery guard held
///   void seal_internal_node(N node);  // drop that guard
///   std::uint64_t node_id(N node);
///   std::uint64_t& last_successor(N node);  // dedup slot, per node
template <class Store>
class DependRules : public Store {
 public:
  using Nodes = typename Store::Nodes;
  using Node = typename Nodes::Node;
  using Entry = AccessHistory<Nodes>;

  /// Process the depend clause of `task`, reporting every required edge
  /// to `sink`.
  template <class Sink, class Dep>
  void apply(Sink& sink, Node task, std::span<const Dep> deps,
             const DiscoveryOptions& opts) {
    for (const Dep& d : deps) {
      Entry& e = this->lookup(d.addr);
      const void* addr = erase(d.addr);
      switch (d.type) {
        case DependType::In:
          // Ordered after the last modifying access only; transitivity
          // covers anything earlier.
          edges_from_mod(sink, e, task, opts, addr);
          Entry::hold(e.readers, task);
          break;

        case DependType::Out:
        case DependType::InOut:
          // Ordered after the last modifying access and all reads since;
          // then the unique last writer.
          edges_from_mod(sink, e, task, opts, addr);
          for (Node r : e.readers) edge(sink, r, task, opts, addr);
          e.reset();
          Entry::hold(e.last_mod, task);
          break;

        case DependType::InOutSet:
          if (e.mod_is_set && !e.readers.empty()) {
            // A reader closes the open generation. Every reader follows
            // all members (readers only arrive after the members they
            // see), and the members follow the base, so the readers alone
            // carry the old generation's ordering forward: forget the
            // members and the base, and open afresh below with the
            // readers as base. Without this an address alternating
            // {inoutset..., in} keeps every member and reader forever and
            // each new member pays for the whole history.
            Entry::drop(e.last_mod);
            Entry::drop(e.gen_base);
            e.mod_is_set = false;
          }
          if (!e.mod_is_set) {
            // Open a new generation. Its base is the previous writer plus
            // the reads since (their references move along; gen_base is
            // empty outside a generation): every member must be ordered
            // after those.
            e.mod_is_set = true;
            std::swap(e.gen_base, e.last_mod);
            for (Node r : e.readers) e.gen_base.push_back(r);
            e.readers.clear();
          }
          // The generation grows: consumers discovered so far keep their
          // edges to the old redirect (they must not depend on this new
          // member), but future consumers need a fresh one.
          e.drop_redirect();
          // A member is ordered after the generation base and any reader
          // that arrived while the generation was open (OpenMP 5.1:
          // inoutset depends on prior in/out/inout accesses, not prior
          // inoutset).
          for (Node b : e.gen_base) edge(sink, b, task, opts, addr);
          for (Node r : e.readers) edge(sink, r, task, opts, addr);
          Entry::hold(e.last_mod, task);
          break;
      }
    }
    flush_edge_metrics();
  }

  /// Statistics since construction or the last reset_total_stats().
  const DiscoveryStats& total_stats() const { return total_; }
  void reset_total_stats() {
    flush_edge_metrics();
    total_ = DiscoveryStats{};
    flushed_ = DiscoveryStats{};
  }

  /// Edges suppressed by seed_drop_edge over the rules' lifetime.
  const std::vector<DroppedEdge>& dropped_edges() const { return dropped_; }

  void bind_edge_metrics(MetricsRegistry* reg, EdgeMetricIds ids) {
    edge_reg_ = reg;
    edge_ids_ = ids;
  }
  /// Registry shard of the thread applying clauses (its own slot: shards
  /// are single-writer); forwarded to a storage that counts too.
  void set_metrics_shard(unsigned shard) {
    edge_shard_ = shard;
    if constexpr (requires(Store& st) { st.set_metrics_shard(shard); }) {
      Store::set_metrics_shard(shard);
    }
  }

 private:
  static const void* erase(const void* a) { return a; }
  static const void* erase(std::uint64_t a) {
    return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(a));
  }

  /// The one counting site of every discovery outcome. Plain increments:
  /// the registry catches up in flush_edge_metrics().
  void count(std::uint64_t DiscoveryStats::*field) { ++(total_.*field); }

  /// Add what total_ gained since the last flush to the registry
  /// counters: at most four adds per submit instead of one RMW per edge.
  void flush_edge_metrics() {
    if (edge_reg_ == nullptr) return;
    const auto publish = [&](std::uint64_t DiscoveryStats::*field,
                             MetricsRegistry::Id id) {
      const std::uint64_t delta = total_.*field - flushed_.*field;
      if (delta != 0) edge_reg_->add(id, delta, edge_shard_);
    };
    publish(&DiscoveryStats::edges_created, edge_ids_.created);
    publish(&DiscoveryStats::edges_pruned, edge_ids_.pruned);
    publish(&DiscoveryStats::edges_duplicate, edge_ids_.duplicate);
    publish(&DiscoveryStats::redirect_nodes, edge_ids_.redirect);
    flushed_ = total_;
  }

  /// Every would-be edge funnels through here, in discovery order.
  /// `addr` is the clause address whose history produced it — only used to
  /// attribute seeded drops.
  template <class Sink>
  void edge(Sink& sink, Node pred, Node succ, const DiscoveryOptions& opts,
            const void* addr) {
    // Seeded fault (verifier self-tests): the Nth discovery silently
    // vanishes, exactly as if the clause that would have produced it were
    // missing from the program. Counted before the self and duplicate
    // checks, so the Nth position is the same on both engines.
    if (opts.seed_drop_edge != 0 && ++edge_calls_ == opts.seed_drop_edge) {
      dropped_.push_back(DroppedEdge{edge_calls_, sink.node_id(pred),
                                     sink.node_id(succ), addr});
      return;
    }
    if (pred == succ) return;  // e.g. in+out on one address in one clause
    std::uint64_t& last = sink.last_successor(pred);
    const std::uint64_t succ_id = sink.node_id(succ);
    if (opts.dedup_edges && last == succ_id) {  // optimization (b)
      count(&DiscoveryStats::edges_duplicate);
      return;
    }
    last = succ_id;
    count(sink.discover_edge(pred, succ) == EdgeOutcome::Created
              ? &DiscoveryStats::edges_created
              : &DiscoveryStats::edges_pruned);
  }

  /// Order `succ` after the last modifying access of `e`. For an open
  /// inoutset generation this is either one edge through the redirect node
  /// (optimization (c)) or one edge per generation member.
  template <class Sink>
  void edges_from_mod(Sink& sink, Entry& e, Node succ,
                      const DiscoveryOptions& opts, const void* addr) {
    // If succ itself is a member of the open generation (inoutset + in on
    // the same address in one clause), routing through a redirect node
    // would create an indirect self-cycle (succ -> R -> succ); use direct
    // edges, where the self-edge is skipped.
    bool self_in_mod = false;
    if (e.mod_is_set) {
      for (Node m : e.last_mod) self_in_mod |= (m == succ);
    }
    if (e.mod_is_set && opts.inoutset_redirect && e.last_mod.size() > 1 &&
        !self_in_mod) {
      if (e.redirect == Nodes::kNone) {
        const Node r = sink.make_internal_node();
        // Take the history's reference BEFORE sealing: if every member
        // already finished, sealing completes the node inline and drops
        // its self-reference — it must survive for the consumer edge below
        // (which will then be correctly pruned).
        Nodes::retain(r);
        count(&DiscoveryStats::redirect_nodes);
        for (Node m : e.last_mod) edge(sink, m, r, opts, addr);
        sink.seal_internal_node(r);
        e.redirect = r;
      }
      edge(sink, e.redirect, succ, opts, addr);
      return;
    }
    for (Node m : e.last_mod) edge(sink, m, succ, opts, addr);
  }

  DiscoveryStats total_;    ///< reset by reset_total_stats()
  DiscoveryStats flushed_;  ///< total_ as of the last flush_edge_metrics()
  std::uint64_t edge_calls_ = 0;  ///< lifetime counter for seed_drop_edge
  std::vector<DroppedEdge> dropped_;
  MetricsRegistry* edge_reg_ = nullptr;
  EdgeMetricIds edge_ids_{};
  unsigned edge_shard_ = 0;
};

}  // namespace tdg
