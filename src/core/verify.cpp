#include "core/verify.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace tdg {
namespace {

void append_hex(std::ostringstream& os, std::uint64_t v) {
  os << "0x" << std::hex << v << std::dec;
}

/// One endpoint of a shadow-discovery ordering constraint.
struct ShadowRef {
  std::uint64_t id = 0;
  DependType type = DependType::In;
};

/// Shadow of DependencyMap's per-address history: the same sequential
/// semantics, re-derived from the clause stream alone so the verifier does
/// not trust the component it is checking. No dedup, no pruning, no
/// redirect nodes — this produces the *required* ordering relation; the
/// discovered graph may realize each constraint through any path.
struct ShadowAddr {
  std::vector<ShadowRef> mods;      ///< last modification (or open inoutset
                                    ///< generation when mod_is_set)
  std::vector<ShadowRef> gen_base;  ///< accesses the open generation follows
  std::vector<ShadowRef> readers;   ///< readers since the last modification
  bool mod_is_set = false;
  std::size_t scope = 0;  ///< the scope-clear segment the state is from
};

/// A conflicting access pair the graph must order (pred submitted first).
struct RequiredPair {
  std::uint64_t pred = 0;
  std::uint64_t succ = 0;
  std::uint64_t addr = 0;
  DependType pred_type = DependType::In;
  DependType succ_type = DependType::In;
};

/// Derive the required ordering pairs from the access stream. Mirrors
/// DependencyMap::apply: In follows the modification set; Out/InOut follow
/// the modification set and all readers since; InOutSet members follow the
/// generation base (the pre-generation modification set + readers) and are
/// mutually unordered within one generation. Transitive closure of these
/// pairs orders every conflicting access pair, so checking them suffices.
/// `addresses`, when given, receives the number of distinct addresses.
std::vector<RequiredPair> shadow_required_pairs(
    std::span<const AccessRecord> accesses,
    std::span<const std::uint64_t> scope_clears = {},
    std::size_t* addresses = nullptr) {
  std::vector<RequiredPair> pairs;
  std::unordered_map<std::uint64_t, ShadowAddr> table;
  table.reserve(256);

  // clear_dependency_scope cutoffs, ascending: when the stream crosses
  // one, the real history was dropped, so the shadow drops too — each
  // entry when next reached, so the table still counts every address.
  std::vector<std::uint64_t> cuts(scope_clears.begin(), scope_clears.end());
  std::sort(cuts.begin(), cuts.end());
  std::size_t next_cut = 0;

  for (const AccessRecord& a : accesses) {
    while (next_cut < cuts.size() && a.task_id > cuts[next_cut]) ++next_cut;
    ShadowAddr& st = table[a.addr];
    if (st.scope != next_cut) {
      st = ShadowAddr{};
      st.scope = next_cut;
    }
    auto require = [&](const ShadowRef& from) {
      if (from.id == a.task_id) return;  // same task, both clause items
      pairs.push_back(
          RequiredPair{from.id, a.task_id, a.addr, from.type, a.type});
    };
    switch (a.type) {
      case DependType::In:
        for (const ShadowRef& m : st.mods) require(m);
        st.readers.push_back({a.task_id, a.type});
        break;
      case DependType::Out:
      case DependType::InOut:
        for (const ShadowRef& m : st.mods) require(m);
        for (const ShadowRef& r : st.readers) require(r);
        st.mods.clear();
        st.mods.push_back({a.task_id, a.type});
        st.gen_base.clear();
        st.readers.clear();
        st.mod_is_set = false;
        break;
      case DependType::InOutSet:
        if (!st.mod_is_set) {
          // Open a new generation: it must follow everything outstanding.
          st.gen_base.clear();
          st.gen_base.insert(st.gen_base.end(), st.mods.begin(),
                             st.mods.end());
          st.gen_base.insert(st.gen_base.end(), st.readers.begin(),
                             st.readers.end());
          st.mods.clear();
          st.readers.clear();
          st.mod_is_set = true;
        }
        for (const ShadowRef& g : st.gen_base) require(g);
        // Readers that arrived while the generation was open also precede
        // new members (OpenMP 5.1: inoutset follows prior in accesses).
        for (const ShadowRef& r : st.readers) require(r);
        st.mods.push_back({a.task_id, a.type});
        break;
    }
  }
  if (addresses != nullptr) *addresses = table.size();
  return pairs;
}

constexpr std::uint32_t kNoVertex = ~std::uint32_t{0};

/// The task ids a check covers, inclusive.
struct IdRange {
  std::uint64_t first = 0;
  std::uint64_t last = ~std::uint64_t{0};
  bool bounded() const { return last != ~std::uint64_t{0}; }
  bool contains(const TraceEdge& e) const {
    return e.pred >= first && e.succ >= first && e.pred <= last &&
           e.succ <= last;
  }
};

/// Dense-index graph over a captured edge stream, shared by both query
/// modes. The edges stay in the capture's buffer and are indexed as they
/// are visited. A `streamed` graph needs nothing more for the dense pass;
/// otherwise (or for the sparse mode) build_order() adds predecessor lists in
/// CSR form — the predecessors of vertex v are
/// pred[pred_begin[v] .. pred_begin[v + 1]) — and a topological order.
struct Graph {
  /// Index space [0, n). Dense ids (captured ids come from one counter)
  /// index as id - base, and the ids in the range that no record names
  /// are isolated vertices; otherwise `ids` holds the sorted ids and
  /// index = position.
  std::size_t n = 0;
  std::size_t vertices = 0;  ///< ids named by a record
  std::uint64_t base = 0;
  std::vector<std::uint64_t> ids;  ///< empty for dense ids
  std::span<const TraceEdge> raw;  ///< the captured edges, unfiltered
  IdRange range;          ///< edges with an endpoint outside are skipped
  std::size_t edges = 0;  ///< edges examined (self-edges included)
  /// Every edge ascends and the successors never decrease in capture
  /// order, so a vertex's in-edges all come before its out-edges: one
  /// pass over the edges in order is a topological sweep. Discovery
  /// captures exactly this — a task's in-edges are added, from earlier
  /// tasks, while it is submitted. An inoutset redirect node, created
  /// while its first reader is discovered, points back to a lower id and
  /// clears the flag, as does a malformed trace.
  bool streamed = true;
  std::vector<std::uint32_t> pred_begin;  ///< filled by build_order()
  std::vector<std::uint32_t> pred;
  std::vector<std::uint32_t> topo_pos;  ///< vertex -> position in topo order
  std::vector<std::uint32_t> topo;      ///< position -> vertex
  bool cycle = false;
  std::uint64_t cycle_task = 0;

  std::span<const std::uint32_t> preds(std::uint32_t v) const {
    return {pred.data() + pred_begin[v], pred_begin[v + 1] - pred_begin[v]};
  }
  /// Index of a vertex id (the id must be a vertex).
  std::uint32_t index(std::uint64_t id) const {
    if (ids.empty()) return static_cast<std::uint32_t>(id - base);
    return static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  }
  std::uint64_t id(std::uint32_t v) const {
    return ids.empty() ? base + v : ids[v];
  }
  /// f(pred, succ) for every edge, as indices, in capture order. A
  /// repeated pair (pruned-then-created across barrier scopes) is visited
  /// each time: harmless to reachability, and Kahn counts it on both
  /// sides. Self-edges are skipped; they surface as a cycle.
  template <class F>
  void for_each_edge(F&& f) const {
    for (const TraceEdge& e : raw) {
      if (range.contains(e) && e.pred != e.succ) {
        f(index(e.pred), index(e.succ));
      }
    }
  }
  /// Build the predecessor lists and the topological order (Kahn's
  /// algorithm; flags a cycle).
  void build_order();
};

/// The graph of `accesses` and of the edges inside `range` (the rest are
/// skipped without a copy). `edges` must outlive it.
Graph build_graph(std::span<const AccessRecord> accesses,
                  std::span<const TraceEdge> edges, IdRange range) {
  Graph g;
  g.raw = edges;
  g.range = range;
  if (accesses.empty() && edges.empty()) return g;
  // Counts the edges, flags self-edges and checks the streamed order;
  // `see` is handed every endpoint.
  auto scan = [&](auto&& see) {
    const IdRange r = range;
    std::size_t count = 0;
    bool streamed = true;
    std::uint64_t last_succ = 0;
    for (const TraceEdge& e : edges) {
      if (!r.contains(e)) continue;
      see(e.pred);
      see(e.succ);
      ++count;
      if (e.pred == e.succ) {  // self-edge: malformed
        g.cycle = true;
        g.cycle_task = e.pred;
        continue;
      }
      streamed = streamed && e.pred < e.succ && e.succ >= last_succ;
      last_succ = e.succ;
    }
    g.edges = count;
    g.streamed = streamed;
  };
  // Dense ids: a presence table over [base, base + n) counts the
  // vertices with no sort and no id -> index map.
  std::vector<std::uint8_t> named;
  auto use_dense = [&](std::uint64_t lo, std::uint64_t hi) {
    g.base = lo;
    g.n = hi - lo + 1;
    named.assign(g.n, 0);
    auto name = [flags = named.data(), lo](std::uint64_t id) {
      flags[id - lo] = 1;
    };
    for (const AccessRecord& a : accesses) name(a.task_id);
    return name;
  };
  if (range.bounded() &&
      range.last - range.first < 4 * (accesses.size() + 2 * edges.size()) +
                                     64) {
    // A window closed by a barrier: its ids are known up front, so the
    // same pass names the vertices.
    scan(use_dense(range.first, range.last));
  } else {
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    auto see = [&](std::uint64_t id) {
      lo = std::min(lo, id);
      hi = std::max(hi, id);
    };
    for (const AccessRecord& a : accesses) see(a.task_id);
    scan(see);
    const std::size_t records = accesses.size() + 2 * g.edges;
    if (hi - lo < 4 * records + 64) {
      const auto name = use_dense(lo, hi);
      for (const TraceEdge& e : edges) {
        if (!range.contains(e)) continue;
        name(e.pred);
        name(e.succ);
      }
    } else {
      g.ids.reserve(records);
      for (const AccessRecord& a : accesses) g.ids.push_back(a.task_id);
      for (const TraceEdge& e : edges) {
        if (!range.contains(e)) continue;
        g.ids.push_back(e.pred);
        g.ids.push_back(e.succ);
      }
      std::sort(g.ids.begin(), g.ids.end());
      g.ids.erase(std::unique(g.ids.begin(), g.ids.end()), g.ids.end());
      g.n = g.vertices = g.ids.size();
    }
  }
  if (!named.empty()) {
    g.vertices = static_cast<std::size_t>(
        std::count(named.begin(), named.end(), std::uint8_t{1}));
  }
  if (!g.streamed) g.build_order();
  return g;
}

void Graph::build_order() {
  if (!pred_begin.empty()) return;
  pred_begin.assign(n + 1, 0);
  for_each_edge([&](std::uint32_t, std::uint32_t v) { ++pred_begin[v + 1]; });
  for (std::size_t v = 0; v < n; ++v) pred_begin[v + 1] += pred_begin[v];
  pred.resize(pred_begin[n]);
  {
    std::vector<std::uint32_t> fill(pred_begin.begin(), pred_begin.end() - 1);
    for_each_edge(
        [&](std::uint32_t u, std::uint32_t v) { pred[fill[v]++] = u; });
  }

  topo.reserve(n);
  if (streamed) {
    // Ascending edges: id order is already topological.
    for (std::uint32_t v = 0; v < n; ++v) topo.push_back(v);
  } else {
    // Kahn's algorithm over successor lists; a FIFO over ascending
    // indices keeps the order deterministic (ties broken by task id).
    std::vector<std::uint32_t> succ_begin(n + 1, 0);
    for_each_edge([&](std::uint32_t u, std::uint32_t) { ++succ_begin[u + 1]; });
    for (std::size_t v = 0; v < n; ++v) succ_begin[v + 1] += succ_begin[v];
    std::vector<std::uint32_t> succ(pred.size());
    std::vector<std::uint32_t> fill(succ_begin.begin(), succ_begin.end() - 1);
    for_each_edge(
        [&](std::uint32_t u, std::uint32_t v) { succ[fill[u]++] = v; });
    std::vector<std::uint32_t> indeg(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      indeg[v] = pred_begin[v + 1] - pred_begin[v];
    }
    std::vector<std::uint32_t> ready;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (indeg[v] == 0) ready.push_back(v);
    }
    std::size_t head = 0;
    while (head < ready.size()) {
      const std::uint32_t v = ready[head++];
      topo.push_back(v);
      for (std::uint32_t k = succ_begin[v]; k < succ_begin[v + 1]; ++k) {
        if (--indeg[succ[k]] == 0) ready.push_back(succ[k]);
      }
    }
    if (topo.size() != n) {
      cycle = true;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (indeg[v] != 0) {
          cycle_task = id(v);
          break;
        }
      }
    }
  }
  topo_pos.assign(n, 0);
  for (std::uint32_t p = 0; p < topo.size(); ++p) topo_pos[topo[p]] = p;
}

/// O(1)-query reachability from a set of source vertices: one bitset row
/// per vertex holding the sources that reach it (row[v] = own bit if v is
/// a source | union of predecessor rows). A streamed graph fills the rows
/// in one pass over its edges; otherwise they are filled in topological
/// order. Only tasks with an access record start a required pair, so they
/// are the sources; sample mode's subset shrinks the rows as much as the
/// pairs. Memory is n*k/8 bytes for k sources, which is why it is gated
/// behind dense_limit.
class DenseReach {
 public:
  DenseReach(const Graph& g, std::span<const std::uint32_t> sources)
      : col_(g.n, kNoVertex),
        words_((sources.size() + 63) / 64),
        rows_(g.n * words_, 0) {
    for (std::uint32_t k = 0; k < sources.size(); ++k) {
      col_[sources[k]] = k;
      rows_[std::size_t{sources[k]} * words_ + k / 64] |= std::uint64_t{1}
                                                          << (k % 64);
    }
    auto merge = [rows = rows_.data(), words = words_](std::uint32_t v,
                                                       std::uint32_t p) {
      std::uint64_t* row = rows + std::size_t{v} * words;
      const std::uint64_t* in = rows + std::size_t{p} * words;
      for (std::size_t i = 0; i < words; ++i) row[i] |= in[i];
    };
    if (g.streamed) {
      g.for_each_edge([&](std::uint32_t u, std::uint32_t v) { merge(v, u); });
      return;
    }
    for (const std::uint32_t v : g.topo) {
      for (const std::uint32_t p : g.preds(v)) merge(v, p);
    }
  }
  /// `from` must be a source (or equal to `to`).
  bool reachable(std::uint32_t from, std::uint32_t to) const {
    const std::uint32_t c = col_[from];
    if (c == kNoVertex) return from == to;
    const std::uint64_t* row = rows_.data() + std::size_t{to} * words_;
    return (row[c / 64] >> (c % 64)) & 1;
  }

 private:
  std::vector<std::uint32_t> col_;  ///< vertex -> source column
  std::size_t words_;
  std::vector<std::uint64_t> rows_;
};

/// Per-pair DFS fallback for graphs above dense_limit: walks predecessors
/// back from the later task, pruned by topological position (a vertex at
/// or before the earlier task's position cannot be reached from it), so a
/// direct edge is found on the first step. Visited marks use a query stamp
/// so no per-query clearing.
class SparseReach {
 public:
  explicit SparseReach(const Graph& g) : g_(g), stamp_(g.n, 0) {}
  bool reachable(std::uint32_t from, std::uint32_t to) {
    if (from == to) return true;
    ++query_;
    const std::uint32_t limit = g_.topo_pos[from];
    stack_.clear();
    stack_.push_back(to);
    stamp_[to] = query_;
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back();
      stack_.pop_back();
      for (const std::uint32_t p : g_.preds(v)) {
        if (p == from) return true;
        if (stamp_[p] == query_ || g_.topo_pos[p] <= limit) continue;
        stamp_[p] = query_;
        stack_.push_back(p);
      }
    }
    return false;
  }

 private:
  const Graph& g_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t query_ = 0;
};

}  // namespace

std::string RaceFinding::to_string() const {
  std::ostringstream os;
  auto endpoint = [&](std::uint64_t id, const std::string& label,
                      DependType type, std::uint64_t base,
                      std::uint32_t bytes) {
    os << "task " << id;
    if (!label.empty()) os << " [" << label << "]";
    os << " (" << dep_type_name(type);
    if (kind == Kind::RangeOverlap) {
      os << " ";
      append_hex(os, base);
      os << "+" << bytes;
    }
    os << ")";
  };
  if (kind == Kind::SameBase) {
    os << "determinacy race on ";
    append_hex(os, addr);
    os << ": ";
  } else {
    os << "range-overlap race: ";
  }
  endpoint(pred_id, pred_label, pred_type, addr, pred_bytes);
  os << " and ";
  endpoint(succ_id, succ_label, succ_type, succ_addr, succ_bytes);
  if (kind == Kind::SameBase) {
    os << " conflict but are not ordered by the discovered graph";
  } else {
    os << " declare overlapping byte ranges under different bases; "
          "discovery matches base identity only and the discovered graph "
          "does not order them";
  }
  return os.str();
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  if (cycle) {
    os << "CYCLE: discovered edge set is cyclic (task " << cycle_task
       << " is on a cycle); the graph is not a valid schedule\n";
  }
  for (const RaceFinding& r : races) os << r.to_string() << '\n';
  if (races_total > races.size()) {
    os << "... " << (races_total - races.size()) << " more violation(s)\n";
  }
  os << "verify: " << tasks << " tasks, " << edges << " edges, " << addresses
     << " addresses, " << pairs_checked << " ordering constraints checked, "
     << races_total << " violation(s)"
     << (ok() ? " -- TDG is sound" : "");
  return os.str();
}

bool verify_samples_task(std::uint64_t id) {
  return mix64(id) % kVerifySampleRate == 0;
}

namespace {

/// verify_tdg over the edges inside `range`; every access must lie in it.
VerifyReport check_tdg(std::span<const AccessRecord> accesses,
                       std::span<const TraceEdge> edges,
                       std::span<const std::uint64_t> barriers,
                       std::span<const std::uint64_t> scope_clears,
                       IdRange range, const VerifyOptions& opts) {
  VerifyReport rep;

  Graph g = build_graph(accesses, edges, range);
  rep.edges = g.edges;
  rep.tasks = g.vertices;
  rep.cycle = g.cycle;
  rep.cycle_task = g.cycle_task;

  std::vector<RequiredPair> pairs =
      shadow_required_pairs(accesses, scope_clears, &rep.addresses);
  if (g.cycle) {
    // A cyclic edge set has no topological order; reachability queries
    // would be ill-defined. The cycle itself is the (fatal) finding.
    return rep;
  }

  // Labels for reporting (the first clause item of each task carries it),
  // and the tasks with accesses: the only vertices a required pair starts
  // from.
  std::vector<const char*> labels(g.n, nullptr);
  std::vector<std::uint32_t> sources;
  for (const AccessRecord& a : accesses) {
    const std::uint32_t v = g.index(a.task_id);
    if (labels[v] != nullptr) continue;
    labels[v] = a.label != nullptr ? a.label : "";
    sources.push_back(v);
  }

  // Taskwait cutoffs order pairs that span a barrier even when the edge was
  // pruned before recording ever existed (e.g. pre-trace history). Sorted
  // copy so the lookup can binary-search without trusting the producer.
  std::vector<std::uint64_t> cuts(barriers.begin(), barriers.end());
  std::sort(cuts.begin(), cuts.end());
  auto barrier_separated = [&](std::uint64_t a, std::uint64_t b) {
    auto it = std::lower_bound(cuts.begin(), cuts.end(), a);
    return it != cuts.end() && *it < b;
  };

  DenseReach* dense = nullptr;
  SparseReach* sparse = nullptr;
  // Construct lazily-by-mode: the dense table is O(n * sources) bits.
  std::unique_ptr<DenseReach> dense_owner;
  std::unique_ptr<SparseReach> sparse_owner;
  if (g.n <= opts.dense_limit) {
    dense_owner = std::make_unique<DenseReach>(g, sources);
    dense = dense_owner.get();
  } else {
    g.build_order();
    sparse_owner = std::make_unique<SparseReach>(g);
    sparse = sparse_owner.get();
  }

  // One test per task pair: a pair already proven (or reported) through
  // another address is not re-checked.
  std::unordered_set<std::uint64_t> checked;
  checked.reserve(pairs.size());
  auto label_of = [&](std::uint64_t id) -> std::string {
    const char* label = labels[g.index(id)];
    return label != nullptr ? label : "";
  };
  // True when the pair is new and the graph does not order it.
  auto unordered = [&](std::uint64_t pred, std::uint64_t succ) {
    const std::uint32_t u = g.index(pred);
    const std::uint32_t v = g.index(succ);
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!checked.insert(key).second) return false;
    ++rep.pairs_checked;
    if (barrier_separated(pred, succ)) return false;
    return !(dense != nullptr ? dense->reachable(u, v)
                              : sparse->reachable(u, v));
  };
  auto report = [&](RaceFinding f) {
    ++rep.races_total;
    if (rep.races.size() >= opts.max_reports) return;
    f.pred_label = label_of(f.pred_id);
    f.succ_label = label_of(f.succ_id);
    rep.races.push_back(std::move(f));
  };

  for (const RequiredPair& p : pairs) {
    if (!unordered(p.pred, p.succ)) continue;
    RaceFinding f;
    f.addr = p.addr;
    f.succ_addr = p.addr;
    f.pred_id = p.pred;
    f.succ_id = p.succ;
    f.pred_type = p.pred_type;
    f.succ_type = p.succ_type;
    report(std::move(f));
  }

  // Cross-base range overlaps: extent-annotated accesses of different
  // tasks whose byte ranges overlap under different bases, at least one
  // writing. Discovery matches base identity only, so no clause rule
  // derives these pairs. A barrier orders a pair that straddles it and a
  // scope clear exempts one, so only pairs within one segment between
  // consecutive cuts (of either kind) are candidates. Each segment's
  // accesses are grouped per base; a sweep over the bases in address
  // order finds the overlapping groups.
  std::vector<std::uint64_t> segment_cuts = cuts;
  segment_cuts.insert(segment_cuts.end(), scope_clears.begin(),
                      scope_clears.end());
  std::sort(segment_cuts.begin(), segment_cuts.end());
  struct BaseGroup {
    std::uint64_t end = 0;  ///< furthest byte any access here reaches
    std::vector<const AccessRecord*> items;
  };
  // Keyed (segment, base): segment-major, then address order.
  std::map<std::pair<std::size_t, std::uint64_t>, BaseGroup> groups;
  for (const AccessRecord& a : accesses) {
    if (a.bytes == 0) continue;
    const std::size_t seg = static_cast<std::size_t>(
        std::lower_bound(segment_cuts.begin(), segment_cuts.end(),
                         a.task_id) -
        segment_cuts.begin());
    BaseGroup& bg = groups[{seg, a.addr}];
    bg.end = std::max(bg.end, a.addr + a.bytes);
    bg.items.push_back(&a);
  }
  std::vector<const BaseGroup*> open;  // same segment, reaching past here
  std::size_t open_seg = 0;
  for (const auto& [key, bg] : groups) {
    const auto [seg, base] = key;
    if (seg != open_seg) open.clear();
    open_seg = seg;
    std::erase_if(open, [base = base](const BaseGroup* o) {
      return o->end <= base;
    });
    for (const BaseGroup* o : open) {
      for (const AccessRecord* x : o->items) {
        for (const AccessRecord* y : bg.items) {
          if (x->task_id == y->task_id) continue;
          if (x->type == DependType::In && y->type == DependType::In) {
            continue;
          }
          if (x->addr + x->bytes <= y->addr) continue;  // x starts lower
          const AccessRecord* p = x->task_id < y->task_id ? x : y;
          const AccessRecord* q = p == x ? y : x;
          if (!unordered(p->task_id, q->task_id)) continue;
          RaceFinding f;
          f.kind = RaceFinding::Kind::RangeOverlap;
          f.addr = p->addr;
          f.succ_addr = q->addr;
          f.pred_bytes = p->bytes;
          f.succ_bytes = q->bytes;
          f.pred_id = p->task_id;
          f.succ_id = q->task_id;
          f.pred_type = p->type;
          f.succ_type = q->type;
          report(std::move(f));
        }
      }
    }
    open.push_back(&bg);
  }
  return rep;
}

}  // namespace

VerifyReport verify_tdg(std::span<const AccessRecord> accesses,
                        std::span<const TraceEdge> edges,
                        std::span<const std::uint64_t> barriers,
                        std::span<const std::uint64_t> scope_clears,
                        const VerifyOptions& opts) {
  return check_tdg(accesses, edges, barriers, scope_clears, IdRange{}, opts);
}

VerifyReport verify_window(std::span<const AccessRecord> accesses,
                           std::span<const TraceEdge> edges,
                           std::span<const std::uint64_t> barriers,
                           std::span<const std::uint64_t> scope_clears,
                           std::uint64_t window_lo, bool sample,
                           const VerifyOptions& opts) {
  auto after = [window_lo](std::span<const std::uint64_t> cuts) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t c : cuts) {
      if (c > window_lo) out.push_back(c);
    }
    return out;
  };
  const std::vector<std::uint64_t> cuts = after(barriers);
  // The window's last barrier closes it: every task of the window was
  // submitted before it.
  IdRange range{window_lo + 1};
  if (!cuts.empty()) range.last = *std::max_element(cuts.begin(), cuts.end());
  // Accesses arrive in submission order, so the window is a slice; only
  // sampling needs a copy. Edges into the window may leave vertices at or
  // below the cutoff: those are never needed (a task gets its in-edges at
  // its own submission and a redirect node at its creation, so no path
  // from an in-window task reaches one) and skipping them cannot invent a
  // violation.
  auto id_below = [](std::uint64_t bound) {
    return [bound](const AccessRecord& a) { return a.task_id < bound; };
  };
  const auto first = std::partition_point(accesses.begin(), accesses.end(),
                                          id_below(range.first));
  const auto last = range.bounded()
                        ? std::partition_point(first, accesses.end(),
                                               id_below(range.last + 1))
                        : accesses.end();
  accesses = std::span<const AccessRecord>(first, last);
  std::vector<AccessRecord> acc;
  if (sample) {
    for (const AccessRecord& a : accesses) {
      if (verify_samples_task(a.task_id)) acc.push_back(a);
    }
    accesses = acc;
  }
  return check_tdg(accesses, edges, cuts, after(scope_clears), range, opts);
}

// ---------------------------------------------------------------------------
// Depend-clause lint
// ---------------------------------------------------------------------------

const char* lint_kind_name(LintKind kind) {
  switch (kind) {
    case LintKind::RedundantInout: return "redundant-inout";
    case LintKind::DeadDependence: return "dead-dependence";
    case LintKind::SingletonInoutset: return "singleton-inoutset";
    case LintKind::OverlappingRange: return "overlapping-range";
  }
  return "?";
}

std::vector<LintFinding> lint_clauses(
    std::span<const AccessRecord> accesses) {
  std::vector<LintFinding> findings;

  // Overlapping address ranges within one task's clause: two items whose
  // declared byte ranges partially overlap but name different bases are a
  // likely aliasing mistake — discovery matches on base identity, so the
  // two items will never order against each other's conflicting partners.
  // Scans contiguous per-task runs (the stream is in submission order).
  for (std::size_t i = 0; i < accesses.size();) {
    std::size_t j = i;
    while (j < accesses.size() &&
           accesses[j].task_id == accesses[i].task_id) {
      ++j;
    }
    for (std::size_t a = i; a < j; ++a) {
      if (accesses[a].bytes == 0) continue;
      const std::uint64_t alo = accesses[a].addr;
      const std::uint64_t ahi = alo + accesses[a].bytes;
      for (std::size_t b = a + 1; b < j; ++b) {
        if (accesses[b].bytes == 0) continue;
        if (accesses[b].addr == accesses[a].addr) continue;
        const std::uint64_t blo = accesses[b].addr;
        const std::uint64_t bhi = blo + accesses[b].bytes;
        if (alo >= bhi || blo >= ahi) continue;
        std::ostringstream os;
        os << "overlapping ranges: task " << accesses[a].task_id;
        if (accesses[a].label != nullptr && accesses[a].label[0] != '\0') {
          os << " [" << accesses[a].label << "]";
        }
        os << " declares " << dep_type_name(accesses[a].type) << "(";
        append_hex(os, alo);
        os << "+" << accesses[a].bytes << ") and "
           << dep_type_name(accesses[b].type) << "(";
        append_hex(os, blo);
        os << "+" << accesses[b].bytes
           << ") whose byte ranges overlap under different bases; "
              "discovery matches base identity only, so these items never "
              "order against each other -- use one base address";
        LintFinding f;
        f.kind = LintKind::OverlappingRange;
        f.addr = alo;
        f.task_id = accesses[a].task_id;
        f.label = accesses[a].label;
        f.message = os.str();
        findings.push_back(std::move(f));
      }
    }
    i = j;
  }

  // Regroup the stream per address, keeping submission order.
  struct Item {
    std::uint64_t task_id;
    DependType type;
    const char* label;
  };
  std::unordered_map<std::uint64_t, std::vector<Item>> by_addr;
  by_addr.reserve(64);
  std::vector<std::uint64_t> addr_order;  // deterministic output order
  for (const AccessRecord& a : accesses) {
    auto [it, fresh] = by_addr.try_emplace(a.addr);
    if (fresh) addr_order.push_back(a.addr);
    it->second.push_back(Item{a.task_id, a.type, a.label});
  }

  auto emit = [&](LintKind kind, std::uint64_t addr, const Item& item,
                  const std::string& msg) {
    LintFinding f;
    f.kind = kind;
    f.addr = addr;
    f.task_id = item.task_id;
    f.label = item.label;
    f.message = msg;
    findings.push_back(std::move(f));
  };

  for (std::uint64_t addr : addr_order) {
    const std::vector<Item>& items = by_addr[addr];

    // Dead dependence: the address never matched another task's access, so
    // every clause item on it was pure discovery cost.
    bool single_task = true;
    for (const Item& it : items) {
      if (it.task_id != items.front().task_id) {
        single_task = false;
        break;
      }
    }
    if (single_task) {
      std::ostringstream os;
      os << "dead dependence: ";
      append_hex(os, addr);
      os << " is only accessed by task " << items.front().task_id;
      if (items.front().label != nullptr && items.front().label[0] != '\0') {
        os << " [" << items.front().label << "]";
      }
      os << "; the clause never matches and creates no edges -- drop it";
      emit(LintKind::DeadDependence, addr, items.front(), os.str());
      continue;  // the remaining lints assume cross-task traffic
    }

    // Redundant inout: the write-ordering half is never consumed (no later
    // task touches the address) while readers since the last modification
    // forced reader->task edges that `in` would not create.
    std::size_t readers_since_mod = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      if (it.type == DependType::InOut && readers_since_mod > 0) {
        bool consumed = false;
        for (std::size_t j = i + 1; j < items.size(); ++j) {
          if (items[j].task_id != it.task_id) {
            consumed = true;
            break;
          }
        }
        if (!consumed) {
          std::ostringstream os;
          os << "redundant inout: task " << it.task_id;
          if (it.label != nullptr && it.label[0] != '\0') {
            os << " [" << it.label << "]";
          }
          os << " takes inout(";
          append_hex(os, addr);
          os << ") after " << readers_since_mod
             << " reader(s) but nothing ever follows the write; `in` "
                "avoids the reader->task edges";
          emit(LintKind::RedundantInout, addr, it, os.str());
        }
      }
      switch (it.type) {
        case DependType::In:
          ++readers_since_mod;
          break;
        case DependType::Out:
        case DependType::InOut:
        case DependType::InOutSet:
          readers_since_mod = 0;
          break;
      }
    }

    // Singleton inoutset generation: one member gains nothing from the
    // concurrent-set semantics but still pays its bookkeeping (and, with
    // redirect enabled, risks a pointless redirect node later).
    std::size_t gen_begin = SIZE_MAX;
    auto close_gen = [&](std::size_t end) {
      if (gen_begin == SIZE_MAX) return;
      if (end - gen_begin == 1) {
        const Item& m = items[gen_begin];
        std::ostringstream os;
        os << "singleton inoutset: task " << m.task_id;
        if (m.label != nullptr && m.label[0] != '\0') {
          os << " [" << m.label << "]";
        }
        os << " is the only member of an inoutset generation on ";
        append_hex(os, addr);
        os << "; `inout` gives the same ordering without set bookkeeping";
        emit(LintKind::SingletonInoutset, addr, m, os.str());
      }
      gen_begin = SIZE_MAX;
    };
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].type == DependType::InOutSet) {
        if (gen_begin == SIZE_MAX) gen_begin = i;
      } else {
        close_gen(i);
      }
    }
    close_gen(items.size());
  }
  return findings;
}

}  // namespace tdg
