#include "core/trace_merge.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <queue>
#include <set>

namespace tdg {

namespace {

struct MsgKey {
  std::int32_t src, dst, tag;
  std::uint64_t seq;
  bool operator<(const MsgKey& o) const {
    if (src != o.src) return src < o.src;
    if (dst != o.dst) return dst < o.dst;
    if (tag != o.tag) return tag < o.tag;
    return seq < o.seq;
  }
};

/// (input index, comm index) of one side of a matched message.
struct Side {
  std::size_t input = SIZE_MAX;
  std::size_t comm = 0;
  bool present() const { return input != SIZE_MAX; }
};

}  // namespace

MergeResult merge_traces(std::vector<ParsedTrace> inputs,
                         const MergeOptions& opts) {
  MergeResult res;
  const std::size_t n = inputs.size();
  if (n == 0) return res;

  // Resolve each input's rank. A per-rank file stamps its rank into every
  // comm record (self) and, for files written with a rank base, into the
  // records' rank column. Colliding resolutions (e.g. two single-rank
  // files that both claim rank 0) fall back to positional ranks.
  res.ranks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!inputs[i].comms.empty()) {
      res.ranks[i] = inputs[i].comms.front().self;
    } else if (!inputs[i].records.empty()) {
      res.ranks[i] = inputs[i].records.front().rank;
    } else {
      res.ranks[i] = static_cast<int>(i);
    }
  }
  {
    std::set<int> distinct(res.ranks.begin(), res.ranks.end());
    if (distinct.size() != n) {
      for (std::size_t i = 0; i < n; ++i) {
        res.ranks[i] = static_cast<int>(i);
      }
    }
  }

  // Match send/recv pairs by (src, dst, tag, seq). Collectives and
  // seq-0 records (stream sequencing was off) cannot be paired.
  std::map<MsgKey, std::pair<Side, Side>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < inputs[i].comms.size(); ++c) {
      const CommRecord& rec = inputs[i].comms[c];
      if (rec.seq == 0 || rec.kind == CommRecord::Kind::Collective) {
        continue;
      }
      const MsgKey key = rec.kind == CommRecord::Kind::Send
                             ? MsgKey{rec.self, rec.peer, rec.tag, rec.seq}
                             : MsgKey{rec.peer, rec.self, rec.tag, rec.seq};
      Side& side = rec.kind == CommRecord::Kind::Send ? pairs[key].first
                                                      : pairs[key].second;
      side = Side{i, c};
    }
  }
  for (const auto& [key, pr] : pairs) {
    if (pr.first.present() && pr.second.present()) {
      ++res.matched_messages;
    } else {
      ++res.unmatched_messages;
    }
  }

  // Clock-offset estimation from the matched pairs: the minimum observed
  // one-way delay in each direction bounds the skew; with bidirectional
  // traffic the offset is the half-difference of the two minima
  // (NTP-style, assuming roughly symmetric minimum latency), with one-way
  // traffic the zero-latency bound. Offsets propagate over a BFS spanning
  // tree rooted, per connected component, at the lowest-ranked input.
  std::vector<std::int64_t> theta(n, 0);
  if (opts.estimate_clock_offsets && n > 1) {
    std::map<std::pair<std::size_t, std::size_t>, std::int64_t> dmin;
    for (const auto& [key, pr] : pairs) {
      if (!pr.first.present() || !pr.second.present()) continue;
      if (pr.first.input == pr.second.input) continue;  // self-send
      const CommRecord& s = inputs[pr.first.input].comms[pr.first.comm];
      const CommRecord& r = inputs[pr.second.input].comms[pr.second.comm];
      const std::int64_t d = static_cast<std::int64_t>(r.t_complete) -
                             static_cast<std::int64_t>(s.t_post);
      const auto e = std::make_pair(pr.first.input, pr.second.input);
      auto it = dmin.find(e);
      if (it == dmin.end() || d < it->second) dmin[e] = d;
    }
    std::vector<char> visited(n, 0);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return res.ranks[a] < res.ranks[b];
    });
    for (std::size_t root : order) {
      if (visited[root]) continue;
      visited[root] = 1;
      theta[root] = 0;
      std::queue<std::size_t> bfs;
      bfs.push(root);
      while (!bfs.empty()) {
        const std::size_t a = bfs.front();
        bfs.pop();
        for (std::size_t b = 0; b < n; ++b) {
          if (visited[b]) continue;
          const auto fwd = dmin.find(std::make_pair(a, b));
          const auto rev = dmin.find(std::make_pair(b, a));
          if (fwd == dmin.end() && rev == dmin.end()) continue;
          std::int64_t off;
          if (fwd != dmin.end() && rev != dmin.end()) {
            off = (fwd->second - rev->second) / 2;
          } else if (fwd != dmin.end()) {
            off = fwd->second;
          } else {
            off = -rev->second;
          }
          theta[b] = theta[a] + off;
          visited[b] = 1;
          bfs.push(b);
        }
      }
    }
    // Causality pass: estimation error is bounded by the true minimum
    // latency, so a matched message may still complete "before" it was
    // posted. Shift receiver ranks forward until every matched pair is
    // causal; capped, since each fix can cascade along a cycle once.
    for (std::size_t iter = 0; iter < 4 * n + 4; ++iter) {
      bool changed = false;
      for (const auto& [key, pr] : pairs) {
        if (!pr.first.present() || !pr.second.present()) continue;
        if (pr.first.input == pr.second.input) continue;
        const CommRecord& s = inputs[pr.first.input].comms[pr.first.comm];
        const CommRecord& r = inputs[pr.second.input].comms[pr.second.comm];
        const std::int64_t send_post =
            static_cast<std::int64_t>(s.t_post) - theta[pr.first.input];
        const std::int64_t recv_done =
            static_cast<std::int64_t>(r.t_complete) - theta[pr.second.input];
        if (send_post > recv_done) {
          theta[pr.second.input] -= send_post - recv_done;
          changed = true;
        }
      }
      if (!changed) break;
    }
  }
  res.offset_ns = theta;

  // Rebase to a common origin: after subtracting each input's offset,
  // shift everything by the global minimum so the merged timeline starts
  // at zero and no timestamp underflows.
  std::int64_t tmin = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < n; ++i) {
    for (const TaskRecord& r : inputs[i].records) {
      tmin = std::min(tmin,
                      static_cast<std::int64_t>(r.t_create) - theta[i]);
    }
    for (const CommRecord& c : inputs[i].comms) {
      tmin =
          std::min(tmin, static_cast<std::int64_t>(c.t_post) - theta[i]);
    }
  }
  if (tmin == std::numeric_limits<std::int64_t>::max()) tmin = 0;

  ParsedTrace& out = res.trace;
  auto remap_id = [&](std::uint64_t id, std::size_t input) {
    return id == 0 ? 0
                   : static_cast<std::uint64_t>(res.ranks[input] + 1) *
                             kMergeRankStride +
                         id;
  };
  for (std::size_t i = 0; i < n; ++i) {
    auto rebase = [&](std::uint64_t t) {
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(t) -
                                        theta[i] - tmin);
    };
    for (TaskRecord r : inputs[i].records) {
      r.task_id = remap_id(r.task_id, i);
      r.rank = res.ranks[i];
      r.t_create = rebase(r.t_create);
      r.t_ready = rebase(r.t_ready);
      r.t_start = rebase(r.t_start);
      r.t_end = rebase(r.t_end);
      r.label = out.intern(r.label);
      out.records.push_back(r);
    }
    for (const TraceEdge& e : inputs[i].edges) {
      out.edges.push_back(
          TraceEdge{remap_id(e.pred, i), remap_id(e.succ, i)});
    }
    for (AccessRecord a : inputs[i].accesses) {
      a.task_id = remap_id(a.task_id, i);
      a.label = out.intern(a.label);
      out.accesses.push_back(a);
    }
    for (CommRecord c : inputs[i].comms) {
      c.self = res.ranks[i];
      c.task_id = remap_id(c.task_id, i);
      c.t_post = rebase(c.t_post);
      c.t_complete = rebase(c.t_complete);
      out.comms.push_back(c);
    }
    // Barriers / scope clears are per-rank submission-order cutoffs; they
    // carry no meaning across ranks and are dropped from the merged view.
  }

  // Cross-rank message edges: send task -> receive task for every matched
  // pair with task attribution on both sides. These are the edges the
  // comm-aware critical path traverses.
  if (opts.derive_cross_rank_edges) {
    for (const auto& [key, pr] : pairs) {
      if (!pr.first.present() || !pr.second.present()) continue;
      const CommRecord& s = inputs[pr.first.input].comms[pr.first.comm];
      const CommRecord& r = inputs[pr.second.input].comms[pr.second.comm];
      const std::uint64_t pred = remap_id(s.task_id, pr.first.input);
      const std::uint64_t succ = remap_id(r.task_id, pr.second.input);
      if (pred == 0 || succ == 0 || pred == succ) continue;
      const TraceEdge edge{pred, succ};
      res.cross_rank_edges.push_back(edge);
      out.edges.push_back(edge);
    }
  }

  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const TaskRecord& a, const TaskRecord& b) {
                     return a.t_start < b.t_start;
                   });
  std::stable_sort(out.accesses.begin(), out.accesses.end(),
                   [](const AccessRecord& a, const AccessRecord& b) {
                     return a.task_id < b.task_id;
                   });
  std::stable_sort(out.comms.begin(), out.comms.end(),
                   [](const CommRecord& a, const CommRecord& b) {
                     return a.t_post < b.t_post;
                   });
  return res;
}

}  // namespace tdg
