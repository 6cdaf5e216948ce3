#include "core/trace_merge.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "core/analysis.hpp"

namespace tdg {

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

  // The comm stream of the merged trace, stamped with the resolved ranks
  // and global task ids; timestamps are rebased once the offsets are known.
  // The messages are matched on it, so the pairs here are the ones any
  // later reader of the merged trace matches.
  ParsedTrace& out = res.trace;
  auto remap_id = [&](std::uint64_t id, std::size_t input) {
    return id == 0 ? 0
                   : static_cast<std::uint64_t>(res.ranks[input] + 1) *
                             kMergeRankStride +
                         id;
  };
  std::vector<std::size_t> comm_input;  // input of each out.comms entry
  for (std::size_t i = 0; i < n; ++i) {
    for (CommRecord c : inputs[i].comms) {
      c.self = res.ranks[i];
      c.task_id = remap_id(c.task_id, i);
      out.comms.push_back(c);
      comm_input.push_back(i);
    }
  }
  const MessageMatch match = match_messages(out.comms);
  res.matched_messages = match.pairs.size();
  res.unmatched_messages = match.unmatched;

  // Clock-offset estimation from the matched pairs: the minimum observed
  // one-way delay in each direction bounds the skew; with bidirectional
  // traffic the offset is the half-difference of the two minima
  // (NTP-style, assuming roughly symmetric minimum latency), with one-way
  // traffic the zero-latency bound. Offsets propagate over a BFS spanning
  // tree rooted, per connected component, at the lowest-ranked input.
  std::vector<std::int64_t> theta(n, 0);
  if (opts.estimate_clock_offsets && n > 1) {
    std::map<std::pair<std::size_t, std::size_t>, std::int64_t> dmin;
    for (const MessagePair& p : match.pairs) {
      const std::size_t si = comm_input[p.send];
      const std::size_t ri = comm_input[p.recv];
      if (si == ri) continue;  // self-send
      const std::int64_t d =
          static_cast<std::int64_t>(out.comms[p.recv].t_complete) -
          static_cast<std::int64_t>(out.comms[p.send].t_post);
      const auto e = std::make_pair(si, ri);
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
      for (const MessagePair& p : match.pairs) {
        const std::size_t si = comm_input[p.send];
        const std::size_t ri = comm_input[p.recv];
        if (si == ri) continue;
        const std::int64_t send_post =
            static_cast<std::int64_t>(out.comms[p.send].t_post) - theta[si];
        const std::int64_t recv_done =
            static_cast<std::int64_t>(out.comms[p.recv].t_complete) -
            theta[ri];
        if (send_post > recv_done) {
          theta[ri] -= send_post - recv_done;
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
  }
  for (std::size_t c = 0; c < out.comms.size(); ++c) {
    tmin = std::min(tmin, static_cast<std::int64_t>(out.comms[c].t_post) -
                              theta[comm_input[c]]);
  }
  if (tmin == std::numeric_limits<std::int64_t>::max()) tmin = 0;

  auto rebase = [&](std::uint64_t t, std::size_t input) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(t) -
                                      theta[input] - tmin);
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskRecord r : inputs[i].records) {
      r.task_id = remap_id(r.task_id, i);
      r.rank = res.ranks[i];
      r.t_create = rebase(r.t_create, i);
      r.t_ready = rebase(r.t_ready, i);
      r.t_start = rebase(r.t_start, i);
      r.t_end = rebase(r.t_end, i);
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
    // Barriers / scope clears are per-rank submission-order cutoffs; they
    // carry no meaning across ranks and are dropped from the merged view.
  }

  for (std::size_t c = 0; c < out.comms.size(); ++c) {
    out.comms[c].t_post = rebase(out.comms[c].t_post, comm_input[c]);
    out.comms[c].t_complete =
        rebase(out.comms[c].t_complete, comm_input[c]);
  }

  // Cross-rank message edges: the edges the comm-aware critical path
  // traverses.
  res.cross_rank_edges = message_edges(out.comms);
  out.edges.insert(out.edges.end(), res.cross_rank_edges.begin(),
                   res.cross_rank_edges.end());

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
