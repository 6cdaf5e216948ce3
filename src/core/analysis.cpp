#include "core/analysis.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/error.hpp"
#include "core/trace_export.hpp"

namespace tdg {

CriticalPath critical_path(std::span<const TaskRecord> records,
                           std::span<const TraceEdge> edges) {
  CriticalPath cp;
  if (records.empty()) return cp;

  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    index.emplace(records[i].task_id, i);
  }

  // Adjacency restricted to traced endpoints. Duplicate edges are
  // harmless for a longest-path computation (the relaxation is idempotent)
  // but would inflate indegrees symmetrically, so they can stay.
  const std::size_t n = records.size();
  std::vector<std::vector<std::uint32_t>> succs(n);
  std::vector<std::uint32_t> indegree(n, 0);
  for (const TraceEdge& e : edges) {
    auto pi = index.find(e.pred);
    auto si = index.find(e.succ);
    if (pi == index.end() || si == index.end()) continue;
    if (pi->second == si->second) continue;
    succs[pi->second].push_back(static_cast<std::uint32_t>(si->second));
    ++indegree[si->second];
  }

  auto dur = [&](std::size_t i) {
    return records[i].t_end >= records[i].t_start
               ? records[i].t_end - records[i].t_start
               : 0;
  };

  // Longest path by summed duration over a Kahn topological sweep.
  std::vector<std::uint64_t> dist(n);
  std::vector<std::int64_t> parent(n, -1);
  std::vector<std::uint32_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    dist[i] = dur(i);
    if (indegree[i] == 0) frontier.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.back();
    frontier.pop_back();
    ++visited;
    for (std::uint32_t v : succs[u]) {
      if (dist[u] + dur(v) > dist[v]) {
        dist[v] = dist[u] + dur(v);
        parent[v] = u;
      }
      if (--indegree[v] == 0) frontier.push_back(v);
    }
  }
  TDG_REQUIRE(visited == n, "trace edge set contains a cycle");

  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (dist[i] > dist[best]) best = i;
  }

  std::vector<std::size_t> path;
  for (std::int64_t i = static_cast<std::int64_t>(best); i >= 0;
       i = parent[static_cast<std::size_t>(i)]) {
    path.push_back(static_cast<std::size_t>(i));
  }
  std::reverse(path.begin(), path.end());

  std::uint64_t t_min = UINT64_MAX, t_max = 0;
  for (const TaskRecord& r : records) {
    t_min = std::min(t_min, r.t_start);
    t_max = std::max(t_max, r.t_end);
  }
  cp.span_seconds = static_cast<double>(t_max - t_min) * 1e-9;
  cp.length_seconds = static_cast<double>(dist[best]) * 1e-9;

  std::unordered_map<std::string, double> by_label;
  for (std::size_t i : path) {
    const TaskRecord& r = records[i];
    CriticalPathNode node;
    node.task_id = r.task_id;
    node.label = r.label;
    node.t_start = r.t_start;
    node.t_end = r.t_end;
    node.rank = r.rank;
    by_label[node.label] += node.seconds();
    if (!cp.nodes.empty() && cp.nodes.back().rank != node.rank) {
      ++cp.comm_hops;
    }
    cp.nodes.push_back(std::move(node));
  }
  cp.label_seconds.assign(by_label.begin(), by_label.end());
  std::sort(cp.label_seconds.begin(), cp.label_seconds.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return cp;
}

ParallelismProfile parallelism_profile(
    std::span<const TaskRecord> records) {
  ParallelismProfile p;
  if (records.empty()) return p;

  std::vector<std::pair<std::uint64_t, int>> ev;
  ev.reserve(records.size() * 2);
  for (const TaskRecord& r : records) {
    if (r.t_end < r.t_start) continue;
    ev.emplace_back(r.t_start, +1);
    ev.emplace_back(r.t_end, -1);
  }
  if (ev.empty()) return p;
  std::sort(ev.begin(), ev.end());

  std::uint32_t running = 0;
  std::uint64_t prev = ev.front().first;
  double weighted = 0;
  for (const auto& [t, d] : ev) {
    if (t > prev) {
      const double secs = static_cast<double>(t - prev) * 1e-9;
      if (p.seconds_at.size() <= running) {
        p.seconds_at.resize(running + 1, 0.0);
      }
      p.seconds_at[running] += secs;
      if (running > 0) p.busy_seconds += secs;
      weighted += static_cast<double>(running) * secs;
      prev = t;
    }
    if (d > 0) {
      ++running;
      p.max_concurrency = std::max(p.max_concurrency, running);
    } else {
      --running;
    }
  }
  p.span_seconds = static_cast<double>(ev.back().first - ev.front().first) *
                   1e-9;
  p.avg_concurrency =
      p.span_seconds > 0 ? weighted / p.span_seconds : 0.0;
  return p;
}

double discovery_execution_overlap(std::span<const TaskRecord> records) {
  if (records.size() < 2) return 0.0;
  std::uint64_t w_lo = UINT64_MAX, w_hi = 0;
  for (const TaskRecord& r : records) {
    w_lo = std::min(w_lo, r.t_create);
    w_hi = std::max(w_hi, r.t_create);
  }
  if (w_hi <= w_lo) return 0.0;

  // Merge execution intervals clipped to the discovery window.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  iv.reserve(records.size());
  for (const TaskRecord& r : records) {
    const std::uint64_t lo = std::max(r.t_start, w_lo);
    const std::uint64_t hi = std::min(r.t_end, w_hi);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  if (iv.empty()) return 0.0;
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0, cur_lo = iv.front().first,
                cur_hi = iv.front().second;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first <= cur_hi) {
      cur_hi = std::max(cur_hi, iv[i].second);
    } else {
      covered += cur_hi - cur_lo;
      cur_lo = iv[i].first;
      cur_hi = iv[i].second;
    }
  }
  covered += cur_hi - cur_lo;
  return static_cast<double>(covered) / static_cast<double>(w_hi - w_lo);
}

std::vector<TraceEdge> message_edges(std::span<const CommRecord> comms) {
  std::vector<TraceEdge> edges;
  for (const MessagePair& p : match_messages(comms).pairs) {
    const std::uint64_t pred = comms[p.send].task_id;
    const std::uint64_t succ = comms[p.recv].task_id;
    if (pred == 0 || succ == 0 || pred == succ) continue;
    edges.push_back(TraceEdge{pred, succ});
  }
  return edges;
}

std::vector<CommWaitEntry> comm_wait_by_label(
    std::span<const CommRecord> comms,
    std::span<const TaskRecord> records) {
  std::unordered_map<std::uint64_t, const char*> label_of;
  label_of.reserve(records.size());
  for (const TaskRecord& r : records) {
    label_of.emplace(r.task_id, r.label);
  }
  auto fallback = [](CommRecord::Kind k) {
    switch (k) {
      case CommRecord::Kind::Send: return "(send)";
      case CommRecord::Kind::Recv: return "(recv)";
      case CommRecord::Kind::Collective: return "(collective)";
    }
    return "(send)";
  };
  std::unordered_map<std::string, CommWaitEntry> by_label;
  for (const CommRecord& c : comms) {
    const char* label = fallback(c.kind);
    if (auto it = label_of.find(c.task_id);
        c.task_id != 0 && it != label_of.end() && it->second[0] != '\0') {
      label = it->second;
    }
    CommWaitEntry& e = by_label[label];
    if (e.label.empty()) e.label = label;
    ++e.ops;
    e.bytes += c.bytes;
    if (c.t_complete > c.t_post) {
      e.wait_seconds +=
          static_cast<double>(c.t_complete - c.t_post) * 1e-9;
    }
  }
  std::vector<CommWaitEntry> out;
  out.reserve(by_label.size());
  for (auto& [label, e] : by_label) out.push_back(std::move(e));
  std::sort(out.begin(), out.end(),
            [](const CommWaitEntry& a, const CommWaitEntry& b) {
              return a.wait_seconds > b.wait_seconds;
            });
  return out;
}

std::vector<RankOverlap> rank_overlap_matrix(
    std::span<const TaskRecord> records,
    std::span<const CommRecord> comms) {
  std::map<std::int32_t, std::vector<TaskRecord>> by_rank;
  for (const TaskRecord& r : records) by_rank[r.rank].push_back(r);
  std::map<std::int32_t, double> comm_wait;
  for (const CommRecord& c : comms) {
    if (c.kind == CommRecord::Kind::Send) continue;
    if (c.t_complete > c.t_post) {
      comm_wait[c.self] +=
          static_cast<double>(c.t_complete - c.t_post) * 1e-9;
    }
    by_rank[c.self];  // a rank that only communicated still gets a row
  }
  std::vector<RankOverlap> out;
  out.reserve(by_rank.size());
  for (const auto& [rank, recs] : by_rank) {
    RankOverlap row;
    row.rank = rank;
    row.tasks = recs.size();
    row.overlap = discovery_execution_overlap(recs);
    const ParallelismProfile p = parallelism_profile(recs);
    row.span_seconds = p.span_seconds;
    row.busy_seconds = p.busy_seconds;
    if (auto it = comm_wait.find(rank); it != comm_wait.end()) {
      row.comm_wait_seconds = it->second;
    }
    out.push_back(row);
  }
  return out;
}

}  // namespace tdg
