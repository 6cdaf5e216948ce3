// tdg-trace: post-mortem analysis of tdg trace files.
//
//   tdg-trace summary  <trace>          overall stats + parallelism profile
//   tdg-trace critpath <trace> [-n K]   critical path (top K nodes shown)
//   tdg-trace merge    <trace...> [-o OUT] [--no-offsets]
//                                       stitch per-rank traces into one
//                                       global timeline (clock offsets
//                                       estimated from matched messages)
//   tdg-trace timeline <trace>          per-rank overlap/utilization rows
//                                       + top comm-blocked task labels
//   tdg-trace verify   <trace> [-n K]   TDG soundness check (races, cycles)
//   tdg-trace lint     <trace> [--strict]   depend-clause lint
//
// Installing (or symlinking) the binary as `tdg-lint` makes it default to
// the lint command: `tdg-lint trace.json` == `tdg-trace lint trace.json`.
//
// <trace> is a Perfetto JSON file produced with TDG_TRACE=perfetto (or "-"
// for stdin); merge writes the same format. verify/lint need the
// depend-clause access stream, which every TDG_TRACE=perfetto trace
// carries. Exit status: 0 ok, 1 bad input, 2 usage error, 3 verification
// failed / lint --strict found issues. `<command> --help` prints a
// man-style page with the command's exit codes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include <vector>

#include "core/analysis.hpp"
#include "core/error.hpp"
#include "core/trace_export.hpp"
#include "core/trace_merge.hpp"
#include "core/verify.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> <trace-file> [options]\n"
               "\n"
               "commands:\n"
               "  summary  <trace>                 task/thread totals, "
               "parallelism profile,\n"
               "                                   discovery/execution "
               "overlap\n"
               "  critpath <trace> [-n K]          critical path; print the "
               "K longest nodes\n"
               "                                   (default 20, 0 = all)\n"
               "  merge    <trace...> [-o OUT] [--no-offsets]\n"
               "                                   stitch per-rank traces "
               "into one global\n"
               "                                   timeline: estimate clock "
               "offsets from\n"
               "                                   matched send/recv pairs, "
               "rebase, derive\n"
               "                                   cross-rank message edges\n"
               "  timeline <trace>                 per-rank overlap / "
               "utilization /\n"
               "                                   comm-wait rows and top "
               "comm-blocked\n"
               "                                   task labels\n"
               "  verify   <trace> [-n K]          prove every conflicting "
               "access pair is\n"
               "                                   ordered by the recorded "
               "graph; exit 3 on\n"
               "                                   determinacy races or "
               "cycles\n"
               "  lint     <trace> [--strict]      flag depend clauses that "
               "cost discovery\n"
               "                                   work for nothing; exit 3 "
               "only with --strict\n"
               "\n"
               "<trace> is the Perfetto JSON written under TDG_TRACE, or '-' "
               "for stdin.\nverify/lint read the depend-clause stream every "
               "such trace embeds.\nRun '%s <command> "
               "--help' for a command's full page and exit codes.\n",
               argv0, argv0);
  return 2;
}

/// Man-style page for one subcommand (`tdg-trace <command> --help`).
/// Every page documents the command's exit codes.
int sub_help(const std::string& cmd) {
  static const struct {
    const char* name;
    const char* synopsis;
    const char* description;
    const char* options;
    const char* exits;
  } pages[] = {
      {"summary", "tdg-trace summary <trace>",
       "Print task/edge/thread totals, the parallelism profile (span,\n"
       "busy time, average and peak concurrency), the discovery/execution\n"
       "overlap percentage, per-rank rows for merged multi-rank traces,\n"
       "communication statistics, and per-label body-time aggregates.",
       "  (none beyond the common trace argument)",
       "  0  summary printed\n"
       "  1  unreadable or malformed trace\n"
       "  2  usage error"},
      {"critpath", "tdg-trace critpath <trace> [-n K]",
       "Compute the critical path through the recorded task graph\n"
       "(dependence edges plus cross-rank message edges in merged traces)\n"
       "and print its length, the span's slack ratio, per-label\n"
       "attribution, and the K longest nodes.",
       "  -n K   print the K longest path nodes (default 20, 0 = all)",
       "  0  path printed\n"
       "  1  unreadable or malformed trace\n"
       "  2  usage error"},
      {"merge", "tdg-trace merge <trace...> [-o OUT] [--no-offsets]",
       "Stitch per-rank trace files into one global timeline: estimate\n"
       "per-rank clock offsets from matched send/recv pairs, rebase all\n"
       "timestamps, and derive cross-rank message edges. Writes Perfetto\n"
       "JSON.",
       "  -o OUT            output file ('-' = stdout, the default)\n"
       "  --no-offsets      keep each rank's own clock (skip estimation)",
       "  0  merged trace written\n"
       "  1  unreadable input or unwritable output\n"
       "  2  usage error"},
      {"timeline", "tdg-trace timeline <trace>",
       "Print per-rank discovery/execution overlap, span, busy time and\n"
       "communication wait, plus the task labels most blocked on\n"
       "communication.",
       "  (none beyond the common trace argument)",
       "  0  timeline printed\n"
       "  1  unreadable or malformed trace\n"
       "  2  usage error"},
      {"verify", "tdg-trace verify <trace> [-n K]",
       "Offline TDG soundness check: re-derive the required ordering\n"
       "relation from the embedded depend-clause stream and prove or\n"
       "refute every conflicting access pair against the recorded graph,\n"
       "including cross-base pairs whose declared byte ranges overlap.\n"
       "This is the check TDG_VERIFY runs at each taskwait, over the\n"
       "whole trace and every task (the runtime's sample mode checks one\n"
       "task in 16, so a trace catches what sampling missed).",
       "  -n K   materialize at most K findings (totals keep counting)",
       "  0  graph is sound\n"
       "  1  trace unreadable or lacks the depend-clause stream\n"
       "  2  usage error\n"
       "  3  determinacy races or a cycle found"},
      {"lint", "tdg-trace lint <trace> [--strict]",
       "Depend-clause lint (the user-side half of paper optimization (a)):\n"
       "flag redundant inout clauses, dead dependences, singleton\n"
       "inoutsets, and same-task clause items whose declared byte ranges\n"
       "overlap under different base addresses (an aliasing mistake\n"
       "discovery cannot order). Advisory by default.",
       "  --strict   findings change the exit status (CI gating)",
       "  0  clean (or findings without --strict)\n"
       "  1  trace unreadable or lacks the depend-clause stream\n"
       "  2  usage error\n"
       "  3  findings present and --strict given"},
  };
  for (const auto& p : pages) {
    if (cmd != p.name) continue;
    std::printf(
        "NAME\n    tdg-trace %s\n\nSYNOPSIS\n    %s\n\nDESCRIPTION\n",
        p.name, p.synopsis);
    std::printf("    %s\n", p.description);
    std::printf("\nOPTIONS\n%s\n", p.options);
    std::printf("\nEXIT STATUS\n%s\n", p.exits);
    return 0;
  }
  std::fprintf(stderr, "tdg-trace: no help page for '%s'\n", cmd.c_str());
  return 2;
}

tdg::ParsedTrace load(const std::string& path) {
  if (path == "-") return tdg::parse_perfetto(std::cin);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw tdg::UsageError("cannot open trace file: " + path);
  }
  return tdg::parse_perfetto(in);
}

std::string fmt_seconds(double s) {
  char buf[64];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  }
  return buf;
}

/// Comm-stream digest shared by summary and timeline: op counts, matched
/// cross-rank messages, and total recv/collective wait.
void print_comm_stats(const tdg::ParsedTrace& trace) {
  if (trace.comms.empty()) return;
  std::size_t sends = 0, recvs = 0, colls = 0;
  std::uint64_t bytes = 0;
  double wait_seconds = 0;
  for (const tdg::CommRecord& c : trace.comms) {
    switch (c.kind) {
      case tdg::CommRecord::Kind::Send: ++sends; break;
      case tdg::CommRecord::Kind::Recv: ++recvs; break;
      case tdg::CommRecord::Kind::Collective: ++colls; break;
    }
    bytes += c.bytes;
    if (c.kind != tdg::CommRecord::Kind::Send) {
      wait_seconds +=
          static_cast<double>(c.t_complete - c.t_post) * 1e-9;
    }
  }
  std::printf("comm ops: %zu (sends %zu, recvs %zu, collectives %zu), "
              "%llu bytes\n",
              trace.comms.size(), sends, recvs, colls,
              static_cast<unsigned long long>(bytes));
  std::printf("comm wait: %s (recv + collective spans)\n",
              fmt_seconds(wait_seconds).c_str());
  const std::vector<tdg::TraceEdge> msg = tdg::message_edges(trace.comms);
  std::printf("cross-rank message edges: %zu\n", msg.size());
}

int cmd_summary(const tdg::ParsedTrace& trace) {
  const auto& rec = trace.records;
  std::printf("tasks:    %zu\n", rec.size());
  std::printf("edges:    %zu\n", trace.edges.size());
  if (rec.empty() && trace.comms.empty()) return 0;
  if (rec.empty()) {
    print_comm_stats(trace);
    return 0;
  }

  std::uint32_t nthreads = 0;
  std::uint32_t iterations = 0;
  double body_seconds = 0;
  std::map<std::string, std::pair<std::size_t, double>> by_label;
  for (const tdg::TaskRecord& r : rec) {
    nthreads = std::max(nthreads, r.thread + 1);
    iterations = std::max(iterations, r.iteration + 1);
    const double s = static_cast<double>(r.t_end - r.t_start) * 1e-9;
    body_seconds += s;
    auto& agg = by_label[r.label];
    ++agg.first;
    agg.second += s;
  }
  std::printf("threads:  %u\n", nthreads);
  if (iterations > 1) std::printf("iterations: %u\n", iterations);

  const tdg::ParallelismProfile p = tdg::parallelism_profile(rec);
  std::printf("span:     %s\n", fmt_seconds(p.span_seconds).c_str());
  std::printf("busy:     %s (%.1f%% of span)\n",
              fmt_seconds(p.busy_seconds).c_str(),
              p.span_seconds > 0 ? 100.0 * p.busy_seconds / p.span_seconds
                                 : 0.0);
  std::printf("work:     %s (sum of task bodies)\n",
              fmt_seconds(body_seconds).c_str());
  std::printf("parallelism: avg %.2f, max %u\n", p.avg_concurrency,
              p.max_concurrency);
  std::printf("discovery/execution overlap: %.1f%%\n",
              100.0 * tdg::discovery_execution_overlap(rec));
  print_comm_stats(trace);

  const std::vector<tdg::RankOverlap> rows =
      tdg::rank_overlap_matrix(rec, trace.comms);
  if (rows.size() > 1) {
    std::printf("\nper rank:\n");
    std::printf("  %-6s %8s %10s %12s %12s %12s\n", "rank", "tasks",
                "overlap", "span", "busy", "comm wait");
    for (const tdg::RankOverlap& r : rows) {
      std::printf("  %-6d %8zu %9.1f%% %12s %12s %12s\n", r.rank, r.tasks,
                  100.0 * r.overlap, fmt_seconds(r.span_seconds).c_str(),
                  fmt_seconds(r.busy_seconds).c_str(),
                  fmt_seconds(r.comm_wait_seconds).c_str());
    }
  }

  std::printf("\nby label:\n");
  std::printf("  %-24s %10s %14s\n", "label", "tasks", "body time");
  for (const auto& [label, agg] : by_label) {
    std::printf("  %-24s %10zu %14s\n",
                label.empty() ? "(unnamed)" : label.c_str(), agg.first,
                fmt_seconds(agg.second).c_str());
  }
  return 0;
}

int cmd_critpath(const tdg::ParsedTrace& trace, std::size_t top) {
  if (trace.edges.empty() && trace.records.size() > 1) {
    std::fprintf(stderr,
                 "tdg-trace: warning: trace has no dependence edges (was it "
                 "recorded with\ntdg-trace: flow arrows enabled?); critical "
                 "path degenerates to the longest task\n");
  }
  const tdg::CriticalPath cp =
      tdg::critical_path(trace.records, trace.edges);
  std::printf("critical path: %zu tasks, %s\n", cp.nodes.size(),
              fmt_seconds(cp.length_seconds).c_str());
  std::printf("trace span:    %s (slack ratio %.2f)\n",
              fmt_seconds(cp.span_seconds).c_str(), cp.slack_ratio());
  if (cp.comm_hops > 0) {
    std::printf("comm hops:     %zu (cross-rank message edges on the "
                "path)\n",
                cp.comm_hops);
  }
  if (!cp.label_seconds.empty()) {
    std::printf("\nby label:\n");
    for (const auto& [label, s] : cp.label_seconds) {
      std::printf("  %-24s %14s  (%.1f%%)\n",
                  label.empty() ? "(unnamed)" : label.c_str(),
                  fmt_seconds(s).c_str(),
                  cp.length_seconds > 0 ? 100.0 * s / cp.length_seconds
                                        : 0.0);
    }
  }
  if (!cp.nodes.empty()) {
    const std::size_t n =
        top == 0 ? cp.nodes.size() : std::min(top, cp.nodes.size());
    std::printf("\npath (%zu of %zu nodes):\n", n, cp.nodes.size());
    const bool multi_rank = cp.comm_hops > 0;
    for (std::size_t i = 0; i < n; ++i) {
      const tdg::CriticalPathNode& node = cp.nodes[i];
      if (multi_rank) {
        std::printf("  #%-6llu rank %-4d %-24s %14s\n",
                    static_cast<unsigned long long>(node.task_id),
                    node.rank,
                    node.label.empty() ? "(unnamed)" : node.label.c_str(),
                    fmt_seconds(node.seconds()).c_str());
      } else {
        std::printf("  #%-6llu %-24s %14s\n",
                    static_cast<unsigned long long>(node.task_id),
                    node.label.empty() ? "(unnamed)" : node.label.c_str(),
                    fmt_seconds(node.seconds()).c_str());
      }
    }
    if (n < cp.nodes.size()) {
      std::printf("  ... (%zu more; use -n 0 for all)\n",
                  cp.nodes.size() - n);
    }
  }
  return 0;
}

int cmd_timeline(const tdg::ParsedTrace& trace) {
  const std::vector<tdg::RankOverlap> rows =
      tdg::rank_overlap_matrix(trace.records, trace.comms);
  if (rows.empty()) {
    std::printf("timeline: empty trace\n");
    return 0;
  }
  std::printf("per-rank discovery/execution overlap:\n");
  std::printf("  %-6s %8s %10s %12s %12s %12s\n", "rank", "tasks",
              "overlap", "span", "busy", "comm wait");
  for (const tdg::RankOverlap& r : rows) {
    std::printf("  %-6d %8zu %9.1f%% %12s %12s %12s\n", r.rank, r.tasks,
                100.0 * r.overlap, fmt_seconds(r.span_seconds).c_str(),
                fmt_seconds(r.busy_seconds).c_str(),
                fmt_seconds(r.comm_wait_seconds).c_str());
  }
  print_comm_stats(trace);
  const std::vector<tdg::CommWaitEntry> waits =
      tdg::comm_wait_by_label(trace.comms, trace.records);
  if (!waits.empty()) {
    std::printf("\ntop comm-blocked labels:\n");
    std::printf("  %-24s %8s %12s %14s\n", "label", "ops", "bytes",
                "wait");
    std::size_t shown = 0;
    for (const tdg::CommWaitEntry& w : waits) {
      std::printf("  %-24s %8zu %12llu %14s\n",
                  w.label.empty() ? "(unnamed)" : w.label.c_str(), w.ops,
                  static_cast<unsigned long long>(w.bytes),
                  fmt_seconds(w.wait_seconds).c_str());
      if (++shown == 10) break;
    }
  }
  return 0;
}

int cmd_merge(const std::vector<std::string>& paths,
              const std::string& out_path, bool estimate_offsets) {
  std::vector<tdg::ParsedTrace> inputs;
  inputs.reserve(paths.size());
  for (const std::string& p : paths) inputs.push_back(load(p));
  tdg::MergeOptions mopts;
  mopts.estimate_clock_offsets = estimate_offsets;
  tdg::MergeResult res = tdg::merge_traces(std::move(inputs), mopts);
  for (std::size_t i = 0; i < res.ranks.size(); ++i) {
    std::fprintf(stderr,
                 "tdg-trace: input %zu (%s): rank %d, clock offset "
                 "%+lld ns\n",
                 i, paths[i].c_str(), res.ranks[i],
                 static_cast<long long>(res.offset_ns[i]));
  }
  std::fprintf(stderr,
               "tdg-trace: matched %zu message pair%s (%zu unmatched), "
               "derived %zu cross-rank edges\n",
               res.matched_messages, res.matched_messages == 1 ? "" : "s",
               res.unmatched_messages, res.cross_rank_edges.size());
  const tdg::ParsedTrace& trace = res.trace;
  std::ostringstream body;
  tdg::write_perfetto(body, trace.records, trace.edges, trace.accesses,
                      trace.barriers, trace.scope_clears, trace.comms);
  if (out_path.empty() || out_path == "-") {
    std::cout << body.str();
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw tdg::UsageError("cannot open output file: " + out_path);
    out << body.str();
    std::fprintf(stderr, "tdg-trace: wrote %s (%zu records, %zu edges)\n",
                 out_path.c_str(), trace.records.size(),
                 trace.edges.size());
  }
  return 0;
}

/// True when the trace has no embedded depend clauses — nothing for
/// verify/lint to work on. (The caller reports the remedy.)
bool require_accesses(const tdg::ParsedTrace& trace, const char* cmd) {
  if (!trace.accesses.empty()) return true;
  std::fprintf(stderr,
               "tdg-trace: %s: trace has no depend-clause accesses; "
               "re-record it with\ntdg-trace: TDG_TRACE=perfetto "
               "so the clause stream is embedded\n",
               cmd);
  return false;
}

int cmd_verify(const tdg::ParsedTrace& trace, std::size_t max_reports) {
  if (!require_accesses(trace, "verify")) return 1;
  tdg::VerifyOptions opts;
  if (max_reports != 0) opts.max_reports = max_reports;
  const tdg::VerifyReport rep =
      tdg::verify_tdg(trace.accesses, trace.edges, trace.barriers,
                      trace.scope_clears, opts);
  std::printf("%s\n", rep.summary().c_str());
  return rep.ok() ? 0 : 3;
}

int cmd_lint(const tdg::ParsedTrace& trace, bool strict) {
  if (!require_accesses(trace, "lint")) return 1;
  const std::vector<tdg::LintFinding> findings =
      tdg::lint_clauses(trace.accesses);
  for (const tdg::LintFinding& f : findings) {
    std::printf("%s: %s\n", tdg::lint_kind_name(f.kind), f.message.c_str());
  }
  std::printf("%zu depend-clause lint finding%s in %zu accesses\n",
              findings.size(), findings.size() == 1 ? "" : "s",
              trace.accesses.size());
  return findings.empty() || !strict ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  // Basename dispatch: a binary (or symlink) named tdg-lint is the lint
  // command itself, taking the trace as its first argument.
  const char* slash = std::strrchr(argv[0], '/');
  const char* base = slash != nullptr ? slash + 1 : argv[0];
  const bool lint_alias = std::strcmp(base, "tdg-lint") == 0;

  // `tdg-trace --help` / `tdg-trace <command> --help` before the argc
  // floor: a help request needs no trace argument.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      if (lint_alias) return sub_help("lint");
      if (argc >= 2 && argv[1][0] != '-' && std::strcmp(argv[1], "help")) {
        return sub_help(argv[1]);
      }
      usage(argv[0]);
      return 0;
    }
  }
  if (!lint_alias && argc >= 3 && std::strcmp(argv[1], "help") == 0) {
    return sub_help(argv[2]);
  }

  if (argc < (lint_alias ? 2 : 3)) return usage(argv[0]);
  const std::string cmd = lint_alias ? "lint" : argv[1];

  std::size_t top = 20;
  std::string out_path;
  bool strict = false;
  bool estimate_offsets = true;
  // merge accepts several input traces; every other command exactly one.
  std::vector<std::string> paths{argv[lint_alias ? 1 : 2]};
  for (int i = lint_alias ? 2 : 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-n" && i + 1 < argc) {
      top = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--strict") {
      strict = true;
    } else if (a == "--no-offsets") {
      estimate_offsets = false;
    } else if (cmd == "merge" && (a.empty() || a[0] != '-')) {
      paths.push_back(a);
    } else {
      std::fprintf(stderr, "tdg-trace: unknown option: %s\n", a.c_str());
      return usage(argv[0]);
    }
  }

  try {
    if (cmd == "merge") {
      return cmd_merge(paths, out_path, estimate_offsets);
    }
    const tdg::ParsedTrace trace = load(paths.front());
    if (cmd == "summary") return cmd_summary(trace);
    if (cmd == "critpath") return cmd_critpath(trace, top);
    if (cmd == "timeline") return cmd_timeline(trace);
    if (cmd == "verify") return cmd_verify(trace, top);
    if (cmd == "lint") return cmd_lint(trace, strict);
    std::fprintf(stderr, "tdg-trace: unknown command: %s\n", cmd.c_str());
    return usage(argv[0]);
  } catch (const tdg::UsageError& e) {
    std::fprintf(stderr, "tdg-trace: %s\n", e.what());
    return 1;
  }
}
