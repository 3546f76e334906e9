// Provenance-index query benchmark: latency of label-decoded closure
// queries (core::TraceQuery over the lazy index) against the TraceView
// BFS recompute a dashboard would otherwise run per request, plus the
// one-time cost of building the labels (a session's first Query()
// catches its index up with the whole store) and their memory
// footprint. Identity is asserted on every single query — a
// latency number for a wrong answer is worthless.
//
// Two workloads, because closure depth decides who wins:
//   * the simulated corpus, whose per-trigger subgraphs keep ancestor
//     closures at ~a window of spans (both paths run sub-microsecond;
//     the speedup is reported, not gated);
//   * a deep-lineage chain — the retraining-cascade shape where every
//     execution's closure is O(trace length) and interactive recompute
//     actually hurts. The >= 10x acceptance bar gates here.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report_common.h"
#include "core/provenance_index.h"
#include "metadata/metadata_store.h"
#include "metadata/trace.h"
#include "stream/replay.h"
#include "stream/session.h"

namespace mlprov {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int Run(int argc, char** argv) {
  bench::ReportContext ctx(argc, argv, "Provenance index query latency",
                           /*default_pipelines=*/12);
  // --query_sweeps=N  full all-executions query sweeps per pipeline
  //                   (more sweeps smooth scheduler noise).
  const int sweeps = static_cast<int>(
      bench::IntFlagOrDie(ctx.flags, "query_sweeps", 3));

  // Ingest every pipeline through a session once; the sessions then
  // serve all sweeps. Ingest never builds the index, so each session's
  // first Query() pays the whole build — timed here as the build cost.
  std::vector<stream::ProvenanceSession> sessions(
      ctx.corpus.pipelines.size());
  size_t total_execs = 0;
  size_t label_bytes = 0;
  double catchup_seconds = 0.0;
  for (size_t p = 0; p < ctx.corpus.pipelines.size(); ++p) {
    const common::Status replayed =
        stream::ReplayTrace(ctx.corpus.pipelines[p], sessions[p]);
    if (!replayed.ok()) {
      std::fprintf(stderr, "error: replay: %s\n",
                   replayed.ToString().c_str());
      return 1;
    }
    const auto t0 = Clock::now();
    (void)sessions[p].Query();
    catchup_seconds += Seconds(t0);
    total_execs += sessions[p].store().num_executions();
    label_bytes += sessions[p].index().label_bytes();
  }

  // ---- Corpus ancestor closures: indexed vs BFS recompute. ----
  // Aggregate sweep timing (one clock pair per sweep): both paths run
  // well under a microsecond per query here, so per-query clocks would
  // measure the clock. Identity is still checked query by query.
  size_t queries = 0;
  bool identical = true;
  double indexed_seconds = 0.0;
  double recompute_seconds = 0.0;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (auto& session : sessions) {
      const metadata::MetadataStore& store = session.store();
      metadata::TraceView view(&store);
      core::TraceQuery query = session.Query();
      const auto n =
          static_cast<metadata::ExecutionId>(store.num_executions());
      {
        const auto t0 = Clock::now();
        for (metadata::ExecutionId exec = 1; exec <= n; ++exec) {
          auto indexed = query.AncestorsOf(exec);
          identical = identical && indexed.ok();
        }
        indexed_seconds += Seconds(t0);
      }
      {
        const auto t0 = Clock::now();
        for (metadata::ExecutionId exec = 1; exec <= n; ++exec) {
          (void)view.AncestorExecutions(exec);
        }
        recompute_seconds += Seconds(t0);
      }
      for (metadata::ExecutionId exec = 1; exec <= n; ++exec) {
        auto indexed = query.AncestorsOf(exec);
        identical = identical && indexed.ok() &&
                    *indexed == view.AncestorExecutions(exec);
        ++queries;
      }
    }
  }
  const double speedup =
      indexed_seconds > 0.0 ? recompute_seconds / indexed_seconds : 0.0;
  std::printf(
      "corpus ancestor closures: %zu queries over %zu executions "
      "(%d sweep(s))\n",
      queries, total_execs, sweeps);
  std::printf("  indexed %.3fs vs recompute %.3fs -> %.1fx "
              "(shallow closures; reported, not gated)\n",
              indexed_seconds, recompute_seconds, speedup);
  std::printf("  indexed == recompute on every query: %s\n\n",
              identical ? "IDENTICAL" : "MISMATCH — BUG");
  ctx.report.Set("index_query.queries", static_cast<int64_t>(queries));
  ctx.report.Set("index_query.indexed_seconds", indexed_seconds);
  ctx.report.Set("index_query.recompute_seconds", recompute_seconds);
  ctx.report.Set("index_query.speedup", speedup);
  ctx.report.Set("index_query.identical", identical);

  // ---- Descendant queries: the column scan vs the BFS walk. ----
  bool desc_identical = true;
  double desc_indexed_seconds = 0.0;
  double desc_recompute_seconds = 0.0;
  for (auto& session : sessions) {
    const metadata::MetadataStore& store = session.store();
    metadata::TraceView view(&store);
    core::TraceQuery query = session.Query();
    const auto n =
        static_cast<metadata::ExecutionId>(store.num_executions());
    {
      const auto t0 = Clock::now();
      for (metadata::ExecutionId exec = 1; exec <= n; ++exec) {
        auto got = query.DescendantsOf(exec);
        desc_identical = desc_identical && got.ok();
      }
      desc_indexed_seconds += Seconds(t0);
    }
    {
      const auto t0 = Clock::now();
      for (metadata::ExecutionId exec = 1; exec <= n; ++exec) {
        (void)view.DescendantExecutions(exec);
      }
      desc_recompute_seconds += Seconds(t0);
    }
    for (metadata::ExecutionId exec = 1; exec <= n; ++exec) {
      auto got = query.DescendantsOf(exec);
      desc_identical = desc_identical && got.ok() &&
                       *got == view.DescendantExecutions(exec);
    }
  }
  const double desc_speedup = desc_indexed_seconds > 0.0
                                  ? desc_recompute_seconds /
                                        desc_indexed_seconds
                                  : 0.0;
  std::printf("descendants: indexed %.3fs vs recompute %.3fs "
              "-> %.1fx; identical: %s\n\n",
              desc_indexed_seconds, desc_recompute_seconds, desc_speedup,
              desc_identical ? "yes" : "MISMATCH — BUG");
  ctx.report.Set("index_query.desc_speedup", desc_speedup);
  ctx.report.Set("index_query.desc_identical", desc_identical);

  // ---- Deep-lineage chain: where interactive recompute hurts. ----
  // Every execution consumes its `--chain_window` predecessors'
  // outputs, so the ancestor closure of execution i is all of 1..i-1 —
  // the retraining-cascade shape. Mean closure is chain_execs/2; the
  // BFS pays queue + adjacency + visited per closure node on every
  // query, the index decodes 64 labels per word. This phase carries the
  // >= 10x acceptance bar.
  const auto chain_execs = static_cast<metadata::ExecutionId>(
      bench::IntFlagOrDie(ctx.flags, "chain_execs", 4000));
  const auto chain_window =
      bench::IntFlagOrDie(ctx.flags, "chain_window", 8);
  metadata::MetadataStore chain;
  for (metadata::ExecutionId i = 1; i <= chain_execs; ++i) {
    metadata::Execution e;
    e.type = metadata::ExecutionType::kTransform;
    e.start_time = i * 100;
    e.end_time = i * 100 + 50;
    const metadata::ExecutionId id = chain.PutExecution(e);
    for (int64_t back = 1; back <= chain_window && back < id; ++back) {
      // Artifact ids mirror execution ids: exec k outputs artifact k.
      const metadata::Event in{id, static_cast<metadata::ArtifactId>(
                                       id - back),
                               metadata::EventKind::kInput, e.start_time};
      if (!chain.PutEvent(in).ok()) return 1;
    }
    metadata::Artifact a;
    a.type = metadata::ArtifactType::kCustom;
    a.create_time = e.end_time;
    const metadata::ArtifactId out_id = chain.PutArtifact(a);
    const metadata::Event out{id, out_id, metadata::EventKind::kOutput,
                              e.end_time};
    if (!chain.PutEvent(out).ok()) return 1;
  }
  core::ProvenanceIndex chain_index(&chain);
  const auto b0 = Clock::now();
  chain_index.CatchUp();
  const double chain_build_seconds = Seconds(b0);
  core::TraceQuery chain_query(&chain, &chain_index);
  metadata::TraceView chain_view(&chain);
  bool chain_identical = true;
  double chain_indexed_seconds = 0.0;
  double chain_recompute_seconds = 0.0;
  {
    const auto t0 = Clock::now();
    for (metadata::ExecutionId exec = 1; exec <= chain_execs; ++exec) {
      auto got = chain_query.AncestorsOf(exec);
      chain_identical = chain_identical && got.ok();
    }
    chain_indexed_seconds = Seconds(t0);
  }
  {
    const auto t0 = Clock::now();
    for (metadata::ExecutionId exec = 1; exec <= chain_execs; ++exec) {
      (void)chain_view.AncestorExecutions(exec);
    }
    chain_recompute_seconds = Seconds(t0);
  }
  // Identity pass, outside the timed loops.
  for (metadata::ExecutionId exec = 1; exec <= chain_execs; ++exec) {
    auto got = chain_query.AncestorsOf(exec);
    chain_identical = chain_identical && got.ok() &&
                      *got == chain_view.AncestorExecutions(exec);
  }
  const double chain_speedup =
      chain_indexed_seconds > 0.0
          ? chain_recompute_seconds / chain_indexed_seconds
          : 0.0;
  std::printf(
      "deep-lineage chain (%lld executions, window %lld): "
      "labels built in %.3fs\n",
      static_cast<long long>(chain_execs),
      static_cast<long long>(chain_window), chain_build_seconds);
  std::printf(
      "  ancestor closures: indexed %.3fs vs recompute %.3fs -> %.1fx "
      "(acceptance: >= 10x)\n",
      chain_indexed_seconds, chain_recompute_seconds, chain_speedup);
  std::printf("  indexed == recompute on every query: %s\n\n",
              chain_identical ? "IDENTICAL" : "MISMATCH — BUG");
  ctx.report.Set("index_query.chain_execs",
                 static_cast<int64_t>(chain_execs));
  ctx.report.Set("index_query.chain_build_seconds", chain_build_seconds);
  ctx.report.Set("index_query.chain_indexed_seconds",
                 chain_indexed_seconds);
  ctx.report.Set("index_query.chain_recompute_seconds",
                 chain_recompute_seconds);
  ctx.report.Set("index_query.chain_speedup", chain_speedup);
  ctx.report.Set("index_query.chain_identical", chain_identical);

  // ---- Build cost and footprint of the labels themselves. ----
  std::printf(
      "labels: %.1f MiB for %zu executions (%.1f bytes/exec); "
      "built by the first Query() in %.3fs across %zu pipelines\n",
      static_cast<double>(label_bytes) / (1024.0 * 1024.0), total_execs,
      total_execs > 0
          ? static_cast<double>(label_bytes) /
                static_cast<double>(total_execs)
          : 0.0,
      catchup_seconds, sessions.size());
  ctx.report.Set("index_query.label_bytes",
                 static_cast<int64_t>(label_bytes));
  ctx.report.Set("index_query.executions",
                 static_cast<int64_t>(total_execs));
  ctx.report.Set("index_query.catchup_seconds", catchup_seconds);
  return (identical && desc_identical && chain_identical) ? 0 : 1;
}

}  // namespace
}  // namespace mlprov

int main(int argc, char** argv) { return mlprov::Run(argc, argv); }
